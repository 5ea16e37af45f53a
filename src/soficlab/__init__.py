"""soficlab: exact computation with finite pmp groupoids, their inverse
monoids of bisections, and partial-injection approximation ladders.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a process that needs
only the groupoid layer, such as `soficlab validate`, never loads the
certificate layers.
"""

__version__ = "0.1.0"

_SUBMODULES = ("cayley", "constructions", "groupoid", "semigroup", "symmetric", "verify")

_EXPORTS = {
    "groupoid": (
        "Arrow",
        "Component",
        "FiniteGroupoid",
        "RawGroupoid",
        "convex_combination",
        "decompose",
        "full_relation",
        "group_groupoid",
        "connected_groupoid",
        "make_groupoid",
        "product_groupoid",
        "render_raw",
        "validate_raw",
    ),
    "semigroup": (
        "Bisection",
        "bisection",
        "empty_bisection",
        "extend_to_full_group",
        "idempotent",
        "unit_bisection",
    ),
    "symmetric": ("DistortionReport",),
    "constructions": (
        "PackedProduct",
        "SemigroupMap",
        "TransversalSystem",
        "block_components",
        "compose",
        "embed_connected",
        "embed_convex",
        "embed_convex_pair",
        "find_transversals",
        "finite_index_map",
        "general_map",
        "identity_map",
        "rectangle_decompose",
        "restrict_almost_morphism",
        "step_map",
        "tensor",
    ),
    "verify": (
        "AlmostMorphismReport",
        "EmbeddingReport",
        "SuiteBudget",
        "check_almost_morphism",
        "check_embedding",
        "run_suite",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULES, *_ORIGIN]


def __getattr__(name):
    # __import__ takes the C import path, so `python -X importtime` logs the
    # modules loaded here (importlib.import_module would hide them)
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{_ORIGIN[name]}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
