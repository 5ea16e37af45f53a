"""soficlab: exact computation with finite pmp groupoids, their inverse
monoids of bisections, and partial-injection approximation ladders."""

__version__ = "0.1.0"

from .groupoid import (
    Arrow,
    Component,
    FiniteGroupoid,
    RawGroupoid,
    convex_combination,
    corner_restriction,
    decompose,
    fiber_decomposition,
    from_group_action,
    full_relation,
    group_groupoid,
    connected_groupoid,
    make_groupoid,
    product_groupoid,
    render_raw,
    validate_raw,
)
from .semigroup import (
    Bisection,
    bisection,
    empty_bisection,
    extend_to_full_group,
    idempotent,
    unit_bisection,
)
from .symmetric import DistortionReport, ladder_profile
from .constructions import (
    PackedProduct,
    SemigroupMap,
    TransversalSystem,
    block_components,
    embed_connected,
    embed_convex,
    embed_convex_pair,
    find_transversals,
    finite_index_map,
    general_map,
    identity_map,
    product_embedding,
    rectangle_decompose,
    restrict_almost_morphism,
    step_map,
)
from .verify import (
    AlmostMorphismReport,
    EmbeddingReport,
    SuiteBudget,
    check_almost_morphism,
    check_embedding,
    run_suite,
)
