"""Finite pmp groupoids.

The canonical in-memory form is a weighted disjoint union of connected pieces,
each a finite group crossed with the full equivalence relation on a finite
base set. Raw composition tables exist only at the ingestion boundary. A
table is accepted as a groupoid when it maps isomorphically onto the normal
form it determines, which is then its decomposition; only a table that does
not is swept for its axiom violations.

All measures are exact rationals. Every value here is immutable after
construction and every operation is a pure function. Records without
checks are NamedTuples; the checked values (Component, FiniteGroupoid and
the certificate layers' own) subclass Value, whose __init__ checks once.
No class has its methods generated when it is defined: that would compile
code per class and load inspect and ast into every CLI process.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterator, NamedTuple

from . import cayley


class MalformedInputError(ValueError):
    """Structurally broken input (dangling ids, bad shapes), as opposed to
    a well-formed table that violates the groupoid axioms."""


class PmpViolationError(ValueError):
    """Unit masses incompatible with measure preservation."""


class Value:
    """An immutable checked value. A subclass names its fields in _fields
    and sets them once with _set, in that order, in an __init__ that checks
    them; equality (within one class), hash and repr come from the fields,
    and assigning or deleting an attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = property(attrgetter(*cls._fields))  # the field values, read in C

    def _set(self, *values) -> None:
        # object.__setattr__, not __dict__.update: a materialized __dict__
        # would make every later attribute read slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Arrow(NamedTuple):
    comp: int
    g: int
    y_to: int
    y_from: int

    @property
    def source(self) -> tuple[int, int]:
        return (self.comp, self.y_from)

    @property
    def range(self) -> tuple[int, int]:
        return (self.comp, self.y_to)

    def is_unit(self) -> bool:
        return self.g == 0 and self.y_to == self.y_from


Unit = tuple[int, int]


@lru_cache(maxsize=None)
def _inverses(table: cayley.Table) -> tuple[int, ...]:
    return cayley.inverses(table)


@lru_cache(maxsize=None)
def _table_violations(table: cayley.Table) -> tuple[str, ...]:
    """cayley.table_violations of a normalized table, once per distinct
    table: decompose checks each isotropy table in _normal_form and again
    when it builds the Component."""
    return tuple(cayley.table_violations(table))


class Component(Value):
    """One connected piece: group Cayley table, base size, exact weight."""

    _fields = ("table", "base_size", "weight")

    def __init__(self, table: cayley.Table, base_size: int, weight: Fraction):
        self._set(cayley.normalize_table(table), base_size, Fraction(weight))
        problems = _table_violations(self.table)
        if problems:
            raise ValueError(f"not a group table: {problems[0]}")
        if self.base_size < 1:
            raise ValueError("base_size must be positive")
        if self.weight <= 0:
            raise ValueError("component weight must be positive")

    @property
    def group_order(self) -> int:
        return len(self.table)

    def sort_key(self):
        return (len(self.table), self.base_size, self.weight)


class FiniteGroupoid(Value):
    """Normal form groupoid: components in canonical order, weights summing to 1."""

    _fields = ("components",)

    def __init__(self, components: tuple[Component, ...]):
        self._set(tuple(components))
        if not self.components:
            raise ValueError("a groupoid needs at least one component")
        if sum(c.weight for c in self.components) != 1:
            raise ValueError("component weights must sum to 1 exactly")
        keys = [c.sort_key() for c in self.components]
        if keys != sorted(keys):
            raise ValueError("components not in canonical order; use make_groupoid")

    def unit_mass(self, comp: int) -> Fraction:
        c = self.components[comp]
        return c.weight / c.base_size

    def units(self) -> Iterator[Unit]:
        for i, c in enumerate(self.components):
            for y in range(c.base_size):
                yield (i, y)

    @property
    def n_units(self) -> int:
        return sum(c.base_size for c in self.components)

    @property
    def n_arrows(self) -> int:
        return sum(len(c.table) * c.base_size**2 for c in self.components)

    def arrows(self) -> Iterator[Arrow]:
        for i, c in enumerate(self.components):
            for g in range(len(c.table)):
                for y_to in range(c.base_size):
                    for y_from in range(c.base_size):
                        yield Arrow(i, g, y_to, y_from)

    def has_arrow(self, a: Arrow) -> bool:
        if not 0 <= a.comp < len(self.components):
            return False
        c = self.components[a.comp]
        return 0 <= a.g < len(c.table) and 0 <= a.y_to < c.base_size and 0 <= a.y_from < c.base_size

    def unit_arrow(self, unit: Unit) -> Arrow:
        return Arrow(unit[0], 0, unit[1], unit[1])

    def mass(self, units) -> Fraction:
        return sum((self.unit_mass(c) for c, _ in units), Fraction(0))

    def mul(self, a: Arrow, b: Arrow) -> Arrow | None:
        """Product ab when defined (s(a) = r(b)), else None."""
        if a.comp != b.comp or a.y_from != b.y_to:
            return None
        table = self.components[a.comp].table
        return Arrow(a.comp, table[a.g][b.g], a.y_to, b.y_from)

    def inv(self, a: Arrow) -> Arrow:
        inv_g = _inverses(self.components[a.comp].table)[a.g]
        return Arrow(a.comp, inv_g, a.y_from, a.y_to)


def make_groupoid(components) -> FiniteGroupoid:
    """Canonically ordered groupoid from components in any order."""
    return _assemble([c if isinstance(c, Component) else Component(*c) for c in components])[0]


def _assemble(components: list[Component]) -> tuple[FiniteGroupoid, list[int]]:
    """The canonically ordered groupoid of components in any order, and the
    position of each input component in it, by one stable sort."""
    order = sorted(range(len(components)), key=lambda i: components[i].sort_key())
    position = [0] * len(components)
    for new, old in enumerate(order):
        position[old] = new
    return FiniteGroupoid(tuple(components[i] for i in order)), position


def full_relation(n: int) -> FiniteGroupoid:
    """The groupoid of the full equivalence relation on n points."""
    return make_groupoid([Component(cayley.trivial(), n, Fraction(1))])


def group_groupoid(table) -> FiniteGroupoid:
    return make_groupoid([Component(cayley.normalize_table(table), 1, Fraction(1))])


def connected_groupoid(table, base_size: int) -> FiniteGroupoid:
    return make_groupoid([Component(cayley.normalize_table(table), base_size, Fraction(1))])


def point_groupoid() -> FiniteGroupoid:
    return full_relation(1)


# ---------------------------------------------------------------------------
# Raw composition tables


def _id_key(x):
    return (0, x, "") if isinstance(x, int) else (1, 0, str(x))


class RawGroupoid(NamedTuple):
    """Groupoid as an explicit table: arrow list plus a partial product.

    Unit arrows are marked by carrying the id of their unit. masses, when
    present, give the measure of each unit.
    """

    units: tuple
    arrows: tuple  # (arrow id, source unit, range unit)
    compose: dict  # (a, b) -> ab, defined exactly on composable pairs
    masses: dict | None = None


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


def _raw_structure(raw: RawGroupoid):
    """Index a raw table, raising MalformedInputError on structural problems.

    Compose entries are unique (parse_raw rejects a pair given twice) and
    each is checked to be composable, so the table is complete exactly
    when it has one entry per composable pair: the sum over units u of
    |src^-1(u)| * |rng^-1(u)|. Only a table short of that count is
    searched for the pair that the error names.
    """
    units = list(raw.units)
    if not units:
        raise MalformedInputError("no units")
    if len(set(units)) != len(units):
        raise MalformedInputError("duplicate unit ids")
    unit_set = set(units)

    src, rng = {}, {}
    for entry in raw.arrows:
        aid, s, r = entry
        if aid in src:
            raise MalformedInputError(f"duplicate arrow id {aid!r}")
        if s not in unit_set or r not in unit_set:
            raise MalformedInputError(f"arrow {aid!r} has dangling endpoint")
        src[aid], rng[aid] = s, r
    for u in units:
        if u not in src or src[u] != u or rng[u] != u:
            raise MalformedInputError(f"unit {u!r} lacks its marked unit arrow")

    for (a, b), c in raw.compose.items():
        for x in (a, b, c):
            if x not in src:
                raise MalformedInputError(f"compose entry references unknown arrow {x!r}")
        if src[a] != rng[b]:
            raise MalformedInputError(f"compose defined on non-composable pair ({a!r},{b!r})")
    arriving = Counter(rng.values())
    if len(raw.compose) != sum(n * arriving[u] for u, n in Counter(src.values()).items()):
        for a in src:
            for b in src:
                if src[a] == rng[b] and (a, b) not in raw.compose:
                    raise MalformedInputError(f"compose missing on composable pair ({a!r},{b!r})")
    return src, rng


class _NormalForm(NamedTuple):
    pieces: list  # per connected piece, its units in id order
    tables: list  # per piece, the Cayley table of the isotropy group at its base
    iso: dict  # raw arrow id -> Arrow, whose comp indexes pieces


def _normal_form(raw: RawGroupoid, src: dict, rng: dict) -> _NormalForm | None:
    """The normal form of a complete raw table with the map onto it, or None.

    Each connected piece is based at its lowest unit. The transversal tau_u
    is the lowest arrow from the base to u (the unit arrow at the base), and
    an arrow a: x -> y goes to the isotropy element tau_y^-1 a tau_x. The
    result is returned only if every lookup succeeds, each isotropy table is
    a group, each marked unit goes to a unit arrow, the map is injective onto
    the arrows of the normal form, and it carries every compose entry to the
    product of the images. The map keeps sources and ranges by construction,
    so it is then an isomorphism of partial products onto a groupoid, and
    the raw table satisfies every axiom with its marked units. Every
    groupoid passes, so None means that some axiom fails.
    """
    parent = {u: u for u in raw.units}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a in src:
        ra, rb = find(src[a]), find(rng[a])
        if ra != rb:
            parent[ra] = rb
    blocks = {}
    for u in raw.units:
        blocks.setdefault(find(u), []).append(u)
    pieces = sorted(
        (sorted(us, key=_id_key) for us in blocks.values()), key=lambda us: _id_key(us[0])
    )

    hom = {}  # (source, range) -> arrow ids, in table order
    for a in src:
        hom.setdefault((src[a], rng[a]), []).append(a)
    comp = raw.compose
    tables, elems, place, tau, tau_inv = [], [], {}, {}, {}
    try:
        for k, units in enumerate(pieces):
            base = units[0]
            iso_ids = [base] + sorted((a for a in hom[(base, base)] if a != base), key=_id_key)
            elem = {a: i for i, a in enumerate(iso_ids)}
            table = tuple(tuple(elem[comp[(x, y)]] for y in iso_ids) for x in iso_ids)
            if _table_violations(table):
                return None
            tables.append(table)
            elems.append(elem)
            tau[base] = tau_inv[base] = base
            for pos, u in enumerate(units):
                place[u] = (k, pos)
                if u != base:
                    t = tau[u] = min(hom[(base, u)], key=_id_key)
                    tau_inv[u] = next(b for b in hom[(u, base)] if comp[(b, t)] == base)
        iso = {}
        for a, x in src.items():
            y = rng[a]
            k, px = place[x]
            iso[a] = Arrow(k, elems[k][comp[(tau_inv[y], comp[(a, tau[x])])]], place[y][1], px)
    except (KeyError, StopIteration):
        return None

    if any(iso[u].g for u in raw.units):
        return None
    n_arrows = sum(len(t) * len(us) ** 2 for t, us in zip(tables, pieces))
    if len(iso) != n_arrows or len(set(iso.values())) != n_arrows:
        return None
    for (a, b), c in comp.items():
        ia, ib = iso[a], iso[b]
        if iso[c] != (ia.comp, tables[ia.comp][ia.g][ib.g], ia.y_to, ib.y_from):
            return None
    return _NormalForm(pieces, tables, iso)


def _axiom_sweep(raw: RawGroupoid, src: dict, rng: dict) -> ValidationReport:
    """Every axiom violation of a complete raw table, by exhaustion."""
    comp = raw.compose
    violations = []

    for (a, b), c in comp.items():
        if src[c] != src[b] or rng[c] != rng[a]:
            violations.append(f"composition endpoints at ({a!r},{b!r})")

    for a in src:
        if comp.get((a, src[a])) != a or comp.get((rng[a], a)) != a:
            violations.append(f"unit law at {a!r}")

    arrows_by_rng = {}
    for a in src:
        arrows_by_rng.setdefault(rng[a], []).append(a)
    for a in src:
        for b in arrows_by_rng.get(src[a], ()):
            ab = comp[(a, b)]
            for c in arrows_by_rng.get(src[b], ()):
                left = comp.get((ab, c))
                right = comp.get((a, comp[(b, c)]))
                if left is None or right is None:
                    continue  # endpoint violation already reported above
                if left != right:
                    violations.append(f"associativity at ({a!r},{b!r},{c!r})")

    for a in src:
        candidates = [
            b
            for b in src
            if src[b] == rng[a]
            and rng[b] == src[a]
            and comp[(a, b)] == rng[a]
            and comp[(b, a)] == src[a]
        ]
        if not candidates:
            violations.append(f"inverse law at {a!r}")
        elif len(candidates) > 1:
            violations.append(f"inverse uniqueness at {a!r}")

    return ValidationReport(not violations, tuple(violations))


def validate_raw(raw: RawGroupoid) -> ValidationReport:
    """Check the groupoid axioms on a structurally well-formed raw table.

    A table that maps isomorphically onto its normal form is a groupoid
    (_normal_form); only one that does not is swept for its violations.
    """
    src, rng = _raw_structure(raw)
    if _normal_form(raw, src, rng) is not None:
        return ValidationReport(True, ())
    return _axiom_sweep(raw, src, rng)


class Decomposition(NamedTuple):
    groupoid: FiniteGroupoid
    iso: dict  # raw arrow id -> Arrow


def decompose(raw: RawGroupoid, weights: dict | None = None) -> Decomposition:
    """Normal form of a validated raw groupoid plus the witnessing isomorphism.

    The base point of each connected piece is its lowest unit, the transversal
    to another unit is the lowest arrow from the base, and the transversal at
    the base itself is the unit arrow, so re-decomposing a rendered normal
    form is the identity. The axioms are checked before the masses.
    """
    src, rng = _raw_structure(raw)
    nf = _normal_form(raw, src, rng)
    if nf is None:
        report = _axiom_sweep(raw, src, rng)
        raise ValueError(f"groupoid axioms violated: {report.violations[0]}")

    if weights is None:
        weights = raw.masses
    if weights is None:
        raise MalformedInputError("no unit masses given")
    weights = {u: Fraction(w) for u, w in weights.items()}
    if set(weights) != set(raw.units):
        raise MalformedInputError("masses must cover exactly the units")
    if any(w <= 0 for w in weights.values()):
        raise PmpViolationError("unit masses must be positive")
    if sum(weights.values()) != 1:
        raise PmpViolationError("unit masses must sum to 1 exactly")

    components: list[Component] = []
    for units, table in zip(nf.pieces, nf.tables):
        w0 = weights[units[0]]
        for u in units:
            if weights[u] != w0:
                raise PmpViolationError(
                    f"unit masses differ within one connected component ({units[0]!r}: {w0}, {u!r}: {weights[u]})"
                )
        components.append(Component(table, len(units), w0 * len(units)))

    groupoid, position = _assemble(components)
    iso = {a: arr._replace(comp=position[arr.comp]) for a, arr in nf.iso.items()}
    return Decomposition(groupoid, iso)


def _render(g: FiniteGroupoid, arrows) -> tuple[RawGroupoid, dict]:
    """A subgroupoid of g, given as its arrows, written out as an explicit
    table with integer ids, and the map from its arrows to their ids.

    Unit ids enumerate the units present in (component, point) order; the
    remaining arrows get consecutive ids in sorted order, and the masses
    are g's renormalized to the units present.
    """
    arrows = sorted(arrows)
    units = [a.source for a in arrows if a.is_unit()]
    ids = {g.unit_arrow(u): i for i, u in enumerate(units)}
    for a in arrows:
        ids.setdefault(a, len(ids))
    entries = tuple((aid, ids[g.unit_arrow(a.source)], ids[g.unit_arrow(a.range)]) for a, aid in ids.items())
    compose = {}
    for a in arrows:
        for b in arrows:
            ab = g.mul(a, b)
            if ab is not None:
                compose[(ids[a], ids[b])] = ids[ab]
    total = g.mass(units)
    masses = {i: g.unit_mass(u[0]) / total for i, u in enumerate(units)}
    return RawGroupoid(tuple(range(len(units))), entries, compose, masses), ids


def render_raw(g: FiniteGroupoid) -> RawGroupoid:
    """The normal form written back out as an explicit table (_render of
    every arrow), which makes decompose(render_raw(g)) the identity."""
    return _render(g, g.arrows())[0]


# ---------------------------------------------------------------------------
# Assembling groupoids


def convex_combination_with_maps(parts):
    """Weighted disjoint union plus, per part, old-to-new component positions."""
    parts = [(Fraction(t), g) for t, g in parts]
    if any(t <= 0 for t, _ in parts):
        raise ValueError("convex weights must be positive")
    if sum(t for t, _ in parts) != 1:
        raise ValueError("convex weights must sum to 1 exactly")
    components = []
    owners = []
    for pi, (t, g) in enumerate(parts):
        for ci, c in enumerate(g.components):
            owners.append((pi, ci))
            components.append(Component(c.table, c.base_size, c.weight * t))
    groupoid, position = _assemble(components)
    maps = [dict() for _ in parts]
    for k, (pi, ci) in enumerate(owners):
        maps[pi][ci] = position[k]
    return groupoid, maps


def convex_combination(parts) -> FiniteGroupoid:
    return convex_combination_with_maps(parts)[0]


class ProductStructure(NamedTuple):
    """A product groupoid with the pairing of arrows recorded."""

    left: FiniteGroupoid
    right: FiniteGroupoid
    groupoid: FiniteGroupoid
    comp_of_pair: dict
    pair_of_comp: tuple

    def pair_arrow(self, a: Arrow, b: Arrow) -> Arrow:
        cb = self.right.components[b.comp]
        return Arrow(
            self.comp_of_pair[(a.comp, b.comp)],
            a.g * cb.group_order + b.g,
            a.y_to * cb.base_size + b.y_to,
            a.y_from * cb.base_size + b.y_from,
        )

    def split_arrow(self, c: Arrow) -> tuple[Arrow, Arrow]:
        i, j = self.pair_of_comp[c.comp]
        cb = self.right.components[j]
        ga, gb = divmod(c.g, cb.group_order)
        ta, tb = divmod(c.y_to, cb.base_size)
        fa, fb = divmod(c.y_from, cb.base_size)
        return Arrow(i, ga, ta, fa), Arrow(j, gb, tb, fb)


def product_groupoid(left: FiniteGroupoid, right: FiniteGroupoid) -> ProductStructure:
    pairs = []
    components = []
    for i, a in enumerate(left.components):
        for j, b in enumerate(right.components):
            pairs.append((i, j))
            components.append(
                Component(
                    cayley.direct_product(a.table, b.table),
                    a.base_size * b.base_size,
                    a.weight * b.weight,
                )
            )
    groupoid, position = _assemble(components)
    comp_of_pair = {pair: position[k] for k, pair in enumerate(pairs)}
    pair_of_comp = [None] * len(pairs)
    for pair, pos in comp_of_pair.items():
        pair_of_comp[pos] = pair
    return ProductStructure(left, right, groupoid, comp_of_pair, tuple(pair_of_comp))


class CornerStructure(NamedTuple):
    """Restriction of a groupoid to a unit subset, measure renormalized."""

    ambient: FiniteGroupoid
    units: frozenset
    groupoid: FiniteGroupoid
    comp_map: dict  # ambient component -> corner component
    point_map: dict  # (ambient comp, y) -> corner y
    back_map: dict  # (corner comp, corner y) -> (ambient comp, y)

    def to_corner(self, a: Arrow) -> Arrow | None:
        if (a.comp, a.y_to) not in self.point_map or (a.comp, a.y_from) not in self.point_map:
            return None
        return Arrow(
            self.comp_map[a.comp],
            a.g,
            self.point_map[(a.comp, a.y_to)],
            self.point_map[(a.comp, a.y_from)],
        )

    def from_corner(self, a: Arrow) -> Arrow:
        comp, y_to = self.back_map[(a.comp, a.y_to)]
        _, y_from = self.back_map[(a.comp, a.y_from)]
        return Arrow(comp, a.g, y_to, y_from)


def corner(g: FiniteGroupoid, units) -> CornerStructure:
    units = frozenset(units)
    if not units:
        raise ValueError("corner on the empty unit set")
    for c, y in units:
        if not (0 <= c < len(g.components) and 0 <= y < g.components[c].base_size):
            raise ValueError(f"unknown unit {(c, y)!r}")
    total = g.mass(units)
    kept: dict[int, list[int]] = {}
    for c, y in sorted(units):
        kept.setdefault(c, []).append(y)
    components = []
    owners = []
    point_map = {}
    for c in sorted(kept):
        ys = sorted(kept[c])
        for new_y, y in enumerate(ys):
            point_map[(c, y)] = new_y
        comp = g.components[c]
        owners.append(c)
        components.append(
            Component(comp.table, len(ys), comp.weight * len(ys) / comp.base_size / total)
        )
    groupoid, position = _assemble(components)
    comp_map = {c: position[k] for k, c in enumerate(owners)}
    back_map = {
        (comp_map[c], new_y): (c, y) for (c, y), new_y in point_map.items()
    }
    return CornerStructure(g, units, groupoid, comp_map, point_map, back_map)


# ---------------------------------------------------------------------------
# Subgroupoids given as arrow subsets


def subgroupoid_violations(g: FiniteGroupoid, arrows) -> list[str]:
    """Why an arrow subset fails to be a subgroupoid (empty list if it is one).

    Arrows that are not arrows of g are reported first, and alone.
    """
    arrows = frozenset(arrows)
    outside = sorted(a for a in arrows if not g.has_arrow(a))
    if outside:
        return [f"arrow {a} not in the groupoid" for a in outside]
    problems = []
    units_present = {a.source for a in arrows if a.is_unit()}
    for a in arrows:
        if a.source not in units_present or a.range not in units_present:
            problems.append(f"missing unit arrow for endpoint of {a}")
        if g.inv(a) not in arrows:
            problems.append(f"not closed under inverse at {a}")
    for a in arrows:
        for b in arrows:
            ab = g.mul(a, b)
            if ab is not None and ab not in arrows:
                problems.append(f"not closed under product at ({a},{b})")
    return problems


def subgroupoid_as_groupoid(g: FiniteGroupoid, arrows):
    """Materialize an arrow subset as a pmp groupoid of its own.

    Returns (decomposition of its _render table, arrow-to-raw-id map); the
    measure is the ambient one renormalized to the units present.
    """
    arrows = frozenset(arrows)
    problems = subgroupoid_violations(g, arrows)
    if problems:
        raise ValueError(f"not a subgroupoid: {problems[0]}")
    raw, ids = _render(g, arrows)
    return decompose(raw), ids
