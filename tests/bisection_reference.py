"""The Bisection algebra that left the library, kept as the reference the
packed kernel is tested against: product, inverse, trace, the disagreement
distance and its range-side mirror, the unit-set projections, the action
of the full group on unit sets, and the union of compatible bisections.

Every operation builds and validates its result through the Bisection
constructor, and compares Fractions, so it shares no arithmetic with
semigroup.PackedMonoid.
"""

from fractions import Fraction

from soficlab.semigroup import Bisection


class UnionIncompatibleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def by_source(a: Bisection) -> dict:
    return {x.source: x for x in a.arrows}


def by_range(a: Bisection) -> dict:
    return {x.range: x for x in a.arrows}


def source_units(a: Bisection) -> frozenset:
    return frozenset(x.source for x in a.arrows)


def range_units(a: Bisection) -> frozenset:
    return frozenset(x.range for x in a.arrows)


def fix_units(a: Bisection) -> frozenset:
    return frozenset(x.source for x in a.arrows if x.is_unit())


def supp_units(a: Bisection) -> frozenset:
    return source_units(a) - fix_units(a)


def compose(a: Bisection, b: Bisection) -> Bisection:
    """Product a*b: all defined products xy, x in a, y in b."""
    if a.groupoid != b.groupoid:
        raise ValueError("bisections live on different groupoids")
    g = a.groupoid
    mine = by_source(a)
    out = []
    for y in b.arrows:
        x = mine.get(y.range)
        if x is not None:
            out.append(g.mul(x, y))
    return Bisection(g, tuple(out))


def inverse(a: Bisection) -> Bisection:
    g = a.groupoid
    return Bisection(g, tuple(g.inv(x) for x in a.arrows))


def trace(a: Bisection) -> Fraction:
    g = a.groupoid
    return sum((g.unit_mass(x.comp) for x in a.arrows if x.is_unit()), Fraction(0))


def distance(a: Bisection, b: Bisection) -> Fraction:
    """Mass of the source units of the symmetric difference."""
    if a.groupoid != b.groupoid:
        raise ValueError("bisections live on different groupoids")
    mine, theirs = by_source(a), by_source(b)
    disagree = {u for u in mine.keys() | theirs.keys() if mine.get(u) != theirs.get(u)}
    return a.groupoid.mass(disagree)


def range_distance(a: Bisection, b: Bisection) -> Fraction:
    """Range-side mirror of distance; differs off the full group."""
    return distance(inverse(a), inverse(b))


def is_idempotent(a: Bisection) -> bool:
    return all(x.is_unit() for x in a.arrows)


def is_full(a: Bisection) -> bool:
    n = a.groupoid.n_units
    return len(source_units(a)) == n and len(range_units(a)) == n


def projections(a: Bisection):
    """(s, r, fix, supp) of a bisection, as unit sets."""
    return source_units(a), range_units(a), fix_units(a), supp_units(a)


def act(a: Bisection, units) -> frozenset:
    """Image of a unit set under a full-group element: ranges over sources in it."""
    if not is_full(a):
        raise ValueError("action is defined for full-group elements only")
    units = frozenset(units)
    return frozenset(x.range for x in a.arrows if x.source in units)


def union_compatible(a: Bisection, b: Bisection) -> Bisection:
    """Union of two bisections when it is again one.

    Compatibility (b^-1 a and b a^-1 idempotent) is exactly injectivity of
    source and range on the union; the failure witness is a colliding arrow
    pair.
    """
    if a.groupoid != b.groupoid:
        raise ValueError("bisections live on different groupoids")
    if not is_idempotent(compose(b, inverse(a))):
        theirs = by_source(b)
        for u, x in by_source(a).items():
            y = theirs.get(u)
            if y is not None and y != x:
                raise UnionIncompatibleError(f"arrows {x} and {y} share source {u}", witness=(x, y))
        raise AssertionError("non-idempotent b*a^-1 without a source collision")
    if not is_idempotent(compose(inverse(b), a)):
        theirs = by_range(b)
        for u, x in by_range(a).items():
            y = theirs.get(u)
            if y is not None and y != x:
                raise UnionIncompatibleError(f"arrows {x} and {y} share range {u}", witness=(x, y))
        raise AssertionError("non-idempotent b^-1*a without a range collision")
    return Bisection(a.groupoid, tuple(set(a.arrows) | set(b.arrows)))
