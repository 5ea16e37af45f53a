"""The inverse monoid of bisections of a finite pmp groupoid.

A bisection is a finite arrow set on which source and range are injective;
the product is the set of all defined pairwise products, the inverse is
elementwise. Idempotents are exactly the unit-arrow sets, identified with
elements of the measure algebra of the unit space.

The pseudometric implemented here is the disagreement mass

    d(a, b) = mass of the set of source units of the symmetric difference,

i.e. the measure of the units where a and b differ as decorated partial
maps. This is the metric pinned down by the exact trace identities

    tr(a) = 1 - d(s(a), 1) - d(s(a), a)
    d(a, b) = tr(s(a)) + tr(s(b)) - tr(s(a)s(b)) - tr(b^-1 a)

which hold exactly for it (see the verification suites). Its range-side
mirror mass(r(a \\ b) union r(b \\ a)) is exposed separately: the two agree
on the full group but differ for proper partial bisections, so d is not
invariant under inversion in general; the exact correction is

    d(a^-1, b^-1) - d(a, b) = mass(r(a) u r(b)) - mass(s(a) u s(b)).

PackedMonoid is the same monoid as integer tuples, which the verification
suites run on; the Bisection operations are the reference it is tested
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import comb, factorial, lcm

from . import cayley
from .groupoid import Arrow, FiniteGroupoid, Unit


class UnionIncompatibleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ExtensionCertificateError(ValueError):
    """The full-group completion of a bisection failed one of its checks."""


class CapExceededError(RuntimeError):
    def __init__(self, predicted: int, cap: int, what: str):
        super().__init__(f"{what}: predicted count {predicted} exceeds cap {cap}")
        self.predicted = predicted
        self.cap = cap


@dataclass(frozen=True)
class Bisection:
    groupoid: FiniteGroupoid
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))
        sources = [a.source for a in self.arrows]
        ranges = [a.range for a in self.arrows]
        if len(set(sources)) != len(sources):
            raise ValueError("source map not injective")
        if len(set(ranges)) != len(ranges):
            raise ValueError("range map not injective")
        for a in self.arrows:
            if not 0 <= a.comp < len(self.groupoid.components):
                raise ValueError(f"arrow {a} not in the groupoid")
            comp = self.groupoid.components[a.comp]
            if (
                not 0 <= a.g < comp.group_order
                or not 0 <= a.y_to < comp.base_size
                or not 0 <= a.y_from < comp.base_size
            ):
                raise ValueError(f"arrow {a} not in the groupoid")

    def __len__(self):
        return len(self.arrows)

    def __iter__(self):
        return iter(self.arrows)

    @cached_property
    def by_range(self) -> dict[Unit, Arrow]:
        return {a.range: a for a in self.arrows}

    @cached_property
    def by_source(self) -> dict[Unit, Arrow]:
        return {a.source: a for a in self.arrows}

    @cached_property
    def source_units(self) -> frozenset[Unit]:
        return frozenset(a.source for a in self.arrows)

    @cached_property
    def range_units(self) -> frozenset[Unit]:
        return frozenset(a.range for a in self.arrows)

    @cached_property
    def fix_units(self) -> frozenset[Unit]:
        return frozenset(a.source for a in self.arrows if a.is_unit())

    @cached_property
    def supp_units(self) -> frozenset[Unit]:
        return self.source_units - self.fix_units

    def compose(self, other: "Bisection") -> "Bisection":
        """Product self*other: all defined products ab, a in self, b in other."""
        if self.groupoid != other.groupoid:
            raise ValueError("bisections live on different groupoids")
        g = self.groupoid
        out = []
        for b in other.arrows:
            a = self.by_source.get(b.range)
            if a is not None:
                out.append(g.mul(a, b))
        return Bisection(g, tuple(out))

    def __mul__(self, other):
        return self.compose(other)

    def inverse(self) -> "Bisection":
        g = self.groupoid
        return Bisection(g, tuple(g.inv(a) for a in self.arrows))

    def trace(self) -> Fraction:
        g = self.groupoid
        return sum(
            (g.unit_mass(a.comp) for a in self.arrows if a.is_unit()), Fraction(0)
        )

    def distance(self, other: "Bisection") -> Fraction:
        """Mass of the source units of the symmetric difference."""
        if self.groupoid != other.groupoid:
            raise ValueError("bisections live on different groupoids")
        mine, theirs = self.by_source, other.by_source
        disagree = {
            u for u in mine.keys() | theirs.keys() if mine.get(u) != theirs.get(u)
        }
        return self.groupoid.mass(disagree)

    def range_distance(self, other: "Bisection") -> Fraction:
        """Range-side mirror of distance; differs off the full group."""
        return self.inverse().distance(other.inverse())

    def is_idempotent(self) -> bool:
        return all(a.is_unit() for a in self.arrows)

    def is_full(self) -> bool:
        n = self.groupoid.n_units
        return len(self.source_units) == n and len(self.range_units) == n

    def restrict_sources(self, units) -> "Bisection":
        units = frozenset(units)
        return Bisection(
            self.groupoid, tuple(a for a in self.arrows if a.source in units)
        )


def bisection(g: FiniteGroupoid, arrows) -> Bisection:
    return Bisection(g, tuple(arrows))


def empty_bisection(g: FiniteGroupoid) -> Bisection:
    return Bisection(g, ())


def unit_bisection(g: FiniteGroupoid) -> Bisection:
    return Bisection(g, tuple(g.unit_arrow(u) for u in g.units()))


def idempotent(g: FiniteGroupoid, units) -> Bisection:
    return Bisection(g, tuple(g.unit_arrow(u) for u in units))


def projections(alpha: Bisection):
    """(s, r, fix, supp) of a bisection, as unit sets."""
    return (
        alpha.source_units,
        alpha.range_units,
        alpha.fix_units,
        alpha.supp_units,
    )


def act(alpha: Bisection, units) -> frozenset[Unit]:
    """Image of a unit set under a full-group element: ranges over sources in it."""
    if not alpha.is_full():
        raise ValueError("action is defined for full-group elements only")
    units = frozenset(units)
    return frozenset(a.range for a in alpha.arrows if a.source in units)


def union_compatible(alpha: Bisection, beta: Bisection) -> Bisection:
    """Union of two bisections when it is again one.

    Compatibility (beta^-1 alpha and beta alpha^-1 idempotent) is exactly
    injectivity of source and range on the union; the failure witness is a
    colliding arrow pair.
    """
    if alpha.groupoid != beta.groupoid:
        raise ValueError("bisections live on different groupoids")
    if not (beta * alpha.inverse()).is_idempotent():
        for u, a in alpha.by_source.items():
            b = beta.by_source.get(u)
            if b is not None and b != a:
                raise UnionIncompatibleError(
                    f"arrows {a} and {b} share source {u}", witness=(a, b)
                )
        raise AssertionError("non-idempotent beta*alpha^-1 without a source collision")
    if not (beta.inverse() * alpha).is_idempotent():
        for u, a in alpha.by_range.items():
            b = beta.by_range.get(u)
            if b is not None and b != a:
                raise UnionIncompatibleError(
                    f"arrows {a} and {b} share range {u}", witness=(a, b)
                )
        raise AssertionError("non-idempotent beta^-1*alpha without a range collision")
    return Bisection(alpha.groupoid, tuple(set(alpha.arrows) | set(beta.arrows)))


def extend_to_full_group(gamma: Bisection) -> Bisection:
    """The full-group completion: close every partial orbit chain of gamma.

    Stage n collects the arrows of (gamma^-1)^n whose source is outside
    s(gamma) and range outside r(gamma); the union of gamma, all stages and
    the untouched units is a full-group element containing gamma. Stage
    sources and ranges are checked disjoint and exactly covering, which in
    the finite setting must hold on the nose; a failed check raises
    ExtensionCertificateError.
    """
    g = gamma.groupoid
    arrows = set(gamma.arrows)
    s_gamma, r_gamma = gamma.source_units, gamma.range_units
    seen_sources = [s_gamma]
    seen_ranges = [r_gamma]

    inv = gamma.inverse()
    power = inv
    for _ in range(g.n_arrows):
        if len(power) == 0:
            break
        stage = Bisection(
            g,
            tuple(
                a
                for a in power.arrows
                if a.source not in s_gamma and a.range not in r_gamma
            ),
        )
        if len(stage):
            for prev in seen_sources[1:]:
                if stage.source_units & prev:
                    raise ExtensionCertificateError("stage sources overlap an earlier stage")
            for prev in seen_ranges[1:]:
                if stage.range_units & prev:
                    raise ExtensionCertificateError("stage ranges overlap an earlier stage")
            seen_sources.append(stage.source_units)
            seen_ranges.append(stage.range_units)
            arrows |= set(stage.arrows)
        power = power * inv

    touched = s_gamma | r_gamma
    covered_sources = frozenset().union(*seen_sources)
    covered_ranges = frozenset().union(*seen_ranges)
    if covered_sources != touched or covered_ranges != touched:
        raise ExtensionCertificateError("stages do not exactly cover s(gamma) u r(gamma)")
    for u in g.units():
        if u not in touched:
            arrows.add(g.unit_arrow(u))

    out = Bisection(g, tuple(arrows))
    if not out.is_full() or not set(gamma.arrows) <= set(out.arrows):
        raise ExtensionCertificateError("completion is not a full-group element containing gamma")
    return out


# ---------------------------------------------------------------------------
# Packed kernel


class PackedMonoid:
    """[[G]] as integer tuples, for the suites' inner loops.

    Units are numbered 0..N-1 in the order of g.units(). An element is a
    tuple indexed by source unit whose entry is range_unit * M + group_label,
    M the largest group order, or -1 where the element is undefined. The
    encoding is injective, so tuple equality is Bisection equality. Unit
    sets are bitmasks (bit u for unit u), and unit weights are integers over
    the common denominator ``denom``, so trace, dist and mass return exact
    integers that are the rational values times ``denom``.

    Inputs are trusted: encode/decode convert from and to Bisection at the
    boundary, and nothing in between is re-validated.
    """

    def __init__(self, g: FiniteGroupoid):
        self.groupoid = g
        self.units = list(g.units())
        self._index = {u: i for i, u in enumerate(self.units)}
        n = self.n_units = len(self.units)
        m = self.order = max(c.group_order for c in g.components)
        masses = [g.unit_mass(comp) for comp, _ in self.units]
        self.denom = lcm(*(q.denominator for q in masses))
        self.weights = tuple((q * self.denom).numerator for q in masses)
        self.total = sum(self.weights)
        self.full_mask = (1 << n) - 1
        self._bits = tuple(1 << u for u in range(n))
        self._identity = tuple(u * m for u in range(n))
        self.one = self._identity
        self.zero = (-1,) * n

        # Tables over codes x = r * m + h, with one extra trailing slot that
        # code -1 indexes: R[-1] = 0 and L[-1] = m select P[y][m] = -1, and
        # P[-1] is all -1, so mul needs no branch for undefined entries.
        codes = range(n * m)
        self._R = [x // m for x in codes] + [0]
        self._L = [x % m for x in codes] + [m]
        tables = [c.table for c in g.components]
        inverses = [cayley.inverses(t) for t in tables]
        self._inv_label = [0] * (n * m)
        self._P = []
        for x in codes:
            r, h = divmod(x, m)
            comp = self.units[r][0]
            table = tables[comp]
            row = [-1] * (m + 1)
            if h < len(table):
                row[: len(table)] = [r * m + k for k in table[h]]
                self._inv_label[x] = inverses[comp][h]
            self._P.append(row)
        self._P.append([-1] * (m + 1))

        # mass of a mask, one table per 8-unit chunk: a single table over
        # all 2^N masks would not fit for the large groupoids that sample
        self._mass_chunks = []
        for lo in range(0, n, 8):
            chunk = self.weights[lo : lo + 8]
            table = [0]
            for w in chunk:
                table += [t + w for t in table]
            self._mass_chunks.append(table)

    # -- boundary ----------------------------------------------------------

    def encode(self, b: Bisection) -> tuple[int, ...]:
        out = [-1] * self.n_units
        idx, m = self._index, self.order
        for a in b.arrows:
            out[idx[a.source]] = idx[a.range] * m + a.g
        return tuple(out)

    def decode(self, x) -> Bisection:
        units, m = self.units, self.order
        arrows = []
        for u, code in enumerate(x):
            if code >= 0:
                comp, y_from = units[u]
                r, h = divmod(code, m)
                arrows.append(Arrow(comp, h, units[r][1], y_from))
        return Bisection(self.groupoid, tuple(arrows))

    def mask(self, units) -> int:
        idx = self._index
        return sum(1 << idx[u] for u in units)

    # -- algebra -----------------------------------------------------------

    def mul(self, a, b) -> tuple[int, ...]:
        """Product a*b: at each source u of b, a's entry at b's range, composed."""
        P, R, L = self._P, self._R, self._L
        return tuple([P[a[R[x]]][L[x]] for x in b])

    def inv(self, a) -> tuple[int, ...]:
        out = [-1] * self.n_units
        R, lab, m = self._R, self._inv_label, self.order
        for u, x in enumerate(a):
            if x >= 0:
                out[R[x]] = u * m + lab[x]
        return tuple(out)

    def trace(self, a) -> int:
        return sum([w for w, x, i in zip(self.weights, a, self._identity) if x == i])

    def dist(self, a, b) -> int:
        """Weight of the source units where a and b differ."""
        return sum([w for w, x, y in zip(self.weights, a, b) if x != y])

    def mass(self, mask: int) -> int:
        total = 0
        for table in self._mass_chunks:
            total += table[mask & 255]
            mask >>= 8
        return total

    # -- unit sets ---------------------------------------------------------

    def src(self, a) -> int:
        return sum([bit for bit, x in zip(self._bits, a) if x >= 0])

    def rng(self, a) -> int:
        bits, R = self._bits, self._R
        return sum([bits[R[x]] for x in a if x >= 0])

    def fix(self, a) -> int:
        return sum([bit for bit, x, i in zip(self._bits, a, self._identity) if x == i])

    def supp(self, a) -> int:
        return self.src(a) & ~self.fix(a)

    def idem(self, mask: int) -> tuple[int, ...]:
        """The unit arrows over a unit set."""
        return tuple([i if mask >> u & 1 else -1 for u, i in enumerate(self._identity)])

    def act(self, a, mask: int) -> int:
        """Ranges of a over the sources in mask; for a full-group element,
        the image of mask under its action."""
        bits, R = self._bits, self._R
        return sum([bits[R[x]] for u, x in enumerate(a) if x >= 0 and mask >> u & 1])


# ---------------------------------------------------------------------------
# Enumeration


def semigroup_count(g: FiniteGroupoid) -> int:
    total = 1
    for c in g.components:
        n, m = c.base_size, c.group_order
        total *= sum(comb(n, k) ** 2 * factorial(k) * m**k for k in range(n + 1))
    return total


def group_count(g: FiniteGroupoid) -> int:
    total = 1
    for c in g.components:
        total *= factorial(c.base_size) * c.group_order**c.base_size
    return total


def malg_count(g: FiniteGroupoid) -> int:
    return 2**g.n_units


def _component_bisections(g: FiniteGroupoid, ci: int, full_only: bool):
    c = g.components[ci]
    n, m = c.base_size, c.group_order
    sizes = [n] if full_only else range(n + 1)
    for k in sizes:
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                for gs in product(range(m), repeat=k):
                    yield tuple(
                        Arrow(ci, gs[t], img[t], dom[t]) for t in range(k)
                    )


def enumerate_semigroup(g: FiniteGroupoid, cap: int = 10**6):
    """All bisections of g, in a fixed order. Raises if the count exceeds cap."""
    predicted = semigroup_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "full semigroup enumeration")
    pieces = [list(_component_bisections(g, ci, False)) for ci in range(len(g.components))]
    for combo in product(*pieces):
        yield Bisection(g, tuple(a for piece in combo for a in piece))


def enumerate_group(g: FiniteGroupoid, cap: int = 10**6):
    predicted = group_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "full group enumeration")
    pieces = [list(_component_bisections(g, ci, True)) for ci in range(len(g.components))]
    for combo in product(*pieces):
        yield Bisection(g, tuple(a for piece in combo for a in piece))


def enumerate_malg(g: FiniteGroupoid, cap: int = 10**6):
    predicted = malg_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "measure algebra enumeration")
    units = list(g.units())
    for k in range(len(units) + 1):
        for subset in combinations(units, k):
            yield frozenset(subset)


def enumerate_elements(g: FiniteGroupoid, kind: str, cap: int = 10**6):
    """Dispatch by kind: "semigroup", "group" or "malg"."""
    if kind == "semigroup":
        return enumerate_semigroup(g, cap)
    if kind == "group":
        return enumerate_group(g, cap)
    if kind == "malg":
        return enumerate_malg(g, cap)
    raise ValueError(f"unknown enumeration kind {kind!r}")


def sample_bisection(g: FiniteGroupoid, rng: random.Random) -> Bisection:
    arrows = []
    for ci, c in enumerate(g.components):
        n, m = c.base_size, c.group_order
        dom = [y for y in range(n) if rng.random() < 0.5]
        img = rng.sample(range(n), len(dom))
        for y_from, y_to in zip(dom, img):
            arrows.append(Arrow(ci, rng.randrange(m), y_to, y_from))
    return Bisection(g, tuple(arrows))


def sample_full_group(g: FiniteGroupoid, rng: random.Random) -> Bisection:
    arrows = []
    for ci, c in enumerate(g.components):
        n, m = c.base_size, c.group_order
        img = rng.sample(range(n), n)
        for y_from, y_to in zip(range(n), img):
            arrows.append(Arrow(ci, rng.randrange(m), y_to, y_from))
    return Bisection(g, tuple(arrows))
