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
mirror mass(r(a \\ b) union r(b \\ a)) differs from it for proper partial
bisections, so d is not invariant under inversion in general; the exact
correction is

    d(a^-1, b^-1) - d(a, b) = mass(r(a) u r(b)) - mass(s(a) u s(b)).

PackedMonoid computes all of this on integer tuples, and the enumerators
below list [[G]], [G] and the measure algebra directly as its codes and
bitmasks. Distances over a list of codes come a row at a time from
PackedMonoid.dist_rows, by agreement classes. PoolTable tabulates those
operations over an exhaustive pool, for pools small enough that its n*n
tables fit the caller's cap: its product rows come from
PackedMonoid.left_row, one row of codes per left factor, its distance
rows from dist_rows, and its unary operations are bound list lookups.
Bisection is the boundary type: it is parsed, printed and used
for witnesses, and its constructor validates; PackedMonoid.encode and
decode convert at the boundary. The Bisection algebra that the kernel is
tested against lives with the tests.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress, permutations, product, repeat
from math import comb, factorial, lcm
from operator import eq, getitem, ne

from . import cayley
from .groupoid import Arrow, FiniteGroupoid, Value


class CertificateError(ValueError):
    """A construction failed one of the exactness checks it certifies itself
    with; this is a failed check, not malformed input."""


class ExtensionCertificateError(CertificateError):
    """The full-group completion of a bisection failed one of its checks."""


class CapExceededError(RuntimeError):
    def __init__(self, predicted: int, cap: int, what: str):
        super().__init__(f"{what}: predicted count {predicted} exceeds cap {cap}")
        self.predicted = predicted
        self.cap = cap


class Bisection(Value):
    _fields = ("groupoid", "arrows")

    def __init__(self, groupoid: FiniteGroupoid, arrows: tuple[Arrow, ...]):
        self._set(groupoid, tuple(sorted(arrows)))
        self.__post_init__()

    def __post_init__(self):
        # the check, under the name that tracers and tests count it by
        sources = [a.source for a in self.arrows]
        ranges = [a.range for a in self.arrows]
        if len(set(sources)) != len(sources):
            raise ValueError("source map not injective")
        if len(set(ranges)) != len(ranges):
            raise ValueError("range map not injective")
        for a in self.arrows:
            if not self.groupoid.has_arrow(a):
                raise ValueError(f"arrow {a} not in the groupoid")

    def __hash__(self):
        # equality still compares the groupoid; hashing it too would rehash
        # its Cayley tables on every lookup
        return hash(self.arrows)

    def __len__(self):
        return len(self.arrows)

    def __iter__(self):
        return iter(self.arrows)


def bisection(g: FiniteGroupoid, arrows) -> Bisection:
    return Bisection(g, tuple(arrows))


def empty_bisection(g: FiniteGroupoid) -> Bisection:
    return Bisection(g, ())


def unit_bisection(g: FiniteGroupoid) -> Bisection:
    return Bisection(g, tuple(g.unit_arrow(u) for u in g.units()))


def idempotent(g: FiniteGroupoid, units) -> Bisection:
    return Bisection(g, tuple(g.unit_arrow(u) for u in units))


def extend_to_full_group(gamma: Bisection) -> Bisection:
    """The full-group completion of gamma: a full-group element containing
    it, computed on packed codes by PackedMonoid.extend."""
    pm = PackedMonoid(gamma.groupoid)
    return pm.decode(pm.extend(pm.encode(gamma)))


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
        # P[-1] is all -1, so mul needs no branch for undefined entries; the
        # range bit of code -1 is 0, so rng needs none either.
        codes = range(n * m)
        self._R = [x // m for x in codes] + [0]
        self._L = [x % m for x in codes] + [m]
        self._range_bit = [1 << (x // m) for x in codes] + [0]
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

    def place(self, a: Arrow) -> tuple[int, int]:
        """The source unit index and the code of a single arrow."""
        return self._index[a.source], self._index[a.range] * self.order + a.g

    def arrows(self, x) -> tuple[Arrow, ...]:
        """The arrows of x in Bisection order (sorted), so codes sort by it
        as their Bisections sort by .arrows."""
        units, m = self.units, self.order
        arrows = []
        for u, code in enumerate(x):
            if code >= 0:
                comp, y_from = units[u]
                r, h = divmod(code, m)
                arrows.append(Arrow(comp, h, units[r][1], y_from))
        return tuple(sorted(arrows))

    def decode(self, x) -> Bisection:
        return Bisection(self.groupoid, self.arrows(x))

    def mask(self, units) -> int:
        idx = self._index
        return sum(1 << idx[u] for u in units)

    # -- algebra -----------------------------------------------------------

    def mul(self, a, b) -> tuple[int, ...]:
        """Product a*b: at each source u of b, a's entry at b's range, composed."""
        P, R, L = self._P, self._R, self._L
        return tuple([P[a[R[x]]][L[x]] for x in b])

    def left_row(self, a) -> list[int]:
        """a's left multiplication by code: row[x] is a composed with the
        arrow of code x, and row[-1] = -1 (the extra slot's P[a[0]][M]), so
        a*b = tuple(map(row.__getitem__, b)) for every b."""
        return list(map(getitem, map(self._P.__getitem__, map(a.__getitem__, self._R)), self._L))

    def inv(self, a) -> tuple[int, ...]:
        out = [-1] * self.n_units
        R, lab, m = self._R, self._inv_label, self.order
        for u, x in enumerate(a):
            if x >= 0:
                out[R[x]] = u * m + lab[x]
        return tuple(out)

    def trace(self, a) -> int:
        return sum(compress(self.weights, map(eq, a, self._identity)))

    def dist(self, a, b) -> int:
        """Weight of the source units where a and b differ."""
        return sum(compress(self.weights, map(ne, a, b)))

    def dist_rows(self, codes: list):
        """Yield [dist(a, b) for b in codes] for each a in codes, in order.

        dist(a, b) is the total weight less the weight of the units where
        a and b agree. So the indices of codes are first grouped by their
        entry at each unit, and row a starts at total and loses w_u at each
        index whose entry at u is a's: one subtraction per agreeing (index,
        unit), in place of len(codes) calls of dist. Codes may repeat. One
        row is held at a time, beside the n*N class lists.
        """
        classes = [{} for _ in range(self.n_units)]
        for j, x in enumerate(codes):
            for by_entry, v in zip(classes, x):
                by_entry.setdefault(v, []).append(j)
        start = [self.total] * len(codes)
        for a in codes:
            row = start[:]
            for w, by_entry, v in zip(self.weights, classes, a):
                for j in by_entry[v]:
                    row[j] -= w
            yield row

    def mass(self, mask: int) -> int:
        total = 0
        for table in self._mass_chunks:
            total += table[mask & 255]
            mask >>= 8
        return total

    # -- unit sets ---------------------------------------------------------

    def src(self, a) -> int:
        return sum(compress(self._bits, map(ne, a, self.zero)))

    def rng(self, a) -> int:
        return sum(map(self._range_bit.__getitem__, a))

    def fix(self, a) -> int:
        return sum(compress(self._bits, map(eq, a, self._identity)))

    def idem(self, mask: int) -> tuple[int, ...]:
        """The unit arrows over a unit set."""
        return tuple([i if mask >> u & 1 else -1 for u, i in enumerate(self._identity)])

    # -- full-group completion ---------------------------------------------

    def extend(self, x) -> tuple[int, ...]:
        """The full-group completion of x, by following chains.

        Each unit u in r(x) \\ s(x) starts a chain u, x^-1 u, x^-2 u, ...
        that stays in r(x) until it reaches a unit of s(x) \\ r(x); u gets
        the composed arrow of x^-k up to there. Units outside s(x) u r(x)
        get their unit arrow, and x is kept. A chain that does not end
        within N steps, a result that is not full and one that does not
        contain x raise ExtensionCertificateError.
        """
        n, P, R, L = self.n_units, self._P, self._R, self._L
        y = self.inv(x)
        s, r = self.src(x), self.rng(x)
        out = list(x)
        for u in range(n):
            if s >> u & 1:
                continue
            if not r >> u & 1:
                out[u] = self._identity[u]
                continue
            code = y[u]
            for _ in range(n):
                if code < 0 or not r >> R[code] & 1:
                    break
                code = P[y[R[code]]][L[code]]
            else:
                raise ExtensionCertificateError(f"the chain from unit {u} stays in r(gamma) for {n} steps")
            out[u] = code
        out = tuple(out)
        if self.src(out) != self.full_mask or self.rng(out) != self.full_mask:
            raise ExtensionCertificateError("completion does not cover every unit")
        if any(v != e for v, e in zip(x, out) if v >= 0):
            raise ExtensionCertificateError("completion does not contain gamma")
        return out


class PoolTable:
    """All of [[G]], tabulated over the indices of a list of its codes.

    codes must list every element of [[G]] once (semigroup_codes does), so
    the pool is closed under product and inverse and every operation of
    PackedMonoid becomes a lookup by pool index: mul, inv, trace, dist,
    src, rng, fix and idem take and return indices, and arrows, mass,
    one, zero, total, full_mask, groupoid and n_units mean what they mean
    on pm, so verify._pool draws unit sets from either kernel. Index
    equality is element equality. Row a of the product table is every
    code mapped through pm.left_row(a) and looked up, all in map calls;
    the distance table comes from pm.dist_rows, on first use. The unary
    operations are the __getitem__ of their tables, mass of one over all
    2^N masks.
    The product and distance tables have n*n entries and the others at
    most n (2^N too: [[G]] holds an idempotent per unit set), so with n*n
    within a cap every table fits it.
    """

    def __init__(self, pm: PackedMonoid, codes: list):
        self._pm, self._codes = pm, codes
        index = {x: i for i, x in enumerate(codes)}
        lookup = index.__getitem__
        self._mul = [
            list(map(lookup, map(tuple, map(map, repeat(pm.left_row(a).__getitem__), codes)))) for a in codes
        ]
        self.inv = [index[pm.inv(a)] for a in codes].__getitem__
        self.trace = [pm.trace(a) for a in codes].__getitem__
        src = [pm.src(a) for a in codes]
        fix = [pm.fix(a) for a in codes]
        self.src, self.fix = src.__getitem__, fix.__getitem__
        self.rng = [pm.rng(a) for a in codes].__getitem__
        # the unit-set elements, by their unit set
        self.idem = {s: i for i, (s, f) in enumerate(zip(src, fix)) if s == f}.__getitem__
        self.mass = list(map(pm.mass, range(1 << pm.n_units))).__getitem__
        self.one, self.zero = index[pm.one], index[pm.zero]
        self.total, self.full_mask = pm.total, pm.full_mask
        self.groupoid, self.n_units = pm.groupoid, pm.n_units

    @cached_property
    def dists(self) -> list[list[int]]:
        """dists[a][b] = dist(a, b), as rows by pool index, from
        PackedMonoid.dist_rows."""
        return list(self._pm.dist_rows(self._codes))

    def arrows(self, a) -> tuple[Arrow, ...]:
        return self._pm.arrows(self._codes[a])

    def mul(self, a, b) -> int:
        return self._mul[a][b]

    def dist(self, a, b) -> int:
        return self.dists[a][b]


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


def _component_codes(pm: PackedMonoid, ci: int, full_only: bool) -> list[tuple[int, ...]]:
    """The bisections of component ci as codes of its own units: by arrow
    count, then source set, then ranges, then group labels."""
    components = pm.groupoid.components
    n, m, order = components[ci].base_size, components[ci].group_order, pm.order
    base = sum(c.base_size for c in components[:ci])
    out = []
    for k in [n] if full_only else range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                for labels in product(range(m), repeat=k):
                    x = [-1] * n
                    for y_from, y_to, h in zip(dom, img, labels):
                        x[y_from] = (base + y_to) * order + h
                    out.append(tuple(x))
    return out


def _codes(pm: PackedMonoid, full_only: bool):
    # units are numbered component by component, so an element is the
    # concatenation of one piece per component
    pieces = [_component_codes(pm, ci, full_only) for ci in range(len(pm.groupoid.components))]
    for combo in product(*pieces):
        yield sum(combo, ())


def semigroup_codes(pm: PackedMonoid):
    """Every element of [[G]] as a code of pm, in a fixed order: component
    pieces in product order. Callers charge semigroup_count first."""
    return _codes(pm, False)


def group_codes(pm: PackedMonoid):
    """Every element of the full group [G] as a code of pm, in the order of
    semigroup_codes. Callers charge group_count first."""
    return _codes(pm, True)


def malg_masks(pm: PackedMonoid):
    """Every unit set as a bitmask of pm, by size and then lexicographically
    in unit order. Callers charge malg_count first."""
    bits = [1 << u for u in range(pm.n_units)]
    for k in range(pm.n_units + 1):
        for subset in combinations(bits, k):
            yield sum(subset)
