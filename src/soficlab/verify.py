"""Exact verification: almost-morphism reports, embedding certificates and
named invariant suites.

Every comparison is an exact rational (in)equality; epsilon thresholds are
strict rational comparisons. A check over more than one element takes
its tuples from one gate, _run: every tuple over its pools whenever their
number fits the budget cap, seeded samples otherwise, and exhaustive only
when every tuple ran over exhaustive pools. The gate gives them as rows
(*prefix, lasts), the leading indices and the last indices that follow
them: range of the last size when every tuple runs, one drawn index when
sampled; the certificates read the rows of their pool's pairs too
(pool_pairs). Each report records which regime ran and how many tuples,
so a report is a deterministic function of (inputs, seed, budget). Every element pool comes from _pool,
which charges the cap and then enumerates the pool, or draws it, directly
as codes of semigroup.PackedMonoid (unit sets as bitmasks); a draw writes
each arrow's code into its entry and builds no Arrow, and a sampled pool
is sorted by the integer key PackedMonoid.arrow_key. A sampled
pool of more than half the elements is one seeded sample of their
enumeration, so no pool costs more than twice the cap. Every suite
runs on the kernel's exact integer arithmetic; the rectangles suite on
the codes of constructions.PackedProduct. The rectangles and extension
suites record the certificates that rectangle_decompose and
PackedMonoid.extend make on every element, and recompute nothing those
certify. The inverse-monoid, metric-prop,
trace-distance and supports suites take their kernel from _kernel: when
the n*n pairs of [[G]] fit the cap it becomes a semigroup.PoolTable, whose
operations are lookups by pool index in tables of at most n*n entries,
and otherwise the suite stays on codes. These four suites read products
and distances inline, as M[a][b] and D[a][b] on the kernel's products and
distances, one loop per tuple set with no Python call per tuple: each
tuple set is drawn from _run once, and every check over it counts its
violations in that one loop. A row reads what depends only on its prefix
(M[a], D[a], M[M[a][b]] and the like) once, then runs a plain inner loop
over its lasts. On a table each lookup is a list subscript,
and on codes a view that calls mul or dist. The other checks are plain
loops too: the finite-index suite's, on each element's block matrix as
one code of G x [[nn]] (constructions.block_codes), built once: two
inverses of codes per element for its block checks, one product of
codes per pair for its block identity, with the left rows of a row's
element and of its code built once, and a mass of fixed units per copy
for its diagonal trace; and the rectangles suite's trace
multiplicativity. Both certificates, check_embedding and
check_almost_morphism, run on the kernel too, through one loop
(_deviations) that maps each distinct code once: a map of constructions
scatters its arrow table (SemigroupMap.packed), and a pair list becomes a
dict from domain code to codomain code. The loop is a metric pass
(metric_deviations) and a product pass. The product pass is replaced by
a proof when the map is a SemigroupMap: arrow_certificate decides from
the arrow table alone whether the map is multiplicative on all of [[G]],
checking every pair of arrows on the codes of their images, which it
reads from the scatter the loop runs on, and when it certifies the
map the pass, which would read 0 on every pair, does not run. It takes
the table as valid: SemigroupMap checked it once, when it was built. The
certificate runs only when its composable arrow pairs are at most the
element pairs the pass would run (element_pairs, the count of pool_pairs,
for check_embedding; |K|^2 for check_almost_morphism), so it never does
more work than it replaces and counts under the budget that bounds the
pass. When it refutes the map or does not run, the pass runs.
check_embedding goes one step further: arrow_deviations reads the exact
trace and distance sups over all of [[G]] off the images of the unit
arrows when the certificate certifies and no non-unit arrow's image
holds a unit arrow, and then no pool is built and neither pass runs
(method "arrow-table"). Otherwise check_embedding takes its pool and
rows from pool_pairs (method "elements"). Each pass runs one loop over
the rows, and each row picks its algorithm: a whole row takes its
products through the left rows (PackedMonoid.left_row) of its left
factor and of that factor's image, and its distances from
PackedMonoid.dist_rows; a drawn pair takes its by mul and dist. A row of
the ladder [[n]] -> [[p]] (symmetric.distortion_report) is
check_embedding's report on the ladder map with its bound beside it.
Bisections are decoded only for the witnesses a report prints. Reports and results are NamedTuples;
serialize writes a report's fields through jsonable and names only the
renamed and derived keys. SuiteBudget is a groupoid.Value, checked when it is built.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import compress, repeat
from itertools import product as iproduct
from math import prod
from operator import ne
from typing import NamedTuple

from .constructions import (
    NoTransversalError,
    PackedProduct,
    SemigroupMap,
    TransversalSystem,
    block_codes,
    checked_block_code,
    find_transversals,
    finite_index_map,
    rectangle_decompose,
)
from .groupoid import FiniteGroupoid, Value, product_groupoid
from .semigroup import (
    PackedMonoid,
    PoolTable,
    group_codes,
    group_count,
    malg_count,
    malg_masks,
    semigroup_codes,
    semigroup_count,
)

DEFAULT_SEED = 1729


class IncompletePairListError(ValueError):
    """A pair-list map is missing a required product image."""


class SuiteBudget(Value):
    _fields = ("exhaustive_cap", "sample_count", "seed")

    def __init__(self, exhaustive_cap: int = 200_000, sample_count: int = 500, seed: int = DEFAULT_SEED):
        if exhaustive_cap < 1 or sample_count < 1:
            raise ValueError("budget caps must be positive")
        self._set(exhaustive_cap, sample_count, seed)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: dict = {}  # shared by every result built without details; never mutated


class SuiteResult(NamedTuple):
    name: str
    params: dict
    budget: SuiteBudget
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# Element pools and tuple budgets


def _held(count: int, budget: SuiteBudget) -> tuple[int, bool]:
    """How many of `count` elements or tuples a pool or tuple set holds,
    and whether that is all of them: every one when the count fits
    budget.exhaustive_cap, and min(budget.sample_count, cap) otherwise."""
    if count <= budget.exhaustive_cap:
        return count, True
    return min(budget.sample_count, budget.exhaustive_cap), False


def _pool(pm: PackedMonoid, kind: str, budget: SuiteBudget):
    """The pool of `kind` on pm and whether it is exhaustive: packed codes
    for "semigroup" and "group", unit bitmasks for "malg" (which pm may
    also be a PoolTable for).

    Exhaustive or `target` distinct elements, as _held rules: first the
    unit and then, as far as that bound admits, the zero ("semigroup") or
    the empty mask (for "malg", whose unit is the full mask), then the
    rest, all sorted as Bisections sort by their arrows (by the integer
    key pm.arrow_key, with no Arrow built) and unit sets by their units.
    When 2 * target exceeds the count, the rest is one
    seeded rng.sample of the other elements in enumeration order, so the
    pool costs one enumeration of fewer than 2 * cap elements; otherwise
    it is seeded draws (_draw, or a coin per unit for "malg") until the
    pool holds target elements.
    """
    full = kind == "group"
    counter, enumerate_ = {
        "semigroup": (semigroup_count, semigroup_codes),
        "group": (group_count, group_codes),
        "malg": (malg_count, malg_masks),
    }[kind]
    count = counter(pm.groupoid)
    target, exhaustive = _held(count, budget)
    if exhaustive:
        return list(enumerate_(pm)), True

    rng = random.Random(budget.seed)
    units = range(pm.n_units)
    if kind == "malg":
        seeds, order = [pm.full_mask, 0][:target], lambda mask: [u for u in units if mask >> u & 1]
    else:
        seeds, order = ([pm.one] if full else [pm.one, pm.zero][:target]), pm.arrow_key
    if 2 * target > count:
        # the draws needed to fill the pool grow steeply as target
        # nears count, and no draw is charged to the cap; the count is
        # below 2 * cap, so enumerate and sample from that instead
        rest = [x for x in enumerate_(pm) if x not in seeds]
        return sorted(seeds + rng.sample(rest, target - len(seeds)), key=order), False

    pool = set(seeds)
    while len(pool) < target:
        if kind == "malg":
            pool.add(sum([1 << u for u in units if rng.random() < 0.5]))
        else:
            pool.add(_draw(pm, rng, full))
    return sorted(pool, key=order), False


def _draw(pm: PackedMonoid, rng: random.Random, full: bool) -> tuple[int, ...]:
    """One seeded draw of _pool: per component, each point a source with
    probability 1/2 (every point when full), then distinct random ranges,
    then a group label per arrow. Each arrow (h, y_to, y_from) is written
    straight into its entry, base + y_from gets (base + y_to) * M + h with
    base the component's first unit, and no Arrow is built."""
    out = [-1] * pm.n_units
    order, base = pm.order, 0
    for c in pm.groupoid.components:
        n, m = c.base_size, c.group_order
        sources = range(n) if full else [y for y in range(n) if rng.random() < 0.5]
        for y_from, y_to in zip(sources, rng.sample(range(n), len(sources))):
            out[base + y_from] = (base + y_to) * order + rng.randrange(m)
        base += n
    return tuple(out)


def _kernel(g: FiniteGroupoid, budget: SuiteBudget, kind: str = "semigroup"):
    """The kernel a [[G]] suite runs on, its pool of `kind` ("semigroup" or
    "group") as handles, and whether that pool is exhaustive.

    When _held holds all n*n pairs of the n elements of [[G]], [[G]] is closed under product and inverse and is tabulated once:
    (PoolTable, pool indices), for "group" the indices of its full
    elements, which come in the order of group_codes. Otherwise
    (PackedMonoid, the codes of _pool). Handles are equal exactly when
    their elements are, and both kernels take the same calls and
    subscripts (products[a][b], distances[a][b]), so a suite keeps one
    loop per tuple set and compares the same values on either.
    """
    pm = PackedMonoid(g)
    n = semigroup_count(g)
    if not _held(n * n, budget)[1]:
        return (pm, *_pool(pm, kind, budget))
    table = PoolTable(pm, list(semigroup_codes(pm)))
    full = table.full_mask
    if kind == "group":
        return table, [i for i in range(n) if table.src(i) == table.rng(i) == full], True
    return table, list(range(n)), True


def _run(sizes, budget: SuiteBudget, pools_exhaustive: bool):
    """The index tuples a check runs, over pools of the given sizes (one
    index per pool), as rows (*prefix, lasts), and the details `tested`
    and `exhaustive` of the check that runs them.

    All of them or the number _held gives for the product of the sizes;
    all are exhaustive exactly when the pools are too. A row holds a
    prefix of leading indices and the last indices that follow it, so a
    check reads what depends on the prefix once per row: when every tuple
    runs, lasts is range(sizes[-1]) after each prefix of the leading
    sizes; sampled, each tuple is one row (*prefix, (last,)), drawn with
    budget.seed + len(sizes) and one randrange per slot, in order. Every
    check over more than one element takes its tuples, `tested` and
    `exhaustive` from here, and builds nothing whose length is a product
    of pool sizes over the cap.
    """
    *head, last = sizes
    tested, every = _held(prod(sizes), budget)
    if every:
        rows = iproduct(*map(range, head), [range(last)])
    else:
        randrange = random.Random(budget.seed + len(sizes)).randrange
        rows = [(*map(randrange, head), (randrange(last),)) for _ in range(tested)]
    return rows, {"tested": tested, "exhaustive": every and pools_exhaustive}


def pool_pairs(pm: PackedMonoid, budget: SuiteBudget):
    """The "semigroup" pool of _pool on pm and the rows of _run over its
    pairs, as a certificate's passes take them: (pool, rows, exhaustive,
    tested), the rows as a list, since both passes read them."""
    pool, exhaustive = _pool(pm, "semigroup", budget)
    n = len(pool)
    rows, run = _run((n, n), budget, exhaustive)
    return pool, list(rows), run["exhaustive"], run["tested"]


def element_pairs(g: FiniteGroupoid, budget: SuiteBudget) -> int:
    """The `tested` of pool_pairs on [[g]], counted without building the
    pool: _held of the pairs of _held of the elements."""
    return _held(_held(semigroup_count(g), budget)[0] ** 2, budget)[0]


# ---------------------------------------------------------------------------
# Almost morphisms


class AlmostMorphismReport(NamedTuple):
    k_size: int
    epsilon: Fraction
    max_product_deviation: Fraction
    max_trace_deviation: Fraction
    max_distance_deviation: Fraction
    passed: bool
    witnesses: dict


def check_almost_morphism(pi, K, epsilon, packed: PackedMonoid | None = None) -> AlmostMorphismReport:
    """Exact deviations of a candidate map on a finite set K.

    pi is a semigroup map or a finite pair list (dict); a pair list missing
    the image of some product of K-elements is rejected as incomplete. The
    verdict uses the product and trace deviations, strictly below epsilon;
    the distance deviation is measured and reported alongside. Every pair
    of K, in order and as whole rows, runs through _deviations on packed
    codes, whose product pass is skipped for a semigroup map that
    arrow_certificate certifies within |K|^2 composable arrow pairs, the
    pairs the pass would run. K is a list of Bisections, or of codes of
    packed when that is given.
    """
    epsilon = Fraction(epsilon)
    K = list(K)
    if packed is None:
        if len({a.groupoid for a in K}) > 1:
            raise ValueError("K mixes groupoids")
        if not K:
            zero = Fraction(0)
            return AlmostMorphismReport(0, epsilon, zero, zero, zero, zero < epsilon, {})
        dom = PackedMonoid(K[0].groupoid)
        pool, element = [dom.encode(a) for a in K], K.__getitem__
    else:
        dom, pool = packed, K
        element = lambda i: dom.decode(pool[i])
    exact = False
    if isinstance(pi, SemigroupMap):
        cod = PackedMonoid(pi.codomain)
        f = pi.packed(dom, cod)
        exact = _certify(pi, dom, cod, f, len(pool) ** 2)[0].verdict == "certified"
    else:
        # a pair list, as a dict from domain code to codomain code; with no
        # pairs every lookup fails, so any codomain will do
        pairs = dict(pi)
        codomains = {y.groupoid for y in pairs.values()} or {dom.groupoid}
        if len(codomains) > 1:
            raise ValueError("pair list images live on different groupoids")
        cod = PackedMonoid(codomains.pop())
        table = {dom.encode(x): cod.encode(y) for x, y in pairs.items() if x.groupoid == dom.groupoid}

        def f(x):
            if x not in table:
                arrows = len(x) - x.count(-1)
                raise IncompletePairListError(f"pair list does not cover a required element ({arrows} arrows)")
            return table[x]

    every = range(len(pool))
    _, (prod_dev, trace_dev, dist_dev), at = _deviations(f, dom, cod, pool, [(i, every) for i in every], exact)
    return AlmostMorphismReport(
        k_size=len(K),
        epsilon=epsilon,
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        passed=prod_dev < epsilon and trace_dev < epsilon,
        witnesses=_witnesses(at, element),
    )


class EmbeddingReport(NamedTuple):
    label: str
    element_count: int
    pair_count: int
    exhaustive: bool
    method: str
    max_product_deviation: Fraction
    max_trace_deviation: Fraction
    max_distance_deviation: Fraction
    unit_preserved: bool
    injective: bool
    trace_iso_consistent: bool
    witnesses: dict

    @property
    def multiplicative(self) -> bool:
        return self.max_product_deviation == 0

    @property
    def trace_preserving(self) -> bool:
        return self.max_trace_deviation == 0

    @property
    def isometric(self) -> bool:
        return self.max_distance_deviation == 0

    @property
    def passed(self) -> bool:
        return (
            self.multiplicative
            and self.trace_preserving
            and self.isometric
            and self.unit_preserved
            and self.injective
            and self.trace_iso_consistent
        )


class _Images(dict):
    """f's value at each code, computed on the first lookup of that code."""

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, x):
        fx = self[x] = self._f(x)
        return fx


def _deviations(f, dom: PackedMonoid, cod: PackedMonoid, pool: list, rows: list, exact: bool = False):
    """The loop of both certificates: f maps codes of dom to codes of cod,
    and rows is a list of _run's rows (ia, lasts) of index pairs into the
    pool: whole rows (lasts the range of every pool index), which come in
    pool order, or drawn pairs (lasts one index). Returns the images of
    the pool, the exact product, trace and distance maxima as Fractions,
    and where each is first reached: the metric pass (metric_deviations),
    then the product pass, whose "product" witness is a pair of pool
    indices. When exact, f is multiplicative on all of [[G]]
    (arrow_certificate certified it), so the product pass is skipped and
    the product maximum is 0 with no witness, as the pass would find.

    f runs once per distinct code: the pool's, then each product's that is
    not yet mapped. A whole row takes the products of its left factor from
    the left rows (PackedMonoid.left_row) of the factor and of its image,
    a drawn pair by mul, and cod.dist runs only where f(xy) != f(x)f(y).
    """
    mapped = _Images(f)
    images = list(map(mapped.__getitem__, pool))
    trace_dev, dist_dev, at = metric_deviations(dom, cod, pool, images, rows)
    if exact:
        return images, (Fraction(0), trace_dev, dist_dev), at
    dom_mul, cod_mul, cod_dist = dom.mul, cod.mul, cod.dist
    prod_dev = 0
    for ia, lasts in rows:
        x, fx = pool[ia], images[ia]
        if isinstance(lasts, range):
            fxys = list(map(mapped.__getitem__, map(tuple, map(map, repeat(dom.left_row(x).__getitem__), pool))))
            fxfys = list(map(tuple, map(map, repeat(cod.left_row(fx).__getitem__), images)))
        else:
            # a left row, read once, costs about two muls (12.3 against
            # 6.8 us at 72 points), and a drawn left factor seldom recurs
            (ib,) = lasts
            fxys, fxfys = [mapped[dom_mul(x, pool[ib])]], [cod_mul(fx, images[ib])]
        # equal codes are deviation 0, which never raises the maximum
        for j in compress(range(len(fxys)), map(ne, fxys, fxfys)):
            dev = cod_dist(fxys[j], fxfys[j])
            if dev > prod_dev:
                prod_dev, at["product"] = dev, (ia, lasts[j])
    return images, (Fraction(prod_dev, cod.denom), trace_dev, dist_dev), at


def metric_deviations(dom: PackedMonoid, cod: PackedMonoid, pool: list, images: list, rows: list):
    """The maxima of |tr(f(x)) - tr(x)| over the pool and of
    |d(f(x), f(y)) - d(x, y)| over the pairs of rows (as in _deviations),
    where images[i] = f(pool[i]), as Fractions, and where each is first
    reached ("trace": a pool index, "distance": a pair of them). A whole
    row takes its distances from dom.dist_rows and cod.dist_rows, which
    yield a row per pool index in pool order, as whole rows come; a drawn
    pair takes its by dist. A row's first maximal index is its witness.
    """
    d_dom, d_cod = dom.denom, cod.denom
    trace_dev = dist_dev = 0
    at = {}
    for i, (x, fx) in enumerate(zip(pool, images)):
        dev = abs(dom.trace(x) * d_cod - cod.trace(fx) * d_dom)
        if dev > trace_dev:
            trace_dev, at["trace"] = dev, i
    # the row generators run only as far as whole rows draw on them
    dom_rows, cod_rows, dom_dist, cod_dist = dom.dist_rows(pool), cod.dist_rows(images), dom.dist, cod.dist
    for ia, lasts in rows:
        if isinstance(lasts, range):
            devs = [abs(d * d_cod - c * d_dom) for d, c in zip(next(dom_rows), next(cod_rows))]
        else:
            (ib,) = lasts
            devs = [abs(dom_dist(pool[ia], pool[ib]) * d_cod - cod_dist(images[ia], images[ib]) * d_dom)]
        dev = max(devs)
        if dev > dist_dev:
            dist_dev, at["distance"] = dev, (ia, lasts[devs.index(dev)])
    scale = d_dom * d_cod
    return Fraction(trace_dev, scale), Fraction(dist_dev, scale), at


def _witnesses(at: dict, element) -> dict:
    """The elements at the indices that _deviations returned, where
    element(i) is the Bisection at pool index i."""
    return {k: element(i) if k == "trace" else (element(i[0]), element(i[1])) for k, i in at.items()}


def check_embedding(m: SemigroupMap, budget: SuiteBudget | None = None) -> EmbeddingReport:
    """Certificate that a map is an exact embedding on the tested set.

    For an exactly multiplicative unit-preserving map, trace preservation
    and isometry are equivalent; the report cross-checks that equivalence
    concretely and flags any discrepancy as an implementation bug.

    Domain and codomain are packed, and the map runs on codes through
    m.packed, the scatter of its table. arrow_deviations comes first: when
    its closed form applies, the report is exact on all of [[m.domain]]
    (method "arrow-table": element_count is the domain arrows read,
    pair_count the composable arrow pairs charged) and no pool is built.
    Otherwise the pool and pairs of pool_pairs run through _deviations
    (method "elements"), with the product pass skipped when the
    certificate certified m: the deviation it would measure is 0.
    """
    budget = budget or SuiteBudget()
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    f = m.packed(dom, cod)
    cert, exact = arrow_deviations(m, dom, cod, f, budget)
    if exact is not None:
        method, n, pair_count, exhaustive = "arrow-table", m.domain.n_arrows, cert.pairs, True
        prod_dev, trace_dev = Fraction(0), exact.deviation
        dist_dev, unit_ok, injective = trace_dev, exact.unit_preserved, exact.injective
        witnesses = {}
        if exact.witness is not None:
            one_a = dom.decode(exact.witness)
            witnesses = {"trace": one_a, "distance": (one_a, dom.decode(dom.zero))}
    else:
        method = "elements"
        pool, rows, exhaustive, pair_count = pool_pairs(dom, budget)
        n = len(pool)
        images, (prod_dev, trace_dev, dist_dev), at = _deviations(
            f, dom, cod, pool, rows, cert.verdict == "certified"
        )
        unit_ok = images[pool.index(dom.one)] == cod.one  # every pool holds the unit
        injective = len(set(images)) == n
        witnesses = _witnesses(at, lambda i: dom.decode(pool[i]))

    consistent = True
    if prod_dev == 0 and unit_ok:
        consistent = (trace_dev == 0) == (dist_dev == 0)
    return EmbeddingReport(
        label=m.label,
        element_count=n,
        pair_count=pair_count,
        exhaustive=exhaustive,
        method=method,
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        unit_preserved=unit_ok,
        injective=injective,
        trace_iso_consistent=consistent,
        witnesses=witnesses,
    )


class ArrowCertificate(NamedTuple):
    """What arrow_certificate found. verdict is "certified", "refuted" or
    "not run"; pairs is the count of composable arrow pairs charged to the
    cap. A refutation names the check that failed ("non-composable" or
    "composable") and its witness, the first bad pair of domain arrows
    (a, b)."""

    verdict: str
    pairs: int
    check: str | None = None
    witness: tuple | None = None


def arrow_certificate(m: SemigroupMap, budget: SuiteBudget | None = None) -> ArrowCertificate:
    """Whether m is multiplicative on all of [[m.domain]], from its arrow
    table alone.

    The map sends x to the union of T(a) over the arrows a of x. The
    images of two arrows that can share a bisection are disjoint, since
    SemigroupMap checks its table when it is built, so that union is the
    scatter of SemigroupMap.packed, and f(x)f(y) is the union of T(a)T(b)
    over the arrows a of x and b of y. So the map is multiplicative if
    and only if T(a)T(b) = T(ab) for every composable pair (s(a) = r(b))
    and T(a)T(b) is empty for every other pair; the single-arrow
    bisections give the "only if". The certificate checks exactly that,
    in two passes, and a refutation reports the first that fails:
    - "non-composable", one linear pass: for each codomain unit v, every a
      whose image has an arrow of source v and every b whose image has an
      arrow of range v have s(a) = r(b);
    - "composable": for each such pair, T(a)T(b) through the left row of
      T(a) (PackedMonoid.left_row), against T(ab), each image the code
      that the scatter of SemigroupMap.packed gives its single arrow.
    The composable pairs, sum(m^2 * n^3) over the domain's components of
    group order m and base size n, are charged to budget.exhaustive_cap
    first; over the cap the certificate does not run.
    """
    budget = budget or SuiteBudget()
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    return _certify(m, dom, cod, m.packed(dom, cod), budget.exhaustive_cap)[0]


def _certify(m: SemigroupMap, dom: PackedMonoid, cod: PackedMonoid, f, cap: int):
    """arrow_certificate on the kernels of m's domain and codomain, within
    cap composable arrow pairs, where f = m.packed(dom, cod), the scatter
    that a certificate runs its pool through, and the image code of each
    domain arrow that the composable pass built (empty when that pass did
    not run). m's table was checked when m was built, so its images are
    disjoint where they must be, and the image_hits of that check are
    m.hits."""
    pairs = sum(c.group_order**2 * c.base_size**3 for c in m.domain.components)
    if pairs > cap:
        return ArrowCertificate("not run", pairs), {}

    # T(a)T(b) is nonempty exactly when a is among the starts and b among
    # the ends at some codomain unit, so every such pair must be
    # composable: the ends share one range, and it is every start's
    # source. The witness is the first bad pair by a and then b: when the
    # ends have two ranges every start has a bad partner, so a is the
    # first start; otherwise a is the first start off the ends' range
    sources, ranges = m.hits
    for v, starts in sources.items():
        ends = ranges.get(v)
        if not ends:
            continue
        targets = {b.range for b in ends}
        a = starts[0] if len(targets) > 1 else next((a for a in starts if a.source not in targets), None)
        if a is not None:
            b = next(b for b in ends if b.range != a.source)
            return ArrowCertificate("refuted", pairs, "non-composable", (a, b)), {}

    # T(a) is the scatter of the code of the single arrow a
    arrows = list(m.domain.arrows())
    images, into = {}, {}  # into: domain unit -> the arrows of that range
    for a in arrows:
        u, x = dom.place(a)
        images[a] = f(dom.zero[:u] + (x,) + dom.zero[u + 1 :])
        into.setdefault(a.range, []).append(a)
    mul = m.domain.mul
    for a in arrows:
        row = cod.left_row(images[a]).__getitem__
        for b in into[a.source]:
            if tuple(map(row, images[b])) != images[mul(a, b)]:
                return ArrowCertificate("refuted", pairs, "composable", (a, b)), images
    return ArrowCertificate("certified", pairs), images


class ArrowDeviations(NamedTuple):
    """What arrow_deviations reads off a certified table. deviation is both
    the trace and the distance sup over all of [[G]]; witness is the code
    of 1_A, A the side of the larger weight sum, or None when deviation is
    0."""

    deviation: Fraction
    witness: tuple | None
    unit_preserved: bool
    injective: bool


def arrow_deviations(m: SemigroupMap, dom: PackedMonoid, cod: PackedMonoid, f, budget: SuiteBudget):
    """The certificate of m within the element pairs its element pass would
    run (element_pairs), and m's exact deviations over all of [[m.domain]]
    when they have a closed form, else None; f = m.packed(dom, cod).

    The closed form needs a certified m (so each T(1_u) is idempotent, a
    unit set) whose non-unit arrows' images hold no unit arrow. Then
    tr(f(x)) - tr(x) = W(x), the sum of the weights w(u) = tr(T(1_u)) - mu(u)
    over the unit arrows of x, and d(f(x), f(y)) - d(x, y) is W of the set
    where x and y disagree, which any unit set A is (x = 1_A, y = 0). So
    the trace and distance sups are both max(sum of w+, sum of |w-|),
    witnessed by 1_A and (1_A, 0) for A the units of that side (w+ on a
    tie); f(1) = 1 exactly when the T(1_u) cover the codomain's units, and
    f is injective exactly when no T(1_u) is empty. The weights are read
    from the images the certificate built, as integers over
    dom.denom * cod.denom.
    """
    cert, images = _certify(m, dom, cod, f, element_pairs(m.domain, budget))
    if cert.verdict != "certified":
        return cert, None
    d_dom, d_cod = dom.denom, cod.denom
    plus = minus = covered = 0  # unit masks
    gain = loss = 0
    injective = True
    for a, image in images.items():
        fixed = cod.fix(image)
        if not a.is_unit():
            if fixed:
                return cert, None
            continue
        u = dom.place(a)[0]
        covered |= fixed
        injective = injective and fixed != 0
        w = cod.mass(fixed) * d_dom - dom.weights[u] * d_cod
        if w > 0:
            gain, plus = gain + w, plus | 1 << u
        elif w < 0:
            loss, minus = loss - w, minus | 1 << u
    sup, side = (gain, plus) if gain >= loss else (loss, minus)
    witness = dom.idem(side) if sup else None
    return cert, ArrowDeviations(Fraction(sup, d_dom * d_cod), witness, covered == cod.full_mask, injective)


# ---------------------------------------------------------------------------
# Named suites


def _result(name, passed, **details) -> CheckResult:
    return CheckResult(name, passed, details)


def suite_inverse_monoid(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    M = k.products
    n = len(pool)
    one, zero = k.one, k.zero
    invs = [k.inv(a) for a in pool]
    checks = []

    bad = [a for a in pool if not (M[a][one] == a == M[one][a])]
    checks.append(_result("unit-law", not bad, tested=n, exhaustive=exhaustive))
    bad = [a for a in pool if not (M[zero][a] == zero == M[a][zero])]
    checks.append(_result("zero-absorbing", not bad, tested=n, exhaustive=exhaustive))

    bad = [a for a, ai in zip(pool, invs) if M[M[a][ai]][a] != a or M[M[ai][a]][ai] != ai]
    checks.append(_result("inverse-law", not bad, tested=n, exhaustive=exhaustive))

    triples, run = _run((n, n, n), budget, exhaustive)
    viol = 0
    for ia, ib, lasts in triples:
        a, b = pool[ia], pool[ib]
        Ma, Mb = M[a], M[b]
        Mab = M[Ma[b]]
        for ic in lasts:
            c = pool[ic]
            viol += Mab[c] != Ma[Mb[c]]
    checks.append(_result("associativity", viol == 0, violations=viol, **run))

    pairs, run = _run((n, n), budget, exhaustive)
    viol = 0
    for ia, lasts in pairs:
        a, ai = pool[ia], invs[ia]
        Ma = M[a]
        for ib in lasts:
            b = pool[ib]
            if M[Ma[b]][a] == a and M[M[b][a]][b] == b and b != ai:
                viol += 1
    checks.append(_result("inverse-uniqueness", viol == 0, violations=viol, **run))

    unit_sets = [k.fix(a) == k.src(a) for a in pool]
    bad = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set != (M[a][a] == a)]
    checks.append(
        _result("idempotents-are-unit-sets", not bad, tested=n, exhaustive=exhaustive)
    )

    idems = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set]
    pairs, run = _run((len(idems), len(idems)), budget, exhaustive)
    viol = 0
    for i, lasts in pairs:
        e = idems[i]
        Me = M[e]
        for j in lasts:
            f = idems[j]
            viol += Me[f] != M[f][e]
    checks.append(_result("idempotents-commute", viol == 0, **run))
    return checks


def suite_metric(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    M, D, mass = k.products, k.distances, k.mass
    n = len(pool)
    invs = [k.inv(a) for a in pool]
    src = [k.src(a) for a in pool]
    rng = [k.rng(a) for a in pool]
    checks = []

    bad = [i for i in range(n) if mass(src[i]) != mass(rng[i])]
    checks.append(_result("pmp-mass-law", not bad, tested=n, exhaustive=exhaustive))

    # the pair checks share one run of pairs
    pairs, run2 = _run((n, n), budget, exhaustive)
    asymmetric = zero_off_diagonal = not_invariant = uncorrected = inverse_far = 0
    witness = None
    for i, lasts in pairs:
        a, src_a, rng_a = pool[i], src[i], rng[i]
        Da, Dai, Ma = D[a], D[invs[i]], M[a]
        for j in lasts:
            b = pool[j]
            Db, dab = D[b], Da[b]
            asymmetric += dab != Db[a]
            # a pool holds each element once
            zero_off_diagonal += (dab == 0) != (i == j)
            change = Dai[invs[j]] - dab
            if change:
                not_invariant += 1
                if witness is None:
                    witness = tuple([list(x) for x in k.arrows(y)] for y in (a, b))
            uncorrected += change != mass(rng_a | rng[j]) - mass(src_a | src[j])
            inverse_far += Da[invs[j]] > Da[M[Ma[b]][a]] + Db[M[M[b][a]][b]]
    checks.append(_result("symmetry", asymmetric == 0, **run2))
    checks.append(_result("zero-iff-equal", zero_off_diagonal == 0, **run2))

    triples, run = _run((n, n, n), budget, exhaustive)
    viol = 0
    for ia, ib, lasts in triples:
        Da, Db = D[pool[ia]], D[pool[ib]]
        dab = Da[pool[ib]]
        for ic in lasts:
            c = pool[ic]
            viol += Da[c] > dab + Db[c]
    checks.append(_result("triangle", viol == 0, violations=viol, **run))

    checks.append(
        _result(
            "inverse-invariance",
            not_invariant == 0,
            violations=not_invariant,
            witness=witness,
            note="fails off the full group; see inverse-invariance-corrected",
            **run2,
        )
    )

    full = [i for i in range(n) if src[i] == rng[i] == k.full_mask]
    pairs, run = _run((len(full), len(full)), budget, exhaustive)
    viol = 0
    for fi, lasts in pairs:
        i = full[fi]
        Dai, Da = D[invs[i]], D[pool[i]]
        for fj in lasts:
            j = full[fj]
            viol += Dai[invs[j]] != Da[pool[j]]
    checks.append(_result("inverse-invariance-full-group", viol == 0, **run))
    checks.append(_result("inverse-invariance-corrected", uncorrected == 0, **run2))

    quadruples, run = _run((n, n, n, n), budget, exhaustive)
    viol = 0
    for ia, ib, ic, lasts in quadruples:
        a, b, c = pool[ia], pool[ib], pool[ic]
        Dab, Mc, Db, dac = D[M[a][b]], M[c], D[b], D[a][c]
        for id_ in lasts:
            d = pool[id_]
            viol += Dab[Mc[d]] > dac + Db[d]
    checks.append(_result("product-inequality", viol == 0, violations=viol, **run))
    checks.append(_result("inverse-triangle", inverse_far == 0, violations=inverse_far, **run2))
    return checks


def suite_trace_distance(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    M, D, trace = k.products, k.distances, k.trace
    one, total = k.one, k.total
    sources = [k.idem(k.src(a)) for a in pool]
    source_traces = [trace(s) for s in sources]
    invs = [k.inv(a) for a in pool]
    n = len(pool)
    checks = []

    bad = 0
    for a, s in zip(pool, sources):
        if trace(a) != total - D[s][one] - D[s][a]:
            bad += 1
    checks.append(_result("trace-from-distance", bad == 0, tested=n, exhaustive=exhaustive))

    pairs, run = _run((n, n), budget, exhaustive)
    bad = 0
    for ia, lasts in pairs:
        a, t_a = pool[ia], source_traces[ia]
        Da, Ms = D[a], M[sources[ia]]
        for ib in lasts:
            bad += Da[pool[ib]] != t_a + source_traces[ib] - trace(Ms[sources[ib]]) - trace(M[invs[ib]][a])
    checks.append(_result("distance-from-trace", bad == 0, **run))
    return checks


def suite_supports(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, group, exhaustive = _kernel(g, budget, "group")
    malg, malg_exh = _pool(k, "malg", budget)
    M, D, idem, src, rng, fix = k.products, k.distances, k.idem, k.src, k.rng, k.fix
    total = k.total
    traces = [k.trace(a) for a in group]
    fixes = [fix(a) for a in group]
    supps = [src(a) & ~f for a, f in zip(group, fixes)]
    moved = [D[k.one][a] for a in group]
    ones = [idem(units) for units in malg]  # 1_A for each unit set A
    n, m = len(group), len(malg)
    both_exhaustive = exhaustive and malg_exh
    checks = []

    # the three pair checks on the group share one run of pairs;
    # covariance is supp(a b a^-1) = a(supp(b)), where a(A) = rng(a 1_A)
    pairs, run = _run((n, n), budget, exhaustive)
    not_fix = not_disjoint = not_covariant = 0
    for i, lasts in pairs:
        a, supp_a, trace_a, moved_a = group[i], supps[i], traces[i], moved[i]
        Da, Ma, a_inv = D[a], M[a], k.inv(a)
        for j in lasts:
            dab, supp_b = Da[group[j]], supps[j]
            not_fix += (supp_a == fixes[j]) != (dab == total and trace_a + traces[j] == total)
            not_disjoint += (not supp_a & supp_b) != (dab == moved_a + moved[j])
            conj = M[Ma[group[j]]][a_inv]
            not_covariant += src(conj) & ~fix(conj) != rng(Ma[idem(supp_b)])
    checks.append(_result("supp-eq-fix", not_fix == 0, **run))
    checks.append(_result("disjoint-supports", not_disjoint == 0, **run))
    checks.append(_result("covariance", not_covariant == 0, **run))

    pairs, run = _run((n, m), budget, both_exhaustive)
    viol, mass = 0, k.mass
    for i, lasts in pairs:
        Ma = M[group[i]]
        for A in lasts:
            viol += mass(rng(Ma[ones[A]])) != mass(malg[A])
    checks.append(_result("action-preserves-mass", viol == 0, **run))

    triples, run = _run((n, m, m), budget, both_exhaustive)
    viol = 0
    for i, A, lasts in triples:
        Ma, units_a = M[group[i]], malg[A]
        for B in lasts:
            if not units_a & ~malg[B] and rng(Ma[ones[A]]) & ~rng(Ma[ones[B]]):
                viol += 1
    checks.append(_result("action-preserves-order", viol == 0, **run))

    # (a 1_A)(b 1_B) = ab 1_C, where C = B n b^-1(A) and b^-1(A) = src(1_A b)
    quadruples, run = _run((n, n, m, m), budget, both_exhaustive)
    viol = 0
    for i, j, A, lasts in quadruples:
        Ma, b, e = M[group[i]], group[j], ones[A]
        Mae, Mb, Mab, s = M[Ma[e]], M[b], M[Ma[b]], src(M[e][b])
        for B in lasts:
            viol += Mae[Mb[ones[B]]] != Mab[idem(malg[B] & s)]
    checks.append(_result("corner-product-identity", viol == 0, **run))
    return checks


def suite_extension(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    pm = PackedMonoid(g)
    pool, exhaustive = _pool(pm, "semigroup", budget)
    for x in pool:
        pm.extend(x)
    n = len(pool)
    # the rows record the certificate extend made on every element: a
    # completion that is not full or does not contain x raises
    # ExtensionCertificateError instead of a report. On a full x extend
    # keeps every entry and its containment check compares all of them, so
    # the completion it returns is x itself
    return [
        _result(name, True, tested=n, exhaustive=exhaustive)
        for name in ("extension-contains", "extension-full", "extension-fixes-full-group")
    ]


def suite_finite_index(
    g: FiniteGroupoid, sub_arrows, budget: SuiteBudget, system: TransversalSystem | None = None
) -> list[CheckResult]:
    checks = []
    if system is None:
        # find_transversals raises CertificateError unless the system it
        # returns has no violations, so only a given system is checked here
        system, problems = find_transversals(g, sub_arrows), []
    elif frozenset(sub_arrows) != system.sub_arrows:
        raise ValueError("subgroupoid not that of the transversal system")
    else:
        problems = system.violations()
    checks.append(_result("transversal-partition", not problems, index=system.index, problems=problems))

    pm = PackedMonoid(g)
    pool, exhaustive = _pool(pm, "semigroup", budget)
    nn = system.index
    # each element's block matrix is its code in G x [[nn]], kept once (None,
    # a failure, where a column holds two blocks at one unit)
    kernel, code = block_codes(system, pm)
    codes = _Images(code)
    passed = [x for x in pool if checked_block_code(kernel, codes.__getitem__, pm, x) is not None]
    passed_codes = list(map(codes.__getitem__, passed))
    checks.append(_result("block-asserts", len(passed) == len(pool), tested=len(pool), exhaustive=exhaustive))

    # the checks below run over the elements that passed. A pair compares
    # the code of ab with the product of the codes of a and b, through the
    # left rows of a and of its code, built once per row
    pairs, run = _run((len(passed), len(passed)), budget, exhaustive)
    viol = 0
    for ia, lasts in pairs:
        a, row = pm.left_row(passed[ia]).__getitem__, kernel.left_row(passed_codes[ia]).__getitem__
        for ib in lasts:
            viol += tuple(map(row, passed_codes[ib])) != codes[tuple(map(a, passed[ib]))]
    checks.append(_result("block-identity", viol == 0, violations=viol, **run))

    # tr(x_ii) = tr(x) for each i: the kernel units (v, i) are those of copy
    # i (pair_arrow numbers them y*nn + i), each of mass mu(v)/nn
    copies = [kernel.mask([u for u in kernel.units if u[1] % nn == i]) for i in range(nn)]
    viol = 0
    for x, c in zip(passed, passed_codes):
        t, fixed = pm.trace(x) * kernel.denom, kernel.fix(c)
        viol += any(nn * pm.denom * kernel.mass(fixed & copy) != t for copy in copies)
    checks.append(_result("diagonal-trace", viol == 0, tested=len(passed), exhaustive=exhaustive))

    try:
        report = check_embedding(finite_index_map(system), budget)
    except NoTransversalError as exc:
        # an invalid system makes the lift itself ill-defined
        label = f"index[{nn}].identity"
        checks.append(_result("lift-exact-embedding", False, label=label, error=str(exc)))
        return checks
    checks.append(
        _result(
            "lift-exact-embedding",
            report.passed,
            label=report.label,
            element_count=report.element_count,
            tested=report.pair_count,
            exhaustive=report.exhaustive,
            method=report.method,
            max_product_deviation=report.max_product_deviation,
            max_trace_deviation=report.max_trace_deviation,
            max_distance_deviation=report.max_distance_deviation,
        )
    )
    return checks


def suite_rectangles(
    left: FiniteGroupoid, right: FiniteGroupoid, budget: SuiteBudget
) -> list[CheckResult]:
    pp = PackedProduct(product_groupoid(left, right))
    pool, exhaustive = _pool(pp.pm, "semigroup", budget)
    for x in pool:
        for reverse in (False, True):
            rectangle_decompose(pp, x, reverse)
    n = len(pool)
    # these three rows record the certificates rectangle_decompose made on
    # both decompositions of every element: a RectangleUnion is checked for
    # overlaps when it is built, and the union must reassemble the element,
    # so both orientations reassemble the same element; either failure
    # raises CertificateError instead of a report. Non-identity tensors are
    # checked against both orientations in tests/test_products.py
    checks = [
        _result(name, True, tested=n, exhaustive=exhaustive)
        for name in ("monoid-invariants", "decomposition-covers", "redecomposition-invariance")
    ]

    lefts, lexh = _pool(pp.left, "semigroup", budget)
    rights, rexh = _pool(pp.right, "semigroup", budget)
    # tr(a x b) = tr(a) tr(b), with each trace an integer over its denom
    scale, denom = pp.left.denom * pp.right.denom, pp.pm.denom
    trace, trace_left, trace_right = pp.pm.trace, pp.left.trace, pp.right.trace
    pairs, run = _run((len(lefts), len(rights)), budget, lexh and rexh)
    viol, rectangle = 0, pp.rectangle
    for i, lasts in pairs:
        a = lefts[i]
        t_a = trace_left(a) * denom
        for j in lasts:
            b = rights[j]
            viol += trace(rectangle(a, b)) * scale != t_a * trace_right(b)
    checks.append(_result("rectangle-trace-multiplicative", viol == 0, **run))
    return checks


def suite_ladder(n: int, p_list, budget: SuiteBudget) -> list[CheckResult]:
    # symmetric builds each row from this module's check_embedding, so it
    # is imported here, once this module is complete
    from .symmetric import distortion_report

    checks = []
    for rep in (distortion_report(n, p, budget) for p in p_list):
        # a row whose map is not multiplicative, or whose distortion exceeds
        # its bound, raises CertificateError, so only the isometry of whole
        # block copies is checked
        checks.append(
            _result(
                f"ladder-{rep.n}-to-{rep.p}",
                rep.p % rep.n != 0 or rep.observed_sup == 0,
                bound=rep.bound,
                observed_sup=rep.observed_sup,
                trace_sup=rep.trace_sup,
                pairs_tested=rep.pairs_tested,
                exhaustive=rep.exhaustive,
                method=rep.method,
            )
        )
    return checks


SUITES = {
    "inverse-monoid": suite_inverse_monoid,
    "metric-prop": suite_metric,
    "trace-distance": suite_trace_distance,
    "supports": suite_supports,
    "extension": suite_extension,
    "finite-index": suite_finite_index,
    "rectangles": suite_rectangles,
    "ladder": suite_ladder,
}


def run_suite(name: str, budget: SuiteBudget | None = None, **params) -> SuiteResult:
    """Run a named invariant suite; deterministic given (params, seed, budget)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    budget = budget or SuiteBudget()
    checks = SUITES[name](budget=budget, **params)
    printable = {}
    for key, value in params.items():
        if isinstance(value, FiniteGroupoid):
            printable[key] = f"groupoid[{value.n_units} units, {len(value.components)} components]"
        elif isinstance(value, frozenset):
            printable[key] = f"{len(value)} arrows"
        elif isinstance(value, TransversalSystem):
            printable[key] = f"{value.index} transversals"
        else:
            printable[key] = value
    return SuiteResult(name, printable, budget, tuple(checks))
