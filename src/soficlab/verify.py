"""Exact verification: almost-morphism reports, embedding certificates and
named invariant suites.

Every comparison is an exact rational (in)equality; epsilon thresholds are
strict rational comparisons. A check over more than one element takes
its tuples from _tuples: every tuple over its pools whenever their number
fits the budget cap, seeded samples otherwise, and exhaustive only when
every tuple ran over exhaustive pools. Each report records which regime
ran and how many tuples, so a report is a deterministic
function of (inputs, seed, budget). Every element pool comes from _pool,
which charges the cap and then enumerates the pool, or draws it, directly
as codes of semigroup.PackedMonoid (unit sets as bitmasks). Every suite
runs on the kernel's exact integer arithmetic; the rectangles suite on
the codes of constructions.PackedProduct, against the scatter of the
tensor of the factors' identity maps. The inverse-monoid, metric-prop,
trace-distance and supports suites take their kernel from _kernel: when
the n*n pairs of [[G]] fit the cap it becomes a semigroup.PoolTable, whose
operations are lookups by pool index in tables of at most n*n entries,
and otherwise the suite stays on codes. The finite-index suite's block
identity and diagonal trace are predicates run through the same gate over
the elements whose block matrices passed their checks. Both certificates,
check_embedding and check_almost_morphism, run on the kernel too, through
one loop (_deviations) that maps each distinct code once: a map of
constructions scatters its arrow table (SemigroupMap.packed), and a pair
list becomes a dict from domain code to codomain code. The loop is a
metric pass (metric_deviations), which the ladder's distortion reports
run alone, and a product pass. When every pair of the pool runs,
the products come one left factor at a time through its left rows
(PackedMonoid.left_row), and the distances from PackedMonoid.dist_rows;
sampled pairs take theirs by mul and dist. Bisections are decoded only
for the witnesses a report prints. Reports and results are NamedTuples,
which serialize writes field by field (jsonable refuses a record), and
SuiteBudget is a groupoid.Value, checked when it is built.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat, starmap
from itertools import product as iproduct
from math import prod
from operator import ne
from typing import NamedTuple

from .constructions import (
    NoTransversalError,
    PackedProduct,
    SemigroupMap,
    TransversalSystem,
    block_table,
    block_violation,
    finite_index_map,
    identity_map,
    rectangle_decompose,
    tensor,
)
from .groupoid import Arrow, FiniteGroupoid, Value, product_groupoid
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


def _pool(pm: PackedMonoid, kind: str, budget: SuiteBudget):
    """The pool of `kind` on pm and whether it is exhaustive: packed codes
    for "semigroup" and "group", unit bitmasks for "malg" (which pm may
    also be a PoolTable for).

    Exhaustive when the count fits budget.exhaustive_cap. Otherwise up to
    budget.sample_count distinct elements, and no more than the cap: first
    the unit and then, as far as that bound admits, the zero ("semigroup")
    or the empty mask (for "malg", whose unit is the full mask), then
    seeded draws, all sorted as Bisections sort by their arrows and unit
    sets by their units. Per component, a "semigroup" draw picks
    each point as a source with probability 1/2, then distinct random
    ranges, then a group label per arrow; a "group" draw is a random
    permutation and the labels.
    """
    g = pm.groupoid
    full = kind == "group"
    counter, enumerate_ = {
        "semigroup": (semigroup_count, semigroup_codes),
        "group": (group_count, group_codes),
        "malg": (malg_count, malg_masks),
    }[kind]
    count = counter(g)
    if count <= budget.exhaustive_cap:
        return list(enumerate_(pm)), True

    rng = random.Random(budget.seed)
    target = min(budget.sample_count, budget.exhaustive_cap, count)
    units = range(pm.n_units)
    if kind == "malg":
        pool = set([pm.full_mask, 0][:target])
        while len(pool) < target:
            pool.add(sum([1 << u for u in units if rng.random() < 0.5]))
        return sorted(pool, key=lambda mask: [u for u in units if mask >> u & 1]), False

    pool = set([pm.one] if full else [pm.one, pm.zero][:target])
    while len(pool) < target:
        out = [-1] * pm.n_units
        for ci, c in enumerate(g.components):
            n, m = c.base_size, c.group_order
            sources = range(n) if full else [y for y in range(n) if rng.random() < 0.5]
            for y_from, y_to in zip(sources, rng.sample(range(n), len(sources))):
                u, code = pm.place(Arrow(ci, rng.randrange(m), y_to, y_from))
                out[u] = code
        pool.add(tuple(out))
    return sorted(pool, key=pm.arrows), False


def _kernel(g: FiniteGroupoid, budget: SuiteBudget, kind: str = "semigroup"):
    """The kernel a [[G]] suite runs on, its pool of `kind` ("semigroup" or
    "group") as handles, and whether that pool is exhaustive.

    When the n*n pairs of the n elements of [[G]] fit budget.exhaustive_cap,
    [[G]] is closed under product and inverse and is tabulated once:
    (PoolTable, pool indices), for "group" the indices of its full
    elements, which come in the order of group_codes. Otherwise
    (PackedMonoid, the codes of _pool). Handles are equal exactly when
    their elements are, and both kernels take the same calls, so a suite
    keeps one loop per check and compares the same values on either.
    """
    pm = PackedMonoid(g)
    n = semigroup_count(g)
    if n * n > budget.exhaustive_cap:
        return (pm, *_pool(pm, kind, budget))
    table = PoolTable(pm, list(semigroup_codes(pm)))
    full = table.full_mask
    if kind == "group":
        return table, [i for i in range(n) if table.src(i) == table.rng(i) == full], True
    return table, list(range(n)), True


def _tuples(sizes, budget: SuiteBudget, pools_exhaustive: bool):
    """The index tuples a check runs, over pools of the given sizes (one
    index per pool), whether they are exhaustive, and how many there are.

    All of them when the product of the sizes fits budget.exhaustive_cap;
    they are exhaustive exactly when the pools are too. Otherwise
    budget.sample_count whole tuples, or exhaustive_cap if that is fewer,
    drawn with budget.seed + len(sizes) and one randrange per slot. Every
    check over more than one element takes its tuples, `tested` and
    `exhaustive` from here, and builds nothing whose length is a product
    of pool sizes over the cap.
    """
    total = prod(sizes)
    if total <= budget.exhaustive_cap:
        return iproduct(*map(range, sizes)), pools_exhaustive, total
    rng = random.Random(budget.seed + len(sizes))
    draws = min(budget.sample_count, budget.exhaustive_cap)
    sampled = [tuple([rng.randrange(n) for n in sizes]) for _ in range(draws)]
    return sampled, False, len(sampled)


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
    of K, in order, runs through _deviations on packed codes. K is a list
    of Bisections, or of codes of packed when that is given.
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
    if isinstance(pi, SemigroupMap):
        cod = PackedMonoid(pi.codomain)
        f = pi.packed(dom, cod)
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

    _, (prod_dev, trace_dev, dist_dev), at = _deviations(f, dom, cod, pool)
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


def _deviations(f, dom: PackedMonoid, cod: PackedMonoid, pool: list, pairs=None):
    """The loop of both certificates: f maps codes of dom to codes of cod,
    and pairs is a list of index pairs into the pool, or None for all of
    its pairs, the left index outermost. Returns the images of the pool,
    the exact product, trace and distance maxima as Fractions, and where
    each is first reached: the metric pass (metric_deviations), then the
    product pass, whose "product" witness is a pair of pool indices.

    f runs once per distinct code: the pool's, then each product's that is
    not yet mapped. Over all pairs, the products of a left factor come from
    the left rows (PackedMonoid.left_row) of the factor and of its image,
    and cod.dist runs only where f(xy) != f(x)f(y). Given pairs take theirs
    by mul, since a row costs about two muls and a sampled left factor
    seldom recurs.
    """
    mapped = _Images(f)
    images = list(map(mapped.__getitem__, pool))
    trace_dev, dist_dev, at = metric_deviations(dom, cod, pool, images, pairs)
    cod_dist = cod.dist
    prod_dev = 0
    if pairs is None:
        indices = range(len(pool))
        for ia, (x, fx) in enumerate(zip(pool, images)):
            x_row, fx_row = dom.left_row(x).__getitem__, cod.left_row(fx).__getitem__
            fxys = list(map(mapped.__getitem__, map(tuple, map(map, repeat(x_row), pool))))
            fxfys = list(map(tuple, map(map, repeat(fx_row), images)))
            # equal codes are deviation 0, which never raises the maximum
            for ib in compress(indices, map(ne, fxys, fxfys)):
                dev = cod_dist(fxys[ib], fxfys[ib])
                if dev > prod_dev:
                    prod_dev, at["product"] = dev, (ia, ib)
    else:
        dom_mul, cod_mul = dom.mul, cod.mul
        for ia, ib in pairs:
            fxy, fxfy = mapped[dom_mul(pool[ia], pool[ib])], cod_mul(images[ia], images[ib])
            if fxy != fxfy:
                dev = cod_dist(fxy, fxfy)
                if dev > prod_dev:
                    prod_dev, at["product"] = dev, (ia, ib)
    return images, (Fraction(prod_dev, cod.denom), trace_dev, dist_dev), at


def metric_deviations(dom: PackedMonoid, cod: PackedMonoid, pool: list, images: list, pairs=None):
    """The maxima of |tr(f(x)) - tr(x)| over the pool and of
    |d(f(x), f(y)) - d(x, y)| over pairs (as in _deviations), where
    images[i] = f(pool[i]), as Fractions, and where each is first reached
    ("trace": a pool index, "distance": a pair of them). Over all pairs,
    the distances come a row at a time from dom.dist_rows and
    cod.dist_rows, and a row's first maximal index is its witness; given
    pairs take theirs by dist.
    """
    d_dom, d_cod = dom.denom, cod.denom
    trace_dev = dist_dev = 0
    at = {}
    for i, (x, fx) in enumerate(zip(pool, images)):
        dev = abs(dom.trace(x) * d_cod - cod.trace(fx) * d_dom)
        if dev > trace_dev:
            trace_dev, at["trace"] = dev, i
    if pairs is None:
        for ia, (dom_row, cod_row) in enumerate(zip(dom.dist_rows(pool), cod.dist_rows(images))):
            devs = [abs(d * d_cod - c * d_dom) for d, c in zip(dom_row, cod_row)]
            dev = max(devs)
            if dev > dist_dev:
                dist_dev, at["distance"] = dev, (ia, devs.index(dev))
    else:
        dom_dist, cod_dist = dom.dist, cod.dist
        for ia, ib in pairs:
            dev = abs(dom_dist(pool[ia], pool[ib]) * d_cod - cod_dist(images[ia], images[ib]) * d_dom)
            if dev > dist_dev:
                dist_dev, at["distance"] = dev, (ia, ib)
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
    m.packed, the scatter of its table, inside _deviations.
    """
    budget = budget or SuiteBudget()
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    pool, exhaustive = _pool(dom, "semigroup", budget)
    n = len(pool)
    pair_iter, exhaustive, pair_count = _tuples((n, n), budget, exhaustive)
    pairs = None if pair_count == n * n else pair_iter  # sampled pairs are fewer
    images, (prod_dev, trace_dev, dist_dev), at = _deviations(m.packed(dom, cod), dom, cod, pool, pairs)
    unit_ok = images[pool.index(dom.one)] == cod.one  # every pool holds the unit

    consistent = True
    if prod_dev == 0 and unit_ok:
        consistent = (trace_dev == 0) == (dist_dev == 0)
    return EmbeddingReport(
        label=m.label,
        element_count=n,
        pair_count=pair_count,
        exhaustive=exhaustive,
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        unit_preserved=unit_ok,
        injective=len(set(images)) == n,
        trace_iso_consistent=consistent,
        witnesses=_witnesses(at, lambda i: dom.decode(pool[i])),
    )


# ---------------------------------------------------------------------------
# Named suites


def _result(name, passed, **details) -> CheckResult:
    return CheckResult(name, passed, details)


def _count(sizes, budget: SuiteBudget, pools_exhaustive: bool, bad):
    """Run a check over the tuples of _tuples, where bad(*indices) is True
    at a violation and False elsewhere: the number of violations, and the
    details `tested` and `exhaustive` of the run."""
    tuples, exhaustive, tested = _tuples(sizes, budget, pools_exhaustive)
    return sum(starmap(bad, tuples)), {"tested": tested, "exhaustive": exhaustive}


def suite_inverse_monoid(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    mul, inv = k.mul, k.inv
    n = len(pool)
    one, zero = k.one, k.zero
    invs = [inv(a) for a in pool]
    checks = []

    bad = [a for a in pool if not (mul(a, one) == a == mul(one, a))]
    checks.append(_result("unit-law", not bad, tested=n, exhaustive=exhaustive))
    bad = [a for a in pool if not (mul(zero, a) == zero == mul(a, zero))]
    checks.append(_result("zero-absorbing", not bad, tested=n, exhaustive=exhaustive))

    bad = [
        a
        for a, ai in zip(pool, invs)
        if mul(mul(a, ai), a) != a or mul(mul(ai, a), ai) != ai
    ]
    checks.append(_result("inverse-law", not bad, tested=n, exhaustive=exhaustive))

    def not_associative(ia, ib, ic):
        a, b, c = pool[ia], pool[ib], pool[ic]
        return mul(mul(a, b), c) != mul(a, mul(b, c))

    viol, run = _count((n, n, n), budget, exhaustive, not_associative)
    checks.append(_result("associativity", viol == 0, violations=viol, **run))

    def another_inverse(ia, ib):
        a, b = pool[ia], pool[ib]
        return mul(mul(a, b), a) == a and mul(mul(b, a), b) == b and b != invs[ia]

    viol, run = _count((n, n), budget, exhaustive, another_inverse)
    checks.append(_result("inverse-uniqueness", viol == 0, violations=viol, **run))

    unit_sets = [k.fix(a) == k.src(a) for a in pool]
    bad = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set != (mul(a, a) == a)]
    checks.append(
        _result("idempotents-are-unit-sets", not bad, tested=n, exhaustive=exhaustive)
    )

    idems = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set]
    viol, run = _count(
        (len(idems), len(idems)),
        budget,
        exhaustive,
        lambda i, j: mul(idems[i], idems[j]) != mul(idems[j], idems[i]),
    )
    checks.append(_result("idempotents-commute", viol == 0, **run))
    return checks


def suite_metric(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    mul, dist, mass = k.mul, k.dist, k.mass
    n = len(pool)
    invs = [k.inv(a) for a in pool]
    src = [k.src(a) for a in pool]
    rng = [k.rng(a) for a in pool]
    checks = []

    # distance by pool index; a table's handles are its pool indices
    d = dist if isinstance(k, PoolTable) else lambda i, j: dist(pool[i], pool[j])

    bad = [i for i in range(n) if mass(src[i]) != mass(rng[i])]
    checks.append(_result("pmp-mass-law", not bad, tested=n, exhaustive=exhaustive))

    # the pair checks that read only distances share one run of pairs
    pairs, exh2, cnt2 = _tuples((n, n), budget, exhaustive)
    asymmetric = zero_off_diagonal = not_invariant = uncorrected = 0
    witness = None
    for i, j in pairs:
        dij = d(i, j)
        asymmetric += dij != d(j, i)
        # a pool holds each element once
        zero_off_diagonal += (dij == 0) != (i == j)
        change = dist(invs[i], invs[j]) - dij
        if change:
            not_invariant += 1
            if witness is None:
                witness = tuple([list(a) for a in k.arrows(pool[x])] for x in (i, j))
        uncorrected += change != mass(rng[i] | rng[j]) - mass(src[i] | src[j])
    run = {"tested": cnt2, "exhaustive": exh2}
    checks.append(_result("symmetry", asymmetric == 0, **run))
    checks.append(_result("zero-iff-equal", zero_off_diagonal == 0, **run))

    viol, run3 = _count((n, n, n), budget, exhaustive, lambda a, b, c: d(a, c) > d(a, b) + d(b, c))
    checks.append(_result("triangle", viol == 0, violations=viol, **run3))

    checks.append(
        _result(
            "inverse-invariance",
            not_invariant == 0,
            violations=not_invariant,
            witness=witness,
            note="fails off the full group; see inverse-invariance-corrected",
            **run,
        )
    )

    full = [i for i in range(n) if src[i] == rng[i] == k.full_mask]
    viol, run_full = _count(
        (len(full), len(full)),
        budget,
        exhaustive,
        lambda i, j: dist(invs[full[i]], invs[full[j]]) != d(full[i], full[j]),
    )
    checks.append(_result("inverse-invariance-full-group", viol == 0, **run_full))
    checks.append(_result("inverse-invariance-corrected", uncorrected == 0, **run))

    def product_too_far(ia, ib, ic, id_):
        return dist(mul(pool[ia], pool[ib]), mul(pool[ic], pool[id_])) > d(ia, ic) + d(ib, id_)

    viol, run = _count((n, n, n, n), budget, exhaustive, product_too_far)
    checks.append(_result("product-inequality", viol == 0, violations=viol, **run))

    def inverse_too_far(ia, ib):
        a, b = pool[ia], pool[ib]
        return dist(a, invs[ib]) > dist(a, mul(mul(a, b), a)) + dist(b, mul(mul(b, a), b))

    viol, run = _count((n, n), budget, exhaustive, inverse_too_far)
    checks.append(_result("inverse-triangle", viol == 0, violations=viol, **run))
    return checks


def suite_trace_distance(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    mul, trace, dist = k.mul, k.trace, k.dist
    one, total = k.one, k.total
    sources = [k.idem(k.src(a)) for a in pool]
    source_traces = [trace(s) for s in sources]
    invs = [k.inv(a) for a in pool]
    n = len(pool)
    checks = []

    bad = 0
    for a, s in zip(pool, sources):
        if trace(a) != total - dist(s, one) - dist(s, a):
            bad += 1
    checks.append(_result("trace-from-distance", bad == 0, tested=n, exhaustive=exhaustive))

    def off_by_traces(ia, ib):
        rhs = (
            source_traces[ia]
            + source_traces[ib]
            - trace(mul(sources[ia], sources[ib]))
            - trace(mul(invs[ib], pool[ia]))
        )
        return dist(pool[ia], pool[ib]) != rhs

    bad, run = _count((n, n), budget, exhaustive, off_by_traces)
    checks.append(_result("distance-from-trace", bad == 0, **run))
    return checks


def suite_supports(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, group, exhaustive = _kernel(g, budget, "group")
    malg, malg_exh = _pool(k, "malg", budget)
    mul, inv, dist, idem, src, rng = k.mul, k.inv, k.dist, k.idem, k.src, k.rng
    total = k.total
    traces = [k.trace(a) for a in group]
    fixes = [k.fix(a) for a in group]
    supps = [src(a) & ~f for a, f in zip(group, fixes)]
    moved = [dist(k.one, a) for a in group]
    ones = [idem(units) for units in malg]  # 1_A for each unit set A
    n, m = len(group), len(malg)
    both_exhaustive = exhaustive and malg_exh
    checks = []

    def image(a, A):
        """a(A), for a full-group element a and the unit set malg[A]."""
        return rng(mul(a, ones[A]))

    def supp_not_fix(i, j):
        left = supps[i] == fixes[j]
        return left != (dist(group[i], group[j]) == total and traces[i] + traces[j] == total)

    viol, run = _count((n, n), budget, exhaustive, supp_not_fix)
    checks.append(_result("supp-eq-fix", viol == 0, **run))

    def overlap_not_disjoint(i, j):
        return (not supps[i] & supps[j]) != (dist(group[i], group[j]) == moved[i] + moved[j])

    viol, run = _count((n, n), budget, exhaustive, overlap_not_disjoint)
    checks.append(_result("disjoint-supports", viol == 0, **run))

    # supp(a b a^-1) = a(supp(b)), where a(A) = rng(a 1_A)
    def not_covariant(i, j):
        a = group[i]
        conj = mul(mul(a, group[j]), inv(a))
        return src(conj) & ~k.fix(conj) != rng(mul(a, idem(supps[j])))

    viol, run = _count((n, n), budget, exhaustive, not_covariant)
    checks.append(_result("covariance", viol == 0, **run))

    def mass_moved(i, A):
        return k.mass(image(group[i], A)) != k.mass(malg[A])

    viol, run = _count((n, m), budget, both_exhaustive, mass_moved)
    checks.append(_result("action-preserves-mass", viol == 0, **run))

    def order_reversed(i, A, B):
        a = group[i]
        return not malg[A] & ~malg[B] and image(a, A) & ~image(a, B) != 0

    viol, run = _count((n, m, m), budget, both_exhaustive, order_reversed)
    checks.append(_result("action-preserves-order", viol == 0, **run))

    # (a 1_A)(b 1_B) = ab 1_C, where C = B n b^-1(A) and b^-1(A) = src(1_A b)
    def corner_product_differs(i, j, A, B):
        a, b = group[i], group[j]
        left = mul(mul(a, ones[A]), mul(b, ones[B]))
        return left != mul(mul(a, b), idem(malg[B] & src(mul(ones[A], b))))

    viol, run = _count((n, n, m, m), budget, both_exhaustive, corner_product_differs)
    checks.append(_result("corner-product-identity", viol == 0, **run))
    return checks


def suite_extension(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    pm = PackedMonoid(g)
    pool, exhaustive = _pool(pm, "semigroup", budget)
    full_mask = pm.full_mask
    idem = 0
    for x in pool:
        ext = pm.extend(x)
        if pm.src(x) == pm.rng(x) == full_mask and ext != x:
            idem += 1
    n = len(pool)
    # the first two rows record the certificate extend made on every
    # element: a completion that is not full or does not contain x raises
    # ExtensionCertificateError instead of a report
    return [
        _result("extension-contains", True, tested=n, exhaustive=exhaustive),
        _result("extension-full", True, tested=n, exhaustive=exhaustive),
        _result("extension-fixes-full-group", idem == 0, tested=n, exhaustive=exhaustive),
    ]


def suite_finite_index(
    g: FiniteGroupoid, sub_arrows, budget: SuiteBudget, system: TransversalSystem | None = None
) -> list[CheckResult]:
    from .constructions import find_transversals

    checks = []
    if system is None:
        # find_transversals raises CertificateError unless the system it
        # returns has no violations, so only a given system is checked here
        system, problems = find_transversals(g, sub_arrows), []
    else:
        problems = system.violations()
    checks.append(_result("transversal-partition", not problems, index=system.index, problems=problems))

    pm = PackedMonoid(g)
    pool, exhaustive = _pool(pm, "semigroup", budget)
    nn = system.index
    blocks = block_table(system, pm)
    passed = [x for x in pool if block_violation(pm, nn, blocks(x), blocks(pm.inv(x))) is None]
    matrices = list(map(blocks, passed))  # block_table builds each once
    checks.append(
        _result("block-asserts", len(passed) == len(pool), tested=len(pool), exhaustive=exhaustive)
    )

    # the checks below run over the elements that passed. The products
    # a_ij b_jl over j have disjoint sources once b passed its column check,
    # so their union is an entrywise max over codes; the left rows of the
    # blocks a_ij are built when the left index changes
    @lru_cache(maxsize=1)
    def left_rows(ia):
        return [pm.left_row(a_ij).__getitem__ for a_ij in matrices[ia]]

    def identity_fails(ia, ib):
        rows, bb = left_rows(ia), matrices[ib]
        bab = blocks(pm.mul(passed[ia], passed[ib]))
        for i, l in iproduct(range(nn), repeat=2):
            products = [tuple(map(a_ij, bb[j * nn + l])) for j, a_ij in enumerate(rows[i * nn : (i + 1) * nn])]
            if tuple(map(max, zip(*products))) != bab[i * nn + l]:
                return True
        return False

    viol, run = _count((len(passed), len(passed)), budget, exhaustive, identity_fails)
    checks.append(_result("block-identity", viol == 0, violations=viol, **run))

    def diagonal_differs(k):
        t, matrix = pm.trace(passed[k]), matrices[k]
        return any(pm.trace(matrix[i * nn + i]) != t for i in range(nn))

    viol, run = _count((len(passed),), budget, exhaustive, diagonal_differs)
    checks.append(_result("diagonal-trace", viol == 0, **run))

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
    id_left, id_right = identity_map(left), identity_map(right)
    whole = tensor(id_left, id_right).packed(pp.pm, pp.pm)
    f, g = id_left.packed(pp.left, pp.left), id_right.packed(pp.right, pp.right)
    checks = []

    # each part of both decompositions mapped through the factor scatters
    # and reassembled must give the tensor's scatter of the whole element
    redecomp_viol = 0
    for x in pool:
        fx = whole(x)
        for reverse in (False, True):
            if pp.assemble((f(a), g(b)) for a, b in rectangle_decompose(pp, x, reverse).parts) != fx:
                redecomp_viol += 1
                break
    n = len(pool)
    # these two rows record the certificates rectangle_decompose made on
    # both decompositions of every element: a RectangleUnion is checked for
    # overlaps when it is built, and the union must reassemble the element;
    # either failure raises CertificateError instead of a report
    checks.append(_result("monoid-invariants", True, tested=n, exhaustive=exhaustive))
    checks.append(_result("decomposition-covers", True, tested=n, exhaustive=exhaustive))
    checks.append(
        _result(
            "redecomposition-invariance",
            redecomp_viol == 0,
            tested=n,
            exhaustive=exhaustive,
        )
    )

    lefts, lexh = _pool(pp.left, "semigroup", budget)
    rights, rexh = _pool(pp.right, "semigroup", budget)
    # tr(a x b) = tr(a) tr(b), with each trace an integer over its denom
    scale, denom = pp.left.denom * pp.right.denom, pp.pm.denom
    trace, trace_left, trace_right = pp.pm.trace, pp.left.trace, pp.right.trace

    def not_multiplicative(i, j):
        a, b = lefts[i], rights[j]
        return trace(pp.rectangle(a, b)) * scale != trace_left(a) * trace_right(b) * denom

    viol, run = _count((len(lefts), len(rights)), budget, lexh and rexh, not_multiplicative)
    checks.append(_result("rectangle-trace-multiplicative", viol == 0, **run))
    return checks


def suite_ladder(n: int, p_list, budget: SuiteBudget) -> list[CheckResult]:
    # symmetric measures the ladder with this module's SuiteBudget, so it
    # is imported here, once this module is complete
    from .symmetric import distortion_report

    checks = []
    for rep in (distortion_report(n, p, budget) for p in p_list):
        # a DistortionReport above its bound raises CertificateError when
        # it is built, so only the isometry of whole block copies is checked
        checks.append(
            _result(
                f"ladder-{rep.n}-to-{rep.p}",
                rep.p % rep.n != 0 or rep.observed_sup == 0,
                bound=rep.bound,
                observed_sup=rep.observed_sup,
                trace_sup=rep.trace_sup,
                pairs_tested=rep.pairs_tested,
                exhaustive=rep.exhaustive,
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
