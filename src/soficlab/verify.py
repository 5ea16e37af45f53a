"""Exact verification: almost-morphism reports, embedding certificates and
named invariant suites.

Every comparison is an exact rational (in)equality; epsilon thresholds are
strict rational comparisons. A check runs every tuple of its pool whenever
their count fits the budget cap and falls back to seeded sampling
otherwise; it is exhaustive only when its pool is too. Each report
records which regime ran, so a report is a deterministic
function of (inputs, seed, budget). Every element pool comes from _pool,
which charges the cap and then enumerates the pool, or draws it, directly
as codes of semigroup.PackedMonoid (unit sets as bitmasks). Every suite
runs on the kernel's exact integer arithmetic; the rectangles suite on
the codes of constructions.PackedProduct. The inverse-monoid, metric-prop
and trace-distance suites take their kernel from _kernel: an exhaustive
pool whose n*n pairs fit the cap becomes a semigroup.PoolTable, whose
operations are lookups by pool index in tables of at most n*n entries,
and any other pool stays on codes. Both certificates,
check_embedding and check_almost_morphism, run on the kernel too, through
one loop (_deviations) that maps each distinct code once: a map of
constructions scatters its arrow table (SemigroupMap.packed), and a pair
list becomes a dict from domain code to codomain code. Bisections are
decoded only for the witnesses a report prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .constructions import (
    NoTransversalError,
    PackedProduct,
    SemigroupMap,
    TransversalSystem,
    block_table,
    block_violation,
    finite_index_map,
    identity_map,
    product_embedding,
    rectangle_decompose,
)
from .groupoid import Arrow, FiniteGroupoid, product_groupoid
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


@dataclass(frozen=True)
class SuiteBudget:
    exhaustive_cap: int = 200_000
    sample_count: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.exhaustive_cap < 1 or self.sample_count < 1:
            raise ValueError("budget caps must be positive")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteResult:
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
    for "semigroup" and "group", unit bitmasks for "malg".

    Exhaustive when the count fits budget.exhaustive_cap. Otherwise up to
    budget.sample_count distinct seeded draws, seeded with the unit (and
    for "semigroup" the zero, for "malg" the empty and full masks) and
    sorted as Bisections sort by their arrows and unit sets by their units.
    Per component, a "semigroup" draw picks each point as a source with
    probability 1/2, then distinct random ranges, then a group label per
    arrow; a "group" draw is a random permutation and the labels.
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
    target = min(budget.sample_count, count)
    units = range(pm.n_units)
    if kind == "malg":
        pool = {0, pm.full_mask}
        while len(pool) < target:
            pool.add(sum([1 << u for u in units if rng.random() < 0.5]))
        return sorted(pool, key=lambda mask: [u for u in units if mask >> u & 1]), False

    pool = {pm.one} if full else {pm.one, pm.zero}
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


def _kernel(g: FiniteGroupoid, budget: SuiteBudget):
    """The kernel a [[G]] suite runs on, the pool of handles it takes and
    whether that pool is exhaustive.

    An exhaustive pool of n elements whose n*n pairs fit
    budget.exhaustive_cap is all of [[G]], closed under product and
    inverse, so it is tabulated once: (PoolTable, pool indices). Otherwise
    (PackedMonoid, the codes of _pool). Handles are equal exactly when
    their elements are, and both kernels take the same calls, so a suite
    keeps one loop per check and compares the same values on either.
    """
    pm = PackedMonoid(g)
    pool, exhaustive = _pool(pm, "semigroup", budget)
    n = len(pool)
    if exhaustive and n * n <= budget.exhaustive_cap:
        return PoolTable(pm, pool), list(range(n)), True
    return pm, pool, exhaustive


def _tuples(n: int, arity: int, budget: SuiteBudget, pool_exhaustive: bool):
    """Index tuples into a pool of n elements: all of them when n**arity
    fits budget.exhaustive_cap, else budget.sample_count seeded draws. They
    are exhaustive only when the pool is too."""
    total = n**arity
    if total <= budget.exhaustive_cap:
        return iproduct(range(n), repeat=arity), pool_exhaustive, total
    rng = random.Random(budget.seed + arity)
    sampled = [
        tuple(rng.randrange(n) for _ in range(arity))
        for _ in range(budget.sample_count)
    ]
    return sampled, False, len(sampled)


# ---------------------------------------------------------------------------
# Almost morphisms


@dataclass(frozen=True)
class AlmostMorphismReport:
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

    _, (prod_dev, trace_dev, dist_dev), at = _deviations(f, dom, cod, pool, iproduct(range(len(K)), repeat=2))
    return AlmostMorphismReport(
        k_size=len(K),
        epsilon=epsilon,
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        passed=prod_dev < epsilon and trace_dev < epsilon,
        witnesses=_witnesses(at, element),
    )


@dataclass(frozen=True)
class EmbeddingReport:
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


def _deviations(f, dom: PackedMonoid, cod: PackedMonoid, pool: list, pairs):
    """The loop of both certificates: f maps codes of dom to codes of cod,
    and pairs index the pool.

    Returns the images of the pool, the exact product, trace and distance
    maxima as Fractions, and where each is first reached ("trace": a pool
    index; "product", "distance": a pair of them). Deviations are compared
    as integers, over cod.denom and over dom.denom * cod.denom. Maps are
    pure functions, so f runs once per distinct code: the pool's, then
    each product's that is not yet mapped.
    """
    mapped = {}

    def image(x):
        fx = mapped.get(x)
        if fx is None:
            fx = mapped[x] = f(x)
        return fx

    images = [image(x) for x in pool]
    d_dom, d_cod = dom.denom, cod.denom
    prod_dev = trace_dev = dist_dev = 0
    at = {}
    for i, (x, fx) in enumerate(zip(pool, images)):
        dev = abs(dom.trace(x) * d_cod - cod.trace(fx) * d_dom)
        if dev > trace_dev:
            trace_dev, at["trace"] = dev, i
    dom_mul, dom_dist, cod_mul, cod_dist = dom.mul, dom.dist, cod.mul, cod.dist
    for ia, ib in pairs:
        x, y, fx, fy = pool[ia], pool[ib], images[ia], images[ib]
        dev = cod_dist(image(dom_mul(x, y)), cod_mul(fx, fy))
        if dev > prod_dev:
            prod_dev, at["product"] = dev, (ia, ib)
        dev = abs(dom_dist(x, y) * d_cod - cod_dist(fx, fy) * d_dom)
        if dev > dist_dev:
            dist_dev, at["distance"] = dev, (ia, ib)
    scale = d_dom * d_cod
    return images, (Fraction(prod_dev, d_cod), Fraction(trace_dev, scale), Fraction(dist_dev, scale)), at


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
    pair_iter, exhaustive, pair_count = _tuples(n, 2, budget, exhaustive)
    images, (prod_dev, trace_dev, dist_dev), at = _deviations(m.packed(dom, cod), dom, cod, pool, pair_iter)
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

    tuples, exh3, cnt3 = _tuples(n, 3, budget, exhaustive)
    viol = 0
    for ia, ib, ic in tuples:
        a, b, c = pool[ia], pool[ib], pool[ic]
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            viol += 1
    checks.append(
        _result("associativity", viol == 0, tested=cnt3, exhaustive=exh3, violations=viol)
    )

    pair_iter, exh2, cnt2 = _tuples(n, 2, budget, exhaustive)
    viol = 0
    for ia, ib in pair_iter:
        a, b = pool[ia], pool[ib]
        if mul(mul(a, b), a) == a and mul(mul(b, a), b) == b and b != invs[ia]:
            viol += 1
    checks.append(
        _result("inverse-uniqueness", viol == 0, tested=cnt2, exhaustive=exh2, violations=viol)
    )

    unit_sets = [k.fix(a) == k.src(a) for a in pool]
    bad = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set != (mul(a, a) == a)]
    checks.append(
        _result("idempotents-are-unit-sets", not bad, tested=n, exhaustive=exhaustive)
    )

    idems = [a for a, is_unit_set in zip(pool, unit_sets) if is_unit_set]
    viol = sum(1 for e in idems for f in idems if mul(e, f) != mul(f, e))
    checks.append(
        _result("idempotents-commute", viol == 0, tested=len(idems) ** 2, exhaustive=exhaustive)
    )
    return checks


def suite_metric(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    mul, dist, mass = k.mul, k.dist, k.mass
    n = len(pool)
    invs = [k.inv(a) for a in pool]
    src = [k.src(a) for a in pool]
    rng = [k.rng(a) for a in pool]
    # a PoolTable's rows are its own distance table, indexed by handle
    dists = k.dists if isinstance(k, PoolTable) else [[dist(a, b) for b in pool] for a in pool]
    inv_dists = [[dist(a, b) for b in invs] for a in invs]
    checks = []

    bad = [i for i in range(n) if mass(src[i]) != mass(rng[i])]
    checks.append(_result("pmp-mass-law", not bad, tested=n, exhaustive=exhaustive))

    viol = sum(1 for i in range(n) for j in range(n) if dists[i][j] != dists[j][i])
    checks.append(_result("symmetry", viol == 0, tested=n * n, exhaustive=exhaustive))

    viol = sum(
        1
        for i in range(n)
        for j in range(n)
        if (dists[i][j] == 0) != (pool[i] == pool[j])
    )
    checks.append(
        _result("zero-iff-equal", viol == 0, tested=n * n, exhaustive=exhaustive)
    )

    tuples, exh3, cnt3 = _tuples(n, 3, budget, exhaustive)
    viol = 0
    for ia, ib, ic in tuples:
        if dists[ia][ic] > dists[ia][ib] + dists[ib][ic]:
            viol += 1
    checks.append(
        _result("triangle", viol == 0, tested=cnt3, exhaustive=exh3, violations=viol)
    )

    viol = 0
    witness = None
    for i in range(n):
        for j in range(n):
            if inv_dists[i][j] != dists[i][j]:
                viol += 1
                if witness is None:
                    witness = tuple([list(a) for a in k.arrows(pool[x])] for x in (i, j))
    checks.append(
        _result(
            "inverse-invariance",
            viol == 0,
            tested=n * n,
            exhaustive=exhaustive,
            violations=viol,
            witness=witness,
            note="fails off the full group; see inverse-invariance-corrected",
        )
    )

    full = [i for i in range(n) if src[i] == rng[i] == k.full_mask]
    viol = sum(1 for i in full for j in full if inv_dists[i][j] != dists[i][j])
    checks.append(
        _result(
            "inverse-invariance-full-group",
            viol == 0,
            tested=len(full) ** 2,
            exhaustive=exhaustive,
        )
    )

    viol = 0
    for i in range(n):
        for j in range(n):
            lhs = inv_dists[i][j] - dists[i][j]
            rhs = mass(rng[i] | rng[j]) - mass(src[i] | src[j])
            if lhs != rhs:
                viol += 1
    checks.append(
        _result(
            "inverse-invariance-corrected",
            viol == 0,
            tested=n * n,
            exhaustive=exhaustive,
        )
    )

    tuples4, exh4, tested = _tuples(n, 4, budget, exhaustive)
    viol = 0
    for ia, ib, ic, idd in tuples4:
        if dist(mul(pool[ia], pool[ib]), mul(pool[ic], pool[idd])) > dists[ia][ic] + dists[ib][idd]:
            viol += 1
    checks.append(
        _result(
            "product-inequality",
            viol == 0,
            tested=tested,
            exhaustive=exh4,
            violations=viol,
        )
    )

    pair_iter, exh2, cnt2 = _tuples(n, 2, budget, exhaustive)
    viol = 0
    for ia, ib in pair_iter:
        a, b = pool[ia], pool[ib]
        lhs = dist(a, invs[ib])
        rhs = dist(a, mul(mul(a, b), a)) + dist(b, mul(mul(b, a), b))
        if lhs > rhs:
            viol += 1
    checks.append(
        _result(
            "inverse-triangle",
            viol == 0,
            tested=cnt2,
            exhaustive=exh2,
            violations=viol,
        )
    )
    return checks


def suite_trace_distance(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    k, pool, exhaustive = _kernel(g, budget)
    mul, trace, dist = k.mul, k.trace, k.dist
    one, total = k.one, k.total
    sources = [k.idem(k.src(a)) for a in pool]
    source_traces = [trace(s) for s in sources]
    invs = [k.inv(a) for a in pool]
    checks = []

    bad = 0
    for a, s in zip(pool, sources):
        if trace(a) != total - dist(s, one) - dist(s, a):
            bad += 1
    checks.append(
        _result(
            "trace-from-distance",
            bad == 0,
            tested=len(pool),
            exhaustive=exhaustive,
        )
    )

    pair_iter, exh2, cnt2 = _tuples(len(pool), 2, budget, exhaustive)
    bad = 0
    for ia, ib in pair_iter:
        a = pool[ia]
        rhs = (
            source_traces[ia]
            + source_traces[ib]
            - trace(mul(sources[ia], sources[ib]))
            - trace(mul(invs[ib], a))
        )
        if dist(a, pool[ib]) != rhs:
            bad += 1
    checks.append(
        _result(
            "distance-from-trace",
            bad == 0,
            tested=cnt2,
            exhaustive=exh2,
        )
    )
    return checks


def suite_supports(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    pm = PackedMonoid(g)
    group, exhaustive = _pool(pm, "group", budget)
    malg, malg_exh = _pool(pm, "malg", budget)
    mul, inv, dist, act, idem = pm.mul, pm.inv, pm.dist, pm.act, pm.idem
    one, total = pm.one, pm.total
    traces = [pm.trace(a) for a in group]
    supps = [pm.supp(a) for a in group]
    fixes = [pm.fix(a) for a in group]
    moved = [dist(one, a) for a in group]
    k = len(group)
    checks = []

    viol = 0
    for i, a in enumerate(group):
        for j, b in enumerate(group):
            left = supps[i] == fixes[j]
            right = dist(a, b) == total and traces[i] + traces[j] == total
            if left != right:
                viol += 1
    checks.append(
        _result(
            "supp-eq-fix",
            viol == 0,
            tested=k**2,
            exhaustive=exhaustive,
        )
    )

    viol = 0
    for i, a in enumerate(group):
        for j, b in enumerate(group):
            left = not (supps[i] & supps[j])
            right = dist(a, b) == moved[i] + moved[j]
            if left != right:
                viol += 1
    checks.append(
        _result(
            "disjoint-supports",
            viol == 0,
            tested=k**2,
            exhaustive=exhaustive,
        )
    )

    viol = 0
    for a in group:
        a_inv = inv(a)
        for b, supp_b in zip(group, supps):
            if pm.supp(mul(mul(a, b), a_inv)) != act(a, supp_b):
                viol += 1
    checks.append(
        _result(
            "covariance",
            viol == 0,
            tested=k**2,
            exhaustive=exhaustive,
        )
    )

    images = [[act(a, units) for units in malg] for a in group]
    viol = sum(
        1
        for row in images
        for units, image in zip(malg, row)
        if pm.mass(image) != pm.mass(units)
    )
    checks.append(
        _result(
            "action-preserves-mass",
            viol == 0,
            tested=k * len(malg),
            exhaustive=exhaustive and malg_exh,
        )
    )

    viol = 0
    for row in images:
        for units_a, image_a in zip(malg, row):
            for units_b, image_b in zip(malg, row):
                if not units_a & ~units_b and image_a & ~image_b:
                    viol += 1
    checks.append(
        _result(
            "action-preserves-order",
            viol == 0,
            tested=k * len(malg) ** 2,
            exhaustive=exhaustive and malg_exh,
        )
    )

    corners = [[mul(a, idem(units)) for units in malg] for a in group]
    pulled = [[act(inv(b), units) for units in malg] for b in group]
    restrictions = {}
    quad_iter, exh4, cnt4 = _tuples(k, 2, budget, exhaustive)
    viol = 0
    for ia, ib in quad_iter:
        ab = mul(group[ia], group[ib])
        corners_b = corners[ib]
        for corner_a, pulled_a in zip(corners[ia], pulled[ib]):
            for units_b, corner_b in zip(malg, corners_b):
                left = mul(corner_a, corner_b)
                meet = units_b & pulled_a
                e = restrictions.get(meet)
                if e is None:
                    e = restrictions[meet] = idem(meet)
                if left != mul(ab, e):
                    viol += 1
    checks.append(
        _result(
            "corner-product-identity",
            viol == 0,
            tested=cnt4 * len(malg) ** 2,
            exhaustive=exh4 and malg_exh,
        )
    )
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
    mul, trace = pm.mul, pm.trace
    nn = system.index
    blocks = block_table(system, pm)
    checked = {}  # pool index -> block matrix, for the elements that pass
    for k, x in enumerate(pool):
        if block_violation(pm, nn, blocks(x), blocks(pm.inv(x))) is None:
            checked[k] = blocks(x)
    checks.append(
        _result("block-asserts", len(checked) == len(pool), tested=len(pool), exhaustive=exhaustive)
    )

    # elements whose block matrix failed its checks are counted above and
    # skipped below, so `tested` counts only the work done
    trace_viol = sum(
        1 for k, matrix in checked.items() for i in range(nn) if trace(matrix[i * nn + i]) != trace(pool[k])
    )
    # the products a_ij b_jl over j have disjoint sources once b passed
    # its column check, so their union is an entrywise max over codes
    viol = 0
    pair_iter, exh2, _ = _tuples(len(pool), 2, budget, exhaustive)
    pairs_done = 0
    for ia, ib in pair_iter:
        ba, bb = checked.get(ia), checked.get(ib)
        if ba is None or bb is None:
            continue
        pairs_done += 1
        bab = blocks(mul(pool[ia], pool[ib]))
        for i in range(nn):
            row = ba[i * nn : (i + 1) * nn]
            for l in range(nn):
                products = [mul(a_ij, bb[j * nn + l]) for j, a_ij in enumerate(row)]
                if tuple(map(max, zip(*products))) != bab[i * nn + l]:
                    viol += 1
    checks.append(
        _result("block-identity", viol == 0, tested=pairs_done * nn * nn, exhaustive=exh2, violations=viol)
    )
    checks.append(
        _result("diagonal-trace", trace_viol == 0, tested=len(checked) * nn, exhaustive=exhaustive)
    )

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
    tensor = product_embedding(identity_map(left), identity_map(right))
    checks = []

    redecomp_viol = 0
    for x in pool:
        u1 = rectangle_decompose(pp, x, reverse=False)
        u2 = rectangle_decompose(pp, x, reverse=True)
        if tensor(u1) != tensor(u2):
            redecomp_viol += 1
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
    viol = sum(
        1
        for a in lefts
        for b in rights
        if trace(pp.rectangle(a, b)) * scale != trace_left(a) * trace_right(b) * denom
    )
    checks.append(
        _result(
            "rectangle-trace-multiplicative",
            viol == 0,
            tested=len(lefts) * len(rights),
            exhaustive=lexh and rexh,
        )
    )
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
