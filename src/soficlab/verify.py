"""Exact verification: almost-morphism reports, embedding certificates and
named invariant suites.

Every comparison is an exact rational (in)equality; epsilon thresholds are
strict rational comparisons. Checks run exhaustively whenever the tuple
count fits the budget cap and fall back to seeded sampling otherwise, and
each report records which regime ran, so a report is a deterministic
function of (inputs, seed, budget). The inverse-monoid, metric-prop,
trace-distance and supports suites encode their pools once into
semigroup.PackedMonoid and run on its exact integer arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .constructions import (
    SemigroupMap,
    TransversalSystem,
    _blocks,
    block_components,
    finite_index_map,
    identity_map,
    product_embedding,
    rectangle,
    rectangle_decompose,
)
from .groupoid import FiniteGroupoid, product_groupoid
from .semigroup import (
    Bisection,
    PackedMonoid,
    empty_bisection,
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    extend_to_full_group,
    group_count,
    malg_count,
    sample_bisection,
    sample_full_group,
    semigroup_count,
    unit_bisection,
)
from .symmetric import ladder_profile

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


def _elements(g: FiniteGroupoid, kind: str, budget: SuiteBudget):
    counts = {
        "semigroup": semigroup_count,
        "group": group_count,
        "malg": malg_count,
    }
    count = counts[kind](g)
    if count <= budget.exhaustive_cap:
        if kind == "semigroup":
            return list(enumerate_semigroup(g, cap=budget.exhaustive_cap)), True
        if kind == "group":
            return list(enumerate_group(g, cap=budget.exhaustive_cap)), True
        return list(enumerate_malg(g, cap=budget.exhaustive_cap)), True

    rng = random.Random(budget.seed)
    target = min(budget.sample_count, count)
    if kind == "malg":
        units = list(g.units())
        pool = {frozenset(), frozenset(units)}
        while len(pool) < target:
            pool.add(frozenset(u for u in units if rng.random() < 0.5))
        return sorted(pool, key=sorted), False
    if kind == "group":
        pool = {unit_bisection(g)}
        draw = sample_full_group
    else:
        pool = {unit_bisection(g), empty_bisection(g)}
        draw = sample_bisection
    while len(pool) < target:
        pool.add(draw(g, rng))
    return sorted(pool, key=lambda b: b.arrows), False


def _tuples(n: int, arity: int, budget: SuiteBudget):
    total = n**arity
    if total <= budget.exhaustive_cap:
        return iproduct(range(n), repeat=arity), True, total
    rng = random.Random(budget.seed + arity)
    sampled = [
        tuple(rng.randrange(n) for _ in range(arity))
        for _ in range(budget.sample_count)
    ]
    return sampled, False, len(sampled)


def _arrows_repr(b: Bisection) -> list:
    return [list(a) for a in b.arrows]


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


def check_almost_morphism(pi, K, epsilon) -> AlmostMorphismReport:
    """Exact deviations of a candidate map on a finite set K.

    pi is a semigroup map or a finite pair list (dict); a pair list missing
    the image of some product of K-elements is rejected as incomplete. The
    verdict uses the product and trace deviations, strictly below epsilon;
    the distance deviation is measured and reported alongside.
    """
    epsilon = Fraction(epsilon)
    K = list(K)
    if isinstance(pi, SemigroupMap):
        lookup = pi
    else:
        table = dict(pi)

        def lookup(x: Bisection) -> Bisection:
            if x not in table:
                raise IncompletePairListError(
                    f"pair list does not cover a required element ({len(x)} arrows)"
                )
            return table[x]

    if len({a.groupoid for a in K}) > 1:
        raise ValueError("K mixes groupoids")

    images = {a: lookup(a) for a in K}
    prod_dev = Fraction(0)
    trace_dev = Fraction(0)
    dist_dev = Fraction(0)
    witnesses = {}
    for a in K:
        dev = abs(a.trace() - images[a].trace())
        if dev > trace_dev:
            trace_dev = dev
            witnesses["trace"] = a
    for a in K:
        for b in K:
            ab_img = lookup(a * b)
            dev = ab_img.distance(images[a] * images[b])
            if dev > prod_dev:
                prod_dev = dev
                witnesses["product"] = (a, b)
            dev = abs(a.distance(b) - images[a].distance(images[b]))
            if dev > dist_dev:
                dist_dev = dev
                witnesses["distance"] = (a, b)
    return AlmostMorphismReport(
        k_size=len(K),
        epsilon=epsilon,
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        passed=prod_dev < epsilon and trace_dev < epsilon,
        witnesses=witnesses,
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


def check_embedding(m: SemigroupMap, budget: SuiteBudget | None = None) -> EmbeddingReport:
    """Certificate that a map is an exact embedding on the tested set.

    For an exactly multiplicative unit-preserving map, trace preservation
    and isometry are equivalent; the report cross-checks that equivalence
    concretely and flags any discrepancy as an implementation bug.
    """
    budget = budget or SuiteBudget()
    elements, exhaustive = _elements(m.domain, "semigroup", budget)
    n = len(elements)
    pair_iter, pairs_exhaustive, pair_count = _tuples(n, 2, budget)
    exhaustive = exhaustive and pairs_exhaustive

    images = [m(a) for a in elements]
    unit_ok = m(unit_bisection(m.domain)) == unit_bisection(m.codomain)
    injective = len(set(images)) == len(set(elements))

    prod_dev = Fraction(0)
    trace_dev = Fraction(0)
    dist_dev = Fraction(0)
    witnesses = {}
    for a, fa in zip(elements, images):
        dev = abs(a.trace() - fa.trace())
        if dev > trace_dev:
            trace_dev = dev
            witnesses["trace"] = a
    for ia, ib in pair_iter:
        a, b = elements[ia], elements[ib]
        dev = m(a * b).distance(images[ia] * images[ib])
        if dev > prod_dev:
            prod_dev = dev
            witnesses["product"] = (a, b)
        dev = abs(a.distance(b) - images[ia].distance(images[ib]))
        if dev > dist_dev:
            dist_dev = dev
            witnesses["distance"] = (a, b)

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
        injective=injective,
        trace_iso_consistent=consistent,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Named suites


def _result(name, passed, **details) -> CheckResult:
    return CheckResult(name, passed, details)


def _packed_pool(g: FiniteGroupoid, kind: str, budget: SuiteBudget):
    """The kernel of g, the pool of `kind` as Bisections, the same pool
    encoded, and whether it is exhaustive."""
    pm = PackedMonoid(g)
    elements, exhaustive = _elements(g, kind, budget)
    return pm, elements, [pm.encode(a) for a in elements], exhaustive


def suite_inverse_monoid(g: FiniteGroupoid, budget: SuiteBudget) -> list[CheckResult]:
    pm, _, pool, exhaustive = _packed_pool(g, "semigroup", budget)
    mul, inv = pm.mul, pm.inv
    n = len(pool)
    one, zero = pm.one, pm.zero
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

    tuples, exh3, cnt3 = _tuples(n, 3, budget)
    viol = 0
    for ia, ib, ic in tuples:
        a, b, c = pool[ia], pool[ib], pool[ic]
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            viol += 1
    checks.append(
        _result("associativity", viol == 0, tested=cnt3, exhaustive=exh3, violations=viol)
    )

    pair_iter, exh2, cnt2 = _tuples(n, 2, budget)
    viol = 0
    for ia, ib in pair_iter:
        a, b = pool[ia], pool[ib]
        if mul(mul(a, b), a) == a and mul(mul(b, a), b) == b and b != invs[ia]:
            viol += 1
    checks.append(
        _result("inverse-uniqueness", viol == 0, tested=cnt2, exhaustive=exh2, violations=viol)
    )

    unit_sets = [pm.fix(a) == pm.src(a) for a in pool]
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
    pm, elements, pool, exhaustive = _packed_pool(g, "semigroup", budget)
    mul, dist, mass = pm.mul, pm.dist, pm.mass
    n = len(pool)
    total = pm.total
    invs = [pm.inv(a) for a in pool]
    src = [pm.src(a) for a in pool]
    rng = [pm.rng(a) for a in pool]
    dists = [[dist(a, b) for b in pool] for a in pool]
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

    tuples, exh3, cnt3 = _tuples(n, 3, budget)
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
                    witness = (_arrows_repr(elements[i]), _arrows_repr(elements[j]))
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

    full = [i for i in range(n) if src[i] == rng[i] == pm.full_mask]
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

    quad_total = n**4
    viol = 0
    if exhaustive and quad_total <= budget.exhaustive_cap:
        index = {a: i for i, a in enumerate(pool)}
        prod_idx = [[index[mul(a, b)] for b in pool] for a in pool]
        rng_n = range(n)
        for ia in rng_n:
            prod_a = prod_idx[ia]
            dist_a = dists[ia]
            for ic in rng_n:
                d_ac = dist_a[ic]
                prod_c = prod_idx[ic]
                for ib in rng_n:
                    row = dists[prod_a[ib]]
                    dist_b = dists[ib]
                    for idd in rng_n:
                        bound = d_ac + dist_b[idd]
                        if bound >= total:
                            continue
                        if row[prod_c[idd]] > bound:
                            viol += 1
        tested, exh4 = quad_total, True
    else:
        tuples4, exh4, tested = _tuples(n, 4, budget)
        for ia, ib, ic, idd in tuples4:
            ab = mul(pool[ia], pool[ib])
            cd = mul(pool[ic], pool[idd])
            if dist(ab, cd) > dists[ia][ic] + dists[ib][idd]:
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

    pair_iter, exh2, cnt2 = _tuples(n, 2, budget)
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
    pm, _, pool, exhaustive = _packed_pool(g, "semigroup", budget)
    mul, trace, dist = pm.mul, pm.trace, pm.dist
    one, total = pm.one, pm.total
    sources = [pm.idem(pm.src(a)) for a in pool]
    source_traces = [trace(s) for s in sources]
    invs = [pm.inv(a) for a in pool]
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

    pair_iter, exh2, cnt2 = _tuples(len(pool), 2, budget)
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
    pm, _, group, exhaustive = _packed_pool(g, "group", budget)
    malg_sets, malg_exh = _elements(g, "malg", budget)
    malg = [pm.mask(units) for units in malg_sets]
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
    quad_iter, exh4, cnt4 = _tuples(k, 2, budget)
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
    elements, exhaustive = _elements(g, "semigroup", budget)
    contains = 0
    full = 0
    idem = 0
    for gamma in elements:
        ext = extend_to_full_group(gamma)
        if not set(gamma.arrows) <= set(ext.arrows):
            contains += 1
        if not ext.is_full():
            full += 1
        if gamma.is_full() and ext != gamma:
            idem += 1
    n = len(elements)
    return [
        _result("extension-contains", contains == 0, tested=n, exhaustive=exhaustive),
        _result("extension-full", full == 0, tested=n, exhaustive=exhaustive),
        _result("extension-fixes-full-group", idem == 0, tested=n, exhaustive=exhaustive),
    ]


def suite_finite_index(
    g: FiniteGroupoid, sub_arrows, budget: SuiteBudget, system: TransversalSystem | None = None
) -> list[CheckResult]:
    from .constructions import find_transversals

    checks = []
    if system is None:
        system = find_transversals(g, sub_arrows)
    problems = system.violations()
    checks.append(
        _result(
            "transversal-partition",
            not problems,
            index=system.index,
            problems=problems,
        )
    )

    elements, exhaustive = _elements(g, "semigroup", budget)
    n_el = len(elements)
    blocks = {}
    block_failures = 0
    for a in elements:
        try:
            blocks[a] = block_components(a, system)
        except AssertionError:
            block_failures += 1
    checks.append(
        _result(
            "block-asserts",
            block_failures == 0,
            tested=n_el,
            exhaustive=exhaustive,
        )
    )

    viol = 0
    trace_viol = 0
    nn = system.index
    for a in elements:
        ba = blocks[a]
        for i in range(nn):
            if ba[i][i].trace() != a.trace():
                trace_viol += 1
    pair_iter, exh2, cnt2 = _tuples(n_el, 2, budget)
    for ia, ib in pair_iter:
        a, b = elements[ia], elements[ib]
        bab = _blocks(a * b, system)
        for i in range(nn):
            for l in range(nn):
                union = set()
                for j in range(nn):
                    union |= set((blocks[a][i][j] * blocks[b][j][l]).arrows)
                if union != set(bab[i][l].arrows):
                    viol += 1
    checks.append(
        _result(
            "block-identity",
            viol == 0,
            tested=cnt2 * nn * nn,
            exhaustive=exh2,
            violations=viol,
        )
    )
    checks.append(
        _result(
            "diagonal-trace",
            trace_viol == 0,
            tested=n_el * nn,
            exhaustive=exhaustive,
        )
    )

    lift = finite_index_map(system)
    report = check_embedding(lift, budget)
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
    ps = product_groupoid(left, right)
    elements, exhaustive = _elements(ps.groupoid, "semigroup", budget)
    id_left, id_right = identity_map(left), identity_map(right)
    checks = []

    invariant_viol = 0
    cover_viol = 0
    redecomp_viol = 0
    for phi in elements:
        u1 = rectangle_decompose(ps, phi, reverse=False)
        u2 = rectangle_decompose(ps, phi, reverse=True)
        if u1.violations() or u2.violations():
            invariant_viol += 1
        if u1.as_bisection() != phi or u2.as_bisection() != phi:
            cover_viol += 1
        img1 = product_embedding(id_left, id_right, u1)
        img2 = product_embedding(id_left, id_right, u2)
        if img1 != img2:
            redecomp_viol += 1
    n = len(elements)
    checks.append(
        _result("monoid-invariants", invariant_viol == 0, tested=n, exhaustive=exhaustive)
    )
    checks.append(
        _result("decomposition-covers", cover_viol == 0, tested=n, exhaustive=exhaustive)
    )
    checks.append(
        _result(
            "redecomposition-invariance",
            redecomp_viol == 0,
            tested=n,
            exhaustive=exhaustive,
        )
    )

    lefts, lexh = _elements(left, "semigroup", budget)
    rights, rexh = _elements(right, "semigroup", budget)
    viol = sum(
        1
        for a in lefts
        for b in rights
        if rectangle(ps, a, b).trace() != a.trace() * b.trace()
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
    reports = ladder_profile(
        n,
        p_list,
        pair_cap=budget.exhaustive_cap,
        sample_count=budget.sample_count,
        seed=budget.seed,
    )
    checks = []
    for rep in reports:
        ok = rep.bound is None or rep.observed_sup <= rep.bound
        if rep.p % rep.n == 0:
            ok = ok and rep.observed_sup == 0
        checks.append(
            _result(
                f"ladder-{rep.n}-to-{rep.p}",
                ok,
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
        else:
            printable[key] = value
    return SuiteResult(name, printable, budget, tuple(checks))
