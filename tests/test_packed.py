"""Differential tests of the packed kernel against the Bisection operations,
and golden reports of the suites and the embedding certificate that run on it.

The golden files under tests/golden/ were written by the Bisection-based
suite bodies and check_embedding loop that the packed kernel replaced; the
rewritten code must reproduce them byte for byte. The replaced
check_embedding loop is also kept below as a reference, and its reports
must equal the library's, witnesses included.
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from soficlab import cayley
from soficlab.constructions import (
    SemigroupMap,
    embed_connected,
    embed_convex,
    embed_convex_pair,
    find_transversals,
    finite_index_map,
    general_map,
    group_subgroupoid,
    step_map,
)
from soficlab.groupoid import (
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
)
from soficlab.semigroup import (
    Bisection,
    PackedMonoid,
    act,
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    idempotent,
    sample_bisection,
    unit_bisection,
)
from soficlab.serialize import dumps, embedding_report_to_json, suite_result_to_json
from soficlab.verify import (
    EmbeddingReport,
    SuiteBudget,
    _elements,
    _tuples,
    check_embedding,
    run_suite,
)

HALF = Fraction(1, 2)
GROUPOIDS = {
    "n2": full_relation(2),
    "n3": full_relation(3),
    "n4": full_relation(4),
    "z2y2": connected_groupoid(cayley.cyclic(2), 2),
    "z2pt": convex_combination(
        [(Fraction(1, 3), group_groupoid(cayley.cyclic(2))), (Fraction(2, 3), full_relation(1))]
    ),
    "s3y2": connected_groupoid(cayley.symmetric(3), 2),
    "z2y2_y2": convex_combination(
        [(HALF, connected_groupoid(cayley.cyclic(2), 2)), (HALF, full_relation(2))]
    ),
}
DIFFERENTIAL = ("n2", "n3", "z2y2", "z2pt", "s3y2")
KERNEL_SUITES = ("inverse-monoid", "metric-prop", "trace-distance", "supports")
SMALL = SuiteBudget(exhaustive_cap=20, sample_count=15, seed=3)

# (golden file stem, suite, groupoid key, budget or None for the default)
GOLDEN_CASES = (
    [(f"{suite}-{key}", suite, key, None) for key in DIFFERENTIAL for suite in KERNEL_SUITES]
    # the suites-exhaustive benchmark jobs
    + [
        ("trace-distance-n4", "trace-distance", "n4", None),
        ("metric-prop-n4", "metric-prop", "n4", None),
        ("supports-z2y2_y2", "supports", "z2y2_y2", None),
        ("trace-distance-z2y2_y2", "trace-distance", "z2y2_y2", None),
    ]
    # sampled pools: products leave the pool
    + [(f"{suite}-n4-sampled", suite, "n4", SMALL) for suite in KERNEL_SUITES]
)
GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_report(suite, key, budget) -> str:
    return dumps(suite_result_to_json(run_suite(suite, budget, g=GROUPOIDS[key])))


@pytest.mark.parametrize("stem,suite,key,budget", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_suite_report_matches_golden(stem, suite, key, budget):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert golden_report(suite, key, budget) == expected


# ---------------------------------------------------------------------------
# Kernel against the Bisection operations


@pytest.fixture(scope="module", params=DIFFERENTIAL)
def kernel(request):
    g = GROUPOIDS[request.param]
    pm = PackedMonoid(g)
    elements = list(enumerate_semigroup(g))
    return g, pm, elements, [pm.encode(a) for a in elements]


def test_encode_decode_roundtrip(kernel):
    g, pm, elements, packed = kernel
    assert len(set(packed)) == len(elements)
    for a, x in zip(elements, packed):
        assert len(x) == g.n_units
        assert pm.decode(x) == a
    assert pm.one == pm.encode(idempotent(g, g.units()))
    assert pm.zero == pm.encode(idempotent(g, ()))


def test_mul_and_inv_agree(kernel):
    g, pm, elements, packed = kernel
    for a, x in zip(elements, packed):
        assert pm.inv(x) == pm.encode(a.inverse())
        for b, y in zip(elements, packed):
            assert pm.mul(x, y) == pm.encode(a * b)


def test_trace_and_dist_agree(kernel):
    g, pm, elements, packed = kernel
    assert pm.total == pm.denom
    for a, x in zip(elements, packed):
        assert Fraction(pm.trace(x), pm.denom) == a.trace()
        for b, y in zip(elements, packed):
            assert Fraction(pm.dist(x, y), pm.denom) == a.distance(b)


def test_masks_agree(kernel):
    g, pm, elements, packed = kernel
    for a, x in zip(elements, packed):
        assert pm.src(x) == pm.mask(a.source_units)
        assert pm.rng(x) == pm.mask(a.range_units)
        assert pm.fix(x) == pm.mask(a.fix_units)
        assert pm.supp(x) == pm.mask(a.supp_units)


def test_mass_idem_and_act_agree(kernel):
    g, pm, elements, packed = kernel
    malg = list(enumerate_malg(g))
    for units in malg:
        mask = pm.mask(units)
        assert mask == sum(1 << i for i, u in enumerate(g.units()) if u in units)
        assert Fraction(pm.mass(mask), pm.denom) == g.mass(units)
        assert pm.idem(mask) == pm.encode(idempotent(g, units))
    for a in enumerate_group(g):
        x = pm.encode(a)
        for units in malg:
            assert pm.act(x, pm.mask(units)) == pm.mask(act(a, units))
    # off the full group, act is the range of the restriction to the mask
    for a, x in zip(elements, packed):
        for units in malg:
            image = {arrow.range for arrow in a.arrows if arrow.source in units}
            assert pm.act(x, pm.mask(units)) == pm.mask(image)


def test_sampled_elements_of_a_ten_unit_groupoid():
    # more than one 8-unit mass chunk, and codes of several components
    g = convex_combination(
        [
            (Fraction(1, 3), connected_groupoid(cayley.symmetric(3), 4)),
            (Fraction(2, 3), full_relation(6)),
        ]
    )
    pm = PackedMonoid(g)
    assert pm.n_units == 10
    units = list(g.units())
    for k in (0, 1, 5, 9, 10):
        for subset in list(combinations(units, k))[:40]:
            assert Fraction(pm.mass(pm.mask(subset)), pm.denom) == g.mass(subset)
    rng = random.Random(5)
    for _ in range(200):
        a, b = sample_bisection(g, rng), sample_bisection(g, rng)
        x, y = pm.encode(a), pm.encode(b)
        assert pm.decode(x) == a
        assert pm.mul(x, y) == pm.encode(a * b)
        assert pm.inv(x) == pm.encode(a.inverse())
        assert Fraction(pm.trace(x), pm.denom) == a.trace()
        assert Fraction(pm.dist(x, y), pm.denom) == a.distance(b)
        assert pm.supp(x) == pm.mask(a.supp_units)


# ---------------------------------------------------------------------------
# The embedding certificate against the Bisection reference


def reference_check_embedding(m, budget) -> EmbeddingReport:
    """check_embedding on Bisection algebra: the map is evaluated on every
    product, and deviations are Fractions."""
    elements, exhaustive = _elements(m.domain, "semigroup", budget)
    n = len(elements)
    pair_iter, pairs_exhaustive, pair_count = _tuples(n, 2, budget)
    exhaustive = exhaustive and pairs_exhaustive

    images = [m(a) for a in elements]
    unit_ok = m(unit_bisection(m.domain)) == unit_bisection(m.codomain)
    injective = len(set(images)) == len(set(elements))

    prod_dev = trace_dev = dist_dev = Fraction(0)
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


def two_components(t):
    """Z2 with weight t beside [[2]] with weight 1 - t."""
    return convex_combination(
        [(t, group_groupoid(cayley.cyclic(2))), (1 - t, full_relation(2))]
    )


def drop_first_arrow(m: SemigroupMap) -> SemigroupMap:
    """A broken map: every image loses its first arrow."""

    def run(alpha):
        return Bisection(m.codomain, m(alpha).arrows[1:])

    return SemigroupMap(m.domain, m.codomain, run, f"dropped.{m.label}")


def forget_labels(m: SemigroupMap) -> SemigroupMap:
    """A broken map: group labels are dropped before m runs. It stays
    multiplicative but is neither injective nor trace-preserving."""

    def run(alpha):
        return m(Bisection(m.domain, tuple(a._replace(g=0) for a in alpha.arrows)))

    return SemigroupMap(m.domain, m.codomain, run, f"collapsed.{m.label}")


def s3_over_z3():
    s3 = group_groupoid(cayley.symmetric(3))
    return finite_index_map(find_transversals(s3, group_subgroupoid(s3, [0, 3, 4])))


THIRD = Fraction(1, 3)
EMBEDDINGS = {
    "connected-z2y2": lambda: embed_connected(GROUPOIDS["z2y2"]),
    "convex-z2+y2": lambda: embed_convex(two_components(THIRD)),
    "pair-z2+y2": lambda: embed_convex_pair(
        embed_convex(two_components(THIRD)), embed_convex(two_components(2 * THIRD)), THIRD
    ),
    "index-s3-z3": s3_over_z3,
    "step-2": lambda: step_map(2),
    "ladder-3-7": lambda: general_map(3, 7),
    "dropped-connected-z2y2": lambda: drop_first_arrow(embed_connected(GROUPOIDS["z2y2"])),
    "collapsed-connected-z2y2": lambda: forget_labels(embed_connected(GROUPOIDS["z2y2"])),
}
# the small budget samples the pairs of every case, and the pools of the 21-
# and 34-element domains, whose products then leave the pool
EMBEDDING_BUDGETS = {"exhaustive": SuiteBudget(), "sampled": SMALL}
EMBEDDING_CASES = [(case, regime) for case in EMBEDDINGS for regime in EMBEDDING_BUDGETS]
EMBEDDING_IDS = [f"{case}-{regime}" for case, regime in EMBEDDING_CASES]


@pytest.mark.parametrize("case,regime", EMBEDDING_CASES, ids=EMBEDDING_IDS)
def test_embedding_report_matches_reference(case, regime):
    m, budget = EMBEDDINGS[case](), EMBEDDING_BUDGETS[regime]
    assert check_embedding(m, budget) == reference_check_embedding(m, budget)


@pytest.mark.parametrize("case,regime", EMBEDDING_CASES, ids=EMBEDDING_IDS)
def test_embedding_report_matches_golden(case, regime):
    report = check_embedding(EMBEDDINGS[case](), EMBEDDING_BUDGETS[regime])
    expected = (GOLDEN_DIR / f"embedding-{case}-{regime}.json").read_text()
    assert dumps(embedding_report_to_json(report)) == expected

