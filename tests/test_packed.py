"""Differential tests of the packed kernel against the Bisection operations,
and golden reports of the suites that run on it.

The golden files under tests/golden/ were written by the Bisection-based
suite bodies that the packed kernel replaced; the rewritten suites must
reproduce them byte for byte.
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from soficlab import cayley
from soficlab.groupoid import (
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
)
from soficlab.semigroup import (
    PackedMonoid,
    act,
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    idempotent,
    sample_bisection,
)
from soficlab.serialize import dumps, suite_result_to_json
from soficlab.verify import SuiteBudget, run_suite

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
