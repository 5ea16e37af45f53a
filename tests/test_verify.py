from fractions import Fraction

import pytest

from pool_reference import enumerate_semigroup

from soficlab import cayley
from soficlab.groupoid import Arrow, connected_groupoid, convex_combination, full_relation, group_groupoid
from soficlab.constructions import (
    TransversalSystem,
    embed_connected,
    find_transversals,
    general_map,
    group_subgroupoid,
    identity_map,
    step_map,
    unit_subgroupoid,
)
from soficlab.semigroup import bisection, unit_bisection
from soficlab.serialize import dumps, suite_result_to_json
from soficlab.verify import (
    SUITES,
    IncompletePairListError,
    SuiteBudget,
    check_almost_morphism,
    check_embedding,
    run_suite,
)

G2 = full_relation(2)
G3 = full_relation(3)
BIG = SuiteBudget(exhaustive_cap=1_500_000)


def pin(g, mapping):
    return bisection(g, [Arrow(0, 0, y, x) for x, y in mapping.items()])


class TestAlmostMorphism:
    def test_identity_passes(self):
        K = list(enumerate_semigroup(G2))
        report = check_almost_morphism(identity_map(G2), K, Fraction(1, 100))
        assert report.passed
        assert report.max_product_deviation == 0
        assert report.max_trace_deviation == 0
        assert report.max_distance_deviation == 0

    def test_ladder_within_distortion_bound(self):
        K = list(enumerate_semigroup(G3))
        report = check_almost_morphism(general_map(3, 7), K, Fraction(4, 5))
        assert report.passed
        assert report.max_distance_deviation <= Fraction(3, 4)
        assert report.max_product_deviation == 0

    def test_collapsing_map_fails_on_trace(self):
        swap = pin(G2, {0: 1, 1: 0})
        one = unit_bisection(G2)
        table = {swap: one, one: one}
        report = check_almost_morphism(table, [swap], Fraction(1, 2))
        assert not report.passed
        assert report.max_trace_deviation == 1
        assert report.witnesses["trace"] == swap

    def test_incomplete_pair_list_rejected(self):
        swap = pin(G2, {0: 1, 1: 0})
        with pytest.raises(IncompletePairListError):
            check_almost_morphism({swap: swap}, [swap], Fraction(1, 2))

    def test_pair_list_images_on_two_groupoids_rejected(self):
        swap = pin(G2, {0: 1, 1: 0})
        one = unit_bisection(G2)
        with pytest.raises(ValueError, match="different groupoids"):
            check_almost_morphism({swap: unit_bisection(G3), one: one}, [swap, one], Fraction(1, 2))

    def test_epsilon_strict(self):
        swap = pin(G2, {0: 1, 1: 0})
        one = unit_bisection(G2)
        report = check_almost_morphism({swap: one, one: one}, [swap], Fraction(1))
        assert not report.passed  # deviation 1 is not < 1


class TestEmbeddingReport:
    def test_connected_embedding_certified(self):
        g = connected_groupoid(cayley.cyclic(2), 2)
        report = check_embedding(embed_connected(g), BIG)
        assert report.passed and report.exhaustive
        # the closed form reads the 8 arrows of Z2xY2
        assert (report.method, report.element_count) == ("arrow-table", 8)

    def test_step_embedding_flagged_consistently(self):
        report = check_embedding(step_map(2), BIG)
        assert report.multiplicative
        assert not report.trace_preserving
        assert not report.isometric
        assert report.max_trace_deviation == Fraction(1, 3)
        assert report.max_trace_deviation <= Fraction(1, 3)
        assert report.trace_iso_consistent
        assert not report.passed

    def test_identity_passes(self):
        report = check_embedding(identity_map(G3), BIG)
        assert report.passed

    def test_sampled_regime_deterministic(self):
        g = full_relation(6)
        budget = SuiteBudget(exhaustive_cap=50, sample_count=40, seed=11)
        r1 = check_embedding(identity_map(g), budget)
        r2 = check_embedding(identity_map(g), budget)
        assert r1 == r2
        assert not r1.exhaustive

    def test_exhaustive_pass_implies_every_epsilon_check(self):
        # a map certified exact on the whole semigroup stays below any epsilon
        g = connected_groupoid(cayley.cyclic(2), 2)
        m = embed_connected(g)
        assert check_embedding(m, BIG).passed
        elements = list(enumerate_semigroup(g))
        for K in (elements, elements[:5], [unit_bisection(g)]):
            for eps in (Fraction(1), Fraction(1, 1000), Fraction(1, 10**9)):
                assert check_almost_morphism(m, K, eps).passed


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", BIG, g=G2)

    def test_inverse_monoid_passes(self):
        assert run_suite("inverse-monoid", BIG, g=G3).passed

    def test_trace_distance_passes(self):
        assert run_suite("trace-distance", BIG, g=G3).passed

    def test_metric_fails_only_inverse_invariance(self):
        result = run_suite("metric-prop", BIG, g=G2)
        failed = [c.name for c in result.checks if not c.passed]
        assert failed == ["inverse-invariance"]
        by_name = {c.name: c for c in result.checks}
        assert by_name["inverse-invariance-full-group"].passed
        assert by_name["inverse-invariance-corrected"].passed
        assert by_name["product-inequality"].passed
        assert by_name["inverse-triangle"].passed

    def test_supports_passes(self):
        assert run_suite("supports", BIG, g=G3).passed

    def test_extension_passes(self):
        assert run_suite("extension", BIG, g=G3).passed

    def test_finite_index_passes(self):
        z4 = group_groupoid(cayley.cyclic(4))
        result = run_suite(
            "finite-index", BIG, g=z4, sub_arrows=group_subgroupoid(z4, [0, 2])
        )
        assert result.passed

    def test_finite_index_checks_a_found_system_once(self, monkeypatch):
        # find_transversals certifies the system it returns; the suite
        # records that certificate instead of checking the system again
        calls = []
        violations = TransversalSystem.violations

        def counted(self):
            calls.append(self)
            return violations(self)

        monkeypatch.setattr(TransversalSystem, "violations", counted)
        result = run_suite("finite-index", g=G3, sub_arrows=unit_subgroupoid(G3))
        assert len(calls) == 1
        partition = result.checks[0]
        assert partition.name == "transversal-partition"
        assert partition.passed and partition.details["problems"] == []

    @pytest.mark.parametrize("g, system_g", [(G3, G2), (G2, G3)])
    def test_finite_index_rejects_a_system_of_another_groupoid(self, g, system_g):
        # the subgroupoid is the system's, so only the groupoid differs
        system = find_transversals(system_g, unit_subgroupoid(system_g))
        with pytest.raises(ValueError, match="groupoid not that of the transversal system"):
            run_suite("finite-index", g=g, sub_arrows=system.sub_arrows, system=system)

    def test_finite_index_rejects_a_system_of_another_subgroupoid(self):
        z4 = group_groupoid(cayley.cyclic(4))
        system = find_transversals(z4, group_subgroupoid(z4, [0, 2]))
        with pytest.raises(ValueError, match="subgroupoid not that of the transversal system"):
            run_suite("finite-index", g=z4, sub_arrows=unit_subgroupoid(z4), system=system)

    def test_finite_index_reports_an_invalid_system(self):
        # both transversals are the unit: the translates overlap, the block
        # checks fail on some elements and the lift is not well-defined
        one = unit_bisection(G2)
        bad = TransversalSystem(G2, unit_subgroupoid(G2), (one, one))
        result = run_suite("finite-index", BIG, g=G2, sub_arrows=bad.sub_arrows, system=bad)
        by_name = {c.name: c for c in result.checks}
        assert list(by_name) == [
            "transversal-partition",
            "block-asserts",
            "block-identity",
            "diagonal-trace",
            "lift-exact-embedding",
        ]
        assert not by_name["transversal-partition"].passed
        assert not by_name["block-asserts"].passed
        assert not by_name["block-identity"].passed
        assert not by_name["lift-exact-embedding"].passed
        assert "not well-defined" in by_name["lift-exact-embedding"].details["error"]
        # [[2]] has 7 elements; only those whose blocks passed are counted
        done = by_name["diagonal-trace"].details["tested"] // 2
        assert 0 < done < 7
        assert by_name["block-asserts"].details["tested"] == 7
        assert by_name["block-identity"].details["tested"] == done * done * 4
        assert '"system": "2 transversals"' in dumps(suite_result_to_json(result))

    @pytest.mark.parametrize("case", ["n3-units-and-one-arrow", "z4-labels-0-1"])
    def test_finite_index_reports_a_system_over_a_non_subgroupoid(self, case):
        # the lift of such a system is not defined: the suite reports it as
        # a failed check with the error instead of raising
        if case == "n3-units-and-one-arrow":
            g, sub = G3, unit_subgroupoid(G3) | {Arrow(0, 0, 1, 0)}
            transversals = (unit_bisection(G3),)
        else:
            g = group_groupoid(cayley.cyclic(4))
            sub = group_subgroupoid(g, [0, 1])
            transversals = (bisection(g, [Arrow(0, 0, 0, 0)]), bisection(g, [Arrow(0, 2, 0, 0)]))
        system = TransversalSystem(g, sub, transversals)
        by_name = {c.name: c for c in run_suite("finite-index", g=g, sub_arrows=sub, system=system).checks}
        assert not by_name["transversal-partition"].passed
        lift = by_name["lift-exact-embedding"]
        assert not lift.passed
        assert lift.details == {
            "label": f"index[{len(transversals)}].identity",
            "error": f"lift not well-defined: not a subgroupoid: {by_name['transversal-partition'].details['problems'][0]}",
        }

    def test_rectangles_passes(self):
        assert run_suite("rectangles", BIG, left=G2, right=G2).passed

    def test_ladder_passes(self):
        result = run_suite("ladder", BIG, n=2, p_list=[3, 4, 5, 6])
        assert result.passed

    def test_deterministic_given_seed(self):
        budget = SuiteBudget(exhaustive_cap=10, sample_count=25, seed=3)
        a = run_suite("trace-distance", budget, g=full_relation(5))
        b = run_suite("trace-distance", budget, g=full_relation(5))
        assert a == b
        assert not a.checks[0].details["exhaustive"]


# each suite with a budget under which it samples the element pool of every
# check (for supports the full group; its MAlg pool of 16 stays whole),
# while the tuples over the sampled pool still fit the cap. The ladder
# draws no pool: its pairs are sampled exactly when |[[n]]|^2 exceeds the cap
SAMPLED_POOLS = {
    "inverse-monoid": ({"g": full_relation(4)}, SuiteBudget(exhaustive_cap=200, sample_count=3)),
    "metric-prop": ({"g": full_relation(4)}, SuiteBudget(exhaustive_cap=200, sample_count=3)),
    "trace-distance": ({"g": full_relation(4)}, SuiteBudget(exhaustive_cap=200, sample_count=3)),
    "supports": ({"g": full_relation(4)}, SuiteBudget(exhaustive_cap=16, sample_count=4)),
    "extension": ({"g": full_relation(4)}, SuiteBudget(exhaustive_cap=200, sample_count=3)),
    "finite-index": ({"g": G3, "sub_arrows": unit_subgroupoid(G3)}, SuiteBudget(exhaustive_cap=30, sample_count=4)),
    "rectangles": ({"left": G2, "right": G2}, SuiteBudget(exhaustive_cap=6, sample_count=3)),
}


@pytest.mark.parametrize("suite", list(SAMPLED_POOLS))
def test_no_check_is_exhaustive_over_a_sampled_pool(suite):
    params, budget = SAMPLED_POOLS[suite]
    result = run_suite(suite, budget, **params)
    flags = {c.name: c.details["exhaustive"] for c in result.checks if "exhaustive" in c.details}
    assert flags and not any(flags.values()), flags


# every suite under a cap of 20 tuples, on [[3]], on [[4]] (whose 24 full
# elements and 16 unit sets fit the cap only one at a time) and on
# Z2xY2+Y2 (whose corner quadruples are 16^4); and under a cap of one,
# where a sampled pool holds the unit alone
CAPS = (SuiteBudget(exhaustive_cap=20, sample_count=15), SuiteBudget(exhaustive_cap=1, sample_count=1))
CAP_GROUPOIDS = {
    "n3": G3,
    "n4": full_relation(4),
    "z2y2_y2": convex_combination(
        [(Fraction(1, 2), connected_groupoid(cayley.cyclic(2), 2)), (Fraction(1, 2), full_relation(2))]
    ),
}


def suite_params(suite, g):
    if suite == "rectangles":
        return {"left": g, "right": g}
    if suite == "ladder":
        return {"n": g.n_units, "p_list": [g.n_units + 1, 2 * g.n_units]}
    if suite == "finite-index":
        # the unit arrows of [[n]] have index n; Z2xY2+Y2 has no
        # transversals over its units, so it runs at index 1
        sub = frozenset(g.arrows()) if g is CAP_GROUPOIDS["z2y2_y2"] else unit_subgroupoid(g)
        return {"g": g, "sub_arrows": sub}
    return {"g": g}


def uncounted(check) -> bool:
    """The checks that run no tuples: the transversal partition is checked
    once, on the system, and a lift that is not well-defined reports its
    error instead of a certificate."""
    return check.name == "transversal-partition" or "error" in check.details


def check_counts(result) -> dict:
    """`tested` of every check, the ladder's being pairs_tested; every check
    but the uncounted ones must report it."""
    counts = {c.name: c.details.get("tested", c.details.get("pairs_tested")) for c in result.checks if not uncounted(c)}
    missing = [name for name, n in counts.items() if n is None]
    assert not missing, f"checks without a count: {missing}"
    return counts


def test_every_finite_index_check_reports_tested():
    one = unit_bisection(G2)
    bad = TransversalSystem(G2, unit_subgroupoid(G2), (one, one))
    valid = run_suite("finite-index", BIG, g=G3, sub_arrows=unit_subgroupoid(G3))
    invalid = run_suite("finite-index", BIG, g=G2, sub_arrows=bad.sub_arrows, system=bad)
    for result in (valid, invalid):
        for c in result.checks:
            assert ("tested" in c.details) != uncounted(c), c
    # the lift's certificate charges the 27 composable arrow pairs of [[3]]
    # and its closed form covers all of [[3]]
    lift = valid.checks[-1]
    assert lift.name == "lift-exact-embedding"
    assert (lift.details["tested"], lift.details["exhaustive"], lift.details["method"]) == (27, True, "arrow-table")


@pytest.mark.parametrize("key", CAP_GROUPOIDS)
@pytest.mark.parametrize("suite", SUITES)
def test_tested_is_bounded_by_the_cap(suite, key):
    for cap in CAPS:
        counts = check_counts(run_suite(suite, cap, **suite_params(suite, CAP_GROUPOIDS[key])))
        assert counts and max(counts.values()) <= cap.exhaustive_cap, (cap, counts)


# a sample count above the cap: the cap bounds sampled pools and tuples too
OVER_SAMPLED = SuiteBudget(exhaustive_cap=20, sample_count=500)


@pytest.mark.parametrize("suite", SUITES)
def test_cap_bounds_a_larger_sample_count(suite):
    counts = check_counts(run_suite(suite, OVER_SAMPLED, **suite_params(suite, full_relation(4))))
    assert counts and max(counts.values()) <= OVER_SAMPLED.exhaustive_cap, counts


def test_cap_bounds_a_larger_sample_count_in_certificates():
    report = check_embedding(identity_map(full_relation(4)), OVER_SAMPLED)
    assert not report.exhaustive
    assert report.element_count <= 20 and report.pair_count <= 20


@pytest.mark.parametrize("suite,n", [("supports", 8), ("metric-prop", 6)])
def test_large_groupoids_run_within_the_default_cap(suite, n):
    # [[8]]: 40,320 full elements and 256 unit sets; [[6]]: 13,327 elements
    budget = SuiteBudget()
    counts = check_counts(run_suite(suite, budget, g=full_relation(n)))
    assert len(counts) >= 6 and max(counts.values()) <= budget.exhaustive_cap, counts
