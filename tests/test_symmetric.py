"""The approximation ladder [[n]] -> [[p]]: the ladder maps on bisections of
full relations, and the exact distortion reports measured on packed codes.

reference_distortion measures the same sups with the Bisection operations
of bisection_reference and the block-copy formula written out,
independently of the arrow-map table and its packed gather.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisection_reference as ref
from pool_reference import enumerate_semigroup
from soficlab.cli import main as cli_main
from soficlab.constructions import SemigroupMap, arrow_map, general_map, step_map
from soficlab.groupoid import Arrow, connected_groupoid, convex_combination, full_relation
from soficlab.semigroup import (
    Bisection,
    CertificateError,
    PackedMonoid,
    empty_bisection,
    semigroup_count,
    unit_bisection,
)
from soficlab import cayley, symmetric, verify
from soficlab.symmetric import DistortionReport, distortion_report
from soficlab.verify import SuiteBudget, arrow_certificate, check_embedding

# the pair cap and sample count of the reports below: every [[n]] they
# measure has |[[n]]|^2 within the cap, so each is exhaustive
LADDER_BUDGET = SuiteBudget(exhaustive_cap=10**4, sample_count=400)


def pin(n, mapping):
    """The partial injection x -> mapping[x] of {0..n-1}, as a bisection."""
    return Bisection(full_relation(n), tuple(Arrow(0, 0, y, x) for x, y in mapping.items()))


def as_dict(b):
    return {a.y_from: a.y_to for a in b.arrows}


def elements(n):
    return list(enumerate_semigroup(full_relation(n)))


# brute-force oracle: filter all partial functions for injectivity
def count_by_filtering(n):
    total = 0
    for images in product(range(-1, n), repeat=n):
        defined = [y for y in images if y != -1]
        if len(set(defined)) == len(defined):
            total += 1
    return total


def count_by_sum(g):
    """|[[g]]| by the closed form: per component of base size n and group
    order m, the sum over k of C(n, k)^2 k! m^k, each term on its own."""
    return prod(
        sum(comb(c.base_size, k) ** 2 * factorial(k) * c.group_order**k for k in range(c.base_size + 1))
        for c in g.components
    )


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 7), (3, 34), (4, 209)])
def test_counts_match_brute_force_and_closed_form(n, expected):
    assert semigroup_count(full_relation(n)) == expected == count_by_sum(full_relation(n))
    assert len(elements(n)) == expected
    assert count_by_filtering(n) == expected
    # semigroup_count builds each term from the one before; the four cases
    # together cover base sizes 1..59, each with group orders 1, 2, 3 and
    # 6, alone and beside one or two other components
    tables = {m: cayley.cyclic(m) for m in (1, 2, 3, 6)}
    for size, m in product(range(n, 60, 4), tables):
        parts = [connected_groupoid(tables[m], size), connected_groupoid(tables[6 // m], n), full_relation(size % 7 + 1)]
        for k in (1, 2, 3):
            g = convex_combination([(Fraction(1, k), part) for part in parts[:k]])
            assert len(g.components) == k and semigroup_count(g) == count_by_sum(g), (size, m, k)


class TestBasicOps:
    def test_validation(self):
        with pytest.raises(ValueError):
            pin(2, {0: 1, 1: 1})
        with pytest.raises(ValueError):
            pin(2, {0: 2})

    def test_compose_applies_right_first(self):
        f = pin(3, {0: 1})
        g = pin(3, {2: 0})
        assert as_dict(ref.compose(f, g)) == {2: 1}

    def test_inverse(self):
        f = pin(3, {0: 2, 1: 0})
        assert as_dict(ref.inverse(f)) == {2: 0, 0: 1}

    def test_trace_and_distance(self):
        swap = pin(2, {0: 1, 1: 0})
        assert ref.trace(swap) == 0
        assert ref.distance(swap, unit_bisection(swap.groupoid)) == 1
        assert ref.trace(pin(2, {0: 0})) == Fraction(1, 2)


class TestEmbedStep:
    def test_identity_trace_drops(self):
        m = step_map(2)
        img = m(unit_bisection(m.domain))
        assert as_dict(img) == {0: 0, 1: 1}
        assert ref.trace(img) == Fraction(2, 3)

    def test_empty_stays_empty(self):
        m = step_map(2)
        img = m(empty_bisection(m.domain))
        assert as_dict(img) == {} and ref.trace(img) == 0

    def test_pairwise_deviation_bound_exhaustive(self):
        # |d_{n+1} - d_n| = |disagreements| / (n(n+1)) <= 1/(n+1)
        for n in (1, 2, 3):
            m = step_map(n)
            bound = Fraction(1, n + 1)
            for a in elements(n):
                ia = m(a)
                assert abs(ref.trace(ia) - ref.trace(a)) == ref.trace(a) / (n + 1) <= bound
                for b in elements(n):
                    assert abs(ref.distance(ia, m(b)) - ref.distance(a, b)) <= bound

    def test_deviation_tight_at_swap_identity_pair(self):
        m = step_map(2)
        swap, ident = pin(2, {0: 1, 1: 0}), unit_bisection(m.domain)
        dev = abs(ref.distance(m(swap), m(ident)) - ref.distance(swap, ident))
        assert dev == Fraction(1, 3)

    def test_multiplicative(self):
        m = step_map(2)
        for a in elements(2):
            for b in elements(2):
                assert m(ref.compose(a, b)) == ref.compose(m(a), m(b))

    def test_is_an_arrow_map(self):
        m = step_map(3)
        assert len(m.arrow_images) == 9 and m.codomain == full_relation(4)


class TestEmbedMultiple:
    def test_block_formula(self):
        img = general_map(2, 4)(pin(2, {0: 1, 1: 0}))
        assert as_dict(img) == {0: 1, 1: 0, 2: 3, 3: 2}

    def test_identity_to_identity(self):
        for n, k in ((1, 3), (2, 2), (3, 4)):
            m = general_map(n, n * k)
            assert m(unit_bisection(m.domain)) == unit_bisection(m.codomain)

    def test_exhaustive_monoid_morphism_small(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                m = general_map(n, n * k)
                els = elements(n)
                images = {a: m(a) for a in els}
                assert len(set(images.values())) == len(els)
                for a in els:
                    assert ref.trace(images[a]) == ref.trace(a)
                    assert ref.inverse(images[a]) == m(ref.inverse(a))
                for a in els:
                    for b in els:
                        assert ref.compose(images[a], images[b]) == m(ref.compose(a, b))
                        assert ref.distance(images[a], images[b]) == ref.distance(a, b)


class TestEmbedGeneral:
    def test_frozen_example_3_to_7(self):
        alpha = pin(3, {0: 1, 1: 0, 2: 2})
        img = general_map(3, 7)(alpha)
        assert as_dict(img) == {0: 1, 1: 0, 2: 2, 3: 4, 4: 3, 5: 5}
        assert ref.trace(img) == Fraction(2, 7)
        assert abs(ref.trace(alpha) - ref.trace(img)) == Fraction(1, 21)

    def test_image_distance_3_to_7(self):
        # oracle: both images disagree at 0,1,3,4 out of 7 points
        m = general_map(3, 7)
        alpha = pin(3, {0: 1, 1: 0, 2: 2})
        ident = unit_bisection(m.domain)
        d7 = ref.distance(m(alpha), m(ident))
        assert d7 == Fraction(4, 7)
        assert abs(d7 - ref.distance(alpha, ident)) == Fraction(2, 21) <= Fraction(3, 4)

    def test_multiple_of_n_is_isometric(self):
        m = general_map(2, 6)
        for a in elements(2):
            for b in elements(2):
                assert ref.distance(m(a), m(b)) == ref.distance(a, b)

    def test_below_n_rejected(self):
        with pytest.raises(ValueError):
            general_map(3, 2)
        with pytest.raises(ValueError):
            distortion_report(3, 2, LADDER_BUDGET)

    def test_distortion_within_bound_exhaustive(self):
        for n in (2, 3):
            els = elements(n)
            for p in range(n + 1, 13):
                m = general_map(n, p)
                images = {a: m(a) for a in els}
                worst = max(
                    abs(ref.distance(images[a], images[b]) - ref.distance(a, b)) for a in els for b in els
                )
                assert worst <= Fraction(n, p - n)

    def test_is_an_arrow_map(self):
        assert len(general_map(3, 7).arrow_images) == 9


# ---------------------------------------------------------------------------
# Distortion reports


def reference_distortion(n, p):
    """(observed_sup, trace_sup) over all pairs of [[n]], with the Bisection
    operations on the block copies q*n + x -> q*n + y, q < p // n."""
    cod = full_relation(p)

    def image(alpha):
        return Bisection(
            cod,
            tuple(Arrow(0, 0, q * n + a.y_to, q * n + a.y_from) for q in range(p // n) for a in alpha.arrows),
        )

    els = elements(n)
    images = {a: image(a) for a in els}
    d_sup = max(abs(ref.distance(images[a], images[b]) - ref.distance(a, b)) for a in els for b in els)
    t_sup = max(abs(ref.trace(images[a]) - ref.trace(a)) for a in els)
    return d_sup, t_sup


@pytest.mark.parametrize("n", [2, 3])
def test_report_matches_bisection_reference(n):
    for p in range(n, 13):
        rep = distortion_report(n, p, LADDER_BUDGET)
        # the closed form charges the n^3 composable arrow pairs of [[n]]
        assert rep.exhaustive and rep.method == "arrow-table" and rep.pairs_tested == n**3
        assert (rep.observed_sup, rep.trace_sup) == reference_distortion(n, p)


def test_exhaustive_sups_are_exactly_r_over_p():
    # a pair differing at c points deviates by c*r/(p*n), r = p mod n, and an
    # element with t fixed points by t*r/(p*n); both sups take c = t = n
    for n in (1, 2, 3):
        for p in range(n, 31):
            rep = distortion_report(n, p, LADDER_BUDGET)
            assert rep.exhaustive
            assert rep.observed_sup == rep.trace_sup == Fraction(p % n, p)
            assert rep.bound is None or rep.observed_sup <= rep.bound


# a ladder row is check_embedding's report on general_map(n, p) with the
# bound n/(p-n) beside it, so the two read the same method, sups, pair
# count and regime. When the arrow certificate proves the map
# multiplicative within the pairs of the element pass, both take the
# closed form, exact over all of [[n]]; otherwise both run the element
# pass over the same pool and pairs, product pass included, and its
# product deviation reads 0. The pool holds the unit, whose trace
# deviation is (p mod n)/p. Only the sampled pairs of [[4]], 50 and 40,
# fall below its 64 composable arrow pairs
@pytest.mark.parametrize(
    "n,p,budget",
    [pytest.param(n, p, LADDER_BUDGET, id=f"{n}-{p}") for n in (1, 2, 3) for p in range(n, 3 * n + 2)]
    + [
        pytest.param(4, 9, SuiteBudget(exhaustive_cap=100, sample_count=50, seed=5), id="4-9-sampled"),
        pytest.param(5, 7, SuiteBudget(), id="5-7-sampled"),
        # all 209 elements of [[4]], and 40 drawn pairs of them
        pytest.param(4, 6, SuiteBudget(exhaustive_cap=2000, sample_count=40, seed=3), id="4-6-sampled-pool"),
        # all 7 elements of [[2]], but 49 pairs exceed the cap
        pytest.param(2, 3, SuiteBudget(exhaustive_cap=48, sample_count=10, seed=2), id="2-3-sampled-pairs"),
    ],
)
def test_ladder_is_the_metric_pass_of_its_certificate(n, p, budget):
    rep = distortion_report(n, p, budget)
    cert = check_embedding(general_map(n, p), budget)
    assert rep.method == cert.method == ("elements" if n == 4 else "arrow-table")
    assert rep.exhaustive == (budget is LADDER_BUDGET or rep.method == "arrow-table")
    assert (rep.observed_sup, rep.trace_sup, rep.pairs_tested, rep.exhaustive) == (
        cert.max_distance_deviation,
        cert.max_trace_deviation,
        cert.pair_count,
        cert.exhaustive,
    )
    assert rep.trace_sup == Fraction(p % n, p)
    assert cert.max_product_deviation == 0


def test_ladder_takes_no_products(monkeypatch):
    # on the closed form, no element product pass: no mul, and left rows
    # only inside the arrow certificate, whose composable pass takes them
    # on codomain codes
    def refuse(*args):
        raise AssertionError("the ladder ran a product")

    inside = []
    certify, left_row, mul = verify._certify, PackedMonoid.left_row, PackedMonoid.mul

    def certifying(*args):
        inside.append(True)
        try:
            return certify(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(verify, "_certify", certifying)
    monkeypatch.setattr(PackedMonoid, "left_row", lambda self, a: left_row(self, a) if inside else refuse())
    monkeypatch.setattr(PackedMonoid, "mul", refuse)
    assert distortion_report(3, 7, LADDER_BUDGET).exhaustive
    # sampled, the certificate does not run within the 50 pairs, so the
    # product pass runs over them: one mul in [[4]] and one in [[9]] each
    muls = []
    monkeypatch.setattr(PackedMonoid, "mul", lambda self, a, b: muls.append(1) or mul(self, a, b))
    rep = distortion_report(4, 9, SuiteBudget(exhaustive_cap=100, sample_count=50, seed=5))
    assert not rep.exhaustive and len(muls) == 2 * rep.pairs_tested == 100


def test_hand_derived_anchor_2_to_5():
    # swap vs identity: 2 of 2 points differ in [[2]], 4 of 5 in [[5]]
    rep = distortion_report(2, 5, LADDER_BUDGET)
    assert rep.observed_sup == rep.trace_sup == Fraction(1, 5)
    assert rep.bound == Fraction(2, 3)


class TestLadderProfile:
    def test_powers_of_two(self):
        reports = [distortion_report(2, p, LADDER_BUDGET) for p in (4, 8, 16)]
        assert [r.bound for r in reports] == [1, Fraction(1, 3), Fraction(1, 7)]
        assert all(r.observed_sup <= r.bound for r in reports)
        assert all(r.observed_sup == 0 for r in reports)  # 2 divides each p
        assert all(r.exhaustive for r in reports)

    def test_large_target_records_decay(self):
        rep = distortion_report(3, 100, LADDER_BUDGET)
        assert rep.bound == Fraction(3, 97)
        assert rep.observed_sup <= rep.bound

    def test_exhaustive_exactly_when_all_pairs_fit_the_cap(self):
        # |[[2]]|^2 = 49; below that cap the element pass samples its
        # pairs, and the closed form still covers all of [[2]] when the 8
        # composable arrow pairs fit those samples, 10 but not 7
        assert distortion_report(2, 3, SuiteBudget(exhaustive_cap=49)).exhaustive
        rep = distortion_report(2, 3, SuiteBudget(exhaustive_cap=48, sample_count=10, seed=2))
        assert rep.exhaustive and rep.method == "arrow-table" and rep.pairs_tested == 8
        rep = distortion_report(2, 3, SuiteBudget(exhaustive_cap=48, sample_count=7, seed=2))
        assert not rep.exhaustive and rep.method == "elements" and rep.pairs_tested == 7

    def test_sampled_regime_is_seeded(self):
        budget = SuiteBudget(exhaustive_cap=100, sample_count=50, seed=5)
        a, b = distortion_report(4, 9, budget), distortion_report(4, 9, budget)
        assert a == b
        assert not a.exhaustive and a.seed == 5 and a.pairs_tested == 50


class TestCertificate:
    def test_report_above_its_bound_raises(self):
        with pytest.raises(CertificateError, match="exceeds the guaranteed bound"):
            DistortionReport(
                n=2,
                p=8,
                bound=Fraction(1, 3),
                observed_sup=Fraction(1, 2),
                trace_sup=Fraction(0),
                pairs_tested=1,
                exhaustive=True,
                method="elements",
                seed=None,
            )

    def test_broken_ladder_map_exits_as_certificate_error(self, monkeypatch, capsys):
        # every element sent to the empty bisection: d_2(swap, empty) = 1
        # against the bound 2/(8-2) = 1/3
        def collapsed(n, p):
            return arrow_map(full_relation(n), full_relation(p), lambda a: [], "collapsed")

        monkeypatch.setattr(symmetric, "general_map", collapsed)
        with pytest.raises(CertificateError, match="exceeds the guaranteed bound"):
            distortion_report(2, 8, LADDER_BUDGET)
        assert cli_main(["embed", "--kind", "ladder", "--n", "2", "--p", "8"]) == 1
        assert "certificate error:" in capsys.readouterr().err

        # points 0 and 3, the two copies of unit 0, exchanged in the target
        # of every image arrow: a valid table within the bound (distortion
        # 1/7 against 3/4), but not multiplicative
        def twisted(n, p):
            m, swap = general_map(n, p), {0: 3, 3: 0}
            table = {
                a: tuple(sorted(b._replace(y_to=swap.get(b.y_to, b.y_to)) for b in image))
                for a, image in m.arrow_images.items()
            }
            return SemigroupMap(m.domain, m.codomain, "twisted", table)

        assert arrow_certificate(twisted(3, 7)).verdict == "refuted"
        monkeypatch.setattr(symmetric, "general_map", twisted)
        with pytest.raises(CertificateError, match="product deviation 2/7"):
            distortion_report(3, 7, LADDER_BUDGET)
        assert cli_main(["embed", "--kind", "ladder", "--n", "3", "--p", "7"]) == 1
        assert "certificate error:" in capsys.readouterr().err


class TestBisectionIso:
    """The partial-injection view of an element of [[n]], the dict x -> y
    of its arrows, against the Bisection algebra."""

    def test_round_trip(self):
        for a in elements(3):
            assert pin(3, as_dict(a)) == a

    def test_commutes_with_operations(self):
        # partial functions composed, inverted and compared point by point
        def compose(f, g):
            return {x: f[g[x]] for x in g if g[x] in f}

        def inverse(f):
            return {y: x for x, y in f.items()}

        def distance(f, g):
            return Fraction(sum(f.get(x) != g.get(x) for x in range(3)), 3)

        els = elements(3)
        maps = {a: as_dict(a) for a in els}
        assert len({tuple(sorted(m.items())) for m in maps.values()}) == len(els)
        for a in els:
            assert ref.trace(a) == Fraction(sum(x == y for x, y in maps[a].items()), 3)
            assert as_dict(ref.inverse(a)) == inverse(maps[a])
        for a in els[:10]:
            for b in els:
                assert as_dict(ref.compose(a, b)) == compose(maps[a], maps[b])
                assert ref.distance(a, b) == distance(maps[a], maps[b])


# ---------------------------------------------------------------------------
# Random elements: the inverse law on [[1]]..[[6]], the triangle inequality on [[6]]


@st.composite
def pins(draw, sizes=st.integers(1, 6)):
    n = draw(sizes)
    perm = draw(st.permutations(range(n)))
    dom = draw(st.sets(st.integers(0, n - 1)))
    return pin(n, {x: perm[x] for x in dom})


@settings(max_examples=200, deadline=None)
@given(pins())
def test_inverse_law_random(a):
    assert ref.compose(ref.compose(a, ref.inverse(a)), a) == a


@settings(max_examples=200, deadline=None)
@given(pins(st.just(6)), pins(st.just(6)), pins(st.just(6)))
def test_metric_triangle_random(a, b, c):
    assert ref.distance(a, c) <= ref.distance(a, b) + ref.distance(b, c)
