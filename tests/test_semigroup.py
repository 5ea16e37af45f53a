from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import cayley
from soficlab.groupoid import Arrow, connected_groupoid, full_relation
from soficlab.semigroup import (
    Bisection,
    CapExceededError,
    ExtensionCertificateError,
    UnionIncompatibleError,
    act,
    bisection,
    empty_bisection,
    enumerate_elements,
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    extend_to_full_group,
    group_count,
    idempotent,
    projections,
    semigroup_count,
    union_compatible,
    unit_bisection,
)

G2 = full_relation(2)
G3 = full_relation(3)
Z2Y2 = connected_groupoid(cayley.cyclic(2), 2)


def pin(g, mapping):
    return bisection(g, [Arrow(0, 0, y, x) for x, y in mapping.items()])


def as_map(b):
    return {a.y_from: a.y_to for a in b.arrows}


# --- independent oracle: partial maps under composition -------------------


def compose_oracle(f, g):
    return {x: f[y] for x, y in g.items() if y in f}


def test_compose_matches_partial_map_oracle_on_rel2():
    elements = list(enumerate_semigroup(G2))
    for a in elements:
        for b in elements:
            assert as_map(a * b) == compose_oracle(as_map(a), as_map(b))


class TestCompose:
    def test_monoid_unit(self):
        one = unit_bisection(G2)
        for a in enumerate_semigroup(G2):
            assert a * one == a == one * a

    def test_single_composable_pair(self):
        # {0 -> 1} * {1 -> 0} leaves only 1 -> 1
        assert pin(G2, {0: 1}) * pin(G2, {1: 0}) == pin(G2, {1: 1})

    def test_empty_absorbing(self):
        empty = empty_bisection(G2)
        for a in enumerate_semigroup(G2):
            assert a * empty == empty == empty * a

    def test_groupoid_mismatch(self):
        with pytest.raises(ValueError):
            unit_bisection(G2) * unit_bisection(G3)


class TestInvert:
    def test_unit(self):
        assert unit_bisection(G2).inverse() == unit_bisection(G2)

    def test_graph_transpose(self):
        assert pin(G2, {0: 1}).inverse() == pin(G2, {1: 0})

    def test_antihomomorphism_exhaustive(self):
        elements = list(enumerate_semigroup(G2))
        for a in elements:
            for b in elements:
                assert (a * b).inverse() == b.inverse() * a.inverse()

    def test_inverse_monoid_law(self):
        for a in enumerate_semigroup(Z2Y2):
            assert a * a.inverse() * a == a
            assert a.inverse() * a * a.inverse() == a.inverse()


class TestTrace:
    def test_unit_trace(self):
        assert unit_bisection(G3).trace() == 1

    def test_swap_trace(self):
        assert pin(G2, {0: 1, 1: 0}).trace() == 0

    def test_partial_identity(self):
        assert pin(G2, {0: 0}).trace() == Fraction(1, 2)

    def test_isotropy_arrow_not_fixed(self):
        # a nontrivial isotropy element sits over its unit but is not a unit
        loop = bisection(Z2Y2, [Arrow(0, 1, 0, 0)])
        assert loop.trace() == 0


class TestDistance:
    def test_self_distance(self):
        for a in enumerate_semigroup(G2):
            assert a.distance(a) == 0

    def test_identity_to_swap(self):
        # all sources differ
        assert unit_bisection(G2).distance(pin(G2, {0: 1, 1: 0})) == 1

    def test_empty_to_unit(self):
        assert empty_bisection(G2).distance(unit_bisection(G2)) == 1

    def test_pmp_mass_law(self):
        for a in enumerate_semigroup(Z2Y2):
            assert Z2Y2.mass(a.source_units) == Z2Y2.mass(a.range_units)

    def test_inverse_invariance_corrected(self):
        g = G3
        elements = list(enumerate_semigroup(g))
        for a in elements:
            for b in elements:
                correction = g.mass(a.range_units | b.range_units) - g.mass(
                    a.source_units | b.source_units
                )
                assert a.inverse().distance(b.inverse()) - a.distance(b) == correction

    def test_inverse_invariance_fails_off_full_group(self):
        # the witness pair: a partial shift against a partial identity
        a, b = pin(G2, {0: 1}), pin(G2, {0: 0})
        assert a.distance(b) == Fraction(1, 2)
        assert a.inverse().distance(b.inverse()) == 1
        assert a.range_distance(b) == 1


class TestProjections:
    def test_swap_fixing_a_point(self):
        alpha = pin(G3, {0: 1, 1: 0, 2: 2})
        s, r, fix, supp = projections(alpha)
        assert fix == {(0, 2)}
        assert supp == {(0, 0), (0, 1)}
        assert s == r == {(0, 0), (0, 1), (0, 2)}

    def test_unit(self):
        s, r, fix, supp = projections(unit_bisection(G3))
        assert fix == set(G3.units()) and supp == frozenset()

    def test_partial_map(self):
        s, r, fix, supp = projections(pin(G2, {0: 1}))
        assert s == {(0, 0)} and r == {(0, 1)}
        assert fix == frozenset() and supp == {(0, 0)}

    def test_source_is_inverse_product(self):
        for a in enumerate_semigroup(Z2Y2):
            assert (a.inverse() * a).fix_units == a.source_units
            assert (a * a.inverse()).fix_units == a.range_units


class TestAct:
    def test_identity_action(self):
        units = frozenset([(0, 1)])
        assert act(unit_bisection(G3), units) == units

    def test_pointwise_image(self):
        swap01 = pin(G3, {0: 1, 1: 0, 2: 2})
        assert act(swap01, {(0, 0), (0, 2)}) == {(0, 1), (0, 2)}

    def test_full_unit_space(self):
        for a in enumerate_group(G3):
            assert act(a, set(G3.units())) == set(G3.units())

    def test_partial_rejected(self):
        with pytest.raises(ValueError):
            act(pin(G2, {0: 1}), {(0, 0)})

    def test_mass_preserved(self):
        for a in enumerate_group(Z2Y2):
            for units in enumerate_malg(Z2Y2):
                assert Z2Y2.mass(act(a, units)) == Z2Y2.mass(units)


class TestUnionCompatible:
    def test_union_with_empty(self):
        a = pin(G2, {0: 1})
        assert union_compatible(a, empty_bisection(G2)) == a

    def test_disjoint_union_gives_swap(self):
        assert union_compatible(pin(G2, {0: 1}), pin(G2, {1: 0})) == pin(
            G2, {0: 1, 1: 0}
        )

    def test_source_collision_witnessed(self):
        with pytest.raises(UnionIncompatibleError) as err:
            union_compatible(pin(G2, {0: 1}), pin(G2, {0: 0}))
        a, b = err.value.witness
        assert a.source == b.source == (0, 0)

    def test_range_collision_witnessed(self):
        with pytest.raises(UnionIncompatibleError) as err:
            union_compatible(pin(G2, {0: 1}), pin(G2, {1: 1}))
        a, b = err.value.witness
        assert a.range == b.range == (0, 1)


class TestExtendToFullGroup:
    def test_unit_fixed(self):
        assert extend_to_full_group(unit_bisection(G3)) == unit_bisection(G3)

    def test_single_arrow_closes_to_swap(self):
        got = extend_to_full_group(pin(G3, {0: 1}))
        assert got == pin(G3, {0: 1, 1: 0, 2: 2})

    def test_full_group_elements_fixed(self):
        for gamma in enumerate_group(Z2Y2):
            assert extend_to_full_group(gamma) == gamma

    def test_every_bisection_extends(self):
        for gamma in enumerate_semigroup(Z2Y2):
            ext = extend_to_full_group(gamma)
            assert ext.is_full()
            assert set(gamma.arrows) <= set(ext.arrows)

    def test_chain_with_isotropy(self):
        # the chain closes with the inverse group decoration, so ext is an involution
        gamma = bisection(Z2Y2, [Arrow(0, 1, 1, 0)])
        ext = extend_to_full_group(gamma)
        assert ext.is_full()
        assert Arrow(0, 1, 1, 0) in set(ext.arrows)
        assert ext * ext == unit_bisection(Z2Y2)

    def test_failed_certificate_raises_named_error(self, monkeypatch):
        # with inversion broken there are no stages, so s(gamma) u r(gamma)
        # is not covered; the check must raise, also under python -O
        monkeypatch.setattr(Bisection, "inverse", lambda self: empty_bisection(self.groupoid))
        with pytest.raises(ExtensionCertificateError, match="cover"):
            extend_to_full_group(pin(G3, {0: 1}))


class TestEnumerate:
    def test_semigroup_count_rel2(self):
        assert semigroup_count(G2) == 7
        assert len(list(enumerate_semigroup(G2))) == 7

    def test_group_count_rel3(self):
        assert group_count(G3) == 6
        assert len(list(enumerate_group(G3))) == 6

    def test_malg_of_rel2(self):
        assert len(list(enumerate_malg(G2))) == 4

    def test_no_duplicates_and_deterministic(self):
        first = list(enumerate_semigroup(Z2Y2))
        second = list(enumerate_semigroup(Z2Y2))
        assert first == second
        assert len(set(first)) == len(first) == 17

    def test_cap_exceeded_reports_predicted(self):
        with pytest.raises(CapExceededError) as err:
            list(enumerate_semigroup(full_relation(5), cap=100))
        assert err.value.predicted == 1546

    def test_dispatch(self):
        assert len(list(enumerate_elements(G2, "malg"))) == 4
        with pytest.raises(ValueError):
            list(enumerate_elements(G2, "nope"))


# --- property tests over a groupoid with isotropy --------------------------

arrows_z2y2 = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    max_size=2,
    unique_by=lambda t: t[1],
).filter(lambda ts: len({t[2] for t in ts}) == len(ts))


@st.composite
def z2y2_bisections(draw):
    ts = draw(arrows_z2y2)
    return bisection(Z2Y2, [Arrow(0, g, t, f) for g, f, t in ts])


@settings(max_examples=150, deadline=None)
@given(z2y2_bisections(), z2y2_bisections(), z2y2_bisections())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150, deadline=None)
@given(z2y2_bisections(), z2y2_bisections())
def test_trace_distance_identity(a, b):
    sa = idempotent(Z2Y2, a.source_units)
    sb = idempotent(Z2Y2, b.source_units)
    rhs = sa.trace() + sb.trace() - (sa * sb).trace() - (b.inverse() * a).trace()
    assert a.distance(b) == rhs


@settings(max_examples=150, deadline=None)
@given(z2y2_bisections())
def test_trace_identity(a):
    one = unit_bisection(Z2Y2)
    s = idempotent(Z2Y2, a.source_units)
    assert a.trace() == 1 - s.distance(one) - s.distance(a)
