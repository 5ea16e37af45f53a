import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raw_reference import reference_validate
from soficlab import cayley
from soficlab import groupoid as groupoid_module
from soficlab.groupoid import (
    Arrow,
    Component,
    FiniteGroupoid,
    MalformedInputError,
    PmpViolationError,
    RawGroupoid,
    ValidationReport,
    connected_groupoid,
    convex_combination,
    corner,
    decompose,
    full_relation,
    group_groupoid,
    make_groupoid,
    point_groupoid,
    product_groupoid,
    render_raw,
    subgroupoid_as_groupoid,
    validate_raw,
)

HALF = Fraction(1, 2)


def z2_raw():
    return RawGroupoid(
        units=("u",),
        arrows=(("u", "u", "u"), ("g", "u", "u")),
        compose={("u", "u"): "u", ("u", "g"): "g", ("g", "u"): "g", ("g", "g"): "u"},
        masses={"u": Fraction(1)},
    )


def rel2_raw(m0=HALF, m1=HALF):
    # full relation on two units: arrow labelled (x, y) acts y -> x
    pts = {0: "e0", 1: "e1"}
    arrows = {"e0": (0, 0), "e1": (1, 1), "a01": (1, 0), "a10": (0, 1)}
    entries = tuple((k, pts[s], pts[r]) for k, (r, s) in arrows.items())
    compose = {}
    for a, (ra, sa) in arrows.items():
        for b, (rb, sb) in arrows.items():
            if sa == rb:
                target = next(k for k, v in arrows.items() if v == (ra, sb))
                compose[(a, b)] = target
    return RawGroupoid(("e0", "e1"), entries, compose, {"e0": m0, "e1": m1})


class TestValidate:
    def test_z2_ok(self):
        assert validate_raw(z2_raw()).ok

    def test_inverse_violation(self):
        raw = z2_raw()
        raw.compose[("g", "g")] = "g"
        report = validate_raw(raw)
        assert not report.ok
        assert any("inverse law at 'g'" in v for v in report.violations)

    def test_full_relation_ok(self):
        # (x,y)(y,z) = (x,z), checked from the hand-built table
        assert validate_raw(rel2_raw()).ok

    def test_dangling_arrow_is_malformed(self):
        raw = z2_raw()
        raw.compose[("g", "h")] = "g"
        with pytest.raises(MalformedInputError):
            validate_raw(raw)

    def test_missing_composable_pair_is_malformed(self):
        raw = z2_raw()
        del raw.compose[("g", "g")]
        with pytest.raises(MalformedInputError):
            validate_raw(raw)

    def test_missing_unit_arrow_is_malformed(self):
        raw = RawGroupoid(("u",), (("g", "u", "u"),), {("g", "g"): "g"}, None)
        with pytest.raises(MalformedInputError):
            validate_raw(raw)


# Z2 acting on two points of mass 1/2, as transformation groupoids: the
# arrow (g, x) has source x, range g.x and id 2*g + x, so unit arrows carry
# their unit's id, and (h, g.x)(g, x) = (hg, x)
Z2_SWAPS_TWO_POINTS = RawGroupoid(
    (0, 1),
    ((0, 0, 0), (1, 1, 1), (2, 0, 1), (3, 1, 0)),
    {(0, 0): 0, (1, 1): 1, (2, 0): 2, (3, 1): 3, (0, 3): 3, (1, 2): 2, (2, 3): 1, (3, 2): 0},
    {0: HALF, 1: HALF},
)
Z2_FIXES_TWO_POINTS = RawGroupoid(
    (0, 1),
    ((0, 0, 0), (1, 1, 1), (2, 0, 0), (3, 1, 1)),
    {(0, 0): 0, (1, 1): 1, (2, 0): 2, (3, 1): 3, (0, 2): 2, (1, 3): 3, (2, 2): 0, (3, 3): 1},
    {0: HALF, 1: HALF},
)


class TestDecompose:
    def test_free_action_gives_full_relation(self):
        dec = decompose(Z2_SWAPS_TWO_POINTS)
        assert dec.groupoid == full_relation(2)

    def test_trivial_action_gives_two_group_components(self):
        dec = decompose(Z2_FIXES_TWO_POINTS)
        want = make_groupoid(
            [Component(cayley.cyclic(2), 1, HALF), Component(cayley.cyclic(2), 1, HALF)]
        )
        assert dec.groupoid == want

    def test_uneven_masses_violate_pmp(self):
        with pytest.raises(PmpViolationError):
            decompose(rel2_raw(Fraction(1, 3), Fraction(2, 3)))

    def test_iso_preserves_composition_and_units(self):
        raw = rel2_raw()
        dec = decompose(raw)
        g = dec.groupoid
        for (a, b), c in raw.compose.items():
            assert g.mul(dec.iso[a], dec.iso[b]) == dec.iso[c]
        for u in raw.units:
            assert dec.iso[u].is_unit()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(PmpViolationError):
            decompose(rel2_raw(HALF, Fraction(1, 3)))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "g",
        [
            full_relation(3),
            group_groupoid(cayley.cyclic(4)),
            connected_groupoid(cayley.symmetric(3), 2),
            convex_combination(
                [(HALF, group_groupoid(cayley.cyclic(2))), (HALF, full_relation(2))]
            ),
        ],
    )
    def test_decompose_render_identity(self, g):
        dec = decompose(render_raw(g))
        assert dec.groupoid == g
        # the whole arrow set as a subgroupoid: the same table and ids
        assert subgroupoid_as_groupoid(g, g.arrows()) == (dec, {a: i for i, a in dec.iso.items()})

    @pytest.mark.parametrize(
        "g",
        [
            full_relation(2),
            connected_groupoid(cayley.cyclic(3), 2),
            convex_combination(
                [(Fraction(1, 3), point_groupoid()), (Fraction(2, 3), full_relation(2))]
            ),
            product_groupoid(full_relation(2), group_groupoid(cayley.cyclic(2))).groupoid,
            corner(full_relation(3), [(0, 0), (0, 2)]).groupoid,
            group_groupoid(cayley.cyclic(3)),
        ],
    )
    def test_rendered_tables_validate(self, g):
        assert validate_raw(render_raw(g)).ok


@st.composite
def small_groupoids(draw):
    tables = [cayley.trivial(), cayley.cyclic(2), cayley.cyclic(3)]
    k = draw(st.integers(1, 3))
    parts = []
    for _ in range(k):
        parts.append(
            (draw(st.sampled_from(tables)), draw(st.integers(1, 2)), draw(st.integers(1, 5)))
        )
    total = sum(p[2] for p in parts)
    return make_groupoid(
        Component(t, b, Fraction(w, total)) for t, b, w in parts
    )


@settings(max_examples=40, deadline=None)
@given(small_groupoids())
def test_round_trip_random(g):
    assert decompose(render_raw(g)).groupoid == g


class TestConvexCombination:
    def test_identity_combination(self):
        g = full_relation(2)
        assert convex_combination([(Fraction(1), g)]) == g

    def test_direct_assembly(self):
        g = convex_combination(
            [(HALF, group_groupoid(cayley.cyclic(2))), (HALF, point_groupoid())]
        )
        assert [c.weight for c in g.components] == [HALF, HALF]

    def test_rescaling(self):
        inner = convex_combination(
            [(HALF, point_groupoid()), (HALF, point_groupoid())]
        )
        outer = convex_combination(
            [(Fraction(1, 3), inner), (Fraction(2, 3), full_relation(2))]
        )
        assert sorted(c.weight for c in outer.components) == [
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(2, 3),
        ]

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            convex_combination([(HALF, point_groupoid())])


class TestProduct:
    def test_unit_factor(self):
        z2 = group_groupoid(cayley.cyclic(2))
        ps = product_groupoid(z2, point_groupoid())
        assert ps.groupoid == z2

    def test_product_of_transitive_relations(self):
        ps = product_groupoid(full_relation(2), full_relation(2))
        assert ps.groupoid == full_relation(4)

    def test_product_measure(self):
        a = convex_combination([(HALF, point_groupoid()), (HALF, full_relation(2))])
        b = convex_combination(
            [(Fraction(1, 3), point_groupoid()), (Fraction(2, 3), full_relation(2))]
        )
        ps = product_groupoid(a, b)
        assert sorted(c.weight for c in ps.groupoid.components) == sorted(
            [Fraction(1, 6), Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)]
        )

    def test_unit_rectangle_masses_multiply(self):
        a = convex_combination([(Fraction(1, 3), point_groupoid()), (Fraction(2, 3), full_relation(2))])
        ps = product_groupoid(a, a)
        for ua in a.units():
            for ub in a.units():
                paired = ps.pair_arrow(a.unit_arrow(ua), a.unit_arrow(ub))
                assert ps.groupoid.unit_mass(paired.comp) == a.unit_mass(ua[0]) * a.unit_mass(ub[0])

    def test_pair_split_inverse(self):
        ps = product_groupoid(full_relation(2), group_groupoid(cayley.cyclic(3)))
        for a in ps.left.arrows():
            for b in ps.right.arrows():
                assert ps.split_arrow(ps.pair_arrow(a, b)) == (a, b)


class TestCorner:
    def test_all_units_is_identity(self):
        g = full_relation(3)
        assert corner(g, list(g.units())).groupoid == g

    def test_whole_component_renormalizes(self):
        g = convex_combination([(HALF, full_relation(2)), (HALF, group_groupoid(cayley.cyclic(2)))])
        comp = next(i for i, c in enumerate(g.components) if c.base_size == 2)
        restricted = corner(g, [(comp, 0), (comp, 1)]).groupoid
        assert restricted == full_relation(2)

    def test_partial_base_restriction(self):
        assert corner(full_relation(3), [(0, 0), (0, 1)]).groupoid == full_relation(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corner(full_relation(2), [])


def test_subgroupoid_as_groupoid_units_only():
    g = full_relation(2)
    units = frozenset(g.unit_arrow(u) for u in g.units())
    dec, ids = subgroupoid_as_groupoid(g, units)
    assert len(dec.groupoid.components) == 2
    assert all(c.base_size == 1 and c.group_order == 1 for c in dec.groupoid.components)


def test_component_requires_group_table():
    with pytest.raises(ValueError):
        Component(((0, 1), (1, 1)), 1, Fraction(1))


def test_groupoid_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteGroupoid((Component(cayley.trivial(), 1, HALF),))


# ---------------------------------------------------------------------------
# Validation by isomorphism against the exhaustive sweep of raw_reference.py


@st.composite
def relabelled_raw(draw):
    """render_raw of a random normal form, with every id replaced through a
    random bijection (to ints or to strings) and units, arrows and compose
    entries listed in random order."""
    tables = [cayley.trivial(), cayley.cyclic(2), cayley.cyclic(3), cayley.symmetric(3)]
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        table = draw(st.sampled_from(tables))
        parts.append((table, draw(st.integers(1, 2 if len(table) > 3 else 3)), draw(st.integers(1, 5))))
    total = sum(w for _, _, w in parts)
    g = make_groupoid(Component(t, b, Fraction(w, total)) for t, b, w in parts)
    raw = render_raw(g)
    ids = [e[0] for e in raw.arrows]
    image = draw(st.permutations(ids))
    if draw(st.booleans()):
        image = [f"x{i}" for i in image]
    new = dict(zip(ids, image))
    compose = draw(st.permutations(sorted(raw.compose.items())))
    relabelled = RawGroupoid(
        units=tuple(new[u] for u in draw(st.permutations(raw.units))),
        arrows=tuple((new[a], new[s], new[r]) for a, s, r in draw(st.permutations(raw.arrows))),
        compose={(new[a], new[b]): new[c] for (a, b), c in compose},
        masses={new[u]: w for u, w in raw.masses.items()},
    )
    return g, relabelled


def _sweep_forbidden(*args):
    raise AssertionError("a valid table reached the axiom sweep")


@settings(max_examples=40, deadline=None)
@given(relabelled_raw())
def test_relabelled_normal_forms_validate_without_the_sweep(case):
    g, raw = case
    with mock.patch.object(groupoid_module, "_axiom_sweep", _sweep_forbidden):
        assert validate_raw(raw) == ValidationReport(True, ())
        dec = decompose(raw)
    shape = [(c.group_order, c.base_size, c.weight) for c in dec.groupoid.components]
    assert shape == [(c.group_order, c.base_size, c.weight) for c in g.components]
    assert len(set(dec.iso.values())) == g.n_arrows == len(dec.iso)
    for (a, b), c in raw.compose.items():
        assert dec.groupoid.mul(dec.iso[a], dec.iso[b]) == dec.iso[c]


def _redirect(raw, draw):
    """One compose entry sent to another arrow."""
    key = draw(st.sampled_from(sorted(raw.compose, key=repr)))
    ids = sorted((e[0] for e in raw.arrows), key=repr)
    raw.compose[key] = draw(st.sampled_from([x for x in ids if x != raw.compose[key]]))


def _swap_inverses(raw, draw):
    """For an arrow a: x -> y, its inverse and another arrow y -> x trade
    their products with a on both sides."""
    src = {a: s for a, s, _ in raw.arrows}
    rng = {a: r for a, _, r in raw.arrows}
    pairs = [
        (a, inv, b)
        for (a, inv), c in sorted(raw.compose.items(), key=repr)
        if c == rng[a] and raw.compose[(inv, a)] == src[a]
        for b in sorted(src, key=repr)
        if b != inv and src[b] == rng[a] and rng[b] == src[a]
    ]
    if not pairs:
        return _redirect(raw, draw)
    a, inv, b = draw(st.sampled_from(pairs))
    comp = raw.compose
    comp[(a, inv)], comp[(a, b)] = comp[(a, b)], comp[(a, inv)]
    comp[(inv, a)], comp[(b, a)] = comp[(b, a)], comp[(inv, a)]


def _break_unit_law(raw, draw):
    """The product of an arrow with a unit beside it sent elsewhere."""
    units = set(raw.units)
    src = {a: s for a, s, _ in raw.arrows}
    keys = sorted(
        (k for k in raw.compose if k[0] in units or k[1] in units), key=repr
    )
    key = draw(st.sampled_from(keys))
    others = sorted((a for a in src if a != raw.compose[key]), key=repr)
    raw.compose[key] = draw(st.sampled_from(others))


CORRUPTIONS = [_redirect, _swap_inverses, _break_unit_law]


@settings(max_examples=60, deadline=None)
@given(relabelled_raw(), st.sampled_from(CORRUPTIONS), st.data())
def test_corrupted_tables_report_as_the_sweep(case, corrupt, data):
    _, raw = case
    assume(len(raw.arrows) > 1)  # the point groupoid has nothing to corrupt
    corrupt(raw, data.draw)
    expected = reference_validate(raw)
    assert validate_raw(raw) == expected
    if expected.ok:
        assert decompose(raw).groupoid.n_arrows == len(raw.arrows)
    else:
        with pytest.raises(ValueError, match=re.escape(f"groupoid axioms violated: {expected.violations[0]}")):
            decompose(raw)


def test_single_redirect_is_never_a_groupoid():
    # cancellation: a changed product duplicates a value in its row
    raw = render_raw(connected_groupoid(cayley.symmetric(3), 2))
    for key in list(raw.compose)[::7]:
        table = dict(raw.compose)
        table[key] = next(a for a, _, _ in raw.arrows if a != raw.compose[key])
        corrupted = RawGroupoid(raw.units, raw.arrows, table, raw.masses)
        report = validate_raw(corrupted)
        assert not report.ok and report == reference_validate(corrupted)


def test_missing_pair_is_named_after_the_count_fails():
    raw = rel2_raw()
    del raw.compose[("a01", "a10")]
    with pytest.raises(MalformedInputError, match=r"compose missing on composable pair \('a01','a10'\)"):
        validate_raw(raw)


def test_marked_unit_must_be_the_identity():
    # the names of the unit at 1 and the other arrow 1 -> 1 trade places in
    # every product: the table is still a groupoid, but its marked unit is not
    # its identity, so the unit law fails although the map onto the normal
    # form is an isomorphism of products
    raw = render_raw(connected_groupoid(cayley.cyclic(2), 2))
    other = next(a for a, s, r in raw.arrows if s == r == 1 and a != 1)
    swap = {1: other, other: 1}
    table = {(swap.get(a, a), swap.get(b, b)): swap.get(c, c) for (a, b), c in raw.compose.items()}
    corrupted = RawGroupoid(raw.units, raw.arrows, table, raw.masses)
    report = validate_raw(corrupted)
    assert not report.ok and report == reference_validate(corrupted)
    assert "unit law at 1" in report.violations


def test_decompose_checks_each_isotropy_table_once(monkeypatch):
    # the normal form checks the S4 table, and the Component built from it
    # reuses that check
    g = connected_groupoid(cayley.symmetric(4), 2)
    raw = render_raw(g)
    groupoid_module._table_violations.cache_clear()
    checked = []
    original = cayley.table_violations
    monkeypatch.setattr(cayley, "table_violations", lambda table: checked.append(table) or original(table))
    assert decompose(raw).groupoid == g
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# Checked values (groupoid.Value) and plain records (NamedTuple)


def test_values_compare_hash_and_print_by_their_fields():
    from soficlab.semigroup import Bisection
    from soficlab.verify import CheckResult, SuiteBudget

    a, b = Component(cayley.cyclic(2), 1, HALF), Component([[0, 1], [1, 0]], 1, Fraction(1, 2))
    assert a == b and hash(a) == hash((a.table, a.base_size, a.weight)) and a is not b
    assert repr(a) == "Component(table=((0, 1), (1, 0)), base_size=1, weight=Fraction(1, 2))"
    assert a != Component(cayley.cyclic(2), 2, HALF) and a != (a.table, 1, HALF)
    g = full_relation(2)
    beta = Bisection(g, (Arrow(0, 0, 1, 0), Arrow(0, 0, 0, 1)))
    assert beta == Bisection(full_relation(2), beta.arrows) and hash(beta) == hash(beta.arrows)
    assert beta != Bisection(full_relation(3), beta.arrows)
    # keyword construction and defaults
    assert SuiteBudget(**{"seed": 3}) == SuiteBudget(200_000, 500, 3)
    assert repr(SuiteBudget(seed=3)) == "SuiteBudget(exhaustive_cap=200000, sample_count=500, seed=3)"
    assert CheckResult("x", True) == CheckResult(name="x", passed=True, details={})


@pytest.mark.parametrize("attr", ["weight", "other"])
def test_values_are_immutable(attr):
    c = Component(cayley.trivial(), 1, 1)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(c, attr, 2)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(c, attr)
    assert c.weight == 1 and not hasattr(c, "other")
    with pytest.raises(AttributeError):
        validate_raw(render_raw(full_relation(1))).ok = False
