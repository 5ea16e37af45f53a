from fractions import Fraction

import pytest

from bisection_reference import compose, distance, fix_units, is_idempotent, trace
from pool_reference import enumerate_semigroup

from soficlab import cayley
from soficlab.groupoid import (
    Arrow,
    CornerStructure,
    connected_groupoid,
    corner,
    convex_combination,
    full_relation,
    group_groupoid,
    point_groupoid,
    product_groupoid,
    subgroupoid_as_groupoid,
)
from soficlab.constructions import (
    CertificateError,
    NoTransversalError,
    PackedProduct,
    RectangleUnion,
    SemigroupMap,
    TransversalSystem,
    arrow_map,
    block_components,
    compose as compose_maps,
    embed_connected,
    embed_convex,
    embed_convex_pair,
    find_transversals,
    finite_index_map,
    general_map,
    group_subgroupoid,
    identity_map,
    rectangle_decompose,
    restrict_almost_morphism,
    step_map,
    tensor,
    unit_subgroupoid,
)
from soficlab.semigroup import (
    Bisection,
    PackedMonoid,
    bisection,
    idempotent,
    unit_bisection,
)
from soficlab.verify import check_embedding

HALF = Fraction(1, 2)
Z2 = group_groupoid(cayley.cyclic(2))
Z4 = group_groupoid(cayley.cyclic(4))
S3 = group_groupoid(cayley.symmetric(3))
REL2 = full_relation(2)
Z2Y2 = connected_groupoid(cayley.cyclic(2), 2)


def pin(g, mapping):
    return bisection(g, [Arrow(0, 0, y, x) for x, y in mapping.items()])


def exact_on(m, elements):
    elements = list(elements)
    images = {a: m(a) for a in elements}
    if len(set(images.values())) != len(elements):
        return False
    for a in elements:
        if trace(images[a]) != trace(a):
            return False
        for b in elements:
            if m(compose(a, b)) != compose(images[a], images[b]):
                return False
            if distance(images[a], images[b]) != distance(a, b):
                return False
    return True


class TestEmbedConnected:
    def test_group_nonunit_becomes_swap(self):
        m = embed_connected(Z2)
        image = m(bisection(Z2, [Arrow(0, 1, 0, 0)]))
        assert {a.y_from: a.y_to for a in image.arrows} == {0: 1, 1: 0}
        assert trace(image) == 0

    def test_unit_to_identity(self):
        m = embed_connected(Z2Y2)
        assert m(unit_bisection(Z2Y2)) == unit_bisection(m.codomain)

    def test_point_indexing(self):
        # the arrow (e, 1 <- 0) moves both group levels of base point 0
        m = embed_connected(Z2Y2)
        image = m(bisection(Z2Y2, [Arrow(0, 0, 1, 0)]))
        assert {a.y_from: a.y_to for a in image.arrows} == {0: 2, 1: 3}
        assert distance(image, unit_bisection(m.codomain)) == 1

    def test_exact_embedding_exhaustive(self):
        for g in (Z2, Z2Y2, group_groupoid(cayley.cyclic(3))):
            assert exact_on(embed_connected(g), enumerate_semigroup(g))

    def test_rejects_disconnected(self):
        g = convex_combination([(HALF, Z2), (HALF, point_groupoid())])
        with pytest.raises(ValueError):
            embed_connected(g)


class TestEmbedConvex:
    def test_single_component_reduces(self):
        m = embed_convex(Z2Y2)
        assert m.codomain == embed_connected(Z2Y2).codomain
        assert exact_on(m, enumerate_semigroup(Z2Y2))

    def test_half_half_mixture(self):
        g = convex_combination([(HALF, Z2), (HALF, point_groupoid())])
        m = embed_convex(g)
        assert m.codomain == full_relation(4)
        assert exact_on(m, enumerate_semigroup(g))
        # the Z2 nonunit paired with nothing has trace 0
        comp = next(i for i, c in enumerate(g.components) if c.group_order == 2)
        alpha = bisection(g, [Arrow(comp, 1, 0, 0)])
        assert trace(m(alpha)) == 0

    def test_proportional_blocks(self):
        g = convex_combination([(Fraction(1, 3), Z2), (Fraction(2, 3), point_groupoid())])
        m = embed_convex(g)
        assert m.codomain == full_relation(6)  # q = 3 blocks of size 2
        assert exact_on(m, enumerate_semigroup(g))

    def test_three_components(self):
        g = convex_combination(
            [
                (Fraction(1, 6), Z2),
                (Fraction(1, 3), point_groupoid()),
                (HALF, full_relation(2)),
            ]
        )
        assert exact_on(embed_convex(g), enumerate_semigroup(g))


class TestEmbedConvexPair:
    def test_t_one_returns_first(self):
        m = embed_convex(Z2Y2)
        assert embed_convex_pair(m, m, Fraction(1)) is m

    def test_identity_doubling_preserves_trace(self):
        mid = identity_map(REL2)
        m = embed_convex_pair(mid, mid, HALF)
        assert m.domain == REL2
        for a in enumerate_semigroup(REL2):
            assert trace(m(a)) == trace(a)
            assert is_idempotent(m(a)) == is_idempotent(a)
        assert exact_on(m, enumerate_semigroup(REL2))

    def test_reweighted_measures_blend(self):
        # same groupoid shape, two different measures
        nu = convex_combination([(Fraction(1, 4), Z2), (Fraction(3, 4), point_groupoid())])
        rho = convex_combination([(Fraction(3, 4), Z2), (Fraction(1, 4), point_groupoid())])
        m = embed_convex_pair(embed_convex(nu), embed_convex(rho), Fraction(1, 3))
        blended = m.domain
        assert sorted(c.weight for c in blended.components) == sorted(
            [Fraction(1, 3) * Fraction(1, 4) + Fraction(2, 3) * Fraction(3, 4),
             Fraction(1, 3) * Fraction(3, 4) + Fraction(2, 3) * Fraction(1, 4)]
        )
        for a in enumerate_semigroup(blended):
            assert trace(m(a)) == trace(a)
        assert exact_on(m, enumerate_semigroup(blended))

    def test_incompatible_domains_rejected(self):
        # at every t, t = 0 and t = 1 included, where one map is returned
        for t in (0, HALF, 1):
            with pytest.raises(ValueError, match="component shapes differ"):
                embed_convex_pair(embed_convex(Z2), embed_convex(REL2), t)


def reference_restriction(theta, units):
    """restrict_almost_morphism as the evaluator computed it: the lift of
    the argument, sandwiched as e * theta(lift) * e by Bisection products
    and moved into the codomain corner."""
    h = corner(theta.domain, units)
    e = theta(idempotent(theta.domain, h.units))
    f = corner(theta.codomain, fix_units(e))

    def run(beta):
        lifted = Bisection(theta.domain, tuple(h.from_corner(a) for a in beta.arrows))
        return Bisection(f.groupoid, tuple(f.to_corner(a) for a in compose(compose(e, theta(lifted)), e).arrows))

    return run


# the corners of this module and of acceptance check 11: (theta, units)
RESTRICTIONS = {
    "identity-n2-whole": lambda: (identity_map(REL2), list(REL2.units())),
    "identity-n2-point": lambda: (identity_map(REL2), [(0, 0)]),
    "identity-n3-pair": lambda: (identity_map(full_relation(3)), [(0, 0), (0, 1)]),
    "connected-n3-pair": lambda: (embed_connected(full_relation(3)), [(0, 0), (0, 1)]),
    "identity-z2y2-whole": lambda: (identity_map(Z2Y2), list(Z2Y2.units())),
    "connected-z2y2-point": lambda: (embed_connected(Z2Y2), [(0, 1)]),
    "ladder-2-5-point": lambda: (general_map(2, 5), [(0, 1)]),
    # not multiplicative: 0 -> 1 goes to 0 -> 2, whose range the sandwich drops
    "drifting-n3-pair": lambda: (drifting_map(), [(0, 0), (0, 1)]),
}


def drifting_map():
    """An arrow map on [[3]]: arrows into 2 go to nothing, 0 -> 1 to 0 -> 2,
    and the other arrows to themselves."""
    g = full_relation(3)

    def image(a):
        if a.y_to == 2:
            return ()
        return (Arrow(0, 0, 2, 0),) if (a.y_to, a.y_from) == (1, 0) else (a,)

    return arrow_map(g, g, image, "drifting")


class TestRestrictAlmostMorphism:
    def test_whole_space_unchanged_values(self):
        theta = identity_map(REL2)
        m = restrict_almost_morphism(theta, list(REL2.units()))
        assert m.domain == REL2
        for a in enumerate_semigroup(REL2):
            assert trace(m(a)) == trace(a)

    def test_corner_normalizes_trace(self):
        theta = identity_map(REL2)
        m = restrict_almost_morphism(theta, [(0, 0)])
        one_corner = unit_bisection(m.domain)
        assert trace(one_corner) == 1
        assert trace(m(one_corner)) == 1

    def test_normalized_trace_formula(self):
        # tr_H(a) = tr(a) / tr(1_H) under the identity map
        theta = identity_map(full_relation(3))
        units = [(0, 0), (0, 1)]
        m = restrict_almost_morphism(theta, units)
        one_h = idempotent(theta.domain, units)
        for a in enumerate_semigroup(m.domain):
            lifted_trace = trace(m(a)) * trace(one_h)
            assert lifted_trace == trace(a) * trace(one_h)
        assert exact_on(m, enumerate_semigroup(m.domain))

    def test_zero_trace_corner_rejected(self):
        theta = arrow_map(REL2, REL2, lambda a: (), "collapse")
        with pytest.raises(ValueError, match="zero-trace"):
            restrict_almost_morphism(theta, [(0, 0)])

    def test_non_idempotent_image_rejected(self):
        # left multiplication by the swap: the unit at 0 goes to 0 -> 1
        theta = arrow_map(REL2, REL2, lambda a: (Arrow(0, 0, 1 - a.y_to, a.y_from),), "swap-left")
        with pytest.raises(ValueError, match="not idempotent"):
            restrict_almost_morphism(theta, [(0, 0)])

    def test_escaped_image_raises_certificate_error(self, monkeypatch):
        # with the corner map broken, no image arrow lands in the corner;
        # building the table must raise, also under python -O
        monkeypatch.setattr(CornerStructure, "to_corner", lambda self, a: None)
        with pytest.raises(CertificateError, match="escaped the codomain corner"):
            restrict_almost_morphism(identity_map(REL2), [(0, 0)])

    @pytest.mark.parametrize("case", list(RESTRICTIONS))
    def test_table_matches_reference(self, case):
        theta, units = RESTRICTIONS[case]()
        m, ref = restrict_almost_morphism(theta, units), reference_restriction(theta, units)
        assert m.label == f"corner.{theta.label}"
        dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
        scatter = m.packed(dom, cod)
        for a in enumerate_semigroup(m.domain):
            image = ref(a)
            assert m(a) == image
            assert scatter(dom.encode(a)) == cod.encode(image)


class TestFindTransversals:
    def test_whole_groupoid_is_index_one(self):
        system = find_transversals(REL2, frozenset(REL2.arrows()))
        assert system.index == 1
        assert system.transversals[0] == unit_bisection(REL2)

    def test_z4_over_z2(self):
        system = find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))
        assert system.index == 2
        got = [sorted(a.g for a in psi.arrows) for psi in system.transversals]
        assert got == [[0], [1]]

    def test_full_relation_over_units(self):
        system = find_transversals(REL2, unit_subgroupoid(REL2))
        assert system.index == 2
        assert system.transversals[0] == unit_bisection(REL2)
        assert system.transversals[1] == pin(REL2, {0: 1, 1: 0})

    def test_s3_over_z3(self):
        system = find_transversals(S3, group_subgroupoid(S3, [0, 3, 4]))
        assert system.index == 2
        assert sorted(a.g for a in system.transversals[1].arrows) == [1]

    def test_failed_certificate_raises_named_error(self, monkeypatch):
        # the returned system is checked explicitly, also under python -O
        monkeypatch.setattr(TransversalSystem, "violations", lambda self: ["forced"])
        with pytest.raises(CertificateError, match="forced"):
            find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))

    def test_not_unit_full_rejected(self):
        with pytest.raises(ValueError):
            find_transversals(REL2, frozenset([REL2.unit_arrow((0, 0))]))

    @pytest.mark.parametrize(
        "extra",
        [
            [],  # the unit arrow at (0, 0) alone: closed but not unit-full
            [REL2.unit_arrow((0, 1)), Arrow(0, 0, 1, 0)],  # no inverse of 0 -> 1
            [REL2.unit_arrow((0, 1)), Arrow(0, 0, 2, 2)],  # no point 2
        ],
        ids=["not-unit-full", "not-closed", "outside"],
    )
    def test_search_and_system_report_the_same_first_problem(self, extra):
        sub = frozenset([REL2.unit_arrow((0, 0)), *extra])
        problems = TransversalSystem(REL2, sub, ()).violations()
        with pytest.raises(ValueError) as err:
            find_transversals(REL2, sub)
        assert str(err.value) == f"not a unit-full subgroupoid: {problems[0]}"

    def test_no_system_reported(self):
        # the 3-element rotation subgroup has no 2-element partition in S3?
        # use instead a subgroupoid of uneven coset counts: units inside Z2
        with pytest.raises(NoTransversalError) as err:
            find_transversals(
                convex_combination([(HALF, Z2), (HALF, point_groupoid())]),
                unit_subgroupoid(convex_combination([(HALF, Z2), (HALF, point_groupoid())])),
            )
        assert "differ" in str(err.value)


class TestBlockComponents:
    def test_unit_blocks_are_diagonal(self):
        system = find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))
        blocks = block_components(unit_bisection(Z4), system)
        assert blocks[0][0] == unit_bisection(Z4)
        assert blocks[1][1] == unit_bisection(Z4)
        assert len(blocks[0][1]) == len(blocks[1][0]) == 0

    def test_z4_generator_blocks(self):
        system = find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))
        blocks = block_components(bisection(Z4, [Arrow(0, 1, 0, 0)]), system)
        grid = [[sorted(a.g for a in blocks[i][j].arrows) for j in range(2)] for i in range(2)]
        assert grid == [[[], [2]], [[0], []]]

    def test_z4_square_blocks_diagonal(self):
        system = find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))
        blocks = block_components(bisection(Z4, [Arrow(0, 2, 0, 0)]), system)
        grid = [[sorted(a.g for a in blocks[i][j].arrows) for j in range(2)] for i in range(2)]
        assert grid == [[[2], []], [[], [2]]]

    def test_failed_check_raises_certificate_error(self):
        # the identity twice: the unit's blocks share sources in each column
        one = unit_bisection(REL2)
        bogus = TransversalSystem(REL2, unit_subgroupoid(REL2), (one, one))
        with pytest.raises(CertificateError, match="column 0: blocks 0 and 1 share a source"):
            block_components(one, bogus)
        # the swap has no block in H, so its matrix passes
        blocks = block_components(pin(REL2, {0: 1, 1: 0}), bogus)
        assert all(len(b) == 0 for row in blocks for b in row)

    def test_row_check_alone_raises_certificate_error(self):
        # Z6 over {0, 3} with two transversals in the coset H and one in
        # 1 + H: the generator's blocks in row 2 share the one range, while
        # no column holds two blocks of H
        z6 = group_groupoid(cayley.cyclic(6))
        psi = tuple(bisection(z6, [Arrow(0, k, 0, 0)]) for k in (0, 3, 1))
        bogus = TransversalSystem(z6, group_subgroupoid(z6, [0, 3]), psi)
        with pytest.raises(CertificateError, match="row 2: blocks 0 and 1 share a range"):
            block_components(bisection(z6, [Arrow(0, 1, 0, 0)]), bogus)


    def test_exchange_law_failure_named_first(self):
        # over {0, 1}, not closed under inverse, the generator's block
        # (0, 0) is 1 and that of its inverse is 0
        sub = frozenset({Arrow(0, 0, 0, 0), Arrow(0, 1, 0, 0)})
        bogus = TransversalSystem(Z4, sub, (unit_bisection(Z4), bisection(Z4, [Arrow(0, 2, 0, 0)])))
        with pytest.raises(CertificateError, match=r"block exchange law fails at \(0,0\)"):
            block_components(bisection(Z4, [Arrow(0, 1, 0, 0)]), bogus)

    def test_exchange_law_failure_with_a_one_sided_inverse_code(self):
        # over the units of [[3]] and the arrow 0 -> 2, not its inverse, the
        # arrow 2 -> 1 has two blocks of range 2 in row 1, 2 -> 2 in cell
        # (1, 0) and 0 -> 2 in cell (1, 1), and 1 -> 2 has only 2 -> 2 in
        # cell (0, 1): the inverse of the first code drops a block and
        # equals the second, whose inverse is not the first
        n3 = full_relation(3)
        sub = unit_subgroupoid(n3) | {Arrow(0, 0, 2, 0)}
        shift = bisection(n3, [Arrow(0, 0, 0, 1), Arrow(0, 0, 1, 2), Arrow(0, 0, 2, 0)])
        bogus = TransversalSystem(n3, sub, (unit_bisection(n3), shift))
        with pytest.raises(CertificateError, match=r"block exchange law fails at \(1,1\)"):
            block_components(bisection(n3, [Arrow(0, 0, 1, 2)]), bogus)

    @pytest.mark.parametrize("alpha", [unit_bisection(Z2), unit_bisection(full_relation(3))])
    def test_element_of_another_groupoid_raises_value_error(self, alpha):
        # Z2's unit would read [[2]]'s unit blocks, and an element of [[3]]
        # would index past [[2]]'s units
        system = find_transversals(REL2, unit_subgroupoid(REL2))
        with pytest.raises(ValueError, match="groupoid not that of the transversal system"):
            block_components(alpha, system)


class TestFiniteIndexLift:
    @pytest.fixture(params=["z4", "rel2", "s3"])
    def setup(self, request):
        cases = {
            "z4": (Z4, group_subgroupoid(Z4, [0, 2])),
            "rel2": (REL2, unit_subgroupoid(REL2)),
            "s3": (S3, group_subgroupoid(S3, [0, 3, 4])),
        }
        g, sub = cases[request.param]
        return g, find_transversals(g, sub)

    def test_lift_is_exact_embedding(self, setup):
        g, system = setup
        assert exact_on(finite_index_map(system), enumerate_semigroup(g))

    def test_phi_must_be_a_map_on_the_subgroupoid(self, setup):
        # phi lifts as (phi x id) o lift, which the identity leaves alone;
        # a phi off the subgroupoid does not compose with the lift
        g, system = setup
        lift = finite_index_map(system)
        h = subgroupoid_as_groupoid(g, system.sub_arrows)[0].groupoid
        rel = identity_map(full_relation(system.index))
        assert compose_maps(tensor(identity_map(h), rel), lift).arrow_images == lift.arrow_images
        with pytest.raises(ValueError, match="not defined on the codomain of index"):
            compose_maps(tensor(identity_map(full_relation(h.n_units + 1)), rel), lift)

    def test_unit_lifts_to_unit(self, setup):
        g, system = setup
        m = finite_index_map(system)
        assert m(unit_bisection(g)) == unit_bisection(m.codomain)

    def test_z4_worked_example(self):
        system = find_transversals(Z4, group_subgroupoid(Z4, [0, 2]))
        m = finite_index_map(system)
        a = bisection(Z4, [Arrow(0, 1, 0, 0)])
        a2 = bisection(Z4, [Arrow(0, 2, 0, 0)])
        assert trace(m(a)) == 0
        assert compose(m(a), m(a)) == m(a2)

    def test_rel2_swap_lifts_off_diagonal(self):
        system = find_transversals(REL2, unit_subgroupoid(REL2))
        m = finite_index_map(system)
        image = m(pin(REL2, {0: 1, 1: 0}))
        # the N^2-relation part of every image arrow is off-diagonal
        data_pairs = {(a.y_to % 2, a.y_from % 2) for a in image.arrows}
        assert data_pairs == {(0, 1), (1, 0)}

    def test_invalid_system_caught(self):
        # a deliberately broken "system": the identity twice
        bogus = TransversalSystem(
            REL2, unit_subgroupoid(REL2), (unit_bisection(REL2), unit_bisection(REL2))
        )
        assert bogus.violations()
        with pytest.raises(NoTransversalError):
            finite_index_map(bogus)


class TestRectangles:
    PP = PackedProduct(product_groupoid(REL2, REL2))

    def test_unit_is_single_rectangle(self):
        u = rectangle_decompose(self.PP, self.PP.pm.one)
        assert len(u.parts) == 1
        assert u.parts[0] == (self.PP.left.one, self.PP.right.one)

    def test_pure_rectangle_remerges(self):
        swap = self.PP.left.encode(pin(REL2, {0: 1, 1: 0}))
        x = self.PP.rectangle(swap, self.PP.right.one)
        u = rectangle_decompose(self.PP, x)
        assert len(u.parts) == 1
        assert u.parts[0] == (swap, self.PP.right.one)

    def test_mixed_element_needs_two_rectangles(self):
        pp = self.PP
        swap = pin(REL2, {0: 1, 1: 0})
        part1 = pp.rectangle(pp.left.encode(pin(REL2, {0: 0})), pp.right.encode(pin(REL2, {0: 0})))
        part2 = pp.rectangle(pp.left.encode(pin(REL2, {1: 1})), pp.right.encode(swap))
        x = pp.pm.encode(bisection(pp.structure.groupoid, pp.pm.arrows(part1) + pp.pm.arrows(part2)))
        u = rectangle_decompose(pp, x)
        assert len(u.parts) >= 2
        assert not u.violations()
        assert u.as_code() == x

    def test_every_product_bisection_decomposes(self):
        for phi in enumerate_semigroup(self.PP.structure.groupoid):
            x = self.PP.pm.encode(phi)
            u = rectangle_decompose(self.PP, x)
            assert not u.violations()
            assert u.as_code() == x

    def test_redecomposition_invariance(self):
        pp, mid = self.PP, identity_map(REL2)
        whole = tensor(mid, mid).packed(pp.pm, pp.pm)
        f = mid.packed(pp.left, pp.left)
        for phi in enumerate_semigroup(pp.structure.groupoid):
            x = pp.pm.encode(phi)
            assert whole(x) == x
            for reverse in (False, True):
                parts = rectangle_decompose(pp, x, reverse=reverse).parts
                assert pp.assemble((f(a), f(b)) for a, b in parts) == x

    def test_trace_multiplicative_on_rectangles(self):
        pp = self.PP
        for a in enumerate_semigroup(REL2):
            for b in enumerate_semigroup(REL2):
                rect = pp.pm.decode(pp.rectangle(pp.left.encode(a), pp.right.encode(b)))
                assert trace(rect) == trace(a) * trace(b)

    def test_broken_disjointness_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(RectangleUnion, "violations", lambda self: ["forced overlap"])
        with pytest.raises(CertificateError, match="forced overlap"):
            rectangle_decompose(self.PP, self.PP.pm.one)

    def test_wrong_reassembly_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(RectangleUnion, "as_code", lambda self: self.product.pm.zero)
        with pytest.raises(CertificateError, match="reassemble"):
            rectangle_decompose(self.PP, self.PP.pm.one)

    def test_trace_changing_factor_is_reported(self):
        # every arrow to nothing: the tensor is a valid table, and the
        # certificate reports the trace it loses
        emptying = arrow_map(REL2, REL2, lambda a: (), "emptying")
        report = check_embedding(tensor(emptying, identity_map(REL2)))
        assert report.exhaustive and not report.passed
        assert report.max_trace_deviation == 1
        assert report.witnesses["trace"] == unit_bisection(self.PP.structure.groupoid)

    def test_overlapping_images_raise_named_error(self):
        # a table that moves the point {1} onto the point {0} keeps every
        # trace, but sends the units at 0 and at 1 onto one arrow, and so
        # would send (1, b) and (0, b) of a tensor onto one arrow: the
        # factor is rejected when it is built, directly or by arrow_map
        fix0, fix1 = pin(REL2, {0: 0}), pin(REL2, {1: 1})
        table = {a: fix0.arrows if a in fix1.arrows else (a,) for a in REL2.arrows()}
        with pytest.raises(ValueError, match="^source map not injective$"):
            SemigroupMap(REL2, REL2, "moving", table)
        with pytest.raises(ValueError, match="^source map not injective$"):
            arrow_map(REL2, REL2, table.__getitem__, "moving")

    def test_tensor_with_real_stages(self):
        m = tensor(embed_connected(Z2), identity_map(REL2))
        pp = PackedProduct(product_groupoid(Z2, REL2))
        nonunit = bisection(Z2, [Arrow(0, 1, 0, 0)])
        swap = pin(REL2, {0: 1, 1: 0})
        image = m(pp.pm.decode(pp.rectangle(pp.left.encode(nonunit), pp.right.encode(swap))))
        assert trace(image) == trace(nonunit) * trace(swap)
        assert image.groupoid == product_groupoid(full_relation(2), REL2).groupoid


class TestLadderMaps:
    def test_step_map_multiplicative_not_isometric(self):
        m = step_map(2)
        elements = list(enumerate_semigroup(m.domain))
        assert all(m(compose(a, b)) == compose(m(a), m(b)) for a in elements for b in elements)
        one = unit_bisection(m.domain)
        assert abs(trace(m(one)) - trace(one)) == Fraction(1, 3)

    def test_step_map_is_general_map_except_at_one(self):
        for n in range(2, 6):
            assert step_map(n).arrow_images == general_map(n, n + 1).arrow_images
        # [[1]] -> [[2]]: one copy of the single arrow, against general_map's two
        assert [len(image) for image in step_map(1).arrow_images.values()] == [1]
        assert [len(image) for image in general_map(1, 2).arrow_images.values()] == [2]

    def test_general_map_exact_at_multiples(self):
        m = general_map(2, 6)
        assert exact_on(m, enumerate_semigroup(m.domain))
