"""The rectangle monoid of a product groupoid and the algebra of maps on
it: golden reports of the `rectangles` suite and of `soficlab embed
--kind product`, and differential tests of tensor and compose.

The golden files under tests/golden/ were written by the greedy
decomposition, which merged singleton rectangles while the union kept its
disjointness invariants and re-checked the whole union after every trial
merge, on Bisections; the rewritten code, on packed codes, must reproduce
them byte for byte. That greedy merge is kept below as a reference, with
the tensor of two maps as it was taken on Bisections, part by part: under
exact non-identity maps, the scatter of tensor(phi, psi) must equal the
reference's image over the greedy parts and over both orientations of the
direct decomposition, which groups the arrows of an element by their
partners. compose must equal applying its two maps in turn.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from bisection_reference import trace
from pool_reference import enumerate_semigroup, sample_bisection

from soficlab import cayley
from soficlab.cli import main as cli_main
from soficlab.constructions import (
    CertificateError,
    PackedProduct,
    RectangleUnion,
    SemigroupMap,
    compose,
    embed_connected,
    embed_convex,
    general_map,
    identity_map,
    rectangle_decompose,
    tensor,
)
from soficlab.groupoid import (
    Arrow,
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
    product_groupoid,
)
from soficlab.semigroup import Bisection, PackedMonoid, semigroup_codes
from soficlab.serialize import dumps, groupoid_to_json, suite_result_to_json
from soficlab.verify import SuiteBudget, check_embedding, run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"
REL2 = full_relation(2)
REL3 = full_relation(3)
Z2 = group_groupoid(cayley.cyclic(2))
Z2_PT = convex_combination([(Fraction(1, 3), Z2), (Fraction(2, 3), full_relation(1))])

# golden file stem -> (left factor, right factor, budget or None for the default)
RECTANGLES_CASES = {
    "rectangles-n2xn2": (REL2, REL2, None),
    "rectangles-z2xn2": (Z2, REL2, None),
    # 13,327 elements of [[6]] exceed the cap: a sampled pool of 300
    "rectangles-n3xn2-sampled": (REL3, REL2, SuiteBudget(exhaustive_cap=1000, sample_count=300)),
}


def rectangles_report(stem) -> str:
    left, right, budget = RECTANGLES_CASES[stem]
    return dumps(suite_result_to_json(run_suite("rectangles", budget, left=left, right=right)))


def write_product_inputs(directory: Path) -> list:
    """Write [[2]] twice into directory and return the `soficlab embed
    --kind product` arguments, which name the files by relative path."""
    (directory / "n2.json").write_text(dumps(groupoid_to_json(REL2)))
    return ["embed", "--kind", "product", "--left", "n2.json", "--right", "n2.json"]


@pytest.mark.parametrize("stem", list(RECTANGLES_CASES))
def test_rectangles_report_matches_golden(stem):
    assert rectangles_report(stem) == (GOLDEN_DIR / f"{stem}.json").read_text()


def test_embed_product_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOFICLAB_SEED", raising=False)
    assert cli_main(write_product_inputs(tmp_path)) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "embed-product-n2xn2.json").read_text()


# ---------------------------------------------------------------------------
# The direct decomposition against the greedy merge it replaced


def packed_union(pp, parts) -> RectangleUnion:
    """The RectangleUnion of (left, right) Bisection parts."""
    return RectangleUnion(pp, tuple((pp.left.encode(a), pp.right.encode(b)) for a, b in parts))


def decoded_parts(pp, u) -> list:
    return [(pp.left.decode(a), pp.right.decode(b)) for a, b in u.parts]


def greedy_decompose(pp, phi, reverse=False) -> list:
    """Singleton rectangles, merged greedily on a shared factor while the
    union keeps its disjointness invariants, each trial union checked;
    the parts as (left, right) Bisection pairs."""
    ps = pp.structure
    parts = []
    for c in sorted(phi.arrows, reverse=reverse):
        a, b = ps.split_arrow(c)
        parts.append((Bisection(ps.left, (a,)), Bisection(ps.right, (b,))))

    def try_union(x, y):
        try:
            return Bisection(x.groupoid, tuple(set(x.arrows) | set(y.arrows)))
        except ValueError:
            return None

    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                ai, bi = parts[i]
                aj, bj = parts[j]
                merged = None
                if ai == aj:
                    wide = try_union(bi, bj)
                    if wide is not None:
                        merged = (ai, wide)
                elif bi == bj:
                    tall = try_union(ai, aj)
                    if tall is not None:
                        merged = (tall, bi)
                if merged is None:
                    continue
                candidate = parts[:i] + [merged] + parts[i + 1 : j] + parts[j + 1 :]
                try:
                    packed_union(pp, candidate)
                except CertificateError:
                    continue
                parts = candidate
                changed = True
                break
            if changed:
                break
    assert packed_union(pp, parts).as_code() == pp.pm.encode(phi)
    return parts


def reference_tensor(phi_m, psi_m, parts) -> Bisection:
    """phi x psi on Bisection parts: each factor mapped by the evaluators,
    its trace compared as a Fraction, and the rectangles paired arrow by
    arrow into one validated Bisection."""
    out = product_groupoid(phi_m.codomain, psi_m.codomain)
    arrows = []
    for a, b in parts:
        fa, fb = phi_m(a), psi_m(b)
        assert trace(fa) == trace(a) and trace(fb) == trace(b)
        arrows += [out.pair_arrow(x, y) for x in fa.arrows for y in fb.arrows]
    return Bisection(out.groupoid, tuple(arrows))


def sampled(g, count, seed):
    rng = random.Random(seed)
    return [sample_bisection(g, rng) for _ in range(count)]


# name -> (left, right, elements of the product, exact maps on the factors)
DECOMPOSE_CASES = {
    "n2xn2": (REL2, REL2, None, lambda: (general_map(2, 4), identity_map(REL2))),
    "z2xn2": (Z2, REL2, None, lambda: (embed_connected(Z2), identity_map(REL2))),
    "n2xz2": (REL2, Z2, None, lambda: (general_map(2, 4), identity_map(Z2))),
    # two components on the right: a left arrow's partners span both
    "n2x(z2+pt)": (REL2, Z2_PT, None, lambda: (general_map(2, 4), identity_map(Z2_PT))),
    "(z2+pt)xn2": (Z2_PT, REL2, None, lambda: (embed_convex(Z2_PT), identity_map(REL2))),
    "n3xn3-sampled": (REL3, REL3, 500, lambda: (general_map(3, 6), identity_map(REL3))),
}


def decompose_case(name):
    """The packed product, its elements as Bisections, and the maps."""
    left, right, count, maps = DECOMPOSE_CASES[name]
    pp = PackedProduct(product_groupoid(left, right))
    if count is None:
        elements = list(enumerate_semigroup(pp.structure.groupoid))
    else:
        elements = sampled(pp.structure.groupoid, count, seed=11)
    return pp, elements, maps()


@pytest.mark.parametrize("name", list(DECOMPOSE_CASES))
def test_both_orientations_certify_without_shared_factors(name):
    pp, elements, _ = decompose_case(name)
    for phi in elements:
        x = pp.pm.encode(phi)
        for reverse in (False, True):
            u = rectangle_decompose(pp, x, reverse=reverse)
            assert u.violations() == []
            assert u.as_code() == x
            parts = decoded_parts(pp, u)
            lefts = [a for a, _ in parts]
            rights = [b for _, b in parts]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)
            # each orientation keeps the factors on its own side disjoint
            own = rights if reverse else lefts
            assert sum(len(x) for x in own) == len(set().union(*(x.arrows for x in own)))


@pytest.mark.parametrize("name", list(DECOMPOSE_CASES))
def test_tensor_matches_greedy_decomposition(name):
    pp, elements, (phi_m, psi_m) = decompose_case(name)
    assert phi_m.label != "identity"
    m = tensor(phi_m, psi_m)
    out = PackedMonoid(m.codomain)
    scatter = m.packed(pp.pm, out)
    for phi in elements:
        x = pp.pm.encode(phi)
        image = scatter(x)
        assert image == out.encode(reference_tensor(phi_m, psi_m, greedy_decompose(pp, phi)))
        for reverse in (False, True):
            parts = decoded_parts(pp, rectangle_decompose(pp, x, reverse=reverse))
            assert image == out.encode(reference_tensor(phi_m, psi_m, parts))


Z2Y2 = connected_groupoid(cayley.cyclic(2), 2)

# name -> (first map, map after it), and the elements of the first map's
# domain, on all of which compose must equal applying the maps in turn
COMPOSE_CASES = {
    "n2xz2y2": (lambda: (tensor(embed_connected(REL2), embed_connected(Z2Y2)), general_map(8, 12)), 1473),
    "id[[2]]xn3": (
        lambda: (tensor(identity_map(REL2), general_map(3, 5)), tensor(general_map(2, 3), identity_map(full_relation(5)))),
        13327,
    ),
}


@pytest.mark.parametrize("name", list(COMPOSE_CASES))
def test_compose_applies_the_maps_in_turn(name):
    maps, count = COMPOSE_CASES[name]
    m1, m2 = maps()
    m = compose(m2, m1)
    assert (m.domain, m.codomain) == (m1.domain, m2.codomain)
    dom, mid, cod = PackedMonoid(m1.domain), PackedMonoid(m1.codomain), PackedMonoid(m2.codomain)
    f, g, h = m1.packed(dom, mid), m2.packed(mid, cod), m.packed(dom, cod)
    codes = list(semigroup_codes(dom))
    assert len(codes) == count
    for x in codes:
        assert h(x) == g(f(x))


def test_compose_of_tensors_is_the_tensor_of_composites():
    # (a x b) o (c x d) = (a o c) x (b o d), table for table
    m1, m2 = COMPOSE_CASES["id[[2]]xn3"][0]()
    assert compose(m2, m1).arrow_images == tensor(general_map(2, 3), general_map(3, 5)).arrow_images


def test_compose_needs_matching_groupoids():
    with pytest.raises(ValueError, match="not defined on the codomain of ladder"):
        compose(identity_map(REL3), general_map(2, 4))


def test_tensor_of_the_ladder_with_the_identity():
    # [[2]] -> [[3]] beside the identity of [[2]]: [[4]] into [[6]], where
    # the tensor drops the 2 of 6 points that the ladder drops, so trace
    # and distance deviate by 1/3, exactly as the ladder's do; the 43,681
    # pairs of [[4]] fit the cap, so the closed form reads its 16 arrows
    # and charges their 64 composable pairs
    report = check_embedding(tensor(general_map(2, 3), identity_map(REL2)))
    assert (report.element_count, report.pair_count, report.exhaustive) == (16, 64, True)
    assert report.method == "arrow-table"
    assert report.max_product_deviation == 0
    assert report.max_trace_deviation == report.max_distance_deviation == Fraction(1, 3)


def test_some_element_decomposes_differently_by_orientation():
    # redecomposition-invariance compares two different unions, not one
    # union twice
    pp, elements, _ = decompose_case("n2xn2")
    codes = [pp.pm.encode(phi) for phi in elements]
    differ = [
        x for x in codes if set(rectangle_decompose(pp, x).parts) != set(rectangle_decompose(pp, x, reverse=True).parts)
    ]
    assert len(differ) == 16


def test_overlapping_union_raises_when_built():
    pp = PackedProduct(product_groupoid(REL2, REL2))
    fix0 = Bisection(REL2, (Arrow(0, 0, 0, 0),))
    one_l, fix0_l = pp.left.one, pp.left.encode(fix0)
    one_r, fix0_r = pp.right.one, pp.right.encode(fix0)
    with pytest.raises(CertificateError, match="not in the rectangle monoid: source rectangles 0 and 1 overlap"):
        RectangleUnion(pp, ((one_l, one_r), (fix0_l, fix0_r)))
    # the rectangles do overlap: their arrows do not form a bisection
    arrows = pp.pm.arrows(pp.rectangle(one_l, one_r)) + pp.pm.arrows(pp.rectangle(fix0_l, fix0_r))
    with pytest.raises(ValueError, match="source map not injective"):
        Bisection(pp.structure.groupoid, arrows)


def count_violations(monkeypatch) -> list:
    calls = []
    original = RectangleUnion.violations

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RectangleUnion, "violations", counted)
    return calls


@pytest.mark.parametrize("reverse", [False, True])
def test_violations_run_once_per_decomposition(monkeypatch, reverse):
    pp, elements, _ = decompose_case("z2xn2")
    calls = count_violations(monkeypatch)
    for k, phi in enumerate(elements, start=1):
        rectangle_decompose(pp, pp.pm.encode(phi), reverse=reverse)
        assert len(calls) == k


def test_suite_checks_each_union_once(monkeypatch):
    # two decompositions per element, and nothing re-checks them: the
    # suite records their certificates and maps no element
    calls = count_violations(monkeypatch)
    built, init = [], SemigroupMap.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SemigroupMap, "__init__", counted_init)
    report = run_suite("rectangles", None, left=REL2, right=REL2)
    assert report.passed
    assert len(calls) == 2 * 209
    assert built == []
