"""Differential tests of the packed kernel against the Bisection operations
of bisection_reference.py, and golden reports of the suites and the embedding certificate that run on it.

The golden files under tests/golden/ were written by the Bisection-based
suite bodies and check_embedding loop that the packed kernel replaced; the
rewritten code must reproduce them byte for byte. The replaced
check_embedding loop is also kept below as a reference, and its reports
must equal the library's, witnesses included. So are the evaluators of the
connected, convex, pair and ladder embeddings that the tabulated arrow
maps replaced, as plain Bisection -> Bisection functions: the maps, and
their packed scatters, must agree with them.
The almost-morphism goldens (reports and `soficlab verify` outputs) were
written by the Bisection-based check_almost_morphism loop, which is kept
below as a reference too.
The ladder goldens (suite reports and `embed --kind ladder` outputs) were
written by the partial-injection distortion reports before they moved onto
the packed kernel. The finite-index and extension goldens were written by
the Bisection-based block matrices, lift and full-group completion; those
are kept below as references for the packed block table, the lift's arrow
table and PackedMonoid.extend. The finite-index goldens were rewritten
once since, in their counts alone, when the block identity and diagonal
trace came to count one tuple per pair and per element, and once more
when lift-exact-embedding came to report the pairs its certificate ran
as tested. The lift of a map phi of the subgroupoid, which the lift once
took as a parameter, is now composed from tensor and compose and checked
against the same reference. The element pools of verify._pool and the
code enumerators of semigroup are checked against the Bisection pools they
replaced (pool_reference.py); no pool, no part of the rectangles suite
and no table check may build a Bisection, and Bisection itself carries no
algebra. A sampled pool builds no Arrow either: its draws write codes,
and it sorts them by PackedMonoid.arrow_key, which must order generated
codes exactly as PackedMonoid.arrows does and tell them apart. The table
check that building a SemigroupMap makes, on its keys and image arrows,
must accept the tables that the check it replaced
accepts, each entry built as a Bisection and then a pairwise pass
(reference_arrow_table), whether the table comes from arrow_map or is
built directly; it must run once per map, and never in a certificate. The
suites that tabulate an exhaustive pool (semigroup.PoolTable) must report
what they report on codes, and every table entry must equal the kernel's,
also on generated groupoids; the table computes only the rows of the
generators of [G] and of the co-atoms directly, composes the rest, and
raises CertificateError when a withheld generator leaves a row unset.
Those four suites read products and distances by subscript; their earlier
bodies, one predicate per tuple through mul and dist, are kept in
suite_reference.py, and both must give the same results on tables, on
codes and on tables with one entry redirected, where the product checks
fail. The finite-index suite keeps each element's block matrix as one
code of G x [[n]] (constructions.block_codes). Its block checks, two
inverses of codes per element (checked_block_code), must pass exactly
the elements that the checks on Bisections pass, also on generated
systems, where block_components must name the failure those checks name
and the diagonal traces per copy must be the reference blocks' traces.
Its block identity, one product of codes per pair, must count what the
earlier per-cell loop of entrywise maxima on flat matrices counts
(suite_reference.block_identity), on valid and invalid systems, on
invalid systems whose products hold two blocks in one column, and on a
system whose block table has one block redirected; it builds one left
row of each kernel per row of the gate and each element's code once. The arrow certificate
(verify.arrow_certificate), which proves multiplicativity from an arrow
table, must agree with the element product pass it lets the
certificates skip, on every map above, the ladder maps and broken
tables, and with its earlier composable pass on sparse image pieces
(reference_arrow_certificate) in every field; a certified map must run
no product of domain codes, a check must place each image arrow once,
and every ladder map of the ladder goldens must be certified.
The closed form of verify.arrow_deviations, which check_embedding and the
ladder take for a certified table whose non-unit arrows carry no weight,
must equal the exhaustive element pass in trace, distance, unit and
injectivity on every such map above, the ladder maps, the composites
[[Z2xY2]] -> [[4]] -> [[p]], generated tables and tables with one point
dropped, and must build no pool. Where it applies, check_embedding is compared with the
reference's exhaustive run, with the closed form's counts and witnesses.
The embedding, `embed --kind ladder`, ladder and finite-index goldens
were rewritten when it landed: every report gained `method`, and the
reports it covers their counts, `exhaustive`, `seed` and witnesses.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from itertools import product as iproduct
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from bisection_reference import (
    act,
    compose,
    distance,
    fix_units,
    inverse,
    range_units,
    source_units,
    supp_units,
    trace,
)
from pool_reference import (
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    reference_elements,
    sample_bisection,
)
import suite_reference

from soficlab import cayley, constructions, semigroup, symmetric, verify
from soficlab.cli import main as cli_main
from soficlab.constructions import (
    NoTransversalError,
    SemigroupMap,
    TransversalSystem,
    arrow_map,
    block_codes,
    block_components,
    checked_block_code,
    compose as compose_maps,
    embed_connected,
    embed_convex,
    embed_convex_pair,
    find_transversals,
    finite_index_map,
    general_map,
    group_subgroupoid,
    identity_map,
    restrict_almost_morphism,
    step_map,
    tensor,
    unit_subgroupoid,
)
from soficlab.groupoid import (
    Arrow,
    Component,
    _assemble,
    connected_groupoid,
    convex_combination,
    convex_combination_with_maps,
    corner,
    full_relation,
    group_groupoid,
    make_groupoid,
    point_groupoid,
    product_groupoid,
    subgroupoid_as_groupoid,
)
from soficlab.semigroup import (
    Bisection,
    CertificateError,
    PackedMonoid,
    PoolTable,
    bisection,
    extend_to_full_group,
    group_codes,
    group_count,
    idempotent,
    malg_count,
    malg_masks,
    semigroup_codes,
    semigroup_count,
    unit_bisection,
)
from soficlab.serialize import (
    almost_report_to_json,
    bisection_to_json,
    dumps,
    embedding_report_to_json,
    groupoid_to_json,
    suite_result_to_json,
)
from soficlab.verify import (
    AlmostMorphismReport,
    ArrowCertificate,
    EmbeddingReport,
    IncompletePairListError,
    SuiteBudget,
    _kernel,
    _pool,
    arrow_certificate,
    check_almost_morphism,
    check_embedding,
    run_suite,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
GROUPOIDS = {
    "n2": full_relation(2),
    "n3": full_relation(3),
    "n4": full_relation(4),
    "n5": full_relation(5),
    "z2y2": connected_groupoid(cayley.cyclic(2), 2),
    "z2pt": convex_combination(
        [(Fraction(1, 3), group_groupoid(cayley.cyclic(2))), (Fraction(2, 3), full_relation(1))]
    ),
    "s3y2": connected_groupoid(cayley.symmetric(3), 2),
    # one unit: N = 1, M = 6
    "s3": group_groupoid(cayley.symmetric(3)),
    "z2y2_y2": convex_combination(
        [(HALF, connected_groupoid(cayley.cyclic(2), 2)), (HALF, full_relation(2))]
    ),
    # few or no generators of [G]: a single point, two points, a point
    # beside [[2]], and [[2]] beside a group on one unit
    "pt": point_groupoid(),
    "pt+pt": convex_combination([(HALF, point_groupoid()), (HALF, point_groupoid())]),
    "n1+n2": convex_combination([(THIRD, full_relation(1)), (1 - THIRD, full_relation(2))]),
    "y2+z3": convex_combination([(THIRD, full_relation(2)), (1 - THIRD, group_groupoid(cayley.cyclic(3)))]),
}
DIFFERENTIAL = ("n2", "n3", "z2y2", "z2pt", "s3y2")
KERNEL_SUITES = ("inverse-monoid", "metric-prop", "trace-distance", "supports")
SMALL = SuiteBudget(exhaustive_cap=20, sample_count=15, seed=3)
# [[4]] has 209 elements: its pool fits this cap, its 43,681 pairs do not
BOUNDARY = SuiteBudget(exhaustive_cap=10_000)

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
    # exhaustive pool, sampled pairs
    + [
        (f"{suite}-n4-boundary", suite, "n4", BOUNDARY)
        for suite in ("inverse-monoid", "metric-prop", "trace-distance")
    ]
)
GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_report(suite, key, budget) -> str:
    return dumps(suite_result_to_json(run_suite(suite, budget, g=GROUPOIDS[key])))


@pytest.mark.parametrize("stem,suite,key,budget", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_suite_report_matches_golden(stem, suite, key, budget):
    expected = (GOLDEN_DIR / f"{stem}.json").read_text()
    assert golden_report(suite, key, budget) == expected


# ---------------------------------------------------------------------------
# Pool tables against the packed kernel

TABLE_GROUPOIDS = ("n2", "n3", "z2y2", "z2pt", "z2y2_y2")


def on_codes(g, budget, kind="semigroup"):
    """verify._kernel with the table turned off: always the codes of _pool."""
    pm = PackedMonoid(g)
    return (pm, *_pool(pm, kind, budget))


@pytest.mark.parametrize("key", TABLE_GROUPOIDS)
@pytest.mark.parametrize("suite", KERNEL_SUITES)
def test_table_suite_equals_codes_suite(suite, key, monkeypatch):
    g = GROUPOIDS[key]
    assert isinstance(_kernel(g, SuiteBudget())[0], PoolTable)
    on_table = run_suite(suite, g=g)
    monkeypatch.setattr("soficlab.verify._kernel", on_codes)
    assert run_suite(suite, g=g) == on_table


@pytest.mark.parametrize("key", ("n3", "n4", "z2y2_y2", "z2pt", "s3y2", "s3", "pt", "pt+pt", "n1+n2", "y2+z3"))
def test_pool_table_entries_equal_the_kernel(key):
    g = GROUPOIDS[key]
    pm = PackedMonoid(g)
    codes = list(semigroup_codes(pm))
    table = PoolTable(pm, codes)
    n = len(codes)
    assert codes[table.one] == pm.one and codes[table.zero] == pm.zero
    assert (table.total, table.full_mask) == (pm.total, pm.full_mask)
    assert (table.groupoid, table.n_units) == (pm.groupoid, pm.n_units)
    for budget in (SuiteBudget(), SuiteBudget(exhaustive_cap=4, sample_count=3)):
        assert _pool(table, "malg", budget) == _pool(pm, "malg", budget)
    for mask in malg_masks(pm):
        assert codes[table.idem(mask)] == pm.idem(mask)
        assert table.mass(mask) == pm.mass(mask)
    for i, x in enumerate(codes):
        assert table.arrows(i) == pm.arrows(x)
        assert codes[table.inv(i)] == pm.inv(x)
        assert table.trace(i) == pm.trace(x)
        assert (table.src(i), table.rng(i), table.fix(i)) == (pm.src(x), pm.rng(x), pm.fix(x))
        for j, y in enumerate(codes):
            assert codes[table.products[i][j]] == pm.mul(x, y)
            assert table.distances[i][j] == pm.dist(x, y)
    for rows in (table.products, table.distances):
        assert len(rows) == n and all(len(row) == n for row in rows)


@st.composite
def small_groupoids(draw, limit=150):
    """One to three components, each a cyclic or symmetric Cayley table on
    1-3 points with a weight of 1-3 parts, drawn among those that keep
    [[G]] within limit elements."""
    tables = [cayley.cyclic(1), cayley.cyclic(2), cayley.cyclic(3), cayley.symmetric(3)]
    sizes = {(t, n): semigroup_count(connected_groupoid(t, n)) for t in tables for n in (1, 2, 3)}
    parts, count = [], 1
    for _ in range(draw(st.integers(1, 3))):
        fitting = [key for key, size in sizes.items() if count * size <= limit]
        if not fitting:
            break
        table, n = draw(st.sampled_from(fitting))
        parts.append((table, n, draw(st.integers(1, 3))))
        count *= sizes[table, n]
    total = sum(w for _, _, w in parts)
    return make_groupoid([Component(table, n, Fraction(w, total)) for table, n, w in parts])


@settings(max_examples=60, deadline=None)
@given(small_groupoids(), st.data())
def test_pool_table_products_on_generated_groupoids(g, data):
    # every row that the build composes from the generators' rows is the
    # kernel's product row, and the index finds each code wherever the
    # list puts it
    pm = PackedMonoid(g)
    codes = data.draw(st.permutations(list(semigroup_codes(pm))))
    table = PoolTable(pm, codes)
    for x, row in zip(codes, table.products):
        assert list(map(codes.__getitem__, row)) == [pm.mul(x, y) for y in codes]
    assert [codes[table.inv(i)] for i in range(len(codes))] == list(map(pm.inv, codes))
    assert (codes[table.one], codes[table.zero]) == (pm.one, pm.zero)
    masks = range(1 << pm.n_units)
    assert [codes[table.idem(s)] for s in masks] == list(map(pm.idem, masks))


# rows computed directly: the generators of [G] (a label other than 1 at
# one unit, a transposition of two units of one component) and the N
# co-atoms; [[4]] has 6 transpositions, Z2xY2+Y2 2 labels and 2
# transpositions, S3xY2 10 labels and 1 transposition, a point none
@pytest.mark.parametrize("key,direct", [("n4", 10), ("z2y2_y2", 8), ("s3y2", 13), ("pt", 1)])
def test_pool_table_computes_only_the_generator_rows(key, direct, monkeypatch):
    pm = PackedMonoid(GROUPOIDS[key])
    codes = list(semigroup_codes(pm))
    assert len(list(semigroup._generators(pm))) + pm.n_units == direct
    calls = []
    left_row = PackedMonoid.left_row
    monkeypatch.setattr(PackedMonoid, "left_row", lambda self, a: calls.append(a) or left_row(self, a))
    PoolTable(pm, codes)
    assert len(calls) == direct


# [[2]] without its one transposition, and Z2+pt without its one label,
# reach only the unit sets as full elements times unit sets
@pytest.mark.parametrize("key", ("n2", "z2pt"))
def test_a_withheld_generator_raises_and_leaves_no_table(key, monkeypatch):
    pm = PackedMonoid(GROUPOIDS[key])
    codes = list(semigroup_codes(pm))
    generators = semigroup._generators
    monkeypatch.setattr(semigroup, "_generators", lambda pm: list(generators(pm))[1:])
    table = PoolTable.__new__(PoolTable)
    with pytest.raises(CertificateError, match=f"leave [0-9]+ of its {len(codes)} product rows unset"):
        table.__init__(pm, codes)
    assert not hasattr(table, "products")


# groupoids whose [[G]] is too large to tabulate at the default cap, or
# mixes components of different group orders
LEFT_ROW_GROUPOIDS = {
    "n8": full_relation(8),
    "s3y4": connected_groupoid(cayley.symmetric(3), 4),
    "z2y2+pt": convex_combination(
        [(THIRD, connected_groupoid(cayley.cyclic(2), 2)), (1 - THIRD, full_relation(1))]
    ),
}


@pytest.mark.parametrize("key", LEFT_ROW_GROUPOIDS)
def test_left_row_products_equal_mul(key):
    # the product table's rows, on sampled codes (the zero among them, so
    # every row's trailing slot for code -1 is read); and the tables the
    # suites read on codes, which are mul and dist by subscript
    pm = PackedMonoid(LEFT_ROW_GROUPOIDS[key])
    codes, exhaustive = _pool(pm, "semigroup", SuiteBudget(exhaustive_cap=30, sample_count=30, seed=2))
    assert not exhaustive and pm.zero in codes
    products, distances = pm.products, pm.distances
    for a in codes:
        row = pm.left_row(a)
        assert len(row) == pm.n_units * pm.order + 1 and row[-1] == -1
        for b in codes:
            assert tuple(map(row.__getitem__, b)) == pm.mul(a, b)
            assert products[a][b] == pm.mul(a, b)
            assert distances[a][b] == pm.dist(a, b)


@pytest.mark.parametrize("key", TABLE_GROUPOIDS)
def test_table_group_pool_is_the_group_pool(key):
    # supports takes [G] from the table as the indices of its full elements
    pm = PackedMonoid(GROUPOIDS[key])
    table, group, exhaustive = _kernel(pm.groupoid, SuiteBudget(), "group")
    assert isinstance(table, PoolTable) and exhaustive
    codes = list(semigroup_codes(pm))
    assert [codes[i] for i in group] == _pool(pm, "group", SuiteBudget())[0]


def test_kernel_tabulates_exactly_when_the_pairs_fit_the_cap():
    g = GROUPOIDS["n4"]
    n = semigroup_count(g)
    for cap, kind in ((n - 1, PackedMonoid), (n * n - 1, PackedMonoid), (n * n, PoolTable)):
        kernel, pool, exhaustive = _kernel(g, SuiteBudget(exhaustive_cap=cap))
        assert type(kernel) is kind
        assert exhaustive == (cap >= n)
        if kind is PoolTable:
            assert pool == list(range(n))
        else:
            assert pool == _pool(kernel, "semigroup", SuiteBudget(exhaustive_cap=cap))[0]


def test_inverse_monoid_builds_no_distance_table(monkeypatch):
    def forbidden(self):
        raise AssertionError("distance table built")

    monkeypatch.setattr(PoolTable, "distances", property(forbidden))
    assert run_suite("inverse-monoid", g=GROUPOIDS["n3"]).checks


# ---------------------------------------------------------------------------
# The suites against their per-tuple reference (suite_reference.py)


def corrupted_kernel(entry, g, budget, kind="semigroup"):
    """verify._kernel with one entry of its PoolTable redirected: for entry
    "products", one * zero is one, so zero becomes a second inverse of one;
    for "distances", d(one, a) is 0 for a full element a other than one.
    The two are kept apart, so that a check that reports only whether it
    passed is tested on a table where it alone reads a wrong entry."""
    table, pool, exhaustive = _kernel(g, budget, kind)
    one, zero = table.one, table.zero
    if entry == "products":
        table.products[one][zero] = one
    else:
        full = table.full_mask
        moved = next(i for i in range(len(table.products)) if i != one and table.src(i) == table.rng(i) == full)
        table.distances[one][moved] = 0
    return table, pool, exhaustive


REFERENCE_KERNELS = {
    "table": _kernel,
    "products-corrupted": partial(corrupted_kernel, "products"),
    "distances-corrupted": partial(corrupted_kernel, "distances"),
    "codes": on_codes,
}
# case id: (kernel, groupoid key, budget or None for the default)
SUITE_REFERENCE_CASES = {
    **{f"{kernel}-{key}": (kernel, key, None) for kernel in REFERENCE_KERNELS for key in TABLE_GROUPOIDS},
    # products leave a sampled pool; an exhaustive pool with sampled pairs
    "n4-sampled": ("table", "n4", SMALL),
    "n4-boundary": ("table", "n4", BOUNDARY),
    # a sampled pool on codes whose 30 * 30 pairs all run: whole rows on
    # the code kernel
    "n5-sampled-pool-all-pairs": ("table", "n5", SuiteBudget(exhaustive_cap=1_000, sample_count=30)),
}


@pytest.mark.parametrize("suite", KERNEL_SUITES)
@pytest.mark.parametrize("kernel,key,budget", SUITE_REFERENCE_CASES.values(), ids=SUITE_REFERENCE_CASES)
def test_suite_equals_its_reference(suite, kernel, key, budget, monkeypatch):
    monkeypatch.setattr("soficlab.verify._kernel", REFERENCE_KERNELS[kernel])
    result = run_suite(suite, budget, g=GROUPOIDS[key])
    monkeypatch.setitem(verify.SUITES, suite, suite_reference.SUITES[suite])
    assert run_suite(suite, budget, g=GROUPOIDS[key]) == result


# arities 1 to 4 and zero sizes; each budget holds some of these whole
# and samples others ((300, 300, 300) is over every cap)
GATE_SIZES = ((7,), (25,), (5, 4), (4, 0), (0, 5), (3, 0, 4), (4, 3, 5), (6, 2, 3, 4), (209, 209), (300, 300, 300))
GATE_BUDGETS = {"default": SuiteBudget(), "small": SMALL, "boundary": BOUNDARY}


@pytest.mark.parametrize("budget", list(GATE_BUDGETS))
@pytest.mark.parametrize("sizes", GATE_SIZES, ids=str)
def test_gate_rows(sizes, budget):
    # held, each prefix of the leading sizes with every last index;
    # sampled, one row per tuple drawn with seed + len(sizes), one
    # randrange per slot, so the draws are those of a tuple at a time
    budget = GATE_BUDGETS[budget]
    rows, run = verify._run(sizes, budget, True)
    rows = list(rows)
    held = prod(sizes) <= budget.exhaustive_cap
    if held:
        assert [tuple(prefix) for *prefix, _ in rows] == list(iproduct(*map(range, sizes[:-1])))
        assert all(lasts == range(sizes[-1]) for *_, lasts in rows)
    else:
        randrange = random.Random(budget.seed + len(sizes)).randrange
        draws = [tuple(randrange(n) for n in sizes) for _ in range(min(budget.sample_count, budget.exhaustive_cap))]
        assert [(*prefix, *lasts) for *prefix, lasts in rows] == draws
    assert run == {"tested": sum(len(lasts) for *_, lasts in rows), "exhaustive": held}
    assert verify._run(sizes, budget, False)[1] == {**run, "exhaustive": False}


# the tables whose triples all run at the default budget, so that every
# check reads the corrupted entries (Z2xY2+Y2 samples its 119^3 triples)
@pytest.mark.parametrize("key", ("n2", "n3", "z2y2", "z2pt"))
def test_corrupted_tables_fail_the_product_checks(key, monkeypatch):
    # so the suites and their reference agree on violations, not only on 0
    monkeypatch.setattr("soficlab.verify._kernel", REFERENCE_KERNELS["products-corrupted"])
    checks = {c.name: c for suite in KERNEL_SUITES for c in run_suite(suite, g=GROUPOIDS[key]).checks}
    for name in ("associativity", "inverse-uniqueness", "corner-product-identity"):
        assert checks[name].details["exhaustive"] and not checks[name].passed
    assert checks["associativity"].details["violations"] > 0
    assert checks["inverse-uniqueness"].details["violations"] > 0


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
    for a in g.arrows():
        u, x = pm.place(a)
        assert pm.encode(Bisection(g, (a,))) == tuple(x if v == u else -1 for v in range(g.n_units))


def test_mul_and_inv_agree(kernel):
    g, pm, elements, packed = kernel
    for a, x in zip(elements, packed):
        assert pm.inv(x) == pm.encode(inverse(a))
        for b, y in zip(elements, packed):
            assert pm.mul(x, y) == pm.encode(compose(a, b))


def test_trace_and_dist_agree(kernel):
    g, pm, elements, packed = kernel
    assert pm.total == pm.denom
    for a, x in zip(elements, packed):
        assert Fraction(pm.trace(x), pm.denom) == trace(a)
        for b, y in zip(elements, packed):
            assert Fraction(pm.dist(x, y), pm.denom) == distance(a, b)


def test_masks_agree(kernel):
    g, pm, elements, packed = kernel
    for a, x in zip(elements, packed):
        assert pm.src(x) == pm.mask(source_units(a))
        assert pm.rng(x) == pm.mask(range_units(a))
        assert pm.fix(x) == pm.mask(fix_units(a))
        # the supports suite's supp(a)
        assert pm.src(x) & ~pm.fix(x) == pm.mask(supp_units(a))


def test_mass_idem_and_act_agree(kernel):
    g, pm, elements, packed = kernel
    malg = list(enumerate_malg(g))
    for units in malg:
        mask = pm.mask(units)
        assert mask == sum(1 << i for i, u in enumerate(g.units()) if u in units)
        assert Fraction(pm.mass(mask), pm.denom) == g.mass(units)
        assert pm.idem(mask) == pm.encode(idempotent(g, units))
    # the supports suite's act(a, A) = rng(a 1_A), for a in the full group
    for a in enumerate_group(g):
        x = pm.encode(a)
        for units in malg:
            assert pm.rng(pm.mul(x, pm.idem(pm.mask(units)))) == pm.mask(act(a, units))
    # off the full group, rng(a 1_A) is the range of a's restriction to A
    for a, x in zip(elements, packed):
        for units in malg:
            image = {arrow.range for arrow in a.arrows if arrow.source in units}
            assert pm.rng(pm.mul(x, pm.idem(pm.mask(units)))) == pm.mask(image)


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
        assert pm.mul(x, y) == pm.encode(compose(a, b))
        assert pm.inv(x) == pm.encode(inverse(a))
        assert Fraction(pm.trace(x), pm.denom) == trace(a)
        assert Fraction(pm.dist(x, y), pm.denom) == distance(a, b)
        assert pm.src(x) & ~pm.fix(x) == pm.mask(supp_units(a))
        assert pm.rng(x) == pm.mask(range_units(a))
        assert pm.fix(x) == pm.mask(fix_units(a))


def ten_unit_codes():
    g = convex_combination(
        [(THIRD, connected_groupoid(cayley.symmetric(3), 4)), (1 - THIRD, full_relation(6))]
    )
    pm, rng = PackedMonoid(g), random.Random(7)
    return pm, [pm.encode(sample_bisection(g, rng)) for _ in range(60)]


def collapsed_images():
    # a non-injective map's images: repeats, and the zero more than once
    m = forget_labels(embed_connected(GROUPOIDS["z2y2"]))
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    image = m.packed(dom, cod)
    codes = [image(x) for x in semigroup_codes(dom)] + [cod.zero]
    assert len(set(codes)) < len(codes) and codes.count(cod.zero) > 1
    return cod, codes


def all_codes(g):
    pm = PackedMonoid(g)
    return pm, list(semigroup_codes(pm))


def sampled_codes(g, count):
    pm = PackedMonoid(g)
    return pm, _pool(pm, "semigroup", SuiteBudget(exhaustive_cap=count, sample_count=count, seed=4))[0]


# Y2 at 2/3 (units 0 and 1, weight 2 each) beside Z2 x Y2 at 1/3 (units 2
# and 3, weight 1 each)
THIRDS = convex_combination(
    [(THIRD, connected_groupoid(cayley.cyclic(2), 2)), (1 - THIRD, full_relation(2))]
)


def thirds_alike_codes():
    # full on Y2, so units 0 and 1 split the list alike, and undefined at
    # unit 2, a constant column; every code twice
    pm, codes = all_codes(THIRDS)
    alike = [x for x in codes if -1 not in x[:2] and x[2] == -1]
    assert len(alike) == 2 * 5
    return pm, alike + alike[::-1]


# (PackedMonoid, codes) for dist_rows; G6, Z2 beside a point and THIRDS
# weigh their units unequally
DIST_ROWS_CASES = {
    "thirds": lambda: all_codes(THIRDS),
    "thirds-alike": thirds_alike_codes,
    "n3": lambda: all_codes(GROUPOIDS["n3"]),
    "z2y2_y2": lambda: all_codes(GROUPOIDS["z2y2_y2"]),
    "z2pt": lambda: all_codes(GROUPOIDS["z2pt"]),
    "g6-sampled": lambda: sampled_codes(g6(G6_NU), 80),
    "ten-units-sampled": ten_unit_codes,
    "collapsed-images": collapsed_images,
    "empty": lambda: (PackedMonoid(GROUPOIDS["n3"]), []),
}


@pytest.mark.parametrize("case", list(DIST_ROWS_CASES))
def test_dist_rows_equal_dist(case):
    pm, codes = DIST_ROWS_CASES[case]()
    rows = list(pm.dist_rows(codes))
    assert rows == [[pm.dist(a, b) for b in codes] for a in codes]


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 5) for p in range(n, n + 7)])
def test_dist_rows_of_ladder_images_equal_dist(n, p):
    # the block copies of one column split the images alike, and the
    # p mod n points left over are constant columns
    m = general_map(n, p)
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    images = list(map(m.packed(dom, cod), semigroup_codes(dom)))
    assert list(cod.dist_rows(images)) == [[cod.dist(a, b) for b in images] for a in images]


@st.composite
def alike_columns(draw):
    """Lists of tuples on the four units of THIRDS (not all of them codes
    of elements), built column by column: each column is constant, fresh,
    or a relabelling of an earlier one, which splits the rows alike; then
    some rows again."""
    pm = PackedMonoid(THIRDS)
    values = range(-1, pm.n_units * pm.order)
    size = draw(st.integers(1, 10))
    columns = []
    for _ in range(pm.n_units):
        kind = draw(st.sampled_from(["constant", "fresh", "relabelled"][: 3 if columns else 2]))
        if kind == "constant":
            columns.append([draw(st.sampled_from(values))] * size)
        elif kind == "fresh":
            columns.append(draw(st.lists(st.sampled_from(values), min_size=size, max_size=size)))
        else:
            relabel = dict(zip(values, draw(st.permutations(values))))
            columns.append([relabel[v] for v in draw(st.sampled_from(columns))])
    rows = list(zip(*columns))
    return rows + draw(st.lists(st.sampled_from(rows), max_size=4))


@settings(max_examples=200, deadline=None)
@given(alike_columns())
def test_dist_rows_merge_alike_units(codes):
    pm = PackedMonoid(THIRDS)
    assert list(pm.dist_rows(codes)) == [[pm.dist(a, b) for b in codes] for a in codes]


# ---------------------------------------------------------------------------
# Element pools against the Bisection reference

POOL_GROUPOIDS = {
    "n8": full_relation(8),
    "n10": full_relation(10),
    "z3y5": connected_groupoid(cayley.cyclic(3), 5),
    "s3y3+n6": convex_combination(
        [(THIRD, connected_groupoid(cayley.symmetric(3), 3)), (1 - THIRD, full_relation(6))]
    ),
    "n3": full_relation(3),
    "z2pt": GROUPOIDS["z2pt"],
}
# groupoids whose pools are also compared in the exhaustive regime alone,
# which is where _pool returns the code enumerators' output as it is
EXHAUSTIVE_POOL_GROUPOIDS = {
    **{f"n{n}": full_relation(n) for n in range(1, 5)},
    "z2y2": GROUPOIDS["z2y2"],
    "z2pt": GROUPOIDS["z2pt"],
    "s3y3+n2": convex_combination(
        [(THIRD, connected_groupoid(cayley.symmetric(3), 3)), (1 - THIRD, full_relation(2))]
    ),
}
POOL_COUNTS = {"semigroup": semigroup_count, "group": group_count, "malg": malg_count}
POOL_ENUMERATORS = {"semigroup": semigroup_codes, "group": group_codes, "malg": malg_masks}
POOL_CASES = [
    (key, kind, seed) for seed in (1, 7, 1729) for kind in POOL_COUNTS for key in POOL_GROUPOIDS
] + [(key, kind, None) for kind in POOL_COUNTS for key in EXHAUSTIVE_POOL_GROUPOIDS]
POOL_IDS = [f"{key}-{kind}-{'exhaustive' if seed is None else seed}" for key, kind, seed in POOL_CASES]


@pytest.mark.parametrize("key,kind,seed", POOL_CASES, ids=POOL_IDS)
def test_pool_matches_reference(key, kind, seed):
    if seed is None:
        g = EXHAUSTIVE_POOL_GROUPOIDS[key]
        pm = PackedMonoid(g)
        encode = pm.mask if kind == "malg" else pm.encode
        # the code enumerators list the encoded reference enumeration,
        # element for element and in order, and _pool returns them
        expected = [encode(a) for a in reference_elements(g, kind, SuiteBudget(exhaustive_cap=10**6))[0]]
        assert list(POOL_ENUMERATORS[kind](pm)) == expected
        assert _pool(pm, kind, SuiteBudget(exhaustive_cap=POOL_COUNTS[kind](g))) == (expected, True)
        return
    g = POOL_GROUPOIDS[key]
    pm = PackedMonoid(g)
    encode = pm.mask if kind == "malg" else pm.encode
    count = POOL_COUNTS[kind](g)
    # a cap just below the count forces the sampled regime; a sample count
    # above the count draws as many elements as the cap allows, all but one
    budgets = [SuiteBudget(exhaustive_cap=count - 1, sample_count=40, seed=seed)]
    if count <= 2000:
        budgets += [
            SuiteBudget(exhaustive_cap=count - 1, sample_count=count + 3, seed=seed),
            SuiteBudget(exhaustive_cap=count, sample_count=40, seed=seed),
        ]
    for budget in budgets:
        elements, exhaustive = reference_elements(g, kind, budget)
        assert _pool(pm, kind, budget) == ([encode(a) for a in elements], exhaustive)


def count_draws(monkeypatch) -> list:
    """Record the name of every draw (random, randrange, sample) made from
    now on by a random.Random that verify builds; the draws themselves are
    unchanged."""
    draws = []
    make = random.Random

    def counted(seed):
        rng = make(seed)
        for name in ("random", "randrange", "sample"):
            draw = getattr(rng, name)
            setattr(rng, name, lambda *args, _draw=draw, _name=name: draws.append(_name) or _draw(*args))
        return rng

    monkeypatch.setattr(verify.random, "Random", counted)
    return draws


@pytest.mark.parametrize("kind", list(POOL_COUNTS))
def test_pool_of_more_than_half_is_one_sample(kind, monkeypatch):
    # a pool of more than half the elements enumerates them and samples
    # once; at exactly half it still draws until it is full
    g = full_relation(3)
    count = POOL_COUNTS[kind](g)
    draws = count_draws(monkeypatch)
    for target in (count // 2 + 1, count - 1):
        budget = SuiteBudget(exhaustive_cap=count - 1, sample_count=target, seed=5)
        pool, exhaustive = _pool(PackedMonoid(g), kind, budget)
        assert (len(pool), len(set(pool)), exhaustive, draws) == (target, target, False, ["sample"])
        draws.clear()
    pool, _ = _pool(PackedMonoid(g), kind, SuiteBudget(exhaustive_cap=count - 1, sample_count=count // 2, seed=5))
    assert len(pool) == count // 2 and draws and draws != ["sample"]


def test_pool_below_the_cap_charges_its_draws(monkeypatch):
    # [[6]] at cap 13,326: drawing all but one of its 13,327 elements took
    # 384,605 rejection draws; the pool now enumerates them and samples once
    pm = PackedMonoid(full_relation(6))
    draws = count_draws(monkeypatch)
    pool, exhaustive = _pool(pm, "semigroup", SuiteBudget(exhaustive_cap=13_326, sample_count=10**6, seed=1729))
    assert (len(pool), exhaustive, draws) == (13_326, False, ["sample"])
    assert pool[0] == pm.zero and pm.one in pool


@st.composite
def groupoid_codes(draw):
    """A groupoid of one to three components, each a Cayley table of order
    1, 2, 3 or 6 on 1-5 points, its kernel, and 2-12 of its codes drawn a
    component at a time: a source set, a permutation for the ranges and a
    label per source."""
    tables = [cayley.cyclic(1), cayley.cyclic(2), cayley.cyclic(3), cayley.symmetric(3)]
    parts = draw(st.lists(st.tuples(st.sampled_from(tables), st.integers(1, 5)), min_size=1, max_size=3))
    pm = PackedMonoid(make_groupoid([Component(t, n, Fraction(1, len(parts))) for t, n in parts]))
    codes = []
    for _ in range(draw(st.integers(2, 12))):
        x, base = [-1] * pm.n_units, 0
        for c in pm.groupoid.components:
            n = c.base_size
            ranges = draw(st.permutations(range(n)))
            for y_from in draw(st.sets(st.integers(0, n - 1))):
                x[base + y_from] = (base + ranges[y_from]) * pm.order + draw(st.integers(0, c.group_order - 1))
            base += n
        codes.append(tuple(x))
    return pm, codes


@settings(max_examples=150, deadline=None)
@given(groupoid_codes())
def test_arrow_key_orders_codes_as_arrows(case):
    # the integer key sorts codes as their arrows do, and tells codes apart
    pm, codes = case
    g = pm.groupoid
    arrows = sorted(g.arrows())
    keys = [pm.arrow_key(pm.encode(Bisection(g, (a,)))) for a in arrows]
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(arrows)
    for x in codes:
        for y in codes:
            assert (pm.arrow_key(x) < pm.arrow_key(y)) == (pm.arrows(x) < pm.arrows(y))
            assert (pm.arrow_key(x) == pm.arrow_key(y)) == (x == y)
    assert sorted(codes, key=pm.arrow_key) == sorted(codes, key=pm.arrows)


def count_calls(monkeypatch, target, name) -> list:
    """Record the arguments of every call of target.name from now on."""
    calls = []
    method = getattr(target, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(target, name, counted)
    return calls


@pytest.mark.parametrize("key", ["n8", "s3y3+n6"])
@pytest.mark.parametrize("kind", ["semigroup", "group"])
def test_sampled_pools_build_no_arrows(key, kind, monkeypatch):
    # a sampled pool draws codes and sorts them by arrow_key: it places no
    # arrow, lists no element's arrows and builds no Arrow
    pm = PackedMonoid(POOL_GROUPOIDS[key])
    spies = [count_calls(monkeypatch, PackedMonoid, name) for name in ("arrows", "place")]
    built = count_calls(monkeypatch, Arrow, "__new__")
    pool, exhaustive = _pool(pm, kind, SuiteBudget(exhaustive_cap=1000, sample_count=200, seed=3))
    assert (len(pool), exhaustive) == (200, False)
    assert spies == [[], []] and built == []
    # the spies do see calls
    assert pm.place(Arrow(0, 0, 0, 0)) and built == [(Arrow, 0, 0, 0, 0)] and len(spies[1]) == 1


# case -> (suite, parameters, whether its pools are sampled)
NO_BISECTION_CASES = {
    "extension": ("extension", {"g": full_relation(8)}, True),
    "inverse-monoid": ("inverse-monoid", {"g": full_relation(8)}, True),
    "inverse-monoid-n3": ("inverse-monoid", {"g": full_relation(3)}, False),
    "trace-distance-n4": ("trace-distance", {"g": full_relation(4)}, False),
    # builds the tensor of the factors' identities, a table of 16 entries
    "rectangles-n2xn2": ("rectangles", {"left": full_relation(2), "right": full_relation(2)}, False),
}


@pytest.mark.parametrize("case", list(NO_BISECTION_CASES))
def test_sampled_pools_build_no_bisections(case, monkeypatch):
    # sampled draws, exhaustive enumerations and the whole rectangles suite
    # run on codes, and a SemigroupMap checks its table on its arrows:
    # none of them builds a Bisection
    suite, params, sampled = NO_BISECTION_CASES[case]
    built = count_calls(monkeypatch, Bisection, "__post_init__")
    result = run_suite(suite, **params)
    assert {check.details["exhaustive"] for check in result.checks} == {not sampled}
    assert result.passed and built == []


MOVED_ATTRIBUTES = (
    "compose", "__mul__", "inverse", "trace", "distance", "range_distance", "is_idempotent", "is_full",
    "by_source", "by_range", "source_units", "range_units", "fix_units", "supp_units",
)
REMOVED_NAMES = (
    "act", "projections", "union_compatible", "UnionIncompatibleError", "finite_index_lift",
    "enumerate_semigroup", "enumerate_group", "enumerate_malg",
)


def test_bisection_is_a_boundary_type():
    # the algebra lives in bisection_reference.py, next to these tests
    import soficlab
    from soficlab import constructions, semigroup

    assert [name for name in MOVED_ATTRIBUTES if hasattr(Bisection, name)] == []
    for module in (soficlab, semigroup, constructions):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


# ---------------------------------------------------------------------------
# The embedding certificate against the Bisection reference


def reference_check_embedding(m, budget, f=None) -> EmbeddingReport:
    """check_embedding on Bisection algebra: the map is evaluated on every
    product, and deviations are Fractions. f, a Bisection -> Bisection
    function on m's domain, is evaluated in place of m when given."""
    f = f or m
    elements, exhaustive = reference_elements(m.domain, "semigroup", budget)
    n = len(elements)
    pair_iter, exhaustive, pair_count = suite_reference.tuples((n, n), budget, exhaustive)

    images = [f(a) for a in elements]
    unit_ok = f(unit_bisection(m.domain)) == unit_bisection(m.codomain)
    injective = len(set(images)) == len(set(elements))

    prod_dev = trace_dev = dist_dev = Fraction(0)
    witnesses = {}
    for a, fa in zip(elements, images):
        dev = abs(trace(a) - trace(fa))
        if dev > trace_dev:
            trace_dev = dev
            witnesses["trace"] = a
    for ia, ib in pair_iter:
        a, b = elements[ia], elements[ib]
        dev = distance(f(compose(a, b)), compose(images[ia], images[ib]))
        if dev > prod_dev:
            prod_dev = dev
            witnesses["product"] = (a, b)
        dev = abs(distance(a, b) - distance(images[ia], images[ib]))
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
        method="elements",
        max_product_deviation=prod_dev,
        max_trace_deviation=trace_dev,
        max_distance_deviation=dist_dev,
        unit_preserved=unit_ok,
        injective=injective,
        trace_iso_consistent=consistent,
        witnesses=witnesses,
    )


def composable_pairs(g) -> int:
    return sum(c.group_order**2 * c.base_size**3 for c in g.components)


def takes_the_closed_form(m, budget) -> bool:
    """The rule that picks check_embedding's method, on references: the
    arrow certificate certifies m within the pairs of the element pass,
    and no non-unit arrow's image holds a unit arrow."""
    cap = verify.pool_pairs(PackedMonoid(m.domain), budget)[3]
    if reference_arrow_certificate(m, SuiteBudget(exhaustive_cap=cap)).verdict != "certified":
        return False
    return not any(b.is_unit() for a, image in m.arrow_images.items() if not a.is_unit() for b in image)


def assert_matches_reference(m, budget, f=None):
    """check_embedding(m, budget) against the Bisection reference: equal to
    it on the element path, and on the closed form equal to its
    exhaustive run in every deviation and verdict, with the closed form's
    counts and witnesses that reach the deviation: 1_A for the trace and
    (1_A, 0) for the distance."""
    report = check_embedding(m, budget)
    assert report.method == ("arrow-table" if takes_the_closed_form(m, budget) else "elements")
    if report.method == "elements":
        assert report == reference_check_embedding(m, budget, f)
        return
    full = reference_check_embedding(m, SuiteBudget(exhaustive_cap=10**6), f)
    assert full.exhaustive
    assert report == full._replace(
        element_count=m.domain.n_arrows,
        pair_count=composable_pairs(m.domain),
        method="arrow-table",
        witnesses=report.witnesses,
    )
    f = f or m
    dev = report.max_trace_deviation
    assert bool(report.witnesses) == (dev > 0)
    if dev:
        one_a, (left, zero) = report.witnesses["trace"], report.witnesses["distance"]
        assert left == one_a and idempotent(m.domain, source_units(one_a)) == one_a
        assert zero == Bisection(m.domain, ())
        assert abs(trace(f(one_a)) - trace(one_a)) == dev
        assert abs(distance(f(one_a), f(zero)) - distance(one_a, zero)) == dev


def two_components(t):
    """Z2 with weight t beside [[2]] with weight 1 - t."""
    return convex_combination(
        [(t, group_groupoid(cayley.cyclic(2))), (1 - t, full_relation(2))]
    )


def drop_first_arrow(m: SemigroupMap) -> dict:
    """A broken map as a pair list over all of [[m.domain]]: every image
    loses its first arrow. It is not an arrow map."""
    return {a: Bisection(m.codomain, m(a).arrows[1:]) for a in enumerate_semigroup(m.domain)}


def truncate_entries(m: SemigroupMap) -> SemigroupMap:
    """A broken table: every entry of m's table loses its first arrow. It
    is neither multiplicative nor trace-preserving."""
    return arrow_map(m.domain, m.codomain, lambda a: m.arrow_images[a][1:], f"truncated.{m.label}")


def forget_labels(m: SemigroupMap) -> SemigroupMap:
    """A broken table: each arrow goes to m's image of its label-0 arrow.
    It stays multiplicative but is neither injective nor trace-preserving."""
    return arrow_map(m.domain, m.codomain, lambda a: m.arrow_images[a._replace(g=0)], f"collapsed.{m.label}")


def twist_ladder(n: int, p: int) -> SemigroupMap:
    """A broken table on a two-copy codomain: the ladder map [[n]] -> [[p]]
    with points 0 and n, the two copies of unit 0, exchanged in the
    target of every image arrow. It is a valid table, but neither
    multiplicative nor trace-preserving."""
    m, swap = general_map(n, p), {0: n, n: 0}
    return arrow_map(
        m.domain,
        m.codomain,
        lambda a: [b._replace(y_to=swap.get(b.y_to, b.y_to)) for b in m.arrow_images[a]],
        f"twisted.{m.label}",
    )


def s3_over_z3():
    s3 = group_groupoid(cayley.symmetric(3))
    return finite_index_map(find_transversals(s3, group_subgroupoid(s3, [0, 3, 4])))


EMBEDDINGS = {
    "connected-z2y2": lambda: embed_connected(GROUPOIDS["z2y2"]),
    "convex-z2+y2": lambda: embed_convex(two_components(THIRD)),
    "pair-z2+y2": lambda: embed_convex_pair(
        embed_convex(two_components(THIRD)), embed_convex(two_components(2 * THIRD)), THIRD
    ),
    "index-s3-z3": s3_over_z3,
    "step-2": lambda: step_map(2),
    "ladder-3-7": lambda: general_map(3, 7),
    "truncated-connected-z2y2": lambda: truncate_entries(embed_connected(GROUPOIDS["z2y2"])),
    "collapsed-connected-z2y2": lambda: forget_labels(embed_connected(GROUPOIDS["z2y2"])),
    # refuted in every regime, so its product pass runs on two block copies
    "twisted-ladder-3-7": lambda: twist_ladder(3, 7),
}
# the small budget samples the pairs of every case, and the pools of the 21-
# and 34-element domains, whose products then leave the pool
EMBEDDING_BUDGETS = {"exhaustive": SuiteBudget(), "sampled": SMALL}
EMBEDDING_CASES = [(case, regime) for case in EMBEDDINGS for regime in EMBEDDING_BUDGETS]
EMBEDDING_IDS = [f"{case}-{regime}" for case, regime in EMBEDDING_CASES]
# this cap samples the pools of the 17-, 21- and 34-element domains down to
# 4 elements and then runs all 16 of their pairs, whose products leave the
# pool; the smaller domains keep their pools and sample their pairs
REFERENCE_BUDGETS = {**EMBEDDING_BUDGETS, "sampled-pool": SuiteBudget(exhaustive_cap=16, sample_count=4, seed=3)}
REFERENCE_CASES = [(case, regime) for case in EMBEDDINGS for regime in REFERENCE_BUDGETS]
REFERENCE_IDS = [f"{case}-{regime}" for case, regime in REFERENCE_CASES]


@pytest.mark.parametrize("case,regime", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_embedding_report_matches_reference(case, regime):
    assert_matches_reference(EMBEDDINGS[case](), REFERENCE_BUDGETS[regime])


@pytest.mark.parametrize("case,regime", EMBEDDING_CASES, ids=EMBEDDING_IDS)
def test_embedding_report_matches_golden(case, regime):
    report = check_embedding(EMBEDDINGS[case](), EMBEDDING_BUDGETS[regime])
    expected = (GOLDEN_DIR / f"embedding-{case}-{regime}.json").read_text()
    assert dumps(embedding_report_to_json(report)) == expected



# ---------------------------------------------------------------------------
# Almost-morphism reports and `soficlab verify`: goldens written by the
# Bisection-based check_almost_morphism loop


def swap_and_one():
    """The swap of [[2]] and its unit."""
    return Bisection(REL2, (Arrow(0, 0, 0, 1), Arrow(0, 0, 1, 0))), unit_bisection(REL2)


def collapsing_pairs():
    swap, one = swap_and_one()
    return {swap: one, one: one}, [swap], HALF


def repeated_k():
    # K with repeats, and elements whose images lose arrows
    elements = list(enumerate_semigroup(GROUPOIDS["z2y2"]))
    K = elements[3:9] + elements[5:7] + [elements[3], elements[0]]
    return drop_first_arrow(embed_connected(GROUPOIDS["z2y2"])), K, HALF


def all_of(g):
    return list(enumerate_semigroup(g))


# golden file stem -> (map or pair list, K, epsilon)
ALMOST_CASES = {
    "almost-identity-n2": lambda: (identity_map(REL2), all_of(REL2), Fraction(1, 100)),
    "almost-ladder-3-7": lambda: (general_map(3, 7), all_of(GROUPOIDS["n3"]), Fraction(4, 5)),
    "almost-connected-z2y2": lambda: (
        embed_connected(GROUPOIDS["z2y2"]), all_of(GROUPOIDS["z2y2"]), Fraction(1, 100)
    ),
    "almost-dropped-connected-z2y2": lambda: (
        drop_first_arrow(embed_connected(GROUPOIDS["z2y2"])), all_of(GROUPOIDS["z2y2"]), HALF
    ),
    "almost-collapsed-connected-z2y2": lambda: (
        forget_labels(embed_connected(GROUPOIDS["z2y2"])), all_of(GROUPOIDS["z2y2"]), HALF
    ),
    "almost-collapsing-pairs-n2": collapsing_pairs,
    "almost-repeated-k-z2y2": repeated_k,
}


def write_verify_inputs(directory: Path) -> dict:
    """Write the inputs of two `soficlab verify` runs into directory and
    return their arguments, which name the files by relative path: the
    connected embedding of Z2xY2 on all of its semigroup, and a pair list
    [[2]] -> [[3]] (the ladder map's values on the swap, the unit and
    their products) on K = [swap, unit]."""
    swap, one = swap_and_one()
    ladder = general_map(2, 3)
    (directory / "z2y2.json").write_text(dumps(groupoid_to_json(GROUPOIDS["z2y2"])))
    (directory / "n2.json").write_text(dumps(groupoid_to_json(REL2)))
    (directory / "n3.json").write_text(dumps(groupoid_to_json(GROUPOIDS["n3"])))
    pairs = [[bisection_to_json(a), bisection_to_json(ladder(a))] for a in (swap, one)]
    (directory / "pairs.json").write_text(dumps({"pairs": pairs}))
    (directory / "k.json").write_text(dumps([bisection_to_json(swap), bisection_to_json(one)]))
    return {
        "verify-connected-z2y2": (
            ["verify", "--map", "connected", "--groupoid", "z2y2.json", "--K", "all", "--epsilon", "1/100"], 0
        ),
        "verify-pairs-n2-n3": (
            ["verify", "--map", "pairs.json", "--domain", "n2.json", "--codomain", "n3.json",
             "--K", "k.json", "--epsilon", "1/2"],
            0,
        ),
    }


def reference_check_almost_morphism(pi, K, epsilon) -> AlmostMorphismReport:
    """check_almost_morphism on Bisection algebra: the map or pair list is
    looked up on every product, and deviations are Fractions."""
    epsilon = Fraction(epsilon)
    K = list(K)
    if isinstance(pi, SemigroupMap):
        lookup = pi
    else:
        table = dict(pi)

        def lookup(x):
            if x not in table:
                raise IncompletePairListError(f"pair list does not cover a required element ({len(x)} arrows)")
            return table[x]

    if len({a.groupoid for a in K}) > 1:
        raise ValueError("K mixes groupoids")
    images = {a: lookup(a) for a in K}
    prod_dev = trace_dev = dist_dev = Fraction(0)
    witnesses = {}
    for a in K:
        dev = abs(trace(a) - trace(images[a]))
        if dev > trace_dev:
            trace_dev = dev
            witnesses["trace"] = a
    for a in K:
        for b in K:
            dev = distance(lookup(compose(a, b)), compose(images[a], images[b]))
            if dev > prod_dev:
                prod_dev = dev
                witnesses["product"] = (a, b)
            dev = abs(distance(a, b) - distance(images[a], images[b]))
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


@pytest.mark.parametrize("stem", list(ALMOST_CASES))
def test_almost_report_matches_reference(stem):
    pi, K, epsilon = ALMOST_CASES[stem]()
    assert check_almost_morphism(pi, K, epsilon) == reference_check_almost_morphism(pi, K, epsilon)


@pytest.mark.parametrize("epsilon", [Fraction(0), HALF])
def test_empty_K_matches_reference(epsilon):
    for pi in (identity_map(REL2), {}, collapsing_pairs()[0]):
        assert check_almost_morphism(pi, [], epsilon) == reference_check_almost_morphism(pi, [], epsilon)


def ladder_pairs(K):
    """The pair list of general_map(2, 3) on K."""
    ladder = general_map(2, 3)
    return {a: ladder(a) for a in K}


# (pair list, K): the first uncovered element is a K element, or a product
INCOMPLETE_PAIR_LISTS = {
    "k-element": lambda: (ladder_pairs(all_of(REL2)[:3]), all_of(REL2)),
    "product": lambda: (ladder_pairs([swap_and_one()[0]]), [swap_and_one()[0]]),
    "empty": lambda: ({}, all_of(REL2)),
}


@pytest.mark.parametrize("case", list(INCOMPLETE_PAIR_LISTS))
def test_incomplete_pair_list_raises_like_reference(case):
    pairs, K = INCOMPLETE_PAIR_LISTS[case]()
    with pytest.raises(IncompletePairListError) as expected:
        reference_check_almost_morphism(pairs, K, HALF)
    with pytest.raises(IncompletePairListError) as got:
        check_almost_morphism(pairs, K, HALF)
    assert str(got.value) == str(expected.value)


def ladder_swap_collapsed():
    """The pair list of general_map(2, 3) on all of [[2]], with the swap
    sent to the unit's image: products through the swap now deviate."""
    swap, one = swap_and_one()
    pairs = ladder_pairs(all_of(REL2))
    pairs[swap] = pairs[one]
    return pairs, all_of(REL2), HALF


# (map or pair list, K, epsilon, (product, distance) maxima, pairs reaching
# the distance maximum): each maximum is reached at more than one pair, the
# ladder's distance maximum more than once within a row, so only the
# row-major first-reached witness matches the reference
TIED_CASES = {
    "ladder-2-3": lambda: (general_map(2, 3), all_of(REL2), HALF, (0, THIRD), 22),
    "ladder-2-3-swap-collapsed": lambda: (*ladder_swap_collapsed(), (2 * THIRD, 1), 2),
}


@pytest.mark.parametrize("case", list(TIED_CASES))
def test_tied_maxima_keep_the_first_witness(case):
    pi, K, epsilon, maxima, ties = TIED_CASES[case]()
    report = check_almost_morphism(pi, K, epsilon)
    assert (report.max_product_deviation, report.max_distance_deviation) == maxima
    f = pi if isinstance(pi, SemigroupMap) else pi.__getitem__
    reached = [(a, b) for a in K for b in K if abs(distance(a, b) - distance(f(a), f(b))) == maxima[1]]
    assert len(reached) == ties and report.witnesses["distance"] == reached[0]
    assert report == reference_check_almost_morphism(pi, K, epsilon)


def test_almost_morphism_runs_without_bisection_algebra(monkeypatch):
    # an arrow map and a pair list both run on codes: no Bisection is built
    m = embed_connected(GROUPOIDS["z2y2"])
    K = all_of(GROUPOIDS["z2y2"])
    pairs = ladder_pairs(all_of(REL2))
    built = count_calls(monkeypatch, Bisection, "__post_init__")
    assert check_almost_morphism(m, K, Fraction(1, 100)).passed
    report = check_almost_morphism(pairs, list(pairs), HALF)
    assert report.passed and report.max_trace_deviation == THIRD
    assert built == []


@pytest.mark.parametrize("stem", list(ALMOST_CASES))
def test_almost_report_matches_golden(stem):
    pi, K, epsilon = ALMOST_CASES[stem]()
    report = check_almost_morphism(pi, K, epsilon)
    assert dumps(almost_report_to_json(report)) == (GOLDEN_DIR / f"{stem}.json").read_text()


@pytest.mark.parametrize("stem", ["verify-connected-z2y2", "verify-pairs-n2-n3"])
def test_verify_output_matches_golden(stem, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOFICLAB_SEED", raising=False)
    argv, code = write_verify_inputs(tmp_path)[stem]
    assert cli_main(argv) == code
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{stem}.json").read_text()


def test_verify_all_of_K_runs_on_codes(tmp_path, monkeypatch, capsys):
    # `--K all` hands the codes of [[G]] to the certificate, and the
    # connected map's arrow table is checked on its arrows: no Bisection
    monkeypatch.chdir(tmp_path)
    argv, code = write_verify_inputs(tmp_path)["verify-connected-z2y2"]
    built = count_calls(monkeypatch, Bisection, "__post_init__")
    assert cli_main(argv) == code
    assert built == []
    capsys.readouterr()


# The ladder suite, and `soficlab embed --kind ladder`, against reports
# written by the partial-injection distortion code that the packed one
# replaced: (n, targets p, budget or None for the default). The sampled
# reports (ladder-n4-sampled, ladder-n5-sampled, embed-ladder-n5) were
# rewritten in trace_sup only when the ladder took the certificate's pool
# and pairs (verify.pool_pairs): that pool holds the unit, so each sampled
# trace_sup is the exact (p mod n)/p, where the ladder's own draws had
# under-reported it; observed_sup, pairs_tested and the verdicts stayed.
LADDER_CASES = {
    "ladder-n1": (1, range(1, 5), None),
    "ladder-n2": (2, range(2, 13), None),
    "ladder-n3": (3, range(3, 31), None),
    "ladder-n4-sampled": (4, range(4, 10), SuiteBudget(exhaustive_cap=100, sample_count=50, seed=5)),
    # 1546^2 pairs exceed the default cap
    "ladder-n5-sampled": (5, range(5, 10), None),
}
LADDER_CLI_CASES = {
    "embed-ladder-n3": ["--n", "3", "--p-list", "5,7,12"],
    "embed-ladder-n5": ["--n", "5", "--p-list", "6,11"],
}


@pytest.mark.parametrize("stem", list(LADDER_CASES))
def test_ladder_report_matches_golden(stem):
    n, targets, budget = LADDER_CASES[stem]
    report = run_suite("ladder", budget, n=n, p_list=list(targets))
    assert dumps(suite_result_to_json(report)) == (GOLDEN_DIR / f"{stem}.json").read_text()


@pytest.mark.parametrize("stem", list(LADDER_CLI_CASES))
def test_embed_ladder_output_matches_golden(stem, monkeypatch, capsys):
    monkeypatch.delenv("SOFICLAB_SEED", raising=False)
    assert cli_main(["embed", "--kind", "ladder", *LADDER_CLI_CASES[stem]]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{stem}.json").read_text()


# ---------------------------------------------------------------------------
# Arrow maps against the evaluators they replaced


def reference_connected(g):
    """embed_connected, routing each arrow at every call."""
    comp = g.components[0]
    m, k = comp.group_order, comp.base_size
    codomain = full_relation(m * k)
    table = comp.table

    def point(h, y):
        return y * m + h

    def run(alpha):
        out = []
        for a in alpha.arrows:
            for h in range(m):
                out.append(Arrow(0, 0, point(table[a.g][h], a.y_to), point(h, a.y_from)))
        return Bisection(codomain, tuple(out))

    return run


def reference_convex(g):
    """embed_convex, routing the stage images through the blocks at every call."""
    corners = [corner(g, [(i, y) for y in range(c.base_size)]) for i, c in enumerate(g.components)]
    stage_maps = [reference_connected(cr.groupoid) for cr in corners]
    sizes = [c.group_order * c.base_size for c in g.components]
    weights = [c.weight for c in g.components]
    q = lcm(*(w.denominator for w in weights))
    block_owner = {}
    start = 0
    for i, w in enumerate(weights):
        for j in range(start, start + int(w * q)):
            block_owner[j] = i
        start += int(w * q)
    stride = 1
    for size in sizes:
        stride *= size
    codomain = full_relation(q * stride)

    def encode(j, xs):
        v = j
        for size, x in zip(sizes, xs):
            v = v * size + x
        return v

    def run(alpha):
        stage_images = []
        for i, (cr, stage) in enumerate(zip(corners, stage_maps)):
            part = [cr.to_corner(a) for a in alpha.arrows if a.comp == i]
            img = stage(Bisection(cr.groupoid, tuple(part)))
            stage_images.append({a.y_from: a.y_to for a in img.arrows})
        out = []
        for j in range(q):
            i = block_owner[j]
            img = stage_images[i]
            for xs in iproduct(*(range(size) for size in sizes)):
                if xs[i] in img:
                    ys = list(xs)
                    ys[i] = img[xs[i]]
                    out.append(Arrow(0, 0, encode(j, ys), encode(j, xs)))
        return Bisection(codomain, tuple(out))

    return run


def reference_pair(gn, phi_nu, gr, phi_rho, t):
    """embed_convex_pair for 0 < t < 1, of Bisection functions phi_nu on
    [[gn]] and phi_rho on [[gr]], relabelling and re-validating both
    images at every call. It rejects an argument outside the blended
    domain."""
    key = lambda c: (c.group_order, c.base_size, c.table)
    order_n = sorted(range(len(gn.components)), key=lambda i: key(gn.components[i]))
    order_r = sorted(range(len(gr.components)), key=lambda i: key(gr.components[i]))
    blended = [
        Component(gn.components[x].table, gn.components[x].base_size,
                  t * gn.components[x].weight + (1 - t) * gr.components[y].weight)
        for x, y in zip(order_n, order_r)
    ]
    domain, position = _assemble(blended)
    to_nu = {position[k]: order_n[k] for k in range(len(blended))}
    to_rho = {position[k]: order_r[k] for k in range(len(blended))}

    def run(alpha):
        if alpha.groupoid != domain:
            raise ValueError("not in the blended domain")
        a_nu = Bisection(gn, tuple(a._replace(comp=to_nu[a.comp]) for a in alpha))
        a_rho = Bisection(gr, tuple(a._replace(comp=to_rho[a.comp]) for a in alpha))
        image_nu, image_rho = phi_nu(a_nu), phi_rho(a_rho)
        codomain, (map_nu, map_rho) = convex_combination_with_maps(
            [(t, image_nu.groupoid), (1 - t, image_rho.groupoid)]
        )
        out = [a._replace(comp=map_nu[a.comp]) for a in image_nu]
        out += [a._replace(comp=map_rho[a.comp]) for a in image_rho]
        return Bisection(codomain, tuple(out))

    return run


def reference_ladder(n, p, copies):
    """step_map / general_map as the partial-injection evaluator computed
    them: the point map of the argument, copied into the first blocks."""
    codomain = full_relation(p)

    def run(alpha):
        points = {a.y_from: a.y_to for a in alpha.arrows}
        return Bisection(
            codomain,
            tuple(Arrow(0, 0, q * n + y, q * n + x) for q in range(copies) for x, y in points.items()),
        )

    return run


def reference_identity(alpha):
    return alpha


def g6(weights):
    """The benchmark's 6-unit groupoid shape: Z2xY2, [[3]] and a point."""
    parts = (connected_groupoid(cayley.cyclic(2), 2), full_relation(3), full_relation(1))
    return convex_combination(list(zip(weights, parts)))


G6_NU = (HALF, THIRD, Fraction(1, 6))
G6_RHO = (THIRD, HALF, Fraction(1, 6))
REL2 = full_relation(2)

# Z3 at 1/4, Z2xY2 at 1/4 and [[2]] at 1/2: three stages of distinct sizes
# 2, 4 and 3 (in canonical order) over q = 4 blocks
THREE_STAGES = convex_combination(
    [(Fraction(1, 4), group_groupoid(cayley.cyclic(3))), (Fraction(1, 4), GROUPOIDS["z2y2"]), (HALF, REL2)]
)


def convex_pair(nu, rho, t):
    """embed_convex_pair of the convex embeddings of nu and rho, and its
    reference on the reference convex embeddings."""
    return (
        embed_convex_pair(embed_convex(nu), embed_convex(rho), t),
        reference_pair(nu, reference_convex(nu), rho, reference_convex(rho), t),
    )


# (library map, reference function, elements to compare on)
ARROW_MAPS = {
    "connected-z2y2": lambda: (
        embed_connected(GROUPOIDS["z2y2"]),
        reference_connected(GROUPOIDS["z2y2"]),
        None,
    ),
    "convex-z2+y2": lambda: (
        embed_convex(two_components(THIRD)),
        reference_convex(two_components(THIRD)),
        None,
    ),
    "convex-z3+z2y2+y2": lambda: (embed_convex(THREE_STAGES), reference_convex(THREE_STAGES), None),
    "pair-z2+y2": lambda: (*convex_pair(two_components(THIRD), two_components(2 * THIRD), THIRD), None),
    "pair-z2+y2-swapped": lambda: (*convex_pair(two_components(2 * THIRD), two_components(THIRD), HALF), None),
    "identity-doubling-n2": lambda: (
        embed_convex_pair(identity_map(REL2), identity_map(REL2), HALF),
        reference_pair(REL2, reference_identity, REL2, reference_identity, HALF),
        None,
    ),
    "step-3": lambda: (step_map(3), reference_ladder(3, 4, 1), None),
    "ladder-3-7": lambda: (general_map(3, 7), reference_ladder(3, 7, 2), None),
    "ladder-2-9": lambda: (general_map(2, 9), reference_ladder(2, 9, 4), None),
    "convex-g6-sampled": lambda: (
        embed_convex(g6(G6_NU)),
        reference_convex(g6(G6_NU)),
        40,
    ),
    "pair-g6-sampled": lambda: (*convex_pair(g6(G6_NU), g6(G6_RHO), THIRD), 40),
}


def comparison_elements(g, sample):
    if sample is None:
        return list(enumerate_semigroup(g))
    rng = random.Random(11)
    return [unit_bisection(g)] + [sample_bisection(g, rng) for _ in range(sample)]


@pytest.mark.parametrize("case", list(ARROW_MAPS))
def test_arrow_map_matches_reference(case):
    # a reference image equals the map's only on the map's codomain
    m, ref, sample = ARROW_MAPS[case]()
    assert len(m.arrow_images) == m.domain.n_arrows
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    scatter = m.packed(dom, cod)
    for a in comparison_elements(m.domain, sample):
        image = ref(a)
        assert m(a) == image
        assert scatter(dom.encode(a)) == cod.encode(image)


@pytest.mark.parametrize("regime", list(EMBEDDING_BUDGETS))
def test_arrow_map_certificate_matches_reference_map(regime):
    m, ref, _ = ARROW_MAPS["pair-z2+y2"]()
    assert_matches_reference(m, EMBEDDING_BUDGETS[regime], ref)


def test_convex_embedding_is_one_table(monkeypatch):
    # one SemigroupMap, so one table check, and no corner groupoid
    built, corners = [], []
    init, make_corner = SemigroupMap.__init__, constructions.corner

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SemigroupMap, "__init__", counted_init)
    monkeypatch.setattr(constructions, "corner", lambda *args: corners.append(args) or make_corner(*args))
    m = embed_convex(g6(G6_NU))
    assert len(built) == 1 and corners == []
    assert m.label == "convex[q=6]" and m.codomain == full_relation(72)


def test_packed_rejects_kernels_of_other_groupoids():
    m = identity_map(REL2)
    with pytest.raises(ValueError, match="packed kernels"):
        m.packed(PackedMonoid(full_relation(3)), PackedMonoid(REL2))


@pytest.mark.parametrize(
    "image,message",
    [
        # every arrow onto the unit at 0: two pieces at one source
        (lambda a: (Arrow(0, 0, 0, 0),), "source map not injective"),
        # every arrow to range 0 from its own source: two pieces at one range
        (lambda a: (Arrow(0, 0, 0, a.y_from),), "range map not injective"),
    ],
    ids=["source", "range"],
)
def test_colliding_arrow_map_raises(image, message):
    # every entry is a bisection; two arrows that can share one collide
    with pytest.raises(ValueError, match=message):
        arrow_map(REL2, REL2, image, "colliding")


def test_images_overlapping_only_at_a_shared_source_are_built():
    # alpha -> s(alpha), arrow by arrow: the images of two arrows meet
    # exactly when the arrows share a source, so no bisection holds both
    g = GROUPOIDS["z2y2"]
    m = arrow_map(g, g, lambda a: (g.unit_arrow(a.source),), "source")
    dom = PackedMonoid(g)
    scatter = m.packed(dom, dom)
    for a in enumerate_semigroup(g):
        assert m(a) == idempotent(g, source_units(a))
        assert scatter(dom.encode(a)) == dom.encode(m(a))
    for budget in EMBEDDING_BUDGETS.values():
        assert_matches_reference(m, budget)
        report = check_embedding(m, budget)
        assert not report.multiplicative and report.unit_preserved


def test_arrow_map_validates_each_entry():
    with pytest.raises(ValueError, match="not in the groupoid"):
        arrow_map(REL2, REL2, lambda a: (Arrow(0, 0, 2, 0),), "escaping")
    with pytest.raises(ValueError, match="source map not injective"):
        arrow_map(REL2, REL2, lambda a: (Arrow(0, 0, 0, 0), Arrow(0, 0, 1, 0)), "split")


def reference_arrow_table(domain, codomain, image_of_arrow) -> dict:
    """The table check arrow_map made before it checked tables on their
    arrows: each entry built as a Bisection of the codomain, then two
    domain arrows that can share a bisection must have images with
    disjoint sources and disjoint ranges."""
    table = {a: Bisection(codomain, tuple(image_of_arrow(a))).arrows for a in domain.arrows()}
    for side in ("source", "range"):
        hits = {}
        for a, image in table.items():
            for b in image:
                hits.setdefault(getattr(b, side), []).append(a)
        for arrows in hits.values():
            for a, b in combinations(arrows, 2):
                if a.source != b.source and a.range != b.range:
                    raise ValueError(f"{side} map not injective")
    return table


TABLE_CODOMAINS = {"n2": REL2, "n3": full_relation(3), "z2y2": GROUPOIDS["z2y2"]}
# outside each of them: no component 1, no point 5, no label 2, a negative label
ESCAPING_ARROWS = [Arrow(1, 0, 0, 0), Arrow(0, 0, 5, 0), Arrow(0, 2, 0, 0), Arrow(0, -1, 0, 0)]
TABLE_MESSAGE = r"(source map not injective|range map not injective|arrow Arrow\(.*\) not in the groupoid)"


@st.composite
def arrow_tables(draw):
    """A groupoid g and a table on its arrows into g: the identity's or the
    empty table, with up to four entries replaced by 0-3 arrows each, some
    of them outside g and some repeated."""
    g = TABLE_CODOMAINS[draw(st.sampled_from(sorted(TABLE_CODOMAINS)))]
    arrows = sorted(g.arrows())
    identity = draw(st.booleans())
    table = {a: (a,) if identity else () for a in arrows}
    entry = st.lists(st.sampled_from(arrows) | st.sampled_from(ESCAPING_ARROWS), max_size=3)
    table.update(draw(st.dictionaries(st.sampled_from(arrows), entry.map(tuple), max_size=4)))
    return g, table


def table_verdict(build) -> str | None:
    """None when build() returns, else its ValueError's message with the
    fields of the arrow it names, if any, left out: a table built directly
    keeps its entries unsorted, so of two arrows outside the codomain it
    may name another than arrow_map does."""
    try:
        build()
    except ValueError as exc:
        assert re.fullmatch(TABLE_MESSAGE, str(exc))
        return re.sub(r"\(.*\)", "(...)", str(exc))
    return None


@settings(max_examples=300, deadline=None)
@given(arrow_tables(), st.sampled_from(["whole", "dropped", "foreign"]), st.data())
def test_arrow_map_accepts_the_tables_its_reference_accepts(case, keys, data):
    # arrow_map and the SemigroupMap built directly on the table give the
    # reference's verdict alike; a table with one key dropped, or one key
    # that is no arrow of g, is rejected on that key whatever its entries
    g, table = case
    if keys != "whole":
        if keys == "dropped":
            key = data.draw(st.sampled_from(sorted(table)))
            del table[key]
            message = f"domain arrow {key} has no image in the table"
        else:
            key = data.draw(st.sampled_from(ESCAPING_ARROWS))
            table[key] = ()
            message = f"table key {key} not an arrow of the domain"
        with pytest.raises(ValueError) as err:
            SemigroupMap(g, g, "generated", table)
        assert str(err.value) == message
        return
    built = table_verdict(lambda: arrow_map(g, g, table.__getitem__, "generated"))
    assert table_verdict(lambda: SemigroupMap(g, g, "generated", table)) == built
    try:
        expected = reference_arrow_table(g, g, table.__getitem__)
    except ValueError as exc:
        assert re.fullmatch(TABLE_MESSAGE, str(exc)) and built is not None
    else:
        assert built is None
        assert arrow_map(g, g, table.__getitem__, "generated").arrow_images == expected
        assert SemigroupMap(g, g, "generated", table).arrow_images == table


# (the one nonempty entries of a table on [[2]], the message): each table
# has a single defect, and both checks name it alike
ONE_DEFECT_TABLES = {
    "outside": ({Arrow(0, 0, 1, 0): (Arrow(0, 0, 2, 0),)}, "arrow Arrow(comp=0, g=0, y_to=2, y_from=0) not in the groupoid"),
    "repeated": ({Arrow(0, 0, 1, 0): (Arrow(0, 0, 1, 0), Arrow(0, 0, 1, 0))}, "source map not injective"),
    "one-entry-range": ({Arrow(0, 0, 1, 0): (Arrow(0, 0, 0, 0), Arrow(0, 0, 0, 1))}, "range map not injective"),
    # the unit arrows at 0 and at 1 can share a bisection
    "two-entries-source": (
        {Arrow(0, 0, 0, 0): (Arrow(0, 0, 0, 0),), Arrow(0, 0, 1, 1): (Arrow(0, 0, 1, 0),)},
        "source map not injective",
    ),
    "two-entries-range": (
        {Arrow(0, 0, 0, 0): (Arrow(0, 0, 0, 0),), Arrow(0, 0, 1, 1): (Arrow(0, 0, 0, 1),)},
        "range map not injective",
    ),
}


@pytest.mark.parametrize("case", list(ONE_DEFECT_TABLES))
def test_a_single_defect_keeps_its_message(case):
    entries, message = ONE_DEFECT_TABLES[case]
    image = lambda a: entries.get(a, ())
    direct = lambda image: SemigroupMap(REL2, REL2, "one defect", {a: image(a) for a in REL2.arrows()})
    for check in (partial(reference_arrow_table, REL2, REL2), partial(arrow_map, REL2, REL2, label="one defect"), direct):
        with pytest.raises(ValueError) as err:
            check(image)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# The arrow certificate against the product pass it replaces


def product_pass(m: SemigroupMap) -> Fraction:
    """The product maximum of check_embedding's product pass on m, run
    whatever the certificate says: over every pair of [[m.domain]] when
    they number at most 400,000 (all but the G6 maps), and otherwise over
    the 500 seeded pairs of the default budget."""
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    pool, pairs, _, _ = verify.pool_pairs(dom, SuiteBudget(exhaustive_cap=400_000))
    _, (prod_dev, _, _), _ = verify._deviations(m.packed(dom, cod), dom, cod, pool, pairs)
    return prod_dev


def reference_arrow_certificate(m: SemigroupMap, budget: SuiteBudget | None = None) -> ArrowCertificate:
    """arrow_certificate with the composable pass on sparse pieces, as it
    was before that pass read the images from the scatter: each image is
    its sorted (source unit, code) pieces on the codomain's kernel, and
    T(a)T(b) composes T(a)'s code over T(b)'s pieces, visiting the pairs in
    the same order. The cap and the non-composable pass are copied from
    the library unchanged."""
    cap = (budget or SuiteBudget()).exhaustive_cap
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    pairs = sum(c.group_order**2 * c.base_size**3 for c in m.domain.components)
    if pairs > cap:
        return ArrowCertificate("not run", pairs)
    sources, ranges = constructions.image_hits(m.arrow_images)
    for v, starts in sources.items():
        ends = ranges.get(v)
        if not ends:
            continue
        targets = {b.range for b in ends}
        a = starts[0] if len(targets) > 1 else next((a for a in starts if a.source not in targets), None)
        if a is not None:
            b = next(b for b in ends if b.range != a.source)
            return ArrowCertificate("refuted", pairs, "non-composable", (a, b))

    def mul_pieces(pm, a, pieces):
        # a*b for b given by its pieces, the pieces of the product where it
        # is defined, in the order of b's
        P, R, L = pm._P, pm._R, pm._L
        return tuple([(u, z) for u, x in pieces if (z := P[a[R[x]]][L[x]]) >= 0])

    place, order = dom.place, dom.order
    arrows = list(m.domain.arrows())
    placed = {a: tuple(sorted(map(cod.place, image))) for a, image in m.arrow_images.items()}
    pieces = {place(a): placed.get(a, ()) for a in arrows}
    arrow_at = dict(zip(map(place, arrows), arrows))
    into = {}  # domain unit -> the pieces of the arrows with that range
    for u, x in pieces:
        into.setdefault(x // order, []).append((u, x))
    for (u, x), image in pieces.items():
        partners = into.get(u, [])
        a_code = list(dom.zero)
        a_code[u] = x
        ta = [-1] * cod.n_units
        for v, c in image:
            ta[v] = c
        for b, ab in zip(partners, mul_pieces(dom, a_code, partners)):
            if mul_pieces(cod, ta, pieces[b]) != pieces[ab]:
                return ArrowCertificate("refuted", pairs, "composable", (arrow_at[u, x], arrow_at[b]))
    return ArrowCertificate("certified", pairs)


def redirect_entry(m: SemigroupMap) -> SemigroupMap:
    """A broken table: the arrow 1 <- 0 of label 0 takes the image of its
    label-1 twin, which has the same source and range, so the table is
    still a map of bisections."""
    a = Arrow(0, 0, 1, 0)
    return arrow_map(m.domain, m.codomain, lambda b: m.arrow_images[a._replace(g=1) if b == a else b], "redirected")


CERTIFICATE_MAPS = {
    **{f"arrow-map-{case}": (lambda case=case: ARROW_MAPS[case]()[0]) for case in ARROW_MAPS},
    **{f"embedding-{case}": EMBEDDINGS[case] for case in EMBEDDINGS},
    **{f"ladder-{n}-{p}": partial(general_map, n, p) for n in range(1, 5) for p in range(n, n + 6)},
    **{f"step-{n}": partial(step_map, n) for n in range(1, 5)},
    "redirected-connected-z2y2": lambda: redirect_entry(embed_connected(GROUPOIDS["z2y2"])),
}
REFUTED = {
    "embedding-truncated-connected-z2y2": "composable",
    "embedding-twisted-ladder-3-7": "composable",
    "redirected-connected-z2y2": "composable",
}


@pytest.mark.parametrize("case", list(CERTIFICATE_MAPS))
def test_arrow_certificate_agrees_with_the_product_pass(case):
    m = CERTIFICATE_MAPS[case]()
    cert = arrow_certificate(m)
    assert (cert.verdict, cert.check) == (("refuted", REFUTED[case]) if case in REFUTED else ("certified", None))
    assert (cert.verdict == "certified") == (product_pass(m) == 0)
    if cert.verdict == "refuted":
        # the witness breaks the map on its two arrows: f(a)f(b) != f(ab)
        a, b = (Bisection(m.domain, (x,)) for x in cert.witness)
        assert compose(m(a), m(b)) != m(compose(a, b))


def overlapping_map() -> SemigroupMap:
    """Built without arrow_map: every arrow of [[2]] onto the unit at 0.
    The images of 0 <- 1 and 1 <- 0 share a source, so it raises."""
    return SemigroupMap(REL2, REL2, "overlapping", {a: (Arrow(0, 0, 0, 0),) for a in REL2.arrows()})


def source_map() -> SemigroupMap:
    """alpha -> s(alpha) on Z2xY2: the images of 0 <- 1 and 1 <- 0 meet at
    the unit 1, so T(0 <- 1)T(0 <- 1) is not empty."""
    g = GROUPOIDS["z2y2"]
    return arrow_map(g, g, lambda a: (g.unit_arrow(a.source),), "source")


def test_overlapping_images_are_refuted():
    # a table whose images collide makes no map, so no certificate runs
    # on one
    with pytest.raises(ValueError, match="^source map not injective$"):
        overlapping_map()


def test_non_composable_pairs_are_refuted():
    m = source_map()
    g = m.domain
    cert = arrow_certificate(m)
    assert (cert.verdict, cert.check) == ("refuted", "non-composable")
    a, b = cert.witness
    assert g.mul(a, b) is None
    assert compose(m(Bisection(g, (a,))), m(Bisection(g, (b,)))).arrows
    assert product_pass(m) > 0


@pytest.mark.parametrize("regime", list(EMBEDDING_BUDGETS))
def test_certificate_over_the_cap_does_not_run(regime):
    # Z2xY2 has 2^2 * 2^3 = 32 composable pairs of arrows
    m = embed_connected(GROUPOIDS["z2y2"])
    budget = EMBEDDING_BUDGETS[regime]
    assert arrow_certificate(m, SuiteBudget(exhaustive_cap=32)) == ("certified", 32, None, None)
    for cap in (31, 20):
        tight = SuiteBudget(exhaustive_cap=cap, sample_count=budget.sample_count, seed=budget.seed)
        assert arrow_certificate(m, tight) == ("not run", 32, None, None)
        assert check_embedding(m, tight) == reference_check_embedding(m, tight)


# every certificate case and the maps it refutes on each of its passes,
# and the overlapping table, which the constructor rejects
REFERENCE_CERTIFICATE_MAPS = {**CERTIFICATE_MAPS, "overlapping": overlapping_map, "source": source_map}


@pytest.mark.parametrize("case", list(REFERENCE_CERTIFICATE_MAPS))
def test_arrow_certificate_equals_its_sparse_reference(case):
    # at the default cap, and at caps 31 and 20, below the 32 composable
    # pairs of Z2xY2, where most of these certificates do not run
    if case == "overlapping":
        with pytest.raises(ValueError, match="^source map not injective$"):
            overlapping_map()
        return
    m = REFERENCE_CERTIFICATE_MAPS[case]()
    for budget in (SuiteBudget(), SuiteBudget(exhaustive_cap=31), SuiteBudget(exhaustive_cap=20)):
        assert arrow_certificate(m, budget) == reference_arrow_certificate(m, budget)


@settings(max_examples=100, deadline=None)
@given(arrow_tables())
def test_arrow_certificate_on_generated_tables(case):
    # the tables that arrow_map accepts: the certificate equals its
    # reference, and certifies exactly the maps the product pass finds
    # multiplicative
    g, table = case
    try:
        m = arrow_map(g, g, table.__getitem__, "generated")
    except ValueError:
        assume(False)
    cert = arrow_certificate(m)
    assert cert == reference_arrow_certificate(m)
    assert (cert.verdict == "certified") == (product_pass(m) == 0)


def record_products(monkeypatch) -> list:
    """The groupoids of the kernels whose mul or left_row runs."""
    calls = []
    for name in ("mul", "left_row"):
        method = getattr(PackedMonoid, name)
        wrapped = lambda self, *args, method=method: calls.append(self.groupoid) or method(self, *args)
        monkeypatch.setattr(PackedMonoid, name, wrapped)
    return calls


# all 289 pairs of Z2xY2's 17 elements, and 50 of them; either cap fits
# the 32 composable pairs of arrows that the certificate charges. Only the
# product pass multiplies domain codes: the certificate takes the left
# rows of codomain codes, and multiplies domain arrows by
# FiniteGroupoid.mul
@pytest.mark.parametrize("budget", [SuiteBudget(), SuiteBudget(exhaustive_cap=100, sample_count=50, seed=3)])
def test_certified_maps_skip_the_product_pass(budget, monkeypatch):
    exact = embed_connected(GROUPOIDS["z2y2"])
    broken = truncate_entries(exact)
    calls = record_products(monkeypatch)
    check_embedding(exact, budget)
    check_almost_morphism(exact, all_of(exact.domain), HALF)
    assert exact.domain not in calls
    check_embedding(broken, budget)
    assert broken.domain in calls
    calls.clear()
    check_almost_morphism(broken, all_of(broken.domain), HALF)
    assert broken.domain in calls


# Z2xY2's 32 composable pairs of arrows against the pairs the product pass
# would run: over 25 pairs of a 5-element K and 20 sampled pairs the
# certificate does not run and the pass does; at 36 and 40 it replaces
# the pass, and check_embedding takes the closed form, whose count is the
# 32 pairs charged. The reports equal the references either way
@pytest.mark.parametrize("size,runs", [(5, True), (6, False)])
def test_certificate_runs_within_the_pairs_it_replaces(size, runs, monkeypatch):
    m = embed_connected(GROUPOIDS["z2y2"])
    K = all_of(m.domain)[:size]
    budget = SuiteBudget(exhaustive_cap=100, sample_count=20 if runs else 40, seed=3)
    expected = reference_check_almost_morphism(m, K, HALF)
    calls = record_products(monkeypatch)
    assert check_almost_morphism(m, K, HALF) == expected
    assert (m.domain in calls) == runs
    calls.clear()
    report = check_embedding(m, budget)
    assert report.pair_count == (budget.sample_count if runs else 32)
    assert (m.domain in calls) == runs
    assert_matches_reference(m, budget)


def test_one_check_places_each_image_arrow_once(monkeypatch):
    # the scatter places the table on the codomain, and the certificate
    # reads its images from that scatter
    m = ARROW_MAPS["pair-g6-sampled"]()[0]
    calls = []
    place = PackedMonoid.place
    monkeypatch.setattr(PackedMonoid, "place", lambda self, a: calls.append(self.groupoid) or place(self, a))
    check_embedding(m)
    assert calls.count(m.codomain) == sum(map(len, m.arrow_images.values()))


def test_each_table_is_checked_once_when_its_map_is_built(monkeypatch):
    # building a map, through arrow_map or directly, checks its table once;
    # the certificates take it as checked. A module that imports the check
    # by name calls its own binding, so verify's is counted too
    calls = []
    check = constructions.table_collision
    counted = lambda hits: calls.append(hits) or check(hits)
    monkeypatch.setattr(constructions, "table_collision", counted)
    monkeypatch.setattr(verify, "table_collision", counted, raising=False)
    g = GROUPOIDS["z2y2"]
    direct = lambda: SemigroupMap(g, g, "direct", {a: (a,) for a in g.arrows()})
    for build in (lambda: embed_connected(g), lambda: identity_map(g), direct):
        calls.clear()
        m = build()
        assert len(calls) == 1
        calls.clear()
        assert arrow_certificate(m).verdict == "certified"
        assert check_embedding(m).passed
        assert calls == []


def test_image_hits_run_once_per_map(monkeypatch):
    # the constructor's table check builds the image hits and keeps them on
    # the map, and the certificate reads them there: once per map built,
    # and once per target of the ladder, none in the checks. A module that
    # imports image_hits by name calls its own binding, so verify's is
    # counted too
    calls = []
    hits = constructions.image_hits
    counted = lambda table: calls.append(table) or hits(table)
    monkeypatch.setattr(constructions, "image_hits", counted)
    monkeypatch.setattr(verify, "image_hits", counted, raising=False)
    for case in ("connected-z2y2", "convex-z2+y2", "index-s3-z3", "step-2", "ladder-3-7"):
        calls.clear()
        check_embedding(EMBEDDINGS[case]())
        assert len(calls) == 1, case
    left, right = embed_convex(two_components(THIRD)), embed_convex(two_components(2 * THIRD))
    calls.clear()
    check_embedding(embed_convex_pair(left, right, THIRD))
    assert len(calls) == 1
    calls.clear()
    run_suite("ladder", n=3, p_list=list(range(4, 31)))
    assert len(calls) == 27


def test_every_golden_ladder_map_is_certified():
    # every map the ladder goldens measure is multiplicative, as the
    # certificate proves, so none of their rows reads a product deviation
    stages = {(n, p) for n, targets, _ in LADDER_CASES.values() for p in targets}
    for args in LADDER_CLI_CASES.values():
        n, p_list = int(args[1]), args[3]
        stages |= {(n, int(p)) for p in p_list.split(",")}
    assert len(stages) == 55
    for n, p in sorted(stages):
        assert arrow_certificate(general_map(n, p)).verdict == "certified", (n, p)


# ---------------------------------------------------------------------------
# Exact deviations from the arrow table against the exhaustive element pass


def element_pass(m: SemigroupMap):
    """(trace sup, distance sup, unit preserved, injective) of m over every
    element and every pair of [[m.domain]], by the metric pass of
    check_embedding's element path."""
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    pool = list(semigroup_codes(dom))
    f = m.packed(dom, cod)
    images = list(map(f, pool))
    every = range(len(pool))
    trace_dev, dist_dev, _ = verify.metric_deviations(dom, cod, pool, images, [(i, every) for i in every])
    return trace_dev, dist_dev, f(dom.one) == cod.one, len(set(images)) == len(pool)


def closed_form(m: SemigroupMap):
    """What check_embedding's closed form gives m, in element_pass's order."""
    report = check_embedding(m)
    assert report.method == "arrow-table" and report.exhaustive and report.max_product_deviation == 0
    return (report.max_trace_deviation, report.max_distance_deviation, report.unit_preserved, report.injective)


Z2Y2 = GROUPOIDS["z2y2"]
BROKEN = ("truncated-", "collapsed-", "twisted-")
# sofic approximations of Z2xY2: [[Z2xY2]] -> [[4]] -> [[p]], whose trace
# and distance deviations are both (p mod 4)/p
COMPOSITE_ANCHORS = dict(zip(range(4, 10), map(Fraction, ["0", "1/5", "1/3", "3/7", "0", "1/9"])))
CLOSED_FORM_MAPS = {
    **{f"arrow-map-{case}": (lambda case=case: ARROW_MAPS[case]()[0]) for case in ARROW_MAPS},
    # the broken tables are refuted, or weigh a unit, so take no closed form
    **{f"embedding-{case}": EMBEDDINGS[case] for case in EMBEDDINGS if not case.startswith(BROKEN)},
    **{f"ladder-{n}-{p}": partial(general_map, n, p) for n in range(1, 5) for p in range(n, n + 6)},
    **{
        f"composite-z2y2-{p}": (lambda p=p: compose_maps(general_map(4, p), embed_convex(Z2Y2)))
        for p in COMPOSITE_ANCHORS
    },
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_MAPS))
def test_closed_form_equals_the_exhaustive_element_pass(case):
    m = CLOSED_FORM_MAPS[case]()
    exact = closed_form(m)
    assert exact == element_pass(m)
    if case.startswith("composite"):
        anchor = COMPOSITE_ANCHORS[m.codomain.n_units]
        assert exact[:2] == (anchor, anchor)


@settings(max_examples=100, deadline=None)
@given(arrow_tables())
def test_closed_form_on_generated_tables(case):
    # the tables that arrow_map accepts: the closed form runs exactly when
    # the certificate certifies and no non-unit arrow's image holds a unit
    # arrow, and then equals the exhaustive element pass
    g, table = case
    try:
        m = arrow_map(g, g, table.__getitem__, "generated")
    except ValueError:
        assume(False)
    report = check_embedding(m)
    assert report.method == ("arrow-table" if takes_the_closed_form(m, SuiteBudget()) else "elements")
    if report.method == "arrow-table":
        assert closed_form(m) == element_pass(m)


@st.composite
def copy_maps(draw):
    """Maps that the closed form takes, of weights of both signs: copies
    of the connected-piece embedding (constructions._copies) of a small
    groupoid in a full relation, each component in 0-2 blocks of its own
    points, the blocks in any order, and 0-3 points left over."""
    g = GROUPOIDS[draw(st.sampled_from(["n2", "n3", "z2y2", "z2pt", "z2y2_y2"]))]
    sizes = [c.group_order * c.base_size for c in g.components]
    blocks = [i for i in range(len(sizes)) for _ in range(draw(st.integers(0, 2)))]
    offsets, start = [[] for _ in sizes], 0
    for i in draw(st.permutations(blocks)):
        offsets[i].append(start)
        start += sizes[i]
    points = max(start + draw(st.integers(0, 3)), 1)
    return constructions._copies(g, points, [(1, o) for o in offsets], "copies")


@settings(max_examples=100, deadline=None)
@given(copy_maps())
def test_closed_form_on_generated_copies(m):
    assert closed_form(m) == element_pass(m)


def test_a_tie_takes_the_gaining_side():
    # Z2 at 1/3 in no copy and the point at 2/3 on all three points of
    # [[3]]: the weights are -1/3 and +1/3, a tie, so A is the point
    g = GROUPOIDS["z2pt"]
    layout = [(1, [0, 1, 2] if c.group_order == 1 else []) for c in g.components]
    m = constructions._copies(g, 3, layout, "tied")
    one_a = idempotent(g, [u for u in g.units() if g.components[u[0]].group_order == 1])
    report = check_embedding(m)
    assert report.method == "arrow-table" and report.max_trace_deviation == THIRD
    assert report.witnesses == {"trace": one_a, "distance": (one_a, Bisection(g, ()))}
    assert_matches_reference(m, SuiteBudget())


def drop_one_point(m: SemigroupMap) -> SemigroupMap:
    """m with the first arrow of T(1_u) dropped, u the point of m's first
    one-point component of trivial group: its unit arrow is its only
    arrow, so the map stays multiplicative."""
    ci = next(i for i, c in enumerate(m.domain.components) if (c.base_size, c.group_order) == (1, 1))
    a = m.domain.unit_arrow((ci, 0))
    return SemigroupMap(m.domain, m.codomain, f"dropped.{m.label}", {**m.arrow_images, a: m.arrow_images[a][1:]})


MUTATIONS = {
    "ladder-1-5": lambda: general_map(1, 5),
    "ladder-1-1": lambda: general_map(1, 1),
    "convex-pt+y2": lambda: embed_convex(convex_combination([(THIRD, full_relation(1)), (1 - THIRD, REL2)])),
    "convex-g6": lambda: embed_convex(g6(G6_NU)),
}


@pytest.mark.parametrize("case", list(MUTATIONS))
def test_a_dropped_point_moves_both_passes_alike(case):
    m = MUTATIONS[case]()
    before, mutated = closed_form(m), drop_one_point(m)
    after = closed_form(mutated)
    assert after == element_pass(mutated)
    assert after[0] != before[0]


def record_passes(monkeypatch) -> list:
    """The names of the element path's pool and metric pass as they run."""
    calls = []
    for module, name in ((verify, "_pool"), (verify, "metric_deviations")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


def test_the_closed_form_builds_no_pool(monkeypatch):
    calls = record_passes(monkeypatch)
    exact = embed_connected(Z2Y2)
    assert check_embedding(exact).method == "arrow-table"
    assert symmetric.distortion_report(3, 7).method == "arrow-table"
    assert calls == []
    # the collapsed map is certified, but its non-unit arrows weigh; the
    # truncated map is refuted. Both run the element pass
    collapsed, truncated = forget_labels(exact), truncate_entries(exact)
    assert [arrow_certificate(m).verdict for m in (collapsed, truncated)] == ["certified", "refuted"]
    for m in (collapsed, truncated):
        calls.clear()
        assert check_embedding(m).method == "elements"
        assert "_pool" in calls and "metric_deviations" in calls


ELEMENT_PAIR_BUDGETS = [
    SuiteBudget(),
    SMALL,
    BOUNDARY,
    *REFERENCE_BUDGETS.values(),
    SuiteBudget(exhaustive_cap=100, sample_count=50, seed=5),
    SuiteBudget(exhaustive_cap=2000, sample_count=40, seed=3),
    SuiteBudget(exhaustive_cap=48, sample_count=10, seed=2),
    SuiteBudget(exhaustive_cap=49),
    SuiteBudget(exhaustive_cap=31),
    SuiteBudget(exhaustive_cap=20, sample_count=500),
    SuiteBudget(exhaustive_cap=1, sample_count=1),
]


@pytest.mark.parametrize("key", [*GROUPOIDS, "n1", "g6"])
def test_element_pairs_count_what_pool_pairs_runs(key):
    g = {"n1": full_relation(1), "g6": g6(G6_NU), **GROUPOIDS}[key]
    pm = PackedMonoid(g)
    for budget in ELEMENT_PAIR_BUDGETS:
        assert verify.element_pairs(g, budget) == verify.pool_pairs(pm, budget)[3], budget


# ---------------------------------------------------------------------------
# Finite index and the full-group completion: goldens written by the
# Bisection-based block matrices and powers-of-gamma^-1 completion that the
# packed tables and chain-following replaced

Z4 = group_groupoid(cayley.cyclic(4))
S3 = group_groupoid(cayley.symmetric(3))


def invalid_system():
    """The identity twice on [[2]]: the translates overlap and the lift
    collides."""
    one = unit_bisection(REL2)
    return TransversalSystem(REL2, unit_subgroupoid(REL2), (one, one))


# golden file stem -> (groupoid, subgroupoid, system or None to search one)
FINITE_INDEX_CASES = {
    "finite-index-n3-units": lambda: (GROUPOIDS["n3"], unit_subgroupoid(GROUPOIDS["n3"]), None),
    "finite-index-z2y2-units": lambda: (GROUPOIDS["z2y2"], unit_subgroupoid(GROUPOIDS["z2y2"]), None),
    "finite-index-s3-z3": lambda: (S3, group_subgroupoid(S3, [0, 3, 4]), None),
    "finite-index-z4-02": lambda: (Z4, group_subgroupoid(Z4, [0, 2]), None),
    "finite-index-invalid-n2": lambda: (REL2, unit_subgroupoid(REL2), invalid_system()),
}
EXTENSION_CASES = {
    "extension-n3": full_relation(3),
    # 1,441,729 elements: sampled at the default budget
    "extension-n8-sampled": full_relation(8),
    "extension-z2y2+pt": convex_combination(
        [(HALF, connected_groupoid(cayley.cyclic(2), 2)), (HALF, full_relation(1))]
    ),
}
S3Y4 = connected_groupoid(cayley.symmetric(3), 4)
# a chain 0 -> 1 -> 2 with isotropy labels, and unit 3 untouched
EXTEND_GAMMA = {"arrows": [[0, 2, 1, 0], [0, 4, 2, 1]]}


def finite_index_report(stem, budget=None) -> str:
    g, sub, system = FINITE_INDEX_CASES[stem]()
    params = {"g": g, "sub_arrows": sub} if system is None else {"g": g, "sub_arrows": sub, "system": system}
    return dumps(suite_result_to_json(run_suite("finite-index", budget, **params)))


def extension_report(stem) -> str:
    return dumps(suite_result_to_json(run_suite("extension", None, g=EXTENSION_CASES[stem])))


def write_extend_inputs(directory: Path) -> list:
    """Write the S3xY4 groupoid and the bisection into directory and return
    the `soficlab extend` arguments, which name them by relative path."""
    (directory / "s3y4.json").write_text(dumps(groupoid_to_json(S3Y4)))
    (directory / "gamma.json").write_text(dumps(EXTEND_GAMMA))
    return ["extend", "s3y4.json", "gamma.json"]


@pytest.mark.parametrize("stem", list(FINITE_INDEX_CASES))
def test_finite_index_report_matches_golden(stem):
    assert finite_index_report(stem) == (GOLDEN_DIR / f"{stem}.json").read_text()


# at SMALL, the pairs of the block identity are sampled, over a sampled pool
# of [[3]] and over all 7 elements of [[S3]]; these goldens were written by
# the block identity that took each product a_ij b_jl by PackedMonoid.mul,
# and its counts rewritten when it came to count pairs, not blocks
@pytest.mark.parametrize("stem", ["finite-index-n3-units", "finite-index-s3-z3"])
def test_sampled_finite_index_report_matches_golden(stem):
    assert finite_index_report(stem, SMALL) == (GOLDEN_DIR / f"{stem}-sampled.json").read_text()


@pytest.mark.parametrize("stem", list(EXTENSION_CASES))
def test_extension_report_matches_golden(stem):
    assert extension_report(stem) == (GOLDEN_DIR / f"{stem}.json").read_text()


def test_extend_output_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOFICLAB_SEED", raising=False)
    assert cli_main(write_extend_inputs(tmp_path)) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "extend-s3y4.json").read_text()


# ---------------------------------------------------------------------------
# Block matrices, the lift and the completion against the Bisection references


def reference_blocks(alpha, system):
    """alpha_{i,j} = psi_i^-1 alpha psi_j cap H by two composes per block."""
    g = alpha.groupoid
    out = []
    for psi_i in system.transversals:
        inv_i = inverse(psi_i)
        out.append(
            [
                Bisection(g, tuple(a for a in compose(compose(inv_i, alpha), psi_j).arrows if a in system.sub_arrows))
                for psi_j in system.transversals
            ]
        )
    return out


def reference_block_violation(alpha, system):
    """block_components' checks on Bisections: the first failure or None."""
    blocks, co_blocks = reference_blocks(alpha, system), reference_blocks(inverse(alpha), system)
    n = system.index
    for i in range(n):
        for j in range(n):
            if inverse(blocks[i][j]) != co_blocks[j][i]:
                return f"block exchange law fails at ({i},{j})"
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if source_units(blocks[i][j]) & source_units(blocks[k][j]):
                    return f"column {j}: blocks {i} and {k} share a source"
    for i in range(n):
        for j in range(n):
            for l in range(j + 1, n):
                if range_units(blocks[i][j]) & range_units(blocks[i][l]):
                    return f"row {i}: blocks {j} and {l} share a range"
    return None


def reference_lift(system, phi=None):
    """finite_index_map as the per-element evaluator computed it, with the
    map phi of the subgroupoid that it once took as a parameter: the union
    of phi(alpha_{i,j}) x E_{i,j} from reference_blocks, phi the identity
    when None."""
    g = system.groupoid
    dec, raw_ids = subgroupoid_as_groupoid(g, system.sub_arrows)
    ps = product_groupoid(dec.groupoid if phi is None else phi.codomain, full_relation(system.index))

    def image(block):
        b = Bisection(dec.groupoid, tuple(dec.iso[raw_ids[a]] for a in block.arrows))
        return b if phi is None else phi(b)

    def run(alpha):
        arrows = [
            ps.pair_arrow(c, Arrow(0, 0, i, j))
            for i, row in enumerate(reference_blocks(alpha, system))
            for j, block in enumerate(row)
            for c in image(block).arrows
        ]
        try:
            return Bisection(ps.groupoid, tuple(arrows))
        except ValueError as exc:
            raise NoTransversalError(f"lift not well-defined: {exc}") from exc

    return run


def reference_extend(gamma):
    """extend_to_full_group by powers of gamma^-1: stage n keeps the arrows
    of (gamma^-1)^n with source outside s(gamma) and range outside r(gamma)."""
    g = gamma.groupoid
    arrows = set(gamma.arrows)
    s_gamma, r_gamma = source_units(gamma), range_units(gamma)
    inv = inverse(gamma)
    power = inv
    for _ in range(g.n_arrows):
        if len(power) == 0:
            break
        arrows |= {a for a in power.arrows if a.source not in s_gamma and a.range not in r_gamma}
        power = compose(power, inv)
    arrows |= {g.unit_arrow(u) for u in g.units() if u not in s_gamma | r_gamma}
    return Bisection(g, tuple(arrows))


def system_of(stem):
    g, sub, system = FINITE_INDEX_CASES[stem]()
    return system if system is not None else find_transversals(g, sub)


@pytest.mark.parametrize("stem", list(FINITE_INDEX_CASES))
def test_block_table_match_reference(stem):
    # system.blocks, read cell by cell, against two composes per block;
    # block_components decides by checked_block_code and names the first
    # failing cell as the checks on Bisections do
    system = system_of(stem)
    g, n = system.groupoid, system.index
    pm = PackedMonoid(g)
    kernel, code = block_codes(system, pm)
    failures = 0
    for a in enumerate_semigroup(g):
        expected = reference_blocks(a, system)
        x = pm.encode(a)
        assert suite_reference.flat_blocks(system, pm, x) == [pm.encode(b) for row in expected for b in row]
        problem = reference_block_violation(a, system)
        assert (checked_block_code(kernel, code, pm, x) is None) == (problem is not None)
        if problem is None:
            assert block_components(a, system) == expected
        else:
            failures += 1
            with pytest.raises(CertificateError) as err:
                block_components(a, system)
            assert str(err.value) == problem
    # only the invalid system has elements whose blocks fail
    assert (failures > 0) == (stem == "finite-index-invalid-n2")


def test_block_table_builds_each_matrix_once(monkeypatch):
    # the suite scatters system.blocks into the block code of each
    # distinct code once and then keeps it. Its first scatter is that of
    # block_codes; the lift's certificate builds the other, later
    built, scatter = [], constructions._scatter

    def counted(pm, pieces, size):
        inner, calls = scatter(pm, pieces, size), []
        built.append(calls)
        return lambda x: calls.append(x) or inner(x)

    monkeypatch.setattr(constructions, "_scatter", counted)
    system = system_of("finite-index-z2y2-units")
    assert run_suite("finite-index", g=system.groupoid, sub_arrows=system.sub_arrows).passed
    blocks, _ = built
    assert blocks and len(blocks) == len(set(blocks))


def block_identity_check(g, sub, budget, system=None):
    params = {"g": g, "sub_arrows": sub} if system is None else {"g": g, "sub_arrows": sub, "system": system}
    checks = run_suite("finite-index", budget, **params).checks
    return next(c for c in checks if c.name == "block-identity")


# all pairs; an exhaustive pool with sampled pairs; a sampled pool
BLOCK_IDENTITY_BUDGETS = {
    "exhaustive": SuiteBudget(),
    "sampled-pairs": SuiteBudget(exhaustive_cap=40, sample_count=25, seed=11),
    "sampled-pool": SuiteBudget(exhaustive_cap=6, sample_count=5, seed=12),
}


@pytest.mark.parametrize("budget", list(BLOCK_IDENTITY_BUDGETS))
@pytest.mark.parametrize("stem", list(FINITE_INDEX_CASES))
def test_block_identity_equals_its_reference(stem, budget):
    # products of codes of G x [[n]] against the earlier per-cell loop
    g, sub, system = FINITE_INDEX_CASES[stem]()
    budget = BLOCK_IDENTITY_BUDGETS[budget]
    expected = suite_reference.block_identity(g, sub, budget, system)
    assert block_identity_check(g, sub, budget, system) == expected
    assert (expected.details["violations"] > 0) == (stem == "finite-index-invalid-n2")


def test_block_identity_at_index_one_equals_its_reference():
    # one block per element, whose code in G x [[1]] is the element's own
    g = GROUPOIDS["z2y2"]
    sub = frozenset(g.arrows())
    assert find_transversals(g, sub).index == 1
    expected = suite_reference.block_identity(g, sub, SuiteBudget())
    assert block_identity_check(g, sub, SuiteBudget()) == expected
    assert expected.details == {"violations": 0, "tested": 17 * 17, "exhaustive": True}


def colliding_system(stem):
    """Invalid systems some of whose passed pairs have a product with two
    blocks defined at one unit of one column, a matrix with no code in
    G x [[n]]."""
    if stem == "n3-identity-thrice":
        g = GROUPOIDS["n3"]
        one = unit_bisection(g)
        return TransversalSystem(g, unit_subgroupoid(g), (one, one, one))
    # Z6 over {0, 3} with two transversals in H and one in 1 + H, the
    # system of test_row_check_alone_raises_certificate_error
    z6 = group_groupoid(cayley.cyclic(6))
    psi = tuple(bisection(z6, [Arrow(0, k, 0, 0)]) for k in (0, 3, 1))
    return TransversalSystem(z6, group_subgroupoid(z6, [0, 3]), psi)


@pytest.mark.parametrize("stem", [*FINITE_INDEX_CASES, "n3-identity-thrice", "z6-row-check"])
def test_block_codes_place_each_block_arrow_by_pair_arrow(stem):
    # the code of each matrix is its arrows b x E_ij placed one by one, or
    # None when two of them have one source in G x [[n]]
    system = system_of(stem) if stem in FINITE_INDEX_CASES else colliding_system(stem)
    g, n = system.groupoid, system.index
    ps, pm = product_groupoid(g, full_relation(n)), PackedMonoid(g)
    kernel, code = block_codes(system, pm)
    assert kernel.groupoid == ps.groupoid
    collisions = 0
    for a in enumerate_semigroup(g):
        placed = [
            kernel.place(ps.pair_arrow(b, Arrow(0, 0, i, j)))
            for i, row in enumerate(reference_blocks(a, system))
            for j, block in enumerate(row)
            for b in block.arrows
        ]
        expected = list(kernel.zero)
        for u, x in placed:
            expected[u] = x
        if len(placed) > len(expected) - expected.count(-1):
            collisions += 1
            assert code(pm.encode(a)) is None
        else:
            assert code(pm.encode(a)) == tuple(expected)
    # only the invalid systems have matrices without a code
    assert (collisions > 0) == (stem not in FINITE_INDEX_CASES or stem == "finite-index-invalid-n2")


@pytest.mark.parametrize("budget", list(BLOCK_IDENTITY_BUDGETS))
@pytest.mark.parametrize("stem", ["n3-identity-thrice", "z6-row-check"])
def test_block_identity_counts_colliding_products_as_its_reference(stem, budget):
    # a product with no code is a failing pair, as its matrix differs from
    # the block product, whose columns hold one block per unit
    system = colliding_system(stem)
    g, sub = system.groupoid, system.sub_arrows
    expected = suite_reference.block_identity(g, sub, BLOCK_IDENTITY_BUDGETS[budget], system)
    assert block_identity_check(g, sub, BLOCK_IDENTITY_BUDGETS[budget], system) == expected
    if budget == "exhaustive":
        # [[3]]: 18 of the 34 elements pass, and 125 of their 324 pairs
        # have such a product; Z6: only the empty element passes
        violations = 125 if stem == "n3-identity-thrice" else 0
        assert expected.details == {"violations": violations, "tested": 324 if violations else 1, "exhaustive": True}


def test_block_identity_builds_a_left_row_per_row_and_a_code_per_element(monkeypatch):
    # all 34 elements of [[3]] pass over its units, and their products are
    # among them: one left row of G's kernel and one of the kernel of
    # G x [[3]] per row of the gate, not one per block, and each element
    # turned into its block code once
    g, sub, _ = FINITE_INDEX_CASES["finite-index-n3-units"]()
    rows, elements, kernels = Counter(), [], []
    left_row, block_codes = PackedMonoid.left_row, constructions.block_codes

    def counted_left_row(pm, a):
        rows[pm.groupoid] += 1
        return left_row(pm, a)

    def counted_block_codes(system, pm):
        kernel, code = block_codes(system, pm)
        kernels.append(kernel)
        return kernel, lambda x: elements.append(x) or code(x)

    monkeypatch.setattr(PackedMonoid, "left_row", counted_left_row)
    monkeypatch.setattr(constructions, "block_codes", counted_block_codes)
    check = block_identity_check(g, sub, SuiteBudget())
    assert check.details == {"violations": 0, "tested": 34 * 34, "exhaustive": True}
    (kernel,) = kernels
    assert kernel.groupoid == product_groupoid(g, full_relation(3)).groupoid
    assert rows[g] == rows[kernel.groupoid] == 34
    assert sorted(elements) == sorted(semigroup_codes(PackedMonoid(g)))


def test_block_asserts_invert_each_element_once_and_each_code_twice(monkeypatch):
    # per pool element, one inverse in G and two in G x [[3]], not one per
    # block; block-identity and diagonal-trace invert nothing
    g, sub, _ = FINITE_INDEX_CASES["finite-index-n3-units"]()
    kernels, calls = [], Counter()
    inv, block_codes = PackedMonoid.inv, constructions.block_codes

    def counted_inv(pm, a):
        calls[id(pm)] += 1
        return inv(pm, a)

    def recorded_block_codes(system, pm):
        kernel, code = block_codes(system, pm)
        kernels.extend((pm, kernel))
        return kernel, code

    monkeypatch.setattr(PackedMonoid, "inv", counted_inv)
    monkeypatch.setattr(constructions, "block_codes", recorded_block_codes)
    checks = {c.name: c.details for c in run_suite("finite-index", g=g, sub_arrows=sub).checks}
    assert checks["block-asserts"] == {"tested": 34, "exhaustive": True}
    pm, kernel = kernels
    assert calls[id(pm)] <= 34 and calls[id(kernel)] <= 2 * 34


class RedirectedSystem(TransversalSystem):
    """A transversal system whose block table is given, not computed."""

    def __init__(self, system, blocks):
        super().__init__(system.groupoid, system.sub_arrows, system.transversals)
        self.__dict__["blocks"] = blocks


@pytest.mark.parametrize("redirect", ["undefined", "another-range"])
def test_block_identity_counts_a_redirected_block_as_its_reference(redirect):
    # [[4]] over [[2]] + [[2]], of index 2, with the first block arrow of
    # the unit arrow at 0 dropped or moved to the other range of its [[2]]
    # (so the lift, which reads system.blocks too, stays defined), in
    # system.blocks, which the suite and the reference both read: both
    # loops must count the same nonzero number of failing pairs
    g = GROUPOIDS["n4"]
    sub = frozenset(a for a in g.arrows() if a.y_to // 2 == a.y_from // 2)
    system = find_transversals(g, sub)
    blocks = dict(system.blocks)
    unit = g.unit_arrow(next(iter(g.units())))
    (i, j, b), *rest = blocks[unit]
    moved = Arrow(b.comp, b.g, b.y_to ^ 1, b.y_from)
    blocks[unit] = rest if redirect == "undefined" else [(i, j, moved), *rest]
    redirected = RedirectedSystem(system, blocks)
    expected = suite_reference.block_identity(g, sub, SuiteBudget(), redirected)
    assert block_identity_check(g, sub, SuiteBudget(), redirected) == expected
    assert expected.details["violations"] > 0


# unit-full subgroupoids to generate systems over: the units, or a subgroup
GENERATED_SYSTEM_SUBS = [
    *((g, unit_subgroupoid(g)) for g in (REL2, GROUPOIDS["n3"], GROUPOIDS["z2y2"], GROUPOIDS["z2pt"], S3, Z4)),
    (S3, group_subgroupoid(S3, [0, 3, 4])),
    (Z4, group_subgroupoid(Z4, [0, 2])),
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_checks_match_the_references_on_generated_systems(data):
    # systems of 1-4 full-group elements, mostly invalid, or of 1-4 elements
    # of any kind, whose diagonal blocks can lose trace: the suite passes
    # an element exactly when the checks on Bisections do, block_components
    # names the failure they name, and on a passed element the diagonal
    # traces per copy of the kernel are those of the reference blocks
    g, sub = data.draw(st.sampled_from(GENERATED_SYSTEM_SUBS))
    pm = PackedMonoid(g)
    kind = data.draw(st.sampled_from([group_codes, semigroup_codes]))
    elements = [pm.decode(x) for x in kind(pm)]
    system = TransversalSystem(g, sub, tuple(data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))))
    decided, kernels = {}, []

    def recorded(kernel, code, pm, x):
        kernels.append(kernel)
        decided[x] = checked_block_code(kernel, code, pm, x)
        return decided[x]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "checked_block_code", recorded)
        checks = {c.name: c for c in run_suite("finite-index", g=g, sub_arrows=sub, system=system).checks}
    assert sorted(decided) == sorted(semigroup_codes(pm))
    kernel, n = kernels[0], system.index
    copies = [kernel.mask([u for u in kernel.units if u[1] % n == i]) for i in range(n)]
    off_trace = 0
    for x, c in decided.items():
        alpha = pm.decode(x)
        problem = reference_block_violation(alpha, system)
        assert (c is None) == (problem is not None)
        if problem is not None:
            with pytest.raises(CertificateError) as err:
                block_components(alpha, system)
            assert str(err.value) == problem
            continue
        expected = reference_blocks(alpha, system)
        assert block_components(alpha, system) == expected
        fixed = kernel.fix(c)
        traces = [Fraction(n * kernel.mass(fixed & copy), kernel.denom) for copy in copies]
        assert traces == [trace(row[i]) for i, row in enumerate(expected)]
        off_trace += any(t != trace(alpha) for t in traces)
    assert checks["diagonal-trace"].passed == (off_trace == 0)


@pytest.mark.parametrize("stem", list(FINITE_INDEX_CASES))
def test_lift_matches_reference(stem):
    system = system_of(stem)
    ref = reference_lift(system)
    if stem == "finite-index-invalid-n2":
        # the unit's own image collides, so the table cannot be built
        with pytest.raises(NoTransversalError) as expected:
            ref(unit_bisection(system.groupoid))
        with pytest.raises(NoTransversalError) as got:
            finite_index_map(system)
        assert str(got.value) == str(expected.value) == "lift not well-defined: source map not injective"
        return
    m = finite_index_map(system)
    assert m.label == f"index[{system.index}].identity"
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    gather = m.packed(dom, cod)
    for a in enumerate_semigroup(m.domain):
        image = ref(a)
        assert m(a) == image
        assert gather(dom.encode(a)) == cod.encode(image)


def lift_of(system, phi):
    """phi lifted to the finite-index extension: (phi x id) o lift."""
    return compose_maps(tensor(phi, identity_map(full_relation(system.index))), finite_index_map(system))


# maps of the subgroupoid H to lift: the identity, and [[H]] into partial
# injections (embed_convex, which on a connected H is embed_connected)
LIFTED_MAPS = {"identity": identity_map, "convex": embed_convex}
VALID_SYSTEMS = [stem for stem in FINITE_INDEX_CASES if stem != "finite-index-invalid-n2"]


@pytest.mark.parametrize("name", list(LIFTED_MAPS))
@pytest.mark.parametrize("stem", VALID_SYSTEMS)
def test_composed_lift_matches_reference(stem, name):
    system = system_of(stem)
    phi = LIFTED_MAPS[name](subgroupoid_as_groupoid(system.groupoid, system.sub_arrows)[0].groupoid)
    m, ref = lift_of(system, phi), reference_lift(system, phi)
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    gather = m.packed(dom, cod)
    for a in enumerate_semigroup(m.domain):
        image = ref(a)
        assert m(a) == image
        assert gather(dom.encode(a)) == cod.encode(image)
    if name == "identity":
        assert m.arrow_images == finite_index_map(system).arrow_images
    report = check_embedding(m)
    assert report.exhaustive and report.passed


def test_lift_collision_between_arrows_is_rejected_by_the_table_check():
    # phi's table sends every arrow of H to one unit arrow: each arrow's
    # image is valid, but the images of two arrows collide in the union,
    # so phi is rejected when it is built, directly or by arrow_map, and
    # never reaches the lift
    system = system_of("finite-index-n3-units")
    h = subgroupoid_as_groupoid(system.groupoid, system.sub_arrows)[0].groupoid
    first = Bisection(h, (h.unit_arrow(next(iter(h.units()))),))
    with pytest.raises(ValueError, match="^source map not injective$"):
        SemigroupMap(h, h, "colliding", {a: first.arrows for a in h.arrows()})
    with pytest.raises(ValueError, match="^source map not injective$"):
        arrow_map(h, h, lambda a: first.arrows, "colliding")


EXTEND_CASES = {
    "n3": lambda: list(enumerate_semigroup(full_relation(3))),
    "z2y2": lambda: list(enumerate_semigroup(GROUPOIDS["z2y2"])),
    "s3": lambda: list(enumerate_semigroup(S3)),
    "g6": lambda: list(enumerate_semigroup(g6(G6_NU))),
    # the pool of the extension suite on [[8]] at the default budget
    "n8-sampled": lambda: reference_elements(full_relation(8), "semigroup", SuiteBudget())[0],
}


@pytest.mark.parametrize("case", list(EXTEND_CASES))
def test_extend_matches_reference(case):
    elements = EXTEND_CASES[case]()
    pm = PackedMonoid(elements[0].groupoid)
    for gamma in elements:
        expected = reference_extend(gamma)
        assert pm.extend(pm.encode(gamma)) == pm.encode(expected)
        assert extend_to_full_group(gamma) == expected
