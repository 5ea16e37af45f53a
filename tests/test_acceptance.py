"""Acceptance gate: the verification criteria this library commits to, at
desk scale, every comparison an exact rational equality or strict bound.

Each test prints one pass/fail line. Inversion invariance of the bisection
pseudometric, d(a,b) = d(a^-1,b^-1), holds on the full group and is false
for proper partial bisections (the trace identities of check 2 pin the
metric down, and the two are incompatible off the full group). Check 1b
counts the violations on all of [[2]] and [[3]] with the Bisection
reference algebra, confirms none lies in the full group, and checks that
the metric-prop suite's inverse-invariance report (violations, tested,
exhaustive, verdict, witness) says exactly that. That suite check is the
part that stays red by design. The exact corrected law and the full-group
case are green in check 1c.
"""

import json
import time
from fractions import Fraction
from itertools import product

import pytest

from bisection_reference import distance, inverse, is_full, trace
from pool_reference import enumerate_semigroup

from soficlab import cayley
from soficlab.cli import main as cli_main
from soficlab.groupoid import (
    Arrow,
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
    point_groupoid,
)
from soficlab.constructions import (
    embed_connected,
    embed_convex,
    find_transversals,
    group_subgroupoid,
    identity_map,
    restrict_almost_morphism,
    unit_subgroupoid,
)
from soficlab.semigroup import (
    bisection,
    idempotent,
    semigroup_count,
    unit_bisection,
)
from soficlab.serialize import groupoid_to_json, parse_bisection
from soficlab.verify import SuiteBudget, check_embedding, run_suite

BUDGET = SuiteBudget(exhaustive_cap=1_500_000)
Z2Y2 = connected_groupoid(cayley.cyclic(2), 2)


def announce(tag, ok, text):
    stamp = "PASS" if ok else "FAIL"
    print(f"[{tag}] {stamp} {text}")


def suite_checks(name, **params):
    result = run_suite(name, BUDGET, **params)
    return {c.name: c for c in result.checks}


def test_01a_inverse_monoid_laws():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        ok &= run_suite("inverse-monoid", BUDGET, g=full_relation(n)).passed
    announce("1a", ok, f"inverse-monoid laws exhaustive on [[2]], [[3]] ({time.time() - t0:.1f}s)")
    assert ok


def test_01b_metric_inverse_invariance():
    t0 = time.time()
    problems = []
    counts = {}
    for n in (2, 3):
        g = full_relation(n)
        elements = list(enumerate_semigroup(g))
        pairs = [(a, inverse(a)) for a in elements]
        # reference: the law checked pair by pair with Bisection algebra
        bad = [
            (a, b)
            for a, a_inv in pairs
            for b, b_inv in pairs
            if distance(a_inv, b_inv) != distance(a, b)
        ]
        counts[n] = len(bad)
        full_bad = [(a, b) for a, b in bad if is_full(a) and is_full(b)]
        if full_bad:
            a, b = full_bad[0]
            problems.append(f"[[{n}]]: law fails on the full group: {a.arrows}, {b.arrows}")

        check = suite_checks("metric-prop", g=g)["inverse-invariance"]
        details = check.details
        reported = {
            "violations": details["violations"],
            "tested": details["tested"],
            "exhaustive": details["exhaustive"],
            "passed": check.passed,
        }
        expected = {
            "violations": len(bad),
            "tested": len(elements) ** 2,
            "exhaustive": True,
            "passed": not bad,
        }
        if reported != expected:
            problems.append(f"[[{n}]]: reported {reported}, reference {expected}")

        witness = details["witness"]
        if (witness is None) != (not bad):
            problems.append(f"[[{n}]]: witness {witness} with {len(bad)} violations")
        elif witness is not None:
            a, b = (parse_bisection(g, {"arrows": arrows}) for arrows in witness)
            if distance(inverse(a), inverse(b)) == distance(a, b):
                problems.append(f"[[{n}]]: witness {witness} satisfies the law")

    # by hand: each shift {0->1}, {1->0} against each of id on {0}, id on {1},
    # in both orders
    if counts[2] != 8:
        problems.append(f"[[2]]: {counts[2]} reference violations, expected 8")
    ok = not problems
    announce(
        "1b",
        ok,
        "metric-prop inverse-invariance report matches Bisection algebra on [[2]], [[3]]; "
        f"d(a,b) != d(a^-1,b^-1) off the full group only, violations per size: {counts} "
        f"({time.time() - t0:.1f}s)",
    )
    assert ok, problems


def test_01c_metric_inequalities():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        checks = suite_checks("metric-prop", g=full_relation(n))
        for name in (
            "product-inequality",
            "inverse-triangle",
            "triangle",
            "symmetry",
            "zero-iff-equal",
            "pmp-mass-law",
            "inverse-invariance-full-group",
            "inverse-invariance-corrected",
        ):
            ok &= checks[name].passed
            assert checks[name].details["exhaustive"]
    announce("1c", ok, f"metric inequalities + corrected inversion law, exhaustive ({time.time() - t0:.1f}s)")
    assert ok


def test_02_trace_distance_identities():
    t0 = time.time()
    ok = True
    for g in (full_relation(3), Z2Y2):
        checks = suite_checks("trace-distance", g=g)
        for c in checks.values():
            ok &= c.passed and c.details["exhaustive"]
    announce("2", ok, f"trace/distance identities exact on [[3]] and Z2xY^2 ({time.time() - t0:.1f}s)")
    assert ok


def test_03_enumeration_counts():
    t0 = time.time()
    expected = {2: 7, 3: 34, 4: 209}
    ok = True
    for n, count in expected.items():
        # independent oracle: filter all partial functions for injectivity
        brute = 0
        for images in product(range(-1, n), repeat=n):
            defined = [y for y in images if y != -1]
            if len(set(defined)) == len(defined):
                brute += 1
        closed_form = semigroup_count(full_relation(n))
        enumerated = len(list(enumerate_semigroup(full_relation(n))))
        ok &= brute == closed_form == enumerated == count
    announce("3", ok, f"|[[n]]| = 7, 34, 209 by brute force and closed form ({time.time() - t0:.1f}s)")
    assert ok


def test_04_ladder_distortion():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        checks = suite_checks("ladder", n=n, p_list=list(range(n + 1, 13)))
        for c in checks.values():
            ok &= c.passed and c.details["exhaustive"]
            if c.details["bound"] is not None:
                ok &= c.details["observed_sup"] <= c.details["bound"]
    announce("4", ok, f"ladder distortion <= n/(p-n), zero at multiples, exhaustive pairs ({time.time() - t0:.1f}s)")
    assert ok


def test_05_connected_embeddings():
    t0 = time.time()
    ok = True
    tables = {"Z2": cayley.cyclic(2), "Z3": cayley.cyclic(3), "S3": cayley.symmetric(3)}
    for name, table in tables.items():
        for base in (1, 2):
            g = connected_groupoid(table, base)
            report = check_embedding(embed_connected(g), SuiteBudget(exhaustive_cap=10_000))
            ok &= report.passed
    announce("5", ok, f"connected-piece embeddings exact for Z2, Z3, S3 with |Y| <= 2 ({time.time() - t0:.1f}s)")
    assert ok


def test_06_convex_embeddings():
    t0 = time.time()
    half, third = Fraction(1, 2), Fraction(1, 3)
    mixtures = [
        convex_combination([(half, group_groupoid(cayley.cyclic(2))), (half, point_groupoid())]),
        convex_combination([(third, group_groupoid(cayley.cyclic(2))), (1 - third, point_groupoid())]),
        convex_combination([(1 - third, group_groupoid(cayley.cyclic(2))), (third, point_groupoid())]),
        convex_combination([(third, full_relation(2)), (1 - third, group_groupoid(cayley.cyclic(2)))]),
    ]
    ok = True
    for g in mixtures:
        report = check_embedding(embed_convex(g), BUDGET)
        ok &= report.passed and report.exhaustive
    announce("6", ok, f"convex-combination embeddings exactly isometric ({time.time() - t0:.1f}s)")
    assert ok


def test_07_finite_index():
    t0 = time.time()
    z4 = group_groupoid(cayley.cyclic(4))
    s3 = group_groupoid(cayley.symmetric(3))
    rel2 = full_relation(2)
    cases = [
        (z4, group_subgroupoid(z4, [0, 2])),
        (s3, group_subgroupoid(s3, [0, 3, 4])),
        (rel2, unit_subgroupoid(rel2)),
    ]
    ok = True
    for g, sub in cases:
        result = run_suite("finite-index", BUDGET, g=g, sub_arrows=sub)
        ok &= result.passed
        checks = {c.name: c for c in result.checks}
        assert checks["block-identity"].details["exhaustive"]
    announce("7", ok, f"finite-index block identity, diagonal traces, exact lift ({time.time() - t0:.1f}s)")
    assert ok


def test_08_full_group_extension():
    t0 = time.time()
    ok = True
    for g in (full_relation(4), Z2Y2):
        result = run_suite("extension", BUDGET, g=g)
        ok &= result.passed
        assert all(c.details["exhaustive"] for c in result.checks)
    announce("8", ok, f"every bisection of [[4]] and Z2xY^2 extends into the full group ({time.time() - t0:.1f}s)")
    assert ok


def test_09_supports_covariance_corners():
    t0 = time.time()
    ok = True
    for g in (full_relation(4), Z2Y2):
        result = run_suite("supports", BUDGET, g=g)
        ok &= result.passed
    announce("9", ok, f"support laws, covariance and the corner product identity ({time.time() - t0:.1f}s)")
    assert ok


def test_10_product_rectangles():
    t0 = time.time()
    result = run_suite("rectangles", BUDGET, left=full_relation(2), right=full_relation(2))
    ok = result.passed and all(c.details["exhaustive"] for c in result.checks)
    announce("10", ok, f"rectangle monoid invariants and re-decomposition invariance ({time.time() - t0:.1f}s)")
    assert ok


def test_11_corner_restriction_of_exact_maps():
    t0 = time.time()
    ok = True
    # identity on [[2]] restricted to the corner over one point
    theta = identity_map(full_relation(2))
    restricted = restrict_almost_morphism(theta, [(0, 0)])
    one_h = idempotent(theta.domain, [(0, 0)])
    ok &= trace(restricted(unit_bisection(restricted.domain))) == 1
    ok &= trace(one_h) == Fraction(1, 2)
    ok &= check_embedding(restricted, BUDGET).passed
    # a genuine embedding restricted to a two-point corner of [[3]]
    theta = embed_connected(full_relation(3))
    restricted = restrict_almost_morphism(theta, [(0, 0), (0, 1)])
    ok &= check_embedding(restricted, BUDGET).passed
    # whole-space corner changes nothing
    theta = identity_map(Z2Y2)
    restricted = restrict_almost_morphism(theta, list(Z2Y2.units()))
    ok &= all(trace(restricted(a)) == trace(a) for a in enumerate_semigroup(Z2Y2))
    # null corners are rejected
    from soficlab.constructions import arrow_map

    null = arrow_map(Z2Y2, Z2Y2, lambda a: (), "null")
    try:
        restrict_almost_morphism(null, [(0, 0)])
        ok = False
    except ValueError as exc:
        ok &= "zero-trace" in str(exc)
    announce("11", ok, f"corner restriction keeps exactness, normalizes traces ({time.time() - t0:.1f}s)")
    assert ok


def test_12_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    n3 = tmp_path / "n3.json"
    n3.write_text(json.dumps(groupoid_to_json(full_relation(3))))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(
            ["suite", "--name", "trace-distance", "--groupoid", str(n3),
             "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ladder_outputs = []
    for name in ("c.json", "d.json"):
        out = tmp_path / name
        code = cli_main(
            ["embed", "--kind", "ladder", "--n", "3", "--p-list", "5,7",
             "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        ladder_outputs.append(out.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and ladder_outputs[0] == ladder_outputs[1]
    announce("12", ok, f"repeated seeded invocations emit byte-identical reports ({time.time() - t0:.1f}s)")
    assert ok
