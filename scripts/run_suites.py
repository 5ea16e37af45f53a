#!/usr/bin/env python3
"""Run every invariant suite over a matrix of preset groupoids and print a
pass/fail grid. Nonzero exit on any failure other than the documented
inversion-invariance defect (pass --strict to count that one too)."""

import argparse
from fractions import Fraction

from soficlab import cayley
from soficlab.constructions import group_subgroupoid, unit_subgroupoid
from soficlab.groupoid import (
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
    point_groupoid,
)
from soficlab.verify import DEFAULT_SEED, SuiteBudget, run_suite

KNOWN_RED = {("metric-prop", "inverse-invariance")}


def presets():
    half = Fraction(1, 2)
    z4 = group_groupoid(cayley.cyclic(4))
    s3 = group_groupoid(cayley.symmetric(3))
    rel2 = full_relation(2)
    mix = convex_combination([(half, group_groupoid(cayley.cyclic(2))), (half, point_groupoid())])
    simple = {
        "[[2]]": rel2,
        "[[3]]": full_relation(3),
        "Z2xY2": connected_groupoid(cayley.cyclic(2), 2),
        "Z2+pt": mix,
    }
    jobs = []
    for label, g in simple.items():
        for suite in ("inverse-monoid", "metric-prop", "trace-distance", "supports", "extension"):
            jobs.append((suite, label, {"g": g}))
    jobs += [
        ("finite-index", "Z4>Z2", {"g": z4, "sub_arrows": group_subgroupoid(z4, [0, 2])}),
        ("finite-index", "S3>Z3", {"g": s3, "sub_arrows": group_subgroupoid(s3, [0, 3, 4])}),
        ("finite-index", "[[2]]>units", {"g": rel2, "sub_arrows": unit_subgroupoid(rel2)}),
        ("rectangles", "[[2]]x[[2]]", {"left": rel2, "right": rel2}),
        ("ladder", "n=2", {"n": 2, "p_list": list(range(3, 13))}),
        ("ladder", "n=3", {"n": 3, "p_list": list(range(4, 13))}),
    ]
    return jobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--budget", type=int, default=1_500_000)
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args()
    try:
        budget = SuiteBudget(exhaustive_cap=args.budget, seed=args.seed)
    except ValueError as exc:
        parser.error(f"--budget: {exc}")

    unexpected = 0
    for suite, label, params in presets():
        result = run_suite(suite, budget, **params)
        bad = [c.name for c in result.checks if not c.passed]
        surprising = [
            name for name in bad if args.strict or (suite, name) not in KNOWN_RED
        ]
        status = "ok" if not bad else ("KNOWN-RED" if not surprising else "FAIL")
        detail = f"  ({', '.join(bad)})" if bad else ""
        print(f"{suite:<16} {label:<12} {status}{detail}")
        unexpected += len(surprising)
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
