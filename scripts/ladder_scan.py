#!/usr/bin/env python3
"""Scan the metric distortion of the [[n]] -> [[p]] ladder embeddings.

Prints a table of the guaranteed bound n/(p-n) against the exactly measured
worst-case distance and trace deviations, showing the decay as p grows and
the exact-isometry spikes at multiples of n. Optionally dumps the reports
as JSON records.
"""

import argparse
import json

from soficlab.serialize import distortion_report_to_json
from soficlab.symmetric import distortion_report
from soficlab.verify import DEFAULT_SEED, SuiteBudget


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="source model size")
    parser.add_argument("--p-max", type=int, default=30, help="largest target size")
    parser.add_argument("--pair-cap", type=int, default=10_000)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--json", metavar="PATH", help="also write JSON records here")
    args = parser.parse_args()
    if args.n < 1:
        parser.error(f"--n must be positive, got {args.n}")
    if args.p_max < args.n:
        parser.error(f"--p-max {args.p_max} is below --n {args.n}, so no target runs")
    try:
        budget = SuiteBudget(exhaustive_cap=args.pair_cap, sample_count=args.samples, seed=args.seed)
    except ValueError as exc:
        parser.error(f"--pair-cap and --samples: {exc}")
    # opened before the scan, so a path that cannot be written costs none
    out = None
    if args.json:
        try:
            out = open(args.json, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"--json: cannot write {args.json}: {exc.strerror}")

    rows = []
    print(f"{'p':>4}  {'bound n/(p-n)':>14}  {'observed sup':>14}  {'trace sup':>12}  regime")
    for p in range(args.n, args.p_max + 1):
        rep = distortion_report(args.n, p, budget)
        rows.append(distortion_report_to_json(rep))
        bound = "-" if rep.bound is None else str(rep.bound)
        regime = "exhaustive" if rep.exhaustive else f"sampled(seed={rep.seed})"
        marker = "  <- isometric stage" if rep.observed_sup == 0 else ""
        print(
            f"{p:>4}  {bound:>14}  {str(rep.observed_sup):>14}  "
            f"{str(rep.trace_sup):>12}  {regime}{marker}"
        )

    if out:
        with out:
            json.dump(rows, out, indent=2, sort_keys=True)
        print(f"wrote {len(rows)} records to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
