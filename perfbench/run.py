"""soficlab benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suites-exhaustive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Inputs are generated from --seed into .perfbench_work/ and removed at the
end. Set-up is timed in several fresh processes, then one worker process
runs whole passes over the job list for about --seconds. With --trace 1 the
worker runs one untraced and one traced pass instead and reports per-layer
metrics; spans go to .perfbench_out/. Every job's verdict is checked and
every job's report must hash the same on every pass. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Exits 2 without a result when the soficlab sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from jobs import HERE, ROOT, child_env
from tracing import COMMANDS, LAYERS, MAP_KINDS, SUITES

WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 5
IMPORT_PROBES = 3
# Every run ends within 180 s, the limit a benchmark run is allowed.
RUN_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "invocation_p50_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in ("bisections_built", "bisection_rejects", "compose_calls", "inverse_calls", "distance_calls",
                 "trace_calls", "act_calls", "elements_enumerated", "sample_draws"):
        units[f"semigroup.{name}"] = "count"
    for name in ("bisection_build_s", "compose_s", "inverse_s", "distance_s", "trace_s", "act_s", "enumerate_s", "extend_s"):
        units[f"semigroup.{name}"] = "s"
    units["semigroup.sample_accept_ratio"] = "fraction"
    units["semigroup.arrows_per_bisection"] = "arrows"
    units.update({"groupoid.mul_calls": "count", "groupoid.inv_calls": "count",
                  "groupoid.validate_raw_s": "s", "groupoid.decompose_s": "s",
                  "cayley.table_checks": "count", "cayley.table_check_s": "s",
                  "constructions.map_calls": "count", "constructions.map_s": "s",
                  "constructions.image_arrows": "count"})
    for kind in MAP_KINDS:
        units[f"constructions.codomain_points.{kind}"] = "points"
    for name in ("find_transversals", "block_components", "rectangle_decompose"):
        units[f"constructions.{name}_s"] = "s"
    units["symmetric.distortion_report_s"] = "s"
    units["symmetric.embed_general_calls"] = "count"
    for suite in SUITES:
        units[f"verify.suite_s.{suite}"] = "s"
    units.update({"verify.check_embedding_s": "s", "verify.tuples_tested": "count", "verify.tuples_per_s": "1/s",
                  "verify.checks_exhaustive": "count", "verify.checks_sampled": "count",
                  "serialize.parse_s": "s", "serialize.bytes_read": "B",
                  "serialize.dump_s": "s", "serialize.bytes_written": "B",
                  "cli.import_s": "s"})
    for cmd in COMMANDS:
        units[f"cli.command_s.{cmd}"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class BenchError(RuntimeError):
    pass


def spread(values) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def worker(args, deadline, env):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded the run limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    sys.stderr.write(proc.stderr.decode(errors="replace"))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(WORK, f"{workload}-s{seed}")
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    try:
        manifest = inputs.write_inputs(workload, seed, work)
        manifest_path = os.path.join(work, "manifest.json")
        os.makedirs(OUT, exist_ok=True)
        # The first fresh process also compiles bytecode; it is not counted.
        probes = [worker(["setup", manifest_path], deadline, env) for _ in range(SETUP_PROBES + 1)][1:]
        if trace:
            trace_path = os.path.join(OUT, f"trace-{workload}-s{seed}.json")
            result = worker(["trace", manifest_path, trace_path], deadline, env)
            imports = [worker(["import"], deadline, env)["import_s"] for _ in range(IMPORT_PROBES)]
            result["metrics"]["cli.import_s"] = statistics.median(imports)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            result = worker(["jobs", manifest_path, str(seconds)], deadline, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, budget=manifest["budget"])
    result["setup"] = spread(p["setup_s"] for p in probes)
    result["setup_wall"] = spread(p["setup_wall_s"] for p in probes)
    if trace:
        units = per_layer_units()
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    else:
        result["wall"] = spread(result["pass_work_s"])
        result["raw_wall"] = spread(result["pass_wall_s"])
        result["invocation"] = spread(x for xs in result["job_work_s"].values() for x in xs)
        metrics = {
            "wall_s": result["wall"]["median"],
            "setup_s": result["setup"]["median"],
            "peak_rss_mb": result["peak_rss_mb"],
            "invocation_p50_s": result["invocation"]["median"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    result["failed_frac"] = result["failed"] / result["attempted"]
    with open(os.path.join(OUT, f"{workload}-s{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": result,
    }


def summary(out: dict) -> str:
    d = out["detail"]
    lines = [f"{d['workload']}  seed {d['seed']}  suite seed {d['budget']['seed']}  "
             f"attempted {d['attempted']}  failed {d['failed']}"]
    for failure in d["failures"]:
        lines.append(f"  FAILED {failure}")
    if d["trace"]:
        m = d["metrics"]
        lines.append(f"  trace overhead {m['trace.overhead_s']:.3f} s (traced wall {m['trace.traced_wall_s']:.3f} s"
                     f" - untraced wall {m['trace.untraced_wall_s']:.3f} s), spans in {d['trace_file']}")
        for name, metric in out["metrics"].items():
            lines.append(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        return "\n".join(lines)
    for key, name in (("wall", "wall_s"), ("setup", "setup_s"), ("invocation", "invocation_p50_s"),
                      ("raw_wall", "raw wall of a pass"), ("setup_wall", "raw wall of set-up")):
        s = d[key]
        lines.append(f"  {name:<18} {s['median']:10.4f} s   q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    lines.append(f"  {'peak_rss_mb':<18} {d['peak_rss_mb']:10.2f} MB")
    lines.append(f"  {'failed_frac':<18} {d['failed_frac']:10.4f} fraction ({d['failed']}/{d['attempted']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "soficlab", "__init__.py")):
        print("soficlab sources not found under src/; run from a full checkout", file=sys.stderr)
        return 2
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(summary(results[name]), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for out in results.values():
        del out["detail"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
