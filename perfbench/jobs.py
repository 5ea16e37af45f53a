"""The job lists of the three workloads.

A job runs one certificate or one CLI process and returns its verdict and
the bytes of its report body. Calls into soficlab go through module
attributes at call time (``vf.run_suite``, ``cn.embed_convex``), so trace
wrappers installed after loading see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from time import perf_counter

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Checks that fail by design (README, "The metric caveat").
KNOWN_RED = {"metric-prop": {"inverse-invariance"}}

CLI_TIMEOUT_S = 60


class Job:
    """A named job; run() returns (verdict as expected, report body bytes,
    work seconds or None when the caller's clock times it).

    This module imports no more of the standard library than it must, so
    that set-up time measures soficlab's own imports.
    """

    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


def child_env() -> dict:
    """Environment for child processes: the source tree and this directory
    on the path, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != "SOFICLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(["src", os.path.relpath(HERE, ROOT)])
    return env


# ---------------------------------------------------------------------------
# In-process jobs


def _suite_job(label, budget, name, **params) -> Job:
    from soficlab import serialize as sz
    from soficlab import verify as vf

    def run():
        result = vf.run_suite(name, budget, **params)
        body = sz.dumps(sz.suite_result_to_json(result)).encode()
        failing = {c.name for c in result.checks if not c.passed}
        return failing == KNOWN_RED.get(name, set()), body, None

    return Job(label, run)


def _embedding_job(label, budget, build) -> Job:
    from soficlab import serialize as sz
    from soficlab import verify as vf

    def run():
        report = vf.check_embedding(build(), budget)
        return report.passed, sz.dumps(sz.embedding_report_to_json(report)).encode(), None

    return Job(label, run)


def _budget(manifest):
    from soficlab.verify import SuiteBudget

    return SuiteBudget(**manifest["budget"])


def _loader(manifest):
    from soficlab import serialize as sz

    def load(name):
        return sz.load_json(os.path.join(manifest["dir"], name))

    return sz, load


def suites_exhaustive(manifest) -> list[Job]:
    sz, load = _loader(manifest)
    budget = _budget(manifest)
    n4 = sz.parse_groupoid(load("n4.json"))
    mix = sz.parse_groupoid(load("z2y2_y2.json"))
    n3 = sz.parse_groupoid(load("n3.json"))
    return [
        _suite_job("trace-distance [[4]]", budget, "trace-distance", g=n4),
        _suite_job("metric-prop [[4]]", budget, "metric-prop", g=n4),
        _suite_job("supports Z2xY2+Y2", budget, "supports", g=mix),
        _suite_job("trace-distance Z2xY2+Y2", budget, "trace-distance", g=mix),
        _suite_job("inverse-monoid [[3]]", budget, "inverse-monoid", g=n3),
    ]


def certify_constructions(manifest) -> list[Job]:
    from fractions import Fraction

    from soficlab import constructions as cn

    sz, load = _loader(manifest)
    budget = _budget(manifest)
    g = {name: sz.parse_groupoid(load(name + ".json")) for name in ("g6", "g6_rho", "z2y3", "n3", "z2y2", "s3", "n2", "n8")}
    sub = {name: sz.parse_arrow_set(load(name + ".json")) for name in ("n3_units", "z2y2_units", "s3_z3")}
    return [
        _embedding_job("embed_convex G6", budget, lambda: cn.embed_convex(g["g6"])),
        _embedding_job(
            "embed_convex_pair G6 t=1/3",
            budget,
            lambda: cn.embed_convex_pair(cn.embed_convex(g["g6"]), cn.embed_convex(g["g6_rho"]), Fraction(1, 3)),
        ),
        _embedding_job("embed_connected Z2xY3", budget, lambda: cn.embed_connected(g["z2y3"])),
        _suite_job("finite-index [[3]]>units", budget, "finite-index", g=g["n3"], sub_arrows=sub["n3_units"]),
        _suite_job("finite-index Z2xY2>units", budget, "finite-index", g=g["z2y2"], sub_arrows=sub["z2y2_units"]),
        _suite_job("finite-index S3>Z3", budget, "finite-index", g=g["s3"], sub_arrows=sub["s3_z3"]),
        _suite_job("rectangles [[2]]x[[2]]", budget, "rectangles", left=g["n2"], right=g["n2"]),
        _suite_job("ladder n=3 p=4..30", budget, "ladder", n=3, p_list=list(range(4, 31))),
        _suite_job("inverse-monoid [[8]]", budget, "inverse-monoid", g=g["n8"]),
        _suite_job("trace-distance [[8]]", budget, "trace-distance", g=g["n8"]),
        _suite_job("extension [[8]]", budget, "extension", g=g["n8"]),
    ]


# ---------------------------------------------------------------------------
# CLI jobs


def cli_commands(manifest) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for each CLI run, paths relative to the root."""
    d = os.path.relpath(manifest["dir"], ROOT)

    def f(name):
        return os.path.join(d, name)

    return [
        ("validate S4xY2", ["validate", f("raw_s4y2.json")], 0),
        ("validate S3xY4", ["validate", f("raw_s3y4.json")], 0),
        ("decompose S4xY2", ["decompose", f("raw_s4y2.json")], 0),
        ("decompose S3xY4", ["decompose", f("raw_s3y4.json")], 0),
        ("embed connected Z3xY2", ["embed", "--kind", "connected", "--groupoid", f("z3y2.json")], 0),
        ("embed convex Z2xY2+pt", ["embed", "--kind", "convex", "--groupoid", f("nu.json")], 0),
        ("embed pair t=1/3", ["embed", "--kind", "pair", "--nu", f("nu.json"), "--rho", f("rho.json"), "--t", "1/3"], 0),
        ("embed index S3>Z3", ["embed", "--kind", "index", "--groupoid", f("s3.json"), "--sub", f("s3_z3.json")], 0),
        ("embed product [[2]]x[[2]]", ["embed", "--kind", "product", "--left", f("n2.json"), "--right", f("n2.json")], 0),
        ("embed ladder n=3", ["embed", "--kind", "ladder", "--n", "3", "--p-list", "5,7,12"], 0),
        ("extend S3xY4", ["extend", f("s3y4.json"), f("gamma.json")], 0),
        ("verify connected K=all", ["verify", "--map", "connected", "--groupoid", f("z2y2.json"), "--K", "all", "--epsilon", "1/100"], 0),
        ("verify connected K=file", ["verify", "--map", "connected", "--groupoid", f("s3y2.json"), "--K", f("k.json"), "--epsilon", "1/100"], 0),
        ("suite trace-distance n=3", ["suite", "--name", "trace-distance", "--n", "3"], 0),
        ("suite finite-index Z2xY2", ["suite", "--name", "finite-index", "--groupoid", f("z2y2.json"), "--sub", f("z2y2_units.json")], 0),
        ("suite metric-prop n=2", ["suite", "--name", "metric-prop", "--n", "2"], 1),
        ("validate malformed", ["validate", f("bad_raw.json")], 2),
    ]


def cli_batch(manifest, in_process: bool = False) -> list[Job]:
    """One job per CLI run: a child process, or ``cli.main`` when in_process."""
    seed = str(manifest["budget"]["seed"])
    out_dir = os.path.join(manifest["dir"], "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for k, (label, argv, expected) in enumerate(cli_commands(manifest)):
        out = os.path.join(out_dir, f"{k:02d}.json")
        samples = os.path.join(out_dir, f"{k:02d}.clock.json")
        argv = argv + ["--seed", seed, "-o", os.path.relpath(out, ROOT)]
        jobs.append(Job(label, _cli_run(argv, expected, out, samples if not in_process else None)))
    return jobs


def _cli_run(argv, expected, out, samples):
    """A CLI run: in this process when samples is None, else a child process
    under the work clock that writes its samples there."""
    env = child_env()
    if samples is not None:
        env["PERFBENCH_CLOCK"] = samples

    def run():
        for stale in (out, samples):
            if stale and os.path.exists(stale):
                os.unlink(stale)
        work = None
        if samples is None:
            from soficlab import cli

            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            stderr = err.getvalue().encode()
        else:
            t = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", clock.CLI_BOOT, *argv],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CLI_TIMEOUT_S,
            )
            work = clock.child_work_seconds(perf_counter() - t, samples)
            code, stderr = proc.returncode, proc.stderr
        if os.path.exists(out):
            with open(out, "rb") as fh:
                body = fh.read()
        else:
            body = stderr
        ok = code == expected and (expected == 2 or os.path.exists(out))
        if not ok:
            sys.stderr.write(f"{argv[0]} exited {code}, expected {expected}: {stderr.decode(errors='replace')[-300:]}\n")
        return ok, body, work

    return run


def build_cli_inputs(manifest) -> dict:
    """Parse every cli-batch input file, as the CLI processes do between them."""
    sz, load = _loader(manifest)
    built = {}
    for name in manifest["files"]:
        obj = load(name)
        if name.startswith(("raw_", "bad_")):
            built[name] = sz.parse_raw(obj)
        elif name.endswith(("_units.json", "_z3.json")):
            built[name] = sz.parse_arrow_set(obj)
        elif name not in ("gamma.json", "k.json"):
            built[name] = sz.parse_groupoid(obj)
    built["gamma.json"] = sz.parse_bisection(built["s3y4.json"], load("gamma.json"))
    built["k.json"] = [sz.parse_bisection(built["s3y2.json"], x) for x in load("k.json")]
    return built


IN_PROCESS = {
    "suites-exhaustive": suites_exhaustive,
    "certify-constructions": certify_constructions,
}


def setup(workload, manifest):
    """Import soficlab and build the workload's inputs from their files.

    Returns the job list of an in-process workload, or the parsed inputs of
    cli-batch, whose jobs are processes that parse for themselves.
    """
    if workload == "cli-batch":
        import soficlab.cli  # noqa: F401

        return build_cli_inputs(manifest)
    import soficlab  # noqa: F401

    return IN_PROCESS[workload](manifest)
