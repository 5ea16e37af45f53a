"""Fresh-process side of the benchmark; started by run.py, never by hand.

    worker.py setup MANIFEST          time import + input building, once
    worker.py import                  time `import soficlab.cli`, once
    worker.py jobs MANIFEST SECONDS   run passes over the job list
    worker.py trace MANIFEST OUT      one untraced and one traced pass

Each mode prints one JSON object on its last line of standard output. The
clock starts after the harness's own imports and before soficlab is
imported, so set-up time includes the import. The harness avoids modules
soficlab imports itself (fractions, dataclasses, statistics), which would
otherwise be loaded before the clock starts. Times are taken both as raw
wall time and as work time (see clock.py).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from time import perf_counter

import clock
import jobs as jb

T0 = perf_counter()

MIN_PASSES = 2
# A pass slower than this gets no second pass, so a run stays under the
# benchmark's time limit even on a much slower program.
SLOW_PASS_S = 60.0


def load_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()[:16]


class Ledger:
    """Time, verdict and report digest of every job execution."""

    def __init__(self, names, work_clock=None):
        self.clock = work_clock
        self.wall = {n: [] for n in names}
        self.work = {n: [] for n in names}
        self.digests = {n: [] for n in names}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, job, runner=None) -> float:
        """Run one job; return its work time (its wall time without a clock)."""
        mark = self.clock.mark() if self.clock else None
        t = perf_counter()
        ok, body, work = runner(job.name, job.run) if runner else job.run()
        wall = perf_counter() - t
        if work is None:
            work = self.clock.since(mark)[1] if self.clock else wall
        d = digest(body)
        seen = self.digests[job.name]
        if seen and d != seen[0]:
            ok = False
            self.failures.append(f"{job.name}: report digest changed between passes")
        elif not ok:
            self.failures.append(f"{job.name}: unexpected verdict")
        self.attempted += 1
        self.failed += not ok
        self.wall[job.name].append(wall)
        self.work[job.name].append(work)
        seen.append(d)
        return work

    def run_pass(self, job_list, runner=None) -> tuple[float, float]:
        """(wall, work) seconds of one pass over the job list."""
        t = perf_counter()
        work = sum(self.run(job, runner) for job in job_list)
        return perf_counter() - t, work

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "job_wall_s": self.wall,
            "job_work_s": self.work,
            "digests": {n: sorted(set(d)) for n, d in self.digests.items()},
        }


def mode_setup(manifest_path):
    work_clock = clock.WorkClock()
    work_clock.start()
    mark = (T0, 0)
    manifest = load_manifest(manifest_path)
    workload = manifest["workload"]
    if workload == "cli-batch":
        import soficlab.cli  # noqa: F401
    else:
        import soficlab  # noqa: F401
    import_wall, import_work = work_clock.since(mark)
    jb.setup(workload, manifest)
    wall, work = work_clock.since(mark)
    work_clock.stop()
    return {"setup_wall_s": wall, "setup_s": work, "import_wall_s": import_wall, "import_s": import_work}


def mode_import():
    work_clock = clock.WorkClock()
    work_clock.start()
    import soficlab.cli  # noqa: F401

    wall, work = work_clock.since((T0, 0))
    work_clock.stop()
    return {"import_wall_s": wall, "import_s": work}


def job_list(workload, manifest, built, in_process_cli=False):
    if workload == "cli-batch":
        return jb.cli_batch(manifest, in_process=in_process_cli)
    return built


def mode_jobs(manifest_path, seconds):
    manifest = load_manifest(manifest_path)
    workload = manifest["workload"]
    # CLI children run under their own clocks; in-process jobs under this one.
    work_clock = None if workload == "cli-batch" else clock.WorkClock()
    if work_clock:
        work_clock.start()
    built = jb.setup(workload, manifest)
    job_seq = job_list(workload, manifest, built)
    ledger = Ledger([j.name for j in job_seq], work_clock)
    start = perf_counter()
    walls, works = [], []
    while True:
        wall, work = ledger.run_pass(job_seq)
        walls.append(wall)
        works.append(work)
        elapsed = perf_counter() - start
        if walls[0] > SLOW_PASS_S:
            break
        if len(walls) >= MIN_PASSES and elapsed + sorted(walls)[len(walls) // 2] > seconds:
            break
    if work_clock:
        work_clock.stop()
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return {
        "pass_wall_s": walls,
        "pass_work_s": works,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        **ledger.report(),
    }


def mode_trace(manifest_path, out_path):
    import tracing

    manifest = load_manifest(manifest_path)
    workload = manifest["workload"]
    built = jb.setup(workload, manifest)
    job_seq = job_list(workload, manifest, built, in_process_cli=True)
    ledger = Ledger([j.name for j in job_seq])
    untraced, _ = ledger.run_pass(job_seq)

    tracer = tracing.Tracer()
    tracer.install()
    origin = perf_counter()
    built = tracer.run_job("setup", lambda: jb.setup(workload, manifest))
    job_seq = job_list(workload, manifest, built, in_process_cli=True)
    traced, _ = ledger.run_pass(job_seq, tracer.run_job)

    metrics = tracer.metrics()
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": manifest["seed"], "metrics": metrics, **tracer.dump(origin)}, fh)
    return {"metrics": metrics, **ledger.report()}


def main(argv) -> dict:
    mode = argv[0]
    if mode == "setup":
        return mode_setup(argv[1])
    if mode == "import":
        return mode_import()
    if mode == "jobs":
        return mode_jobs(argv[1], float(argv[2]))
    if mode == "trace":
        return mode_trace(argv[1], argv[2])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
