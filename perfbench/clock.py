"""Work time: wall time corrected for the host's momentary speed.

On a shared host the same interpreter-bound work can take up to twice as
long from one second to the next, as other tenants load the core; runs a
few minutes apart then disagree by more than any useful bound. While a
WorkClock runs, a timer signal every INTERVAL_S runs a fixed reference loop
on the same thread and records how long it took. The work time of an
interval is its wall time, less the time spent in the loop, times REF_S
times the mean of 1/loop-time over the samples taken in it: the time the
same work would take with the host at the speed where the loop takes REF_S.

The loop does not touch soficlab, so a faster program still reads faster;
only the host's speed is divided out. Raw wall times are kept beside the
work times in every result.

A CLI child process runs under the clock through ``run_cli``, started with
``python -c "import clock; clock.run_cli()" ARGS`` and ``perfbench`` on
PYTHONPATH; it runs soficlab.cli as ``__main__`` exactly as ``-m`` does and
writes its samples to the file named by PERFBENCH_CLOCK.
"""

from __future__ import annotations

import gc
import json
import os
import signal
from time import perf_counter

INTERVAL_S = 0.01
# Typical reference-loop time, interleaved with soficlab work, on the host
# the baseline was recorded on (Intel Xeon at 2.1 GHz, Python 3.11), so
# that work time there reads close to wall time.
REF_S = 160e-6
# Intervals with fewer samples than this borrow the latest samples before
# their end.
MIN_SAMPLES = 3

CLI_BOOT = "import clock; clock.run_cli()"


def reference_loop(n: int = 100) -> None:
    """Fixed interpreter-bound work: tuples, sorting, sets and a dict."""
    d = {}
    for i in range(n):
        row = tuple(sorted(((i * 7) % 13, (i * 3) % 11, i % 5, (i * 5) % 7)))
        d[row] = frozenset(row) | {i % 17}


class WorkClock:
    def __init__(self):
        self.samples = []  # (start, loop time)

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            reference_loop()
            self.samples.append((t, perf_counter() - t))
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return perf_counter(), len(self.samples)

    def since(self, mark) -> tuple[float, float]:
        """(wall seconds, work seconds) from a mark until now."""
        t0, k0 = mark
        end = perf_counter()
        inside = self.samples[k0:]
        cal = sum(c for _, c in inside)
        window = inside if len(inside) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        return end - t0, work_seconds(end - t0, cal, window)

    def summary(self) -> dict:
        return {"cal_s": sum(c for _, c in self.samples), "inv": [1 / c for _, c in self.samples]}


def work_seconds(wall: float, cal: float, window) -> float:
    """Wall time less loop time, at the reference speed; raw wall if unsampled."""
    if not window:
        return wall
    speed = sum(1 / c for _, c in window) / len(window)
    return (wall - cal) * REF_S * speed


def child_work_seconds(wall: float, path: str) -> float:
    """Work time of a CLI child from its wall time and its sample file; the
    raw wall time when the child wrote none."""
    if not os.path.exists(path):
        return wall
    with open(path, encoding="utf-8") as fh:
        s = json.load(fh)
    return work_seconds(wall, s["cal_s"], [(None, 1 / x) for x in s["inv"]])


def run_cli() -> None:
    """Run soficlab.cli as __main__ under a WorkClock (CLI child processes)."""
    import runpy

    clock = WorkClock()
    clock.start()
    try:
        runpy.run_module("soficlab.cli", run_name="__main__", alter_sys=True)
    finally:
        clock.stop()
        with open(os.environ["PERFBENCH_CLOCK"], "w", encoding="utf-8") as fh:
            json.dump(clock.summary(), fh)
