"""Per-layer tracing by wrapping soficlab's functions from outside the package.

Every wrapped call pushes a frame; on return its duration is charged to its
layer's self time minus the time of the traced calls made inside it. Calls
at layer boundaries (job, suite, check_embedding, map evaluation, serialize,
CLI command) also record a span: (name, start, end, parent span, job). The
hot fine-grained calls (mul, inv, Bisection construction, compose, inverse,
distance, trace) only update counters, so the trace stays small.

A wrapper replaces the function in its defining module and in every soficlab
module that re-binds the same object by name (``verify.act`` is
``semigroup.act``), so calls through either name are seen. Methods are
replaced on their class. A name a later version of the package no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cayley", "groupoid", "semigroup", "symmetric", "constructions", "verify", "serialize", "cli")

# Maps whose codomain size is reported, keyed by the prefix of their label.
MAP_KINDS = ("connected", "convex", "pair", "index")

SUITES = ("inverse-monoid", "metric-prop", "trace-distance", "supports", "extension", "finite-index", "rectangles", "ladder")

COMMANDS = ("validate", "decompose", "embed", "extend", "verify", "suite")


class Tracer:
    def __init__(self):
        self.frames = []  # per active call: time spent in traced callees
        self.spans = []  # [name, start, end, parent, job]
        self.open_spans = []
        self.job = None
        self.counts = Counter()
        self.times = defaultdict(float)  # inclusive time, outermost call per key
        self.active = Counter()
        self.self_time = defaultdict(float)
        self.sample_seen = set()

    # -- frames and spans -------------------------------------------------

    def call(self, fn, args, kwargs, layer, keys=(), span=None):
        """Run fn as one traced call of a layer; keys name its inclusive times."""
        frames = self.frames
        frame = [0.0]
        frames.append(frame)
        active = self.active
        for key in keys:
            active[key] += 1
        sid = self.open_span(span) if span else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            frames.pop()
            if frames:
                frames[-1][0] += dt
            self.self_time[layer] += dt - frame[0]
            for key in keys:
                active[key] -= 1
                if not active[key]:
                    self.times[key] += dt
            if sid is not None:
                self.close_span(sid)

    def open_span(self, name) -> int:
        parent = self.open_spans[-1] if self.open_spans else None
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.open_spans.append(sid)
        return sid

    def close_span(self, sid) -> None:
        self.spans[sid][2] = perf_counter()
        self.open_spans.pop()

    def run_job(self, label, fn):
        """Run one benchmark job under its own span and job id."""
        self.job = label
        try:
            return self.call(fn, (), {}, "harness", span=f"job {label}")
        finally:
            self.job = None

    # -- installing wrappers ----------------------------------------------

    @staticmethod
    def _replace(owner, attr, original, wrapper):
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "soficlab" or name.startswith("soficlab.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def wrap(self, module, path, layer, *, calls=None, time=None, span=None, before=None, after=None, gen_items=None):
        """Wrap module.path (a function or Class.method).

        calls: counter bumped per call; time: inclusive-time keys (str, or a
        function of the call's arguments); span: span name (str or function
        of the arguments); before/after: hooks on the arguments and result.
        """
        owner = module
        *head, attr = path.split(".")
        for part in head:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        tracer = self

        def keys_for(args, kwargs):
            if time is None:
                return ()
            if callable(time):
                return time(args, kwargs)
            return (time,) if isinstance(time, str) else time

        if gen_items:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer._drive(original(*args, **kwargs), layer, keys_for(args, kwargs), gen_items)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(tracer, args, kwargs)
                if calls is not None:
                    tracer.counts[calls] += 1
                name = span(args, kwargs) if callable(span) else span
                result = tracer.call(original, args, kwargs, layer, keys_for(args, kwargs), name)
                if after is not None:
                    after(tracer, result, args, kwargs)
                return result

        self._replace(owner, attr, original, wrapper)

    def _drive(self, it, layer, keys, items_key):
        """Re-yield a generator, timing each step as a traced call."""
        while True:
            try:
                item = self.call(next, (it,), {}, layer, keys)
            except StopIteration:
                return
            self.counts[items_key] += 1
            yield item

    def install(self) -> None:
        """Wrap every layer of soficlab, for the rest of the process."""
        from soficlab import cayley, cli, constructions, groupoid, semigroup, serialize, symmetric, verify

        w = self.wrap
        w(cayley, "table_violations", "cayley", calls="cayley.table_checks", time="cayley.table_check_s")

        w(groupoid, "FiniteGroupoid.mul", "groupoid", calls="groupoid.mul_calls")
        w(groupoid, "FiniteGroupoid.inv", "groupoid", calls="groupoid.inv_calls")
        w(groupoid, "validate_raw", "groupoid", time="groupoid.validate_raw_s", span="validate_raw")
        w(groupoid, "decompose", "groupoid", time="groupoid.decompose_s", span="decompose")

        w(semigroup, "Bisection.__post_init__", "semigroup", calls="semigroup.bisection_inits", time="semigroup.bisection_build_s", after=_built)
        for op in ("compose", "inverse", "distance", "trace"):
            w(semigroup, f"Bisection.{op}", "semigroup", calls=f"semigroup.{op}_calls", time=f"semigroup.{op}_s")
        w(semigroup, "act", "semigroup", calls="semigroup.act_calls", time="semigroup.act_s")
        for kind in ("semigroup", "group", "malg"):
            w(semigroup, f"enumerate_{kind}", "semigroup", time="semigroup.enumerate_s", gen_items="semigroup.elements_enumerated")
        for draw in ("sample_bisection", "sample_full_group"):
            w(semigroup, draw, "semigroup", calls="semigroup.sample_draws", after=_drawn)
        w(semigroup, "extend_to_full_group", "semigroup", time="semigroup.extend_s")

        w(constructions, "SemigroupMap.__init__", "constructions", after=_map_built)
        w(constructions, "SemigroupMap.__call__", "constructions", calls="constructions.map_calls", time="constructions.map_s", span=_map_span, after=_mapped)
        for name in ("find_transversals", "block_components", "rectangle_decompose"):
            w(constructions, name, "constructions", time=f"constructions.{name}_s", span=name if name == "find_transversals" else None)

        w(symmetric, "distortion_report", "symmetric", time="symmetric.distortion_report_s", span="distortion_report")
        w(symmetric, "embed_general", "symmetric", calls="symmetric.embed_general_calls")

        w(verify, "_elements", "verify", before=_new_pool)
        w(verify, "run_suite", "verify", time=_suite_keys, span=lambda a, k: f"suite {_suite_name(a, k)}", after=_suite_done)
        w(verify, "check_embedding", "verify", time=("verify.busy_s", "verify.check_embedding_s"), span="check_embedding", after=_embedding_done)
        w(verify, "check_almost_morphism", "verify", time="verify.busy_s", span="check_almost_morphism", after=_almost_done)

        w(serialize, "load_json", "serialize", time="serialize.parse_s", span="load_json", after=_read)
        for name in ("parse_groupoid", "parse_raw", "parse_masses", "parse_bisection", "parse_arrow_set"):
            w(serialize, name, "serialize", time="serialize.parse_s", span=name)
        w(serialize, "dumps", "serialize", time="serialize.dump_s", span="dumps", after=_written)
        for name in ("write_json_atomic", "groupoid_to_json", "bisection_to_json", "suite_result_to_json",
                     "embedding_report_to_json", "almost_report_to_json", "distortion_report_to_json"):
            w(serialize, name, "serialize", time="serialize.dump_s", span=name)

        w(cli, "main", "cli", time=_command_keys, span=lambda a, k: f"cli {_command(a, k)}")

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, by name; absent work reads 0."""
        c, t = self.counts, self.times
        built = c["semigroup.bisections_built"]
        draws = c["semigroup.sample_draws"]
        out = {
            "semigroup.bisections_built": built,
            "semigroup.bisection_build_s": t["semigroup.bisection_build_s"],
            "semigroup.bisection_rejects": c["semigroup.bisection_inits"] - built,
        }
        for op in ("compose", "inverse", "distance", "trace", "act"):
            out[f"semigroup.{op}_calls"] = c[f"semigroup.{op}_calls"]
            out[f"semigroup.{op}_s"] = t[f"semigroup.{op}_s"]
        out.update({
            "semigroup.enumerate_s": t["semigroup.enumerate_s"],
            "semigroup.elements_enumerated": c["semigroup.elements_enumerated"],
            "semigroup.sample_draws": draws,
            "semigroup.sample_accept_ratio": c["semigroup.sample_distinct"] / draws if draws else 0.0,
            "semigroup.extend_s": t["semigroup.extend_s"],
            "semigroup.arrows_per_bisection": c["semigroup.arrows_built"] / built if built else 0.0,
            "groupoid.mul_calls": c["groupoid.mul_calls"],
            "groupoid.inv_calls": c["groupoid.inv_calls"],
            "groupoid.validate_raw_s": t["groupoid.validate_raw_s"],
            "groupoid.decompose_s": t["groupoid.decompose_s"],
            "cayley.table_checks": c["cayley.table_checks"],
            "cayley.table_check_s": t["cayley.table_check_s"],
            "constructions.map_calls": c["constructions.map_calls"],
            "constructions.map_s": t["constructions.map_s"],
            "constructions.image_arrows": c["constructions.image_arrows"],
        })
        for kind in MAP_KINDS:
            out[f"constructions.codomain_points.{kind}"] = c[f"constructions.codomain_points.{kind}"]
        for name in ("find_transversals", "block_components", "rectangle_decompose"):
            out[f"constructions.{name}_s"] = t[f"constructions.{name}_s"]
        out["symmetric.distortion_report_s"] = t["symmetric.distortion_report_s"]
        out["symmetric.embed_general_calls"] = c["symmetric.embed_general_calls"]
        for suite in SUITES:
            out[f"verify.suite_s.{suite}"] = t[f"verify.suite_s.{suite}"]
        busy = t["verify.busy_s"]
        out.update({
            "verify.check_embedding_s": t["verify.check_embedding_s"],
            "verify.tuples_tested": c["verify.tuples_tested"],
            "verify.tuples_per_s": c["verify.tuples_tested"] / busy if busy else 0.0,
            "verify.checks_exhaustive": c["verify.checks_exhaustive"],
            "verify.checks_sampled": c["verify.checks_sampled"],
            "serialize.parse_s": t["serialize.parse_s"],
            "serialize.bytes_read": c["serialize.bytes_read"],
            "serialize.dump_s": t["serialize.dump_s"],
            "serialize.bytes_written": c["serialize.bytes_written"],
        })
        for cmd in COMMANDS:
            out[f"cli.command_s.{cmd}"] = t[f"cli.command_s.{cmd}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out

    def span_summary(self) -> dict:
        """Per span name: count, total and self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        summary = {}
        for sid, (name, start, end, parent, job) in enumerate(self.spans):
            if end is None:
                continue
            key = name.split(" [")[0]
            row = summary.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return summary

    def dump(self, origin: float) -> dict:
        return {
            "spans": [
                [name, round(start - origin, 6), None if end is None else round(end - origin, 6), parent, job]
                for name, start, end, parent, job in self.spans
            ],
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "span_summary": self.span_summary(),
            "counters": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# Hooks


def _built(tracer, result, args, kwargs):
    tracer.counts["semigroup.bisections_built"] += 1
    tracer.counts["semigroup.arrows_built"] += len(args[0].arrows)


def _drawn(tracer, result, args, kwargs):
    if result not in tracer.sample_seen:
        tracer.sample_seen.add(result)
        tracer.counts["semigroup.sample_distinct"] += 1


def _new_pool(tracer, args, kwargs):
    tracer.sample_seen = set()


def _map_kind(label: str) -> str:
    return label.split("[")[0].split(".")[0]


def _map_built(tracer, result, args, kwargs):
    m = args[0]
    key = f"constructions.codomain_points.{_map_kind(m.label)}"
    tracer.counts[key] = max(tracer.counts[key], m.codomain.n_units)


def _map_span(args, kwargs):
    return f"map {_map_kind(args[0].label)}"


def _mapped(tracer, result, args, kwargs):
    if tracer.active["constructions.map_s"] == 0:
        tracer.counts["constructions.image_arrows"] += len(result.arrows)


def _suite_name(args, kwargs) -> str:
    return args[0] if args else kwargs.get("name")


def _suite_keys(args, kwargs):
    return ("verify.busy_s", f"verify.suite_s.{_suite_name(args, kwargs)}")


def _outermost(tracer) -> bool:
    return tracer.active["verify.busy_s"] == 0


def _checked(tracer, tested, exhaustive):
    tracer.counts["verify.tuples_tested"] += tested
    tracer.counts["verify.checks_exhaustive" if exhaustive else "verify.checks_sampled"] += 1


def _suite_done(tracer, result, args, kwargs):
    if not _outermost(tracer):
        return
    for check in result.checks:
        d = check.details
        tested = d.get("tested", d.get("pairs_tested"))
        if tested is not None:
            _checked(tracer, tested, d.get("exhaustive", True))


def _embedding_done(tracer, result, args, kwargs):
    if _outermost(tracer):
        _checked(tracer, result.pair_count, result.exhaustive)


def _almost_done(tracer, result, args, kwargs):
    if _outermost(tracer):
        _checked(tracer, result.k_size**2, True)


def _read(tracer, result, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    tracer.counts["serialize.bytes_read"] += os.path.getsize(path)


def _written(tracer, result, args, kwargs):
    tracer.counts["serialize.bytes_written"] += len(result.encode())


def _command(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def _command_keys(args, kwargs):
    return (f"cli.command_s.{_command(args, kwargs)}",)
