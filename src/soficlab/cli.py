"""Command-line surface: ingestion, constructions and verification as
reproducible batch runs emitting JSON reports.

Exit codes: 0 pass, 1 check failure (a failed certificate included), 2
malformed input, an input file that cannot be read or an -o path that
cannot be written. Reports embed the tool version, and those of embed,
verify and suite the seed and budget (serialize.budget_to_json); a
repeated invocation with the same seed writes byte-identical output. An
explicit --seed wins; without one, SOFICLAB_SEED overrides the default
seed.

Each layer above groupoid is imported inside the commands that use it,
and main matches its errors only once it is loaded (_loaded): semigroup
in extend, embed, verify and suite, the certificate layers
(constructions, symmetric, verify) in the last three, where suite loads
constructions only for the suites that call it (see verify). So validate
and decompose load groupoid, cayley, rationals and serialize alone. No layer
generates code for its classes, so no command loads inspect or ast.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from . import serialize as sz
from .groupoid import MalformedInputError, decompose, full_relation, validate_raw
from .rationals import parse_fraction


def _seed(args) -> int:
    from .verify import DEFAULT_SEED

    if args.seed is not None:
        return args.seed
    env = os.environ.get("SOFICLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MalformedInputError(f"SOFICLAB_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _budget(args):
    """The verify.SuiteBudget of --budget, --samples and the seed; a cap
    not given keeps SuiteBudget's default, and SuiteBudget rejects one
    below 1."""
    from .verify import SuiteBudget

    caps = {"exhaustive_cap": args.budget, "sample_count": args.samples}
    return SuiteBudget(seed=_seed(args), **{k: v for k, v in caps.items() if v is not None})


class OutputError(Exception):
    """The -o path could not be written; main exits 2 with this message."""


def _emit(args, command: str, params: dict, payload: dict, budget=None) -> None:
    """Write a report: the tool header, then the seed and budget block when
    a budget ran the payload's checks, then the payload; a suite payload
    (serialize.suite_result_to_json) carries that block itself. An -o path
    the system refuses raises OutputError, which names it."""
    report = {
        "tool": "soficlab",
        "version": __version__,
        "command": command,
        "params": sz.jsonable(params),
    }
    if budget is not None:
        report.update(sz.budget_to_json(budget))
    report.update(payload)
    out = getattr(args, "out", None)
    if out:
        try:
            sz.write_json_atomic(report, out)
        except OSError as exc:
            raise OutputError(f"cannot write output {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(sz.dumps(report))


def _load_groupoid(path: str):
    return sz.parse_groupoid(sz.load_json(path))


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    raw = sz.parse_raw(sz.load_json(args.raw))
    report = validate_raw(raw)
    _emit(
        args,
        "validate",
        {"input": args.raw},
        {"ok": report.ok, "violations": list(report.violations)},
    )
    if not report.ok:
        print(f"invalid groupoid: {report.violations[0]}", file=sys.stderr)
        return 2
    return 0


def cmd_decompose(args) -> int:
    raw = sz.parse_raw(sz.load_json(args.raw))
    weights = None
    if args.weights:
        weights = sz.parse_masses(sz.load_json(args.weights), raw.units)
    dec = decompose(raw, weights)
    payload = sz.groupoid_to_json(dec.groupoid)
    payload["isomorphism"] = sz.jsonable(dec.iso)
    _emit(args, "decompose", {"input": args.raw}, payload)
    return 0


# the options each embed kind needs, by argparse dest
EMBED_NEEDS = {
    "connected": ("groupoid",),
    "convex": ("groupoid",),
    "pair": ("nu", "rho", "t"),
    "index": ("groupoid", "sub"),
    "product": ("left", "right"),
    "ladder": ("n",),
}


def cmd_embed(args) -> int:
    for dest in EMBED_NEEDS[args.kind]:
        if getattr(args, dest) is None:
            raise MalformedInputError(f"--kind {args.kind} needs --{dest}")
    from . import constructions as cn
    from . import verify as vf

    budget = _budget(args)
    if args.kind == "ladder":
        from .symmetric import distortion_report

        ps = args.p_list or ([args.p] if args.p is not None else None)
        if not ps:
            raise MalformedInputError("--kind ladder needs --p or --p-list")
        reports = [sz.distortion_report_to_json(distortion_report(args.n, p, budget)) for p in ps]
        _emit(
            args,
            "embed",
            {"kind": "ladder", "n": args.n, "p_list": ps},
            {"reports": reports, "pass": True},
            budget,
        )
        return 0

    if args.kind == "connected":
        g = _load_groupoid(args.groupoid)
        m = cn.embed_connected(g)
    elif args.kind == "convex":
        g = _load_groupoid(args.groupoid)
        m = cn.embed_convex(g)
    elif args.kind == "pair":
        nu = cn.embed_convex(_load_groupoid(args.nu))
        rho = cn.embed_convex(_load_groupoid(args.rho))
        m = cn.embed_convex_pair(nu, rho, parse_fraction(args.t))
    elif args.kind == "index":
        g = _load_groupoid(args.groupoid)
        sub = sz.parse_arrow_set(sz.load_json(args.sub))
        system = cn.find_transversals(g, sub)
        m = cn.finite_index_map(system)
    else:  # product, the last kind of EMBED_NEEDS
        left = _load_groupoid(args.left)
        right = _load_groupoid(args.right)
        result = vf.run_suite("rectangles", budget, left=left, right=right)
        _emit(args, "embed", {"kind": "product"}, sz.suite_result_to_json(result))
        return 0 if result.passed else 1

    report = vf.check_embedding(m, budget)
    _emit(
        args,
        "embed",
        {"kind": args.kind, "label": m.label},
        {"report": sz.embedding_report_to_json(report), "pass": report.passed},
        budget,
    )
    return 0 if report.passed else 1


def cmd_extend(args) -> int:
    from .semigroup import extend_to_full_group

    g = _load_groupoid(args.groupoid)
    gamma = sz.parse_bisection(g, sz.load_json(args.bisection))
    ext = extend_to_full_group(gamma)
    _emit(
        args,
        "extend",
        {"groupoid": args.groupoid, "bisection": args.bisection},
        {"extension": sz.bisection_to_json(ext), "full": len(ext) == g.n_units},
    )
    return 0


def _build_map(args):
    """The domain of `verify --map` and a function that returns the map: a
    named construction, built when called, or a pair list as a dict of
    bisections. So the pairs of K = all are charged before a named map
    tabulates its arrows."""
    from . import constructions as cn

    named = {"identity": cn.identity_map, "connected": cn.embed_connected, "convex": cn.embed_convex}
    if args.map == "ladder":
        if args.n is None or args.p is None:
            raise MalformedInputError("construction 'ladder' needs --n and --p")
        cn.check_ladder(args.n, args.p)
        return full_relation(args.n), lambda: cn.general_map(args.n, args.p)
    if args.map in named:
        if not args.groupoid:
            raise MalformedInputError(f"construction {args.map!r} needs --groupoid")
        g = _load_groupoid(args.groupoid)
        return g, lambda: named[args.map](g)
    if not os.path.exists(args.map):
        raise MalformedInputError(
            f"--map must be a pair-list file or one of {sorted([*named, 'ladder'])}"
        )
    if not (args.domain and args.codomain):
        raise MalformedInputError("a pair-list map needs --domain and --codomain")
    domain = _load_groupoid(args.domain)
    codomain = _load_groupoid(args.codomain)
    pairs = sz.parse_pair_list(domain, codomain, sz.load_json(args.map))
    return domain, lambda: pairs


def cmd_verify(args) -> int:
    from .semigroup import CapExceededError, PackedMonoid, semigroup_codes, semigroup_count
    from .verify import check_almost_morphism

    budget = _budget(args)
    epsilon = parse_fraction(args.epsilon)
    if epsilon <= 0:
        raise MalformedInputError(f"epsilon must be positive, got {args.epsilon}")
    domain, build = _build_map(args)
    K = None if args.K == "all" else sz.parse_bisection_list(domain, sz.load_json(args.K))
    # the report tests every pair of K; charge them before enumerating it
    pairs = (semigroup_count(domain) if K is None else len(K)) ** 2
    if pairs > budget.exhaustive_cap:
        raise CapExceededError(pairs, budget.exhaustive_cap, "pairs of K")
    pi = build()
    if K is None:
        pm = PackedMonoid(domain)
        report = check_almost_morphism(pi, list(semigroup_codes(pm)), epsilon, packed=pm)
    else:
        report = check_almost_morphism(pi, K, epsilon)
    _emit(
        args,
        "verify",
        {"map": args.map, "K": args.K, "epsilon": args.epsilon},
        {"report": sz.almost_report_to_json(report), "pass": report.passed},
        budget,
    )
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    from . import verify as vf

    budget = _budget(args)
    name = args.name
    params = {}
    if name in {"inverse-monoid", "metric-prop", "trace-distance", "supports", "extension"}:
        if args.groupoid:
            params["g"] = _load_groupoid(args.groupoid)
        elif args.n is not None:
            params["g"] = full_relation(args.n)
        else:
            raise MalformedInputError(f"suite {name!r} needs --groupoid or --n")
    elif name == "finite-index":
        if not (args.groupoid and args.sub):
            raise MalformedInputError("suite 'finite-index' needs --groupoid and --sub")
        params["g"] = _load_groupoid(args.groupoid)
        params["sub_arrows"] = sz.parse_arrow_set(sz.load_json(args.sub))
    elif name == "rectangles":
        if args.left and args.right:
            params["left"] = _load_groupoid(args.left)
            params["right"] = _load_groupoid(args.right)
        elif args.n is not None:
            params["left"] = params["right"] = full_relation(args.n)
        else:
            raise MalformedInputError("suite 'rectangles' needs --left/--right or --n")
    elif name == "ladder":
        if args.n is None or not args.p_list:
            raise MalformedInputError("suite 'ladder' needs --n and --p-list")
        params["n"] = args.n
        params["p_list"] = args.p_list
    else:
        raise MalformedInputError(f"unknown suite {name!r}; known: {sorted(vf.SUITES)}")

    result = vf.run_suite(name, budget, **params)
    _emit(args, "suite", {"name": name}, sz.suite_result_to_json(result))
    if not result.passed:
        failed = [c.name for c in result.checks if not c.passed]
        print(f"suite {name} failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def _p_list(text: str) -> list[int]:
    """The targets of a ladder run, each once: a repeated target would run
    the same distortion again and emit a second check of the same name. An
    empty item among targets is a bad integer, not one to skip."""
    items = text.split(",")
    if not any(items):
        raise argparse.ArgumentTypeError(f"no target in {text!r}")
    try:
        ps = [int(x) for x in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    for i, p in enumerate(ps):
        if p in ps[:i]:
            raise argparse.ArgumentTypeError(f"repeated target {p} in {text!r}")
    return ps


def build_parser() -> argparse.ArgumentParser:
    # no parser takes abbreviations, so `--p` never stands for `--p-list`
    parser = argparse.ArgumentParser(
        prog="soficlab",
        description="Exact computation and verification for finite pmp groupoids.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"soficlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budgeted: bool):
        # every command takes -o and --seed (perfbench's cli-batch passes
        # both to each); the caps only where a budget runs
        p.add_argument("-o", "--out", help="write the JSON report here (atomic)")
        p.add_argument("--seed", type=int, help="seed for sampled regimes")
        if budgeted:
            p.add_argument("--budget", type=int, help="exhaustive tuple cap")
            p.add_argument("--samples", type=int, help="sample count above the cap")

    p = sub.add_parser("validate", help="check groupoid axioms on a raw table", allow_abbrev=False)
    p.add_argument("raw")
    common(p, budgeted=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decompose", help="normal form of a raw groupoid", allow_abbrev=False)
    p.add_argument("raw")
    p.add_argument("--weights", help="unit masses JSON, overriding the raw file")
    common(p, budgeted=False)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("embed", help="run a construction and certify it", allow_abbrev=False)
    p.add_argument(
        "--kind",
        required=True,
        choices=["connected", "convex", "pair", "index", "product", "ladder"],
    )
    p.add_argument("--groupoid")
    p.add_argument("--sub", help="subgroupoid arrow set JSON (kind=index)")
    p.add_argument("--nu", help="first groupoid file (kind=pair)")
    p.add_argument("--rho", help="second groupoid file (kind=pair)")
    p.add_argument("--t", help="mixing weight p/q (kind=pair)")
    p.add_argument("--left", help="left factor groupoid (kind=product)")
    p.add_argument("--right", help="right factor groupoid (kind=product)")
    p.add_argument("--n", type=int, help="source size (kind=ladder)")
    targets = p.add_mutually_exclusive_group()
    targets.add_argument("--p", type=int, help="target size (kind=ladder)")
    targets.add_argument("--p-list", type=_p_list, help="comma-separated targets (kind=ladder)")
    common(p, budgeted=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extend", help="full-group completion of a bisection", allow_abbrev=False)
    p.add_argument("groupoid")
    p.add_argument("bisection")
    common(p, budgeted=False)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="almost-morphism check of a map on a set K", allow_abbrev=False)
    p.add_argument("--map", required=True, help="pair-list JSON or construction name")
    p.add_argument("--domain", help="domain groupoid file (pair-list maps)")
    p.add_argument("--codomain", help="codomain groupoid file (pair-list maps)")
    p.add_argument("--groupoid", help="groupoid file (named constructions)")
    p.add_argument("--n", type=int, help="source size (map=ladder)")
    p.add_argument("--p", type=int, help="target size (map=ladder)")
    p.add_argument("--K", default="all", help='"all" or a bisection list JSON')
    p.add_argument("--epsilon", required=True, help="strict threshold p/q")
    common(p, budgeted=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run a named invariant suite", allow_abbrev=False)
    p.add_argument("--name", required=True)
    p.add_argument("--groupoid")
    p.add_argument("--sub")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--n", type=int)
    p.add_argument("--p-list", type=_p_list)
    common(p, budgeted=True)
    p.set_defaults(func=cmd_suite)
    return parser


def _loaded(module: str, name: str):
    """The class soficlab.<module>.<name> once that module is loaded, else
    (), which matches no exception: an unloaded module raised nothing."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return () if loaded is None else getattr(loaded, name)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every other file the commands open is an input: a directory, or
        # one the user may not read
        print(f"cannot read input file {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except _loaded("semigroup", "CapExceededError") as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except _loaded("constructions", "NoTransversalError") as exc:
        print(f"no transversal system: {exc}", file=sys.stderr)
        return 1
    except _loaded("semigroup", "CertificateError") as exc:
        # also semigroup.ExtensionCertificateError, a subclass
        print(f"certificate error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # groupoid.MalformedInputError and verify.IncompletePairListError too
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
