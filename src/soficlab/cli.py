"""Command-line surface: ingestion, constructions and verification as
reproducible batch runs emitting JSON reports.

Exit codes: 0 pass, 1 check failure, 2 malformed input. Reports embed the
tool version, seed and budget; a repeated invocation with the same seed
writes byte-identical output. An explicit --seed wins; without one,
SOFICLAB_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from . import constructions as cn
from . import serialize as sz
from . import verify as vf
from .groupoid import MalformedInputError, decompose, full_relation, validate_raw
from .rationals import parse_fraction
from .semigroup import CapExceededError, enumerate_semigroup, extend_to_full_group
from .verify import DEFAULT_SEED, SuiteBudget


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SOFICLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MalformedInputError(f"SOFICLAB_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _budget(args) -> SuiteBudget:
    return SuiteBudget(
        exhaustive_cap=getattr(args, "budget", None) or 200_000,
        sample_count=getattr(args, "samples", None) or 500,
        seed=_seed(args),
    )


def _emit(args, command: str, params: dict, payload: dict, budget: SuiteBudget | None = None) -> None:
    report = {
        "tool": "soficlab",
        "version": __version__,
        "command": command,
        "params": sz.jsonable(params),
    }
    if budget is not None:
        report["seed"] = budget.seed
        report["budget"] = {
            "exhaustive_cap": budget.exhaustive_cap,
            "sample_count": budget.sample_count,
        }
    report.update(payload)
    out = getattr(args, "out", None)
    if out:
        sz.write_json_atomic(report, out)
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
    payload["isomorphism"] = {str(a): list(arr) for a, arr in sorted(dec.iso.items(), key=lambda kv: repr(kv[0]))}
    _emit(args, "decompose", {"input": args.raw}, payload)
    return 0


def _embedding_payload(report) -> dict:
    return {"report": sz.embedding_report_to_json(report), "pass": report.passed}


def cmd_embed(args) -> int:
    budget = _budget(args)
    if args.kind == "ladder":
        if args.n is None:
            raise MalformedInputError("--kind ladder needs --n")
        ps = args.p_list or ([args.p] if args.p is not None else None)
        if not ps:
            raise MalformedInputError("--kind ladder needs --p or --p-list")
        reports = [
            sz.distortion_report_to_json(
                vf.ladder_profile(
                    args.n,
                    [p],
                    pair_cap=budget.exhaustive_cap,
                    sample_count=budget.sample_count,
                    seed=budget.seed,
                )[0]
            )
            for p in ps
        ]
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
    elif args.kind == "product":
        left = _load_groupoid(args.left)
        right = _load_groupoid(args.right)
        result = vf.run_suite("rectangles", budget, left=left, right=right)
        _emit(
            args,
            "embed",
            {"kind": "product"},
            sz.suite_result_to_json(result),
            budget,
        )
        return 0 if result.passed else 1
    else:
        raise MalformedInputError(f"unknown embed kind {args.kind!r}")

    report = vf.check_embedding(m, budget)
    _emit(
        args,
        "embed",
        {"kind": args.kind, "label": m.label},
        _embedding_payload(report),
        budget,
    )
    return 0 if report.passed else 1


def cmd_extend(args) -> int:
    g = _load_groupoid(args.groupoid)
    gamma = sz.parse_bisection(g, sz.load_json(args.bisection))
    ext = extend_to_full_group(gamma)
    _emit(
        args,
        "extend",
        {"groupoid": args.groupoid, "bisection": args.bisection},
        {"extension": sz.bisection_to_json(ext), "full": ext.is_full()},
    )
    return 0


def _build_map(args):
    named = {"identity", "connected", "convex", "ladder"}
    if args.map in named:
        if args.map == "ladder":
            if args.n is None or args.p is None:
                raise MalformedInputError("construction 'ladder' needs --n and --p")
            return cn.general_map(args.n, args.p)
        if not args.groupoid:
            raise MalformedInputError(f"construction {args.map!r} needs --groupoid")
        g = _load_groupoid(args.groupoid)
        if args.map == "identity":
            return cn.identity_map(g)
        if args.map == "connected":
            return cn.embed_connected(g)
        return cn.embed_convex(g)
    if not os.path.exists(args.map):
        raise MalformedInputError(
            f"--map must be a pair-list file or one of {sorted(named)}"
        )
    if not (args.domain and args.codomain):
        raise MalformedInputError("a pair-list map needs --domain and --codomain")
    domain = _load_groupoid(args.domain)
    codomain = _load_groupoid(args.codomain)
    obj = sz.load_json(args.map)
    pairs = obj.get("pairs")
    if not isinstance(pairs, list):
        raise MalformedInputError('map file must contain {"pairs": [[x, y], ...]}')
    table = {}
    for x, y in pairs:
        table[sz.parse_bisection(domain, x)] = sz.parse_bisection(codomain, y)
    return table, domain


def cmd_verify(args) -> int:
    budget = _budget(args)
    built = _build_map(args)
    if isinstance(built, tuple):
        pi, domain = built
    else:
        pi, domain = built, built.domain
    if args.K == "all":
        K = list(enumerate_semigroup(domain, cap=budget.exhaustive_cap))
    else:
        obj = sz.load_json(args.K)
        items = obj if isinstance(obj, list) else obj.get("bisections", [])
        K = [sz.parse_bisection(domain, item) for item in items]
    report = vf.check_almost_morphism(pi, K, parse_fraction(args.epsilon))
    _emit(
        args,
        "verify",
        {"map": args.map, "K": args.K, "epsilon": args.epsilon},
        {"report": sz.almost_report_to_json(report), "pass": report.passed},
        budget,
    )
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
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
    _emit(args, "suite", {"name": name}, sz.suite_result_to_json(result), budget)
    if not result.passed:
        failed = [c.name for c in result.checks if not c.passed]
        print(f"suite {name} failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def _p_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soficlab",
        description="Exact computation and verification for finite pmp groupoids.",
    )
    parser.add_argument("--version", action="version", version=f"soficlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--out", help="write the JSON report here (atomic)")
        p.add_argument("--seed", type=int, help="seed for sampled regimes")
        p.add_argument("--budget", type=int, help="exhaustive tuple cap")
        p.add_argument("--samples", type=int, help="sample count above the cap")

    p = sub.add_parser("validate", help="check groupoid axioms on a raw table")
    p.add_argument("raw")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decompose", help="normal form of a raw groupoid")
    p.add_argument("raw")
    p.add_argument("--weights", help="unit masses JSON, overriding the raw file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("embed", help="run a construction and certify it")
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
    p.add_argument("--p", type=int, help="target size (kind=ladder)")
    p.add_argument("--p-list", type=_p_list, help="comma-separated targets (kind=ladder)")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extend", help="full-group completion of a bisection")
    p.add_argument("groupoid")
    p.add_argument("bisection")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="almost-morphism check of a map on a set K")
    p.add_argument("--map", required=True, help="pair-list JSON or construction name")
    p.add_argument("--domain", help="domain groupoid file (pair-list maps)")
    p.add_argument("--codomain", help="codomain groupoid file (pair-list maps)")
    p.add_argument("--groupoid", help="groupoid file (named constructions)")
    p.add_argument("--n", type=int, help="source size (map=ladder)")
    p.add_argument("--p", type=int, help="target size (map=ladder)")
    p.add_argument("--K", default="all", help='"all" or a bisection list JSON')
    p.add_argument("--epsilon", required=True, help="strict threshold p/q")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run a named invariant suite")
    p.add_argument("--name", required=True)
    p.add_argument("--groupoid")
    p.add_argument("--sub")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--n", type=int)
    p.add_argument("--p-list", type=_p_list)
    common(p)
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except (MalformedInputError, vf.IncompletePairListError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except cn.NoTransversalError as exc:
        print(f"no transversal system: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
