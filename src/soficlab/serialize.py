"""JSON schemas for every value the tool reads or writes.

Rationals travel as "p/q" strings in lowest terms with positive denominator.
Output is written atomically (temp file then rename) with sorted keys, so a
fixed invocation produces byte-identical files. A report's fields are
written through jsonable, and only the renamed and derived keys are named.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING

from .groupoid import (
    Arrow,
    Component,
    FiniteGroupoid,
    MalformedInputError,
    RawGroupoid,
    make_groupoid,
)
from .rationals import format_fraction, parse_fraction

if TYPE_CHECKING:  # bisections and reports, named only in annotations
    from .semigroup import Bisection
    from .symmetric import DistortionReport
    from .verify import AlmostMorphismReport, EmbeddingReport, SuiteBudget, SuiteResult


def jsonable(value):
    """Recursively coerce library values into plain JSON data. A record
    (a NamedTuple other than Arrow) is refused, not flattened into a list.
    Bisection comes last, so only a value that could be one imports
    semigroup: the reports of validate and decompose never load it."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, Arrow):
        return list(value)
    if isinstance(value, frozenset):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, list) or type(value) is tuple:
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    from .semigroup import Bisection

    if isinstance(value, Bisection):
        return bisection_to_json(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# Groupoids


def groupoid_to_json(g: FiniteGroupoid) -> dict:
    return {
        "components": [
            {
                "group_table": [list(row) for row in c.table],
                "base_size": c.base_size,
                "weight": format_fraction(c.weight),
            }
            for c in g.components
        ]
    }


def _integer(x, what: str) -> int:
    """A JSON integer; booleans, floats and strings are malformed."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInputError(f"{what} must be an integer, got {x!r}")
    return x


def parse_groupoid(obj: dict) -> FiniteGroupoid:
    comps = obj.get("components") if isinstance(obj, dict) else None
    if not isinstance(comps, list) or not comps:
        raise MalformedInputError("groupoid file needs a nonempty components list")
    parsed = []
    for i, c in enumerate(comps):
        if not isinstance(c, dict):
            raise MalformedInputError(f"component {i} must be an object")
        table = c.get("group_table")
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise MalformedInputError(f"component {i}: group_table must be a list of rows")
        parsed.append(
            Component(
                tuple(tuple(_integer(x, f"component {i}: group_table entry") for x in row) for row in table),
                _integer(c.get("base_size"), f"component {i}: base_size"),
                parse_fraction(c.get("weight")),
            )
        )
    return make_groupoid(parsed)


def _parse_id(x):
    """A raw unit or arrow id: a JSON string or integer; booleans, floats,
    null, lists and objects are malformed."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise MalformedInputError(f"raw ids must be strings or integers, got {x!r}")
    return x


def raw_to_json(raw: RawGroupoid) -> dict:
    out = {
        "units": list(raw.units),
        "arrows": [list(e) for e in raw.arrows],
        "compose": [[a, b, c] for (a, b), c in sorted(raw.compose.items(), key=repr)],
    }
    if raw.masses is not None:
        out["masses"] = {
            str(u): format_fraction(Fraction(w)) for u, w in raw.masses.items()
        }
    return out


def _raw_list(obj: dict, key: str) -> list:
    if key not in obj:
        raise MalformedInputError(f"raw groupoid file needs {key!r}")
    value = obj[key]
    if not isinstance(value, list):
        raise MalformedInputError(f"raw groupoid {key!r} must be a list, got {value!r}")
    return value


def _id_triples(obj: dict, key: str):
    """The entries of a raw groupoid list, each checked to be three ids,
    then parsed lazily."""
    entries = _raw_list(obj, key)
    for e in entries:
        if not isinstance(e, list) or len(e) != 3:
            raise MalformedInputError(f"{key} entry {e!r} must be a list of three ids")
    return ((_parse_id(a), _parse_id(b), _parse_id(c)) for a, b, c in entries)


def parse_raw(obj: dict) -> RawGroupoid:
    if not isinstance(obj, dict):
        raise MalformedInputError("raw groupoid file must be an object")
    units = tuple(_parse_id(u) for u in _raw_list(obj, "units"))
    arrows = tuple(_id_triples(obj, "arrows"))
    spelled = {}
    for x in (*units, *(a for a, _, _ in arrows)):
        if spelled.setdefault(str(x), x) != x:
            raise MalformedInputError(f"ids {spelled[str(x)]!r} and {x!r} are both written {str(x)!r}")
    compose = {}
    for a, b, c in _id_triples(obj, "compose"):
        if (a, b) in compose:
            raise MalformedInputError(f"compose pair ({a!r}, {b!r}) given twice")
        compose[a, b] = c
    masses = parse_masses(obj["masses"], units) if "masses" in obj else None
    return RawGroupoid(units, arrows, compose, masses)


def parse_masses(obj: dict, units) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInputError(f"masses must be an object from unit to rational, got {obj!r}")
    by_name = {str(u): u for u in units}
    out = {}
    for key, w in obj.items():
        if key not in by_name:
            raise MalformedInputError(f"mass given for unknown unit {key!r}")
        out[by_name[key]] = parse_fraction(w)
    return out


# ---------------------------------------------------------------------------
# Semigroup elements


def bisection_to_json(b: Bisection) -> dict:
    return {"arrows": [list(a) for a in b.arrows]}


def _parse_arrows(obj: dict) -> list[Arrow]:
    arrows = obj.get("arrows") if isinstance(obj, dict) else None
    if not isinstance(arrows, list):
        raise MalformedInputError('expected {"arrows": [[comp, g, y_to, y_from], ...]}')
    out = []
    for a in arrows:
        if not isinstance(a, list) or len(a) != len(Arrow._fields):
            raise MalformedInputError(f"arrow {a!r} must be [comp, g, y_to, y_from]")
        out.append(Arrow(*(_integer(x, "arrow field") for x in a)))
    return out


def parse_bisection(g: FiniteGroupoid, obj: dict) -> Bisection:
    from .semigroup import Bisection

    return Bisection(g, tuple(_parse_arrows(obj)))


def parse_bisection_list(g: FiniteGroupoid, obj) -> list[Bisection]:
    """A set K for `verify --K`: a list of bisections, or
    {"bisections": [...]}."""
    items = obj.get("bisections") if isinstance(obj, dict) else obj
    if not isinstance(items, list):
        raise MalformedInputError('K file must be a list of bisections or {"bisections": [...]}')
    return [parse_bisection(g, item) for item in items]


def parse_pair_list(domain: FiniteGroupoid, codomain: FiniteGroupoid, obj) -> dict:
    """A pair-list map {"pairs": [[x, y], ...]} as a dict from domain to
    codomain bisections; one element given two images is malformed."""
    pairs = obj.get("pairs") if isinstance(obj, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise MalformedInputError('map file must contain {"pairs": [[x, y], ...]}')
    table = {}
    for x, y in pairs:
        x, y = parse_bisection(domain, x), parse_bisection(codomain, y)
        if table.setdefault(x, y) != y:
            raise MalformedInputError(f"pair list gives an element of {len(x)} arrows two images")
    return table


def parse_arrow_set(obj: dict) -> frozenset:
    return frozenset(_parse_arrows(obj))


# ---------------------------------------------------------------------------
# Reports


def _record(r) -> dict:
    """A report's fields by name, each written by jsonable."""
    return jsonable({name: getattr(r, name) for name in r._fields})


def almost_report_to_json(r: AlmostMorphismReport) -> dict:
    out = _record(r)
    out["K_size"], out["pass"] = out.pop("k_size"), out.pop("passed")
    return out


def embedding_report_to_json(r: EmbeddingReport) -> dict:
    return {
        **_record(r),
        "multiplicative": r.multiplicative,
        "trace_preserving": r.trace_preserving,
        "isometric": r.isometric,
        "pass": r.passed,
    }


def distortion_report_to_json(r: DistortionReport) -> dict:
    return _record(r)


def budget_to_json(budget: SuiteBudget) -> dict:
    """The seed and budget block of a report whose checks the budget ran."""
    return {
        "seed": budget.seed,
        "budget": {"exhaustive_cap": budget.exhaustive_cap, "sample_count": budget.sample_count},
    }


def suite_result_to_json(r: SuiteResult) -> dict:
    return {
        "suite": r.name,
        "params": jsonable(r.params),
        **budget_to_json(r.budget),
        "pass": r.passed,
        "checks": [
            {"name": c.name, "pass": c.passed, "details": jsonable(c.details)}
            for c in r.checks
        ],
    }


# ---------------------------------------------------------------------------
# Files


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are each given once; json.load would keep
    the last value of a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInputError(f"key {key!r} repeated")
        obj[key] = value
    return obj


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            # the decoder recurses once per level of nesting
            raise MalformedInputError(f"{path}: JSON nested too deeply") from None
        except MalformedInputError as exc:
            raise MalformedInputError(f"{path}: {exc}") from None


def write_json_atomic(obj, path: str) -> None:
    text = dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
