import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soficlab import cayley
from soficlab.cli import main
from soficlab.groupoid import Arrow, connected_groupoid, full_relation, render_raw
from soficlab.serialize import (
    dumps,
    groupoid_to_json,
    load_json,
    parse_arrow_set,
    parse_bisection,
    parse_bisection_list,
    parse_groupoid,
    parse_pair_list,
    parse_raw,
    raw_to_json,
)

Z2Y2 = connected_groupoid(cayley.cyclic(2), 2)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    tmp, write = files
    raw = write("raw.json", raw_to_json(render_raw(Z2Y2)))
    code, out, err = run(capsys, "validate", raw)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_names_the_broken_axiom(files, capsys):
    tmp, write = files
    bad = write(
        "bad.json",
        {
            "units": ["u"],
            "arrows": [["u", "u", "u"], ["g", "u", "u"]],
            "compose": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"], ["g", "g", "g"]],
            "masses": {"u": "1/1"},
        },
    )
    code, out, err = run(capsys, "validate", bad)
    assert code == 2
    assert "inverse law at 'g'" in err


def test_malformed_input_exits_2(files, capsys):
    tmp, write = files
    bad = write("dangling.json", {"units": [0], "arrows": [[0, 0, 0], [1, 0, 2]], "compose": []})
    code, out, err = run(capsys, "validate", bad)
    assert code == 2
    assert "input error" in err


def test_decompose_output_is_valid_groupoid_file(files, capsys):
    tmp, write = files
    raw = write("raw.json", raw_to_json(render_raw(Z2Y2)))
    out_path = str(tmp / "normal.json")
    code, _, _ = run(capsys, "decompose", raw, "-o", out_path)
    assert code == 0
    payload = load_json(out_path)
    assert parse_groupoid(payload) == Z2Y2
    assert payload["isomorphism"]


def test_embed_connected_report(files, capsys):
    tmp, write = files
    gfile = write("g.json", groupoid_to_json(Z2Y2))
    code, out, _ = run(capsys, "embed", "--kind", "connected", "--groupoid", gfile)
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert report["report"]["max_distance_deviation"] == "0/1"


def test_embed_ladder_bound(files, capsys):
    code, out, _ = run(capsys, "embed", "--kind", "ladder", "--n", "3", "--p", "7")
    report = json.loads(out)
    assert code == 0
    assert report["reports"][0]["bound"] == "3/4"
    assert report["reports"][0]["observed_sup"] == "1/7"


def test_embed_index(files, capsys):
    tmp, write = files
    z4 = write("z4.json", groupoid_to_json(__import__("soficlab").group_groupoid(cayley.cyclic(4))))
    sub = write("sub.json", {"arrows": [[0, 0, 0, 0], [0, 2, 0, 0]]})
    code, out, _ = run(capsys, "embed", "--kind", "index", "--groupoid", z4, "--sub", sub)
    assert code == 0 and json.loads(out)["pass"]


def test_embed_convex_and_pair(files, capsys):
    import soficlab as sl
    from fractions import Fraction

    tmp, write = files
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    z2 = sl.group_groupoid(cayley.cyclic(2))
    pt = sl.full_relation(1)
    nu = write("nu.json", groupoid_to_json(sl.convex_combination([(quarter, z2), (1 - quarter, pt)])))
    rho = write("rho.json", groupoid_to_json(sl.convex_combination([(half, z2), (half, pt)])))
    code, out, _ = run(capsys, "embed", "--kind", "convex", "--groupoid", nu)
    assert code == 0 and json.loads(out)["pass"]
    code, out, _ = run(capsys, "embed", "--kind", "pair", "--nu", nu, "--rho", rho, "--t", "1/3")
    assert code == 0 and json.loads(out)["pass"]


def test_embed_product(files, capsys):
    tmp, write = files
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    code, out, _ = run(capsys, "embed", "--kind", "product", "--left", n2, "--right", n2)
    assert code == 0 and json.loads(out)["pass"]


def test_suite_rectangles_and_finite_index(files, capsys):
    import soficlab as sl

    tmp, write = files
    code, out, _ = run(capsys, "suite", "--name", "rectangles", "--n", "2")
    assert code == 0 and json.loads(out)["pass"]
    z4 = write("z4.json", groupoid_to_json(sl.group_groupoid(cayley.cyclic(4))))
    sub = write("sub.json", {"arrows": [[0, 0, 0, 0], [0, 2, 0, 0]]})
    code, out, _ = run(capsys, "suite", "--name", "finite-index", "--groupoid", z4, "--sub", sub)
    assert code == 0 and json.loads(out)["pass"]


def test_suite_missing_params_exit_2(files, capsys):
    code, _, err = run(capsys, "suite", "--name", "trace-distance")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "suite", "--name", "nope", "--n", "2")
    assert code == 2


def test_suite_byte_identical_reports(files, capsys):
    tmp, write = files
    n3 = write("n3.json", groupoid_to_json(full_relation(3)))
    out1, out2 = str(tmp / "r1.json"), str(tmp / "r2.json")
    assert run(capsys, "suite", "--name", "trace-distance", "--groupoid", n3, "--seed", "7", "-o", out1)[0] == 0
    assert run(capsys, "suite", "--name", "trace-distance", "--groupoid", n3, "--seed", "7", "-o", out2)[0] == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_suite_seed_env_override(files, capsys, monkeypatch):
    tmp, write = files
    monkeypatch.setenv("SOFICLAB_SEED", "99")
    code, out, _ = run(capsys, "suite", "--name", "ladder", "--n", "2", "--p-list", "3,4")
    assert code == 0
    assert json.loads(out)["seed"] == 99
    # an explicit flag wins over the environment variable
    code, out, _ = run(
        capsys, "suite", "--name", "ladder", "--n", "2", "--p-list", "3,4", "--seed", "5"
    )
    assert json.loads(out)["seed"] == 5


def test_suite_failure_exit_code(files, capsys):
    code, out, err = run(capsys, "suite", "--name", "metric-prop", "--n", "2")
    assert code == 1
    assert "inverse-invariance" in err


def test_extend_roundtrip(files, capsys):
    tmp, write = files
    n3 = write("n3.json", groupoid_to_json(full_relation(3)))
    gamma = write("gamma.json", {"arrows": [[0, 0, 1, 0]]})
    code, out, _ = run(capsys, "extend", n3, gamma)
    report = json.loads(out)
    assert code == 0 and report["full"]
    assert report["extension"]["arrows"] == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 2, 2]]


def test_verify_pair_list(files, capsys):
    tmp, write = files
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    one = {"arrows": [[0, 0, 0, 0], [0, 0, 1, 1]]}
    swap = {"arrows": [[0, 0, 0, 1], [0, 0, 1, 0]]}
    mapfile = write("map.json", {"pairs": [[swap, one], [one, one]]})
    kfile = write("k.json", [swap])
    code, out, _ = run(
        capsys,
        "verify",
        "--map",
        mapfile,
        "--domain",
        n2,
        "--codomain",
        n2,
        "--K",
        kfile,
        "--epsilon",
        "1/2",
    )
    assert code == 1
    assert json.loads(out)["report"]["max_trace_deviation"] == "1/1"


def test_verify_incomplete_pair_list(files, capsys):
    tmp, write = files
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    swap = {"arrows": [[0, 0, 0, 1], [0, 0, 1, 0]]}
    mapfile = write("map.json", {"pairs": [[swap, swap]]})
    kfile = write("k.json", [swap])
    code, _, err = run(
        capsys, "verify", "--map", mapfile, "--domain", n2, "--codomain", n2,
        "--K", kfile, "--epsilon", "1/2",
    )
    assert code == 2
    assert "pair list" in err


def test_verify_named_construction(files, capsys):
    tmp, write = files
    gfile = write("g.json", groupoid_to_json(Z2Y2))
    code, out, _ = run(
        capsys, "verify", "--map", "connected", "--groupoid", gfile,
        "--K", "all", "--epsilon", "1/100",
    )
    assert code == 0 and json.loads(out)["pass"]


def test_verify_ladder_construction(files, capsys):
    code, out, _ = run(
        capsys, "verify", "--map", "ladder", "--n", "3", "--p", "7",
        "--K", "all", "--epsilon", "4/5",
    )
    report = json.loads(out)["report"]
    assert code == 0 and report["pass"]
    assert report["max_product_deviation"] == "0/1"
    assert report["max_distance_deviation"] == "1/7"


def test_reports_are_atomic_files(files, capsys):
    tmp, write = files
    out_path = str(tmp / "nested.json")
    code, _, _ = run(capsys, "embed", "--kind", "ladder", "--n", "2", "--p", "5", "-o", out_path)
    assert code == 0
    assert os.path.exists(out_path)
    assert not [p for p in os.listdir(tmp) if p.endswith(".tmp")]


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/raw.json")
    assert code == 2
    assert "missing input file" in err


@pytest.mark.parametrize(
    "groupoid,gamma,message",
    [
        ({"group_table": [[0]], "base_size": None, "weight": "1/1"}, [[0, 0, 1, 0]], "base_size"),
        ({"group_table": [[0]], "base_size": 3, "weight": "1/1"}, [[0, 0, 1]], "comp, g, y_to, y_from"),
        ({"group_table": [[0]], "base_size": 3, "weight": True}, [[0, 0, 1, 0]], "rational"),
        ({"group_table": [[0]], "base_size": 3, "weight": "2/4"}, [[0, 0, 1, 0]], "lowest terms"),
    ],
    ids=["null-base-size", "three-field-arrow", "boolean-weight", "non-canonical-weight"],
)
def test_malformed_json_shapes_exit_2(files, capsys, groupoid, gamma, message):
    tmp, write = files
    g = write("g.json", {"components": [groupoid]})
    b = write("b.json", {"arrows": gamma})
    code, out, err = run(capsys, "extend", g, b)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


def test_failed_certificate_exits_1(files, capsys, monkeypatch):
    # a failed certificate is a failed check, not malformed input
    from soficlab.constructions import TransversalSystem

    tmp, write = files
    z4 = write("z4.json", groupoid_to_json(__import__("soficlab").group_groupoid(cayley.cyclic(4))))
    sub = write("sub.json", {"arrows": [[0, 0, 0, 0], [0, 2, 0, 0]]})
    monkeypatch.setattr(TransversalSystem, "violations", lambda self: ["forced"])
    code, out, err = run(capsys, "embed", "--kind", "index", "--groupoid", z4, "--sub", sub)
    assert code == 1
    assert out == ""
    assert err.startswith("certificate error:") and "forced" in err


RAW_OK = {
    "units": ["u"],
    "arrows": [["u", "u", "u"]],
    "compose": [["u", "u", "u"]],
    "masses": {"u": "1/1"},
}
MALFORMED_RAW = {
    "units-not-a-list": (dict(RAW_OK, units=5), "'units'"),
    "arrows-not-a-list": (dict(RAW_OK, arrows={"u": "u"}), "'arrows'"),
    "compose-not-a-list": (dict(RAW_OK, compose="u"), "'compose'"),
    "two-id-arrow": (dict(RAW_OK, arrows=[[0, 0]]), "arrows entry"),
    "four-id-compose": (dict(RAW_OK, compose=[["u", "u", "u", "u"]]), "compose entry"),
    "missing-compose": ({k: v for k, v in RAW_OK.items() if k != "compose"}, "needs 'compose'"),
    "missing-units": ({k: v for k, v in RAW_OK.items() if k != "units"}, "needs 'units'"),
    "masses-not-an-object": (dict(RAW_OK, masses=["1/1"]), "masses"),
    "file-not-an-object": ([RAW_OK], "object"),
}


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("case", list(MALFORMED_RAW))
def test_malformed_raw_exits_2(files, capsys, command, case):
    tmp, write = files
    body, field = MALFORMED_RAW[case]
    code, out, err = run(capsys, command, write("raw.json", body))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and field in err


def test_well_formed_raw_still_validates(files, capsys):
    tmp, write = files
    code, out, err = run(capsys, "validate", write("raw.json", RAW_OK))
    assert code == 0 and json.loads(out)["ok"] is True


ONE = {"arrows": [[0, 0, 0, 0], [0, 0, 1, 1]]}
SWAP = {"arrows": [[0, 0, 0, 1], [0, 0, 1, 0]]}
# (map file body, K file body, message): each exits 2 with an input error
MALFORMED_VERIFY = {
    "map-is-a-list": ([[SWAP, ONE]], [SWAP], "pairs"),
    "map-is-a-string": ("pairs", [SWAP], "pairs"),
    "pair-not-a-list": ({"pairs": [1]}, [SWAP], "pairs"),
    "pair-of-three": ({"pairs": [[SWAP, ONE, ONE]]}, [SWAP], "pairs"),
    "two-images": ({"pairs": [[SWAP, ONE], [ONE, ONE], [SWAP, SWAP]]}, [SWAP], "two images"),
    "K-is-a-string": ({"pairs": [[SWAP, ONE], [ONE, ONE]]}, "swap", "K file"),
    "K-bisections-not-a-list": ({"pairs": [[SWAP, ONE], [ONE, ONE]]}, {"bisections": 5}, "K file"),
    "K-without-bisections": ({"pairs": [[SWAP, ONE], [ONE, ONE]]}, {"elements": [SWAP]}, "K file"),
}


@pytest.mark.parametrize("case", list(MALFORMED_VERIFY))
def test_malformed_verify_inputs_exit_2(files, capsys, case):
    tmp, write = files
    body, k_body, message = MALFORMED_VERIFY[case]
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    code, out, err = run(
        capsys, "verify", "--map", write("map.json", body), "--domain", n2, "--codomain", n2,
        "--K", write("k.json", k_body), "--epsilon", "1/2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and message in err


def test_repeated_identical_pair_is_accepted(files, capsys):
    tmp, write = files
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    mapfile = write("map.json", {"pairs": [[SWAP, SWAP], [ONE, ONE], [SWAP, SWAP]]})
    code, out, _ = run(
        capsys, "verify", "--map", mapfile, "--domain", n2, "--codomain", n2,
        "--K", write("k.json", {"bisections": [SWAP, ONE]}), "--epsilon", "1/2",
    )
    assert code == 0 and json.loads(out)["report"]["K_size"] == 2


# [[2]] has 7 elements, so K = all tests 49 pairs; a K file of 3 tests 9
@pytest.mark.parametrize(
    "K,budget,expected",
    [("all", "49", 0), ("all", "48", 2), ("file", "9", 0), ("file", "8", 2)],
    ids=["all-49", "all-48", "file-9", "file-8"],
)
def test_verify_charges_every_pair_of_K(files, capsys, K, budget, expected):
    tmp, write = files
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    if K == "file":
        K = write("k.json", [SWAP, ONE, SWAP])
    code, out, err = run(
        capsys, "verify", "--map", "identity", "--groupoid", n2, "--K", K,
        "--epsilon", "1/2", "--budget", budget,
    )
    assert code == expected
    if expected == 2:
        assert out == "" and err.startswith("budget error:") and f"exceeds cap {budget}" in err


# a ladder from [[0]] has no block to copy: each command rejects it as input
LADDER_FROM_NO_POINTS = {
    "embed": ["embed", "--kind", "ladder", "--n", "0", "--p", "3"],
    "suite": ["suite", "--name", "ladder", "--n", "0", "--p-list", "3"],
    "verify": ["verify", "--map", "ladder", "--n", "0", "--p", "2", "--epsilon", "1/2"],
}


@pytest.mark.parametrize("command", list(LADDER_FROM_NO_POINTS))
def test_ladder_from_no_points_exits_2(capsys, command):
    code, out, err = run(capsys, *LADDER_FROM_NO_POINTS[command])
    assert code == 2
    assert out == "" and err.startswith("input error:") and "source size 0" in err


# a repeated ladder target would run its distortion twice and emit two
# reports (or two checks named ladder-3-to-4); argparse rejects it instead
REPEATED_TARGETS = {
    "embed": ["embed", "--kind", "ladder", "--n", "3", "--p-list", "4,5,4"],
    "suite": ["suite", "--name", "ladder", "--n", "3", "--p-list", "4,4"],
}


@pytest.mark.parametrize("command", list(REPEATED_TARGETS))
def test_repeated_ladder_target_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(REPEATED_TARGETS[command])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "repeated target 4" in captured.err


# a --p-list without a target is a usage error, not a missing option
@pytest.mark.parametrize("text", [",", ""])
@pytest.mark.parametrize("command", [["embed", "--kind", "ladder"], ["suite", "--name", "ladder"]])
def test_empty_ladder_target_list_exits_2(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n", "2", "--p-list", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and f"argument --p-list: no target in {text!r}" in captured.err


# one spelling per option: argparse would otherwise read `--p` on suite as
# --p-list and `--bud` as --budget, and embed would drop --p beside --p-list
ONE_SPELLING = {
    "suite --p": (["suite", "--name", "ladder", "--n", "3", "--p-list", "7", "--p", "5"], "unrecognized arguments: --p 5"),
    "embed --p and --p-list": (
        ["embed", "--kind", "ladder", "--n", "3", "--p", "5", "--p-list", "7"],
        "argument --p-list: not allowed with argument --p",
    ),
    "suite --bud": (["suite", "--name", "ladder", "--n", "3", "--p-list", "7", "--bud", "9"], "unrecognized arguments: --bud 9"),
    "verify --bud": (["verify", "--map", "ladder", "--n", "2", "--p", "3", "--epsilon", "1/2", "--bud", "9"], "unrecognized arguments: --bud 9"),
}


@pytest.mark.parametrize("case", list(ONE_SPELLING))
def test_options_are_spelled_in_full(capsys, case):
    argv, message = ONE_SPELLING[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


# every option each embed kind needs, with a value that runs; each test
# leaves one of them out
EMBED_OPTIONS = {
    "connected": {"groupoid": "z2y2.json"},
    "convex": {"groupoid": "z2y2.json"},
    "pair": {"nu": "z2y2.json", "rho": "z2y2.json", "t": "1/3"},
    "index": {"groupoid": "z2y2.json", "sub": "units.json"},
    "product": {"left": "n2.json", "right": "n2.json"},
    "ladder": {"n": "2", "p": "3"},
}
EMBED_MISSING = [(kind, option) for kind, options in EMBED_OPTIONS.items() for option in options]


def embed_argv(files, monkeypatch, kind, missing):
    tmp, write = files
    monkeypatch.chdir(tmp)
    write("z2y2.json", groupoid_to_json(Z2Y2))
    write("n2.json", groupoid_to_json(full_relation(2)))
    write("units.json", {"arrows": [[0, 0, 0, 0], [0, 0, 1, 1]]})
    argv = ["embed", "--kind", kind]
    for option, value in EMBED_OPTIONS[kind].items():
        if option != missing:
            argv += [f"--{option}", value]
    return argv


@pytest.mark.parametrize("kind,missing", EMBED_MISSING, ids=[f"{k}-{o}" for k, o in EMBED_MISSING])
def test_embed_without_a_required_option_exits_2(files, capsys, monkeypatch, kind, missing):
    code, out, err = run(capsys, *embed_argv(files, monkeypatch, kind, missing))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: --kind {kind} needs --{missing}") and "Traceback" not in err


# a --sub arrow outside Z2xY2, beside its two unit arrows: no component 5,
# a label beyond the group order, no point 5, a negative label
OUTSIDE_ARROWS = [[5, 0, 0, 0], [0, 7, 0, 0], [0, 0, 5, 5], [0, -1, 0, 0]]
SUB_COMMANDS = {
    "suite": ["suite", "--name", "finite-index"],
    "embed": ["embed", "--kind", "index"],
}


@pytest.mark.parametrize("arrow", OUTSIDE_ARROWS, ids=lambda a: "_".join(map(str, a)))
@pytest.mark.parametrize("command", list(SUB_COMMANDS))
def test_sub_arrow_outside_the_groupoid_exits_2(files, capsys, command, arrow):
    tmp, write = files
    z2y2 = write("z2y2.json", groupoid_to_json(Z2Y2))
    sub = write("sub.json", {"arrows": [[0, 0, 0, 0], [0, 0, 1, 1], arrow]})
    code, out, err = run(capsys, *SUB_COMMANDS[command], "--groupoid", z2y2, "--sub", sub)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and f"arrow {Arrow(*arrow)} not in the groupoid" in err
    assert "Traceback" not in err


# a cap of 0 is rejected by SuiteBudget, not replaced by its default
BUDGETED_COMMANDS = {
    "suite": ["suite", "--name", "trace-distance", "--n", "2"],
    "embed": ["embed", "--kind", "ladder", "--n", "2", "--p", "3"],
    "verify": ["verify", "--map", "ladder", "--n", "2", "--p", "3", "--epsilon", "1/2"],
}


@pytest.mark.parametrize("flag", ["--budget", "--samples"])
@pytest.mark.parametrize("command", list(BUDGETED_COMMANDS))
def test_zero_budget_exits_2(capsys, command, flag):
    code, out, err = run(capsys, *BUDGETED_COMMANDS[command], flag, "0")
    assert code == 2
    assert out == "" and err == "input error: budget caps must be positive\n"
    # without the flag the command runs on the default budget
    code, out, _ = run(capsys, *BUDGETED_COMMANDS[command])
    assert code == 0 and json.loads(out)["budget"] == {"exhaustive_cap": 200000, "sample_count": 500}


# ---------------------------------------------------------------------------
# Fuzzing the JSON loaders: arbitrary JSON never escapes as a traceback

REL2 = full_relation(2)
# keys the loaders look for, so that the fuzzer reaches past the top level
LOADER_KEYS = [
    "components", "group_table", "base_size", "weight", "units", "arrows",
    "compose", "masses", "bisections", "pairs",
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5)
    | st.sampled_from(["1/1", "1/2", "u"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(LOADER_KEYS) | st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)
# loader -> (the `soficlab` arguments reading the fuzzed file, its parser);
# n2.json holds [[2]] and empty.json the empty bisection
FUZZED_LOADERS = {
    "groupoid": (lambda f: ["extend", f, "empty.json"], parse_groupoid),
    "raw-groupoid": (lambda f: ["validate", f], parse_raw),
    "extend-bisection": (lambda f: ["extend", "n2.json", f], lambda obj: parse_bisection(REL2, obj)),
    "K": (
        lambda f: ["verify", "--map", "identity", "--groupoid", "n2.json", "--K", f, "--epsilon", "1/2"],
        lambda obj: parse_bisection_list(REL2, obj),
    ),
    "sub": (lambda f: ["embed", "--kind", "index", "--groupoid", "n2.json", "--sub", f], parse_arrow_set),
    "map": (
        lambda f: [
            "verify", "--map", f, "--domain", "n2.json", "--codomain", "n2.json", "--epsilon", "1/2",
        ],
        lambda obj: parse_pair_list(REL2, REL2, obj),
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "n2.json").write_text(dumps(groupoid_to_json(REL2)))
    (directory / "empty.json").write_text(json.dumps({"arrows": []}))
    return directory


def _parses(parser, obj) -> bool:
    try:
        parser(obj)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("loader", list(FUZZED_LOADERS))
def test_fuzzed_json_exits_2_unless_it_parses(fuzz_dir, monkeypatch, loader):
    monkeypatch.chdir(fuzz_dir)
    argv, parser = FUZZED_LOADERS[loader]

    @settings(
        max_examples=50,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(json_values)
    def check(obj):
        (fuzz_dir / "fuzzed.json").write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv("fuzzed.json"))
        if _parses(parser, obj):
            assert code in (0, 1, 2)
        else:
            assert code == 2, (obj, err.getvalue())
            assert out.getvalue() == "" and err.getvalue().startswith("input error:")

    check()


# ---------------------------------------------------------------------------
# What a CLI process imports, the package's public names, and exit codes


def _fresh_python(script: str, cwd) -> str:
    """Run script in a new interpreter with soficlab on its path; its stdout."""
    import soficlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soficlab.__file__)))
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_groupoid_commands_load_no_certificate_layer(files):
    tmp, write = files
    write("raw.json", raw_to_json(render_raw(Z2Y2)))
    write("bad.json", {"units": [0], "arrows": [[0, 0, 0], [1, 0, 2]], "compose": []})
    write("no-inverse.json", {"units": ["u"], "arrows": [["u", "u", "u"], ["g", "u", "u"]],
                              "compose": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"], ["g", "g", "g"]],
                              "masses": {"u": "1/1"}})
    write("g.json", groupoid_to_json(Z2Y2))
    write("gamma.json", {"arrows": [[0, 1, 1, 0]]})
    # validate and decompose first, every exit path included, then extend
    script = """
import contextlib, io, sys
from soficlab import cli
def run(*runs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        print([cli.main(argv) for argv in runs], file=sys.__stdout__)
    print(sorted(m for m in sys.modules if m.startswith("soficlab")))
run(["validate", "raw.json"], ["decompose", "raw.json"], ["validate", "bad.json"],
    ["decompose", "missing.json"], ["decompose", "no-inverse.json"])
run(["extend", "g.json", "gamma.json"])
"""
    codes, modules, extend_code, extend_modules = _fresh_python(script, tmp).splitlines()
    assert (codes, extend_code) == ("[0, 0, 2, 2, 2]", "[0]")
    certificate_layers = {"soficlab.verify", "soficlab.constructions", "soficlab.symmetric"}
    loaded = set(eval(modules))
    assert "soficlab.groupoid" in loaded and not {"soficlab.semigroup", *certificate_layers} & loaded
    loaded = set(eval(extend_modules))
    assert "soficlab.semigroup" in loaded and not certificate_layers & loaded


def test_no_command_loads_inspect_or_generated_classes(files):
    # the records are NamedTuples and groupoid.Value subclasses: a process
    # that runs every command and imports every module adds neither
    # dataclasses nor inspect (with ast, dis and tokenize) to a bare
    # interpreter's modules
    tmp, write = files
    write("raw.json", raw_to_json(render_raw(Z2Y2)))
    write("g.json", groupoid_to_json(Z2Y2))
    write("gamma.json", {"arrows": [[0, 1, 1, 0]]})
    script = """
import contextlib, io, sys
bare = set(sys.modules)
from soficlab import cli
runs = [["validate", "raw.json"], ["decompose", "raw.json"], ["embed", "--kind", "connected", "--groupoid", "g.json"],
        ["extend", "g.json", "gamma.json"], ["verify", "--map", "identity", "--groupoid", "g.json", "--epsilon", "1/2"],
        ["suite", "--name", "ladder", "--n", "2", "--p-list", "3"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
import importlib, os, soficlab
files = sorted(f[:-3] for f in os.listdir(os.path.dirname(soficlab.__file__)) if f.endswith(".py"))
names = [f"soficlab.{f}" for f in files if f != "__init__"]
for name in names:
    importlib.import_module(name)
print(codes)
print(all(name in sys.modules for name in names) and len(names))
print(sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & (set(sys.modules) - bare)))
"""
    codes, modules, added = _fresh_python(script, tmp).splitlines()
    assert codes == "[0, 0, 0, 0, 0, 0]"
    assert modules == "9"
    assert added == "[]"


# every public name of the package
PUBLIC_NAMES = [
    "AlmostMorphismReport", "Arrow", "Bisection", "Component", "DistortionReport",
    "EmbeddingReport", "FiniteGroupoid", "PackedProduct", "RawGroupoid", "SemigroupMap",
    "SuiteBudget", "TransversalSystem", "bisection", "block_components", "cayley",
    "check_almost_morphism", "check_embedding", "compose", "connected_groupoid", "constructions",
    "convex_combination", "decompose", "embed_connected",
    "embed_convex", "embed_convex_pair", "empty_bisection", "extend_to_full_group",
    "find_transversals", "finite_index_map",
    "full_relation", "general_map", "group_groupoid", "groupoid", "idempotent",
    "identity_map", "make_groupoid",
    "product_groupoid", "rectangle_decompose", "render_raw", "restrict_almost_morphism",
    "run_suite", "semigroup", "step_map", "symmetric", "tensor", "unit_bisection", "validate_raw",
    "verify",
]


def test_public_names_resolve_lazily(tmp_path):
    script = """
import sys
import soficlab
loaded = sorted(m for m in sys.modules if m.startswith("soficlab."))
public = sorted(n for n in dir(soficlab) if not n.startswith("_"))
star = {}
exec("from soficlab import *", star)
print(loaded)
print(public)
print(sorted(n for n in star if not n.startswith("_")))
print(all(getattr(soficlab, n) is not None for n in public))
"""
    loaded, public, star, resolved = _fresh_python(script, tmp_path).splitlines()
    assert eval(loaded) == []
    assert eval(public) == PUBLIC_NAMES
    assert eval(star) == PUBLIC_NAMES
    assert resolved == "True"
    import soficlab

    assert sorted(soficlab.__all__) == PUBLIC_NAMES
    assert soficlab.Bisection is __import__("soficlab.semigroup").semigroup.Bisection
    with pytest.raises(AttributeError):
        soficlab.no_such_name


def _raising(module, name, *args):
    def fail(raw):
        cls = getattr(importlib.import_module(module), name)
        raise cls(*args)

    return fail


# (module, class, constructor arguments, exit code, stderr prefix)
ERRORS = [
    ("builtins", "FileNotFoundError", (2, "gone", "x.json"), 2, "missing input file: x.json"),
    ("soficlab.groupoid", "MalformedInputError", ("bad shape",), 2, "input error: bad shape"),
    ("soficlab.groupoid", "PmpViolationError", ("bad mass",), 2, "input error: bad mass"),
    ("soficlab.verify", "IncompletePairListError", ("no image",), 2, "input error: no image"),
    ("soficlab.semigroup", "CapExceededError", (9, 4, "pairs of K"), 2, "budget error: "),
    ("soficlab.constructions", "NoTransversalError", ("none",), 1, "no transversal system: none"),
    ("soficlab.semigroup", "CertificateError", ("forged",), 1, "certificate error: forged"),
    ("soficlab.semigroup", "ExtensionCertificateError", ("short",), 1, "certificate error: short"),
    ("builtins", "ValueError", ("odd",), 2, "input error: odd"),
    ("builtins", "KeyError", ("k",), 2, "input error: 'k'"),
]


@pytest.mark.parametrize("module, name, args, code, prefix", ERRORS, ids=[e[1] for e in ERRORS])
def test_main_exit_code_per_error_class(files, capsys, monkeypatch, module, name, args, code, prefix):
    from soficlab import cli

    tmp, write = files
    raw = write("raw.json", raw_to_json(render_raw(Z2Y2)))
    monkeypatch.setattr(cli, "validate_raw", _raising(module, name, *args))
    got, out, err = run(capsys, "validate", raw)
    assert (got, out) == (code, "")
    assert err.startswith(prefix)
