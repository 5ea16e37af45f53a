import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soficlab import cayley
from soficlab.cli import main
from soficlab.groupoid import (
    Arrow,
    connected_groupoid,
    convex_combination,
    full_relation,
    point_groupoid,
    render_raw,
)
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
    assert (tmp / "r1.json").read_bytes() == (tmp / "r2.json").read_bytes()


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


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_verify_epsilon_not_positive_exits_2(capsys, epsilon):
    # the threshold is strict, so an epsilon <= 0 could only fail the run
    code, out, err = run(capsys, "verify", "--map", "ladder", "--n", "2", "--p", "3", f"--epsilon={epsilon}")
    assert code == 2
    assert out == "" and err.startswith("input error:") and "epsilon must be positive" in err


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
    "argv",
    [
        ["validate", "{dir}"],
        ["decompose", "{dir}"],
        ["embed", "--kind", "convex", "--groupoid", "{dir}"],
        ["embed", "--kind", "pair", "--nu", "{dir}", "--rho", "{n3}", "--t", "1/2"],
        ["embed", "--kind", "pair", "--nu", "{n3}", "--rho", "{dir}", "--t", "1/2"],
        ["suite", "--name", "finite-index", "--groupoid", "{n3}", "--sub", "{dir}"],
        ["verify", "--map", "{dir}", "--domain", "{n3}", "--codomain", "{n3}", "--epsilon", "1/2"],
    ],
    ids=["validate", "decompose", "groupoid", "nu", "rho", "sub", "map"],
)
def test_input_directory_exits_2(files, capsys, argv):
    tmp, write = files
    n3 = write("n3.json", groupoid_to_json(full_relation(3)))
    code, out, err = run(capsys, *[a.format(dir=tmp, n3=n3) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"cannot read input file {tmp}: Is a directory\n"


@pytest.mark.parametrize("target", ["directory", "missing/dir/out.json"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    out = tmp_path / target
    if target == "directory":
        out.mkdir()
    code, _, err = run(capsys, "suite", "--name", "trace-distance", "--n", "2", "-o", str(out))
    assert code == 2
    reason = "Is a directory" if target == "directory" else "No such file or directory"
    assert err == f"cannot write output {out}: {reason}\n"
    # write_json_atomic unlinks its temporary file
    assert not list(tmp_path.rglob("*.tmp"))


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


def z3_raw(e, a, b) -> dict:
    """Z3 on one unit e, with a * a = b: its arrows take the given ids."""
    times = {(e, e): e, (e, a): a, (e, b): b, (a, e): a, (b, e): b, (a, a): b, (a, b): e, (b, a): e, (b, b): a}
    return {
        "units": [e],
        "arrows": [[x, e, e] for x in (e, a, b)],
        "compose": [[x, y, xy] for (x, y), xy in times.items()],
        "masses": {str(e): "1/1"},
    }


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
    "repeated-compose-pair": (dict(RAW_OK, compose=[["u", "u", "u"], ["u", "u", "u"]]), "compose pair ('u', 'u') given twice"),
    # a str body is the text of the file, since a dict cannot repeat a key
    "repeated-key": (json.dumps(RAW_OK)[:-1] + ', "units": ["u"]}', "key 'units' repeated"),
    "repeated-mass": (json.dumps(RAW_OK)[:-2] + ', "u": "1/2"}}', "key 'u' repeated"),
    # distinct JSON ids, but a report would key both as "1"
    "ids-spelled-alike": (z3_raw("u", 1, "1"), "ids 1 and '1' are both written '1'"),
    # a JSON true was kept as a bool, so the mass keyed "true" matched no unit
    "unit-true": (dict(RAW_OK, units=[True], arrows=[[True, True, True]], compose=[[True] * 3], masses={"true": "1/1"}),
                  "got True"),
    "arrow-false": (z3_raw("u", False, "b"), "got False"),
    "arrow-float": (z3_raw("u", 1.5, "b"), "got 1.5"),
    "unit-null": (dict(RAW_OK, units=["u", None]), "got None"),
    "arrow-list": (dict(RAW_OK, arrows=[["u", "u", "u"], [["g"], "u", "u"]]), "got ['g']"),
    "compose-object": (dict(RAW_OK, compose=[["u", "u", {"u": 1}]]), "got {'u': 1}"),
}


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("case", list(MALFORMED_RAW))
def test_malformed_raw_exits_2(files, capsys, command, case):
    tmp, _ = files
    body, field = MALFORMED_RAW[case]
    path = tmp / "raw.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:") and field in err and "Traceback" not in err


def test_repeated_groupoid_key_exits_2(files, capsys):
    # json.load would keep the second components list and run the suite
    tmp, _ = files
    text = json.dumps(groupoid_to_json(full_relation(2)))
    path = tmp / "twice.json"
    path.write_text(text[:-1] + ", " + text[1:])
    code, out, err = run(capsys, "suite", "--name", "trace-distance", "--groupoid", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: key 'components' repeated\n"


def test_pair_count_past_the_digit_limit_is_a_budget_error(files, capsys):
    # the pairs of K = all on a 1,500-point full relation have 8,294 digits,
    # more than Python turns into a string: the count prints as a bound,
    # and the map's 2,250,000 arrows are not tabulated
    tmp, write = files
    big = write("big.json", groupoid_to_json(full_relation(1500)))
    code, out, err = run(capsys, "verify", "--map", "identity", "--groupoid", big, "--K", "all", "--epsilon", "1/2")
    assert (code, out) == (2, "")
    assert err == "budget error: pairs of K: predicted count above 10^8293 exceeds cap 200000\n"


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


# (argv, message): each exits 2 with an input error and no report; "{name}"
# stands for the path of FILES[name]
RAW_N2 = raw_to_json(render_raw(full_relation(2)))
FILES = {
    "n2": groupoid_to_json(full_relation(2)),
    "pairs": {"pairs": []},
    "raw": RAW_N2,
    "raw-without-masses": {k: v for k, v in RAW_N2.items() if k != "masses"},
    "unit-missing": {"0": "1/1"},
    "zero-mass": {"0": "0/1", "1": "1/1"},
    "negative-mass": {"0": "-1/2", "1": "3/2"},
    "sum-short": {"0": "1/2", "1": "1/3"},
    "uneven-component": {"0": "1/3", "1": "2/3"},
    "unknown-unit": {"0": "1/2", "7": "1/2"},
}
USAGE_ERRORS = {
    "verify-ladder-without-p": (["verify", "--map", "ladder", "--n", "2", "--epsilon", "1/2"], "construction 'ladder' needs --n and --p"),
    "verify-convex-without-groupoid": (["verify", "--map", "convex", "--epsilon", "1/2"], "construction 'convex' needs --groupoid"),
    "verify-unknown-map": (["verify", "--map", "nosuch", "--epsilon", "1/2"], "--map must be a pair-list file or one of ["),
    "verify-pair-list-alone": (["verify", "--map", "{pairs}", "--epsilon", "1/2"], "a pair-list map needs --domain and --codomain"),
    "suite-finite-index-without-sub": (["suite", "--name", "finite-index", "--groupoid", "{n2}"], "needs --groupoid and --sub"),
    "suite-rectangles-without-factors": (["suite", "--name", "rectangles"], "needs --left/--right or --n"),
    "suite-ladder-without-p-list": (["suite", "--name", "ladder", "--n", "2"], "needs --n and --p-list"),
    "suite-extension-without-groupoid": (["suite", "--name", "extension"], "needs --groupoid or --n"),
    "suite-unknown": (["suite", "--name", "nosuch", "--n", "2"], "unknown suite 'nosuch'"),
    "embed-ladder-without-target": (["embed", "--kind", "ladder", "--n", "3"], "--kind ladder needs --p or --p-list"),
    "decompose-without-masses": (["decompose", "{raw-without-masses}"], "no unit masses given"),
    "weights-unit-missing": (["decompose", "{raw}", "--weights", "{unit-missing}"], "masses must cover exactly the units"),
    "weights-zero-mass": (["decompose", "{raw}", "--weights", "{zero-mass}"], "unit masses must be positive"),
    "weights-negative-mass": (["decompose", "{raw}", "--weights", "{negative-mass}"], "unit masses must be positive"),
    "weights-sum-short": (["decompose", "{raw}", "--weights", "{sum-short}"], "must sum to 1 exactly"),
    "weights-uneven-component": (
        ["decompose", "{raw}", "--weights", "{uneven-component}"],
        "unit masses differ within one connected component",
    ),
    "weights-unknown-unit": (["decompose", "{raw}", "--weights", "{unknown-unit}"], "mass given for unknown unit"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_and_malformed_input_exit_2(files, capsys, case):
    tmp, write = files
    argv, message = USAGE_ERRORS[case]
    paths = {name: write(f"{name}.json", body) for name, body in FILES.items()}
    code, out, err = run(capsys, *(a.format_map(paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and message in err and "Traceback" not in err


def test_bad_ladder_target_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--kind", "ladder", "--n", "3", "--p-list", "4,x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "bad integer list '4,x'" in captured.err


def test_weights_replace_the_raw_masses(files, capsys):
    tmp, write = files
    two_points = convex_combination([(Fraction(1, 2), point_groupoid()), (Fraction(1, 2), point_groupoid())])
    raw = write("raw.json", raw_to_json(render_raw(two_points)))
    weights = write("weights.json", {"0": "1/3", "1": "2/3"})
    code, out, err = run(capsys, "decompose", raw, "--weights", weights)
    assert (code, err) == (0, "")
    assert sorted(c["weight"] for c in json.loads(out)["components"]) == ["1/3", "2/3"]


@pytest.mark.parametrize(
    "raw",
    [raw_to_json(render_raw(Z2Y2)), RAW_OK, RAW_N2, z3_raw(0, 1, 2), z3_raw("u", "a", "b"), z3_raw("u", 1, "2")],
    ids=["Z2Y2", "point", "full-relation-2", "z3-int-ids", "z3-str-ids", "z3-mixed-ids"],
)
def test_decompose_maps_every_raw_arrow(files, capsys, raw):
    tmp, write = files
    code, out, err = run(capsys, "decompose", write("raw.json", raw))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    iso = payload["isomorphism"]
    images = [tuple(v) for v in iso.values()]
    assert len(iso) == len(raw["arrows"])
    assert len(set(images)) == len(images)
    assert set(images) <= set(parse_groupoid(payload).arrows())


# nested far deeper than the JSON decoder recurses
DEEP = 200_000


def write_deep(tmp_path) -> str:
    path = tmp_path / "deep.json"
    path.write_text("[" * DEEP + "]" * DEEP)
    return str(path)


# one command per loader: the raw file, --groupoid, the bisection of
# extend, --K, --map and --sub
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{deep}"],
        ["suite", "--name", "trace-distance", "--groupoid", "{deep}"],
        ["extend", "{n2}", "{deep}"],
        ["verify", "--map", "{map}", "--domain", "{n2}", "--codomain", "{n2}", "--K", "{deep}", "--epsilon", "1/2"],
        ["verify", "--map", "{deep}", "--domain", "{n2}", "--codomain", "{n2}", "--epsilon", "1/2"],
        ["suite", "--name", "finite-index", "--groupoid", "{n2}", "--sub", "{deep}"],
    ],
    ids=["raw", "groupoid", "bisection", "K", "map", "sub"],
)
def test_deeply_nested_json_exits_2(files, capsys, argv):
    tmp, write = files
    deep = write_deep(tmp)
    n2 = write("n2.json", groupoid_to_json(full_relation(2)))
    mapfile = write("map.json", {"pairs": [[ONE, ONE]]})
    code, out, err = run(capsys, *[a.format(deep=deep, n2=n2, map=mapfile) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"input error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
def test_deeply_nested_json_exits_2_as_a_process(tmp_path, flags):
    import soficlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soficlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "soficlab.cli", "validate", write_deep(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("input error:") and "Traceback" not in proc.stderr


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


# each bad argument of the example scripts is a usage error, caught before
# any work: a cap of 0, a source size of 0, targets that end below the
# source, which would print an empty table, and a --json path in a
# directory that does not exist
@pytest.mark.parametrize(
    "args,message",
    [
        (["run_suites.py", "--budget", "0"], "--budget: budget caps must be positive"),
        (["ladder_scan.py", "--n", "0"], "--n must be positive, got 0"),
        (["ladder_scan.py", "--pair-cap", "0"], "--pair-cap and --samples: budget caps must be positive"),
        (["ladder_scan.py", "--n", "3", "--p-max", "2"], "--p-max 2 is below --n 3, so no target runs"),
        (
            ["ladder_scan.py", "--n", "3", "--p-max", "5", "--json", "missing/x.json"],
            "--json: cannot write missing/x.json: No such file or directory",
        ),
    ],
)
def test_script_argument_errors_exit_2(tmp_path, args, message):
    import soficlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soficlab.__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, args[0]), *args[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage:") and proc.stderr.endswith(f"error: {message}\n")


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


# a ladder target below its source is rejected before K is charged, with
# general_map's message
def test_ladder_target_below_its_source_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--map", "ladder", "--n", "400", "--p", "3", "--K", "all", "--epsilon", "1/2")
    assert code == 2
    assert out == "" and err == "input error: target size 3 below 400\n"


def test_verify_charges_k_before_building_the_ladder(capsys, monkeypatch):
    # the 160,000-arrow table of [[400]] -> [[401]] is not built when the
    # pairs of K = all exceed the cap; within the cap it is built once
    from soficlab import constructions

    built, general_map = [], constructions.general_map
    monkeypatch.setattr(constructions, "general_map", lambda n, p: built.append((n, p)) or general_map(n, p))
    code, out, err = run(capsys, "verify", "--map", "ladder", "--n", "400", "--p", "401", "--K", "all", "--epsilon", "1/2")
    assert code == 2
    assert out == "" and err.startswith("budget error: pairs of K")
    assert built == []
    code, _, _ = run(capsys, "verify", "--map", "ladder", "--n", "2", "--p", "3", "--K", "all", "--epsilon", "1/2")
    assert code == 0 and built == [(2, 3)]


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


# validate, decompose and extend run no budget, so they take neither cap
UNBUDGETED = {"validate": ["validate", "raw.json"], "decompose": ["decompose", "raw.json"], "extend": ["extend", "g.json", "b.json"]}
# one spelling per option: argparse would otherwise read `--p` on suite as
# --p-list and `--bud` as --budget, and embed would drop --p beside --p-list;
# an option a command does not take, and an empty --p-list item, which is
# not skipped, are usage errors too
ONE_SPELLING = {
    "suite --p": (["suite", "--name", "ladder", "--n", "3", "--p-list", "7", "--p", "5"], "unrecognized arguments: --p 5"),
    "embed --p and --p-list": (
        ["embed", "--kind", "ladder", "--n", "3", "--p", "5", "--p-list", "7"],
        "argument --p-list: not allowed with argument --p",
    ),
    "suite --bud": (["suite", "--name", "ladder", "--n", "3", "--p-list", "7", "--bud", "9"], "unrecognized arguments: --bud 9"),
    "verify --bud": (["verify", "--map", "ladder", "--n", "2", "--p", "3", "--epsilon", "1/2", "--bud", "9"], "unrecognized arguments: --bud 9"),
    **{
        f"{command} {flag}": ([*argv, flag, "9"], f"unrecognized arguments: {flag} 9")
        for command, argv in UNBUDGETED.items()
        for flag in ("--budget", "--samples")
    },
    "embed --p-list ,5,,7": (["embed", "--kind", "ladder", "--n", "3", "--p-list", ",5,,7"], "bad integer list ',5,,7'"),
    "suite --p-list 5,": (["suite", "--name", "ladder", "--n", "3", "--p-list", "5,"], "bad integer list '5,'"),
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


@pytest.mark.parametrize("t", ["0", "1/2", "1"])
def test_embed_pair_of_incompatible_domains_exits_2(files, capsys, monkeypatch, t):
    # [[2]] and Z2xY2 differ in group order: the domains are checked
    # before t = 0 or t = 1 returns one of the two maps
    argv = embed_argv(files, monkeypatch, "pair", "t")
    argv[argv.index("--nu") + 1] = "n2.json"
    code, out, err = run(capsys, *argv, "--t", t)
    assert code == 2 and out == ""
    assert err == "input error: incompatible domains: component shapes differ\n"


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


def test_importtime_lists_every_loaded_module(files):
    # the package's lazy names load through the C import path, which is the
    # one that -X importtime logs: a module that groupoid, cli or the
    # certificate layers import by name from the package is listed too
    import soficlab

    tmp, write = files
    write("g.json", groupoid_to_json(Z2Y2))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(soficlab.__file__)))
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-m", "soficlab.cli",
         "embed", "--kind", "convex", "--groupoid", "g.json", "-o", "out.json"],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    logged = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"soficlab.cayley", "soficlab.constructions", "soficlab.verify"} <= logged


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
    ("builtins", "IsADirectoryError", (21, "Is a directory", "d.json"), 2, "cannot read input file d.json: Is a directory"),
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
