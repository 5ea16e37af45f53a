import json
import os

import pytest

from soficlab import cayley
from soficlab.cli import main
from soficlab.groupoid import connected_groupoid, full_relation, render_raw
from soficlab.serialize import (
    dumps,
    groupoid_to_json,
    load_json,
    parse_groupoid,
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
