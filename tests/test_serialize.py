from fractions import Fraction

import pytest

from pool_reference import enumerate_semigroup

from soficlab import cayley
from soficlab.groupoid import (
    Arrow,
    MalformedInputError,
    connected_groupoid,
    convex_combination,
    full_relation,
    group_groupoid,
    point_groupoid,
    render_raw,
    decompose,
)
from soficlab.rationals import format_fraction, parse_fraction
from soficlab.semigroup import bisection
from soficlab.serialize import (
    bisection_to_json,
    dumps,
    groupoid_to_json,
    jsonable,
    parse_bisection,
    parse_groupoid,
    parse_raw,
    raw_to_json,
)


class TestRationals:
    def test_parse_and_format(self):
        with pytest.raises(MalformedInputError, match="'1/2'"):
            parse_fraction("3/6")
        assert parse_fraction("7") == 7
        assert parse_fraction("-1/2") == Fraction(-1, 2)
        assert format_fraction(Fraction(1, 2)) == "1/2"
        assert format_fraction(Fraction(3)) == "3/1"
        assert format_fraction(Fraction(0)) == "0/1"

    @pytest.mark.parametrize(
        "bad",
        ["1/0", "1/-2", "x/2", "1/2/3", None, 1.5, "1_0/3", "3/6", "0/5", "+1/2", " 1/2", "1/ 2", "07/2"],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(MalformedInputError):
            parse_fraction(bad)

    def test_round_trip(self):
        for num in (-3, 0, 5):
            for den in (1, 2, 7):
                x = Fraction(num, den)
                assert parse_fraction(format_fraction(x)) == x


@pytest.mark.parametrize(
    "g",
    [
        full_relation(3),
        connected_groupoid(cayley.symmetric(3), 2),
        convex_combination(
            [(Fraction(1, 3), group_groupoid(cayley.cyclic(2))), (Fraction(2, 3), point_groupoid())]
        ),
    ],
)
def test_groupoid_round_trip(g):
    assert parse_groupoid(groupoid_to_json(g)) == g


def test_raw_round_trip():
    raw = render_raw(connected_groupoid(cayley.cyclic(2), 2))
    back = parse_raw(raw_to_json(raw))
    assert back.units == raw.units
    assert set(back.arrows) == set(raw.arrows)
    assert back.compose == raw.compose
    assert back.masses == raw.masses
    assert decompose(back).groupoid == decompose(raw).groupoid


def test_bisection_round_trip():
    g = connected_groupoid(cayley.cyclic(2), 2)
    for b in enumerate_semigroup(g):
        assert parse_bisection(g, bisection_to_json(b)) == b


def test_jsonable_handles_library_values():
    g = full_relation(2)
    b = bisection(g, [Arrow(0, 0, 1, 0)])
    out = jsonable({"x": Fraction(1, 3), "b": b, "s": frozenset([(0, 0)]), "t": (1, 2)})
    assert out == {
        "x": "1/3",
        "b": {"arrows": [[0, 0, 1, 0]]},
        "s": [[0, 0]],
        "t": [1, 2],
    }


def test_dumps_is_stable():
    payload = {"b": 1, "a": {"z": Fraction(1, 2)}}
    assert dumps(jsonable(payload)) == dumps(jsonable(payload))
    assert dumps(jsonable(payload)).startswith('{\n  "a"')


def test_jsonable_refuses_records():
    # a NamedTuple record is a tuple; it must not be flattened into a list
    from soficlab.verify import CheckResult

    assert jsonable({"arrow": Arrow(0, 1, 2, 3), "code": (1, -1)}) == {"arrow": [0, 1, 2, 3], "code": [1, -1]}
    with pytest.raises(TypeError, match="CheckResult"):
        jsonable([CheckResult("x", True)])
