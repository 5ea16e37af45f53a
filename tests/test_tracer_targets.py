"""The names perfbench/tracing.py wraps for `--trace 1`.

The tracer skips a name the package no longer has, and its counters then
read 0 without an error. So every target that it can wrap today is listed
here literally, and each must still be defined where the tracer looks for
it: a function in its module, or a method in its class's own namespace.
Moving or deleting one fails here, in the same change as the tracer's list
is mended.
"""

import importlib

import pytest

TRACED = [
    "cayley.table_violations",
    "groupoid.FiniteGroupoid.mul",
    "groupoid.FiniteGroupoid.inv",
    "groupoid.validate_raw",
    "groupoid.decompose",
    "semigroup.Bisection.__post_init__",
    "semigroup.extend_to_full_group",
    "constructions.SemigroupMap.__init__",
    "constructions.SemigroupMap.__call__",
    "constructions.find_transversals",
    "constructions.block_components",
    "constructions.rectangle_decompose",
    "symmetric.distortion_report",
    "verify.run_suite",
    "verify.check_embedding",
    "verify.check_almost_morphism",
    "serialize.load_json",
    "serialize.parse_groupoid",
    "serialize.parse_raw",
    "serialize.parse_masses",
    "serialize.parse_bisection",
    "serialize.parse_arrow_set",
    "serialize.dumps",
    "serialize.write_json_atomic",
    "serialize.groupoid_to_json",
    "serialize.bisection_to_json",
    "serialize.suite_result_to_json",
    "serialize.embedding_report_to_json",
    "serialize.almost_report_to_json",
    "serialize.distortion_report_to_json",
    "cli.main",
]


def test_every_traced_layer_is_listed():
    assert len(TRACED) == 31
    layers = {"cayley", "groupoid", "semigroup", "constructions", "symmetric", "verify", "serialize", "cli"}
    assert {t.split(".")[0] for t in TRACED} == layers


@pytest.mark.parametrize("target", TRACED)
def test_traced_name_resolves(target):
    module, *head, attr = target.split(".")
    owner = importlib.import_module(f"soficlab.{module}")
    for part in head:
        owner = vars(owner)[part]
    assert callable(vars(owner).get(attr)), f"{target} is gone; its --trace 1 counters would read 0"
