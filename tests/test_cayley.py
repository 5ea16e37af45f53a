import pytest
from soficlab import cayley


def test_cyclic_tables_are_groups():
    for n in (1, 2, 3, 4, 6):
        assert not cayley.table_violations(cayley.cyclic(n))


def test_symmetric_group_table():
    s3 = cayley.symmetric(3)
    assert len(s3) == 6
    assert not cayley.table_violations(s3)
    # identity is the lexicographically first permutation
    assert s3[0] == tuple(range(6))


def test_broken_identity_reported():
    assert any("identity" in v for v in cayley.table_violations(((1, 0), (0, 1))))


def test_broken_associativity_reported():
    # a five-element latin square with identity that is not a group
    table = (
        (0, 1, 2, 3, 4),
        (1, 2, 0, 4, 3),
        (2, 0, 4, 1, 3),
        (3, 4, 1, 2, 0),
        (4, 3, 1, 0, 2),
    )
    problems = cayley.table_violations(table)
    assert problems


def test_inverses():
    z4 = cayley.cyclic(4)
    assert cayley.inverses(z4) == (0, 3, 2, 1)


def test_direct_product_order():
    t = cayley.direct_product(cayley.cyclic(2), cayley.cyclic(3))
    assert len(t) == 6
    assert not cayley.table_violations(t)


def test_ragged_table_rejected():
    assert cayley.table_violations(((0, 1), (1,))) != []
