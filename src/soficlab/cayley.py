"""Finite groups as Cayley tables: validation by exhaustion and standard examples.

A table is a tuple of tuples of element indices, with the identity at index 0.
"""

from __future__ import annotations

from itertools import permutations

Table = tuple[tuple[int, ...], ...]


def normalize_table(table) -> Table:
    return tuple(tuple(int(x) for x in row) for row in table)


def table_violations(table) -> list[str]:
    """All group-axiom violations of a candidate Cayley table, by exhaustion."""
    t = normalize_table(table)
    m = len(t)
    problems = []
    if m == 0:
        return ["empty table"]
    for i, row in enumerate(t):
        if len(row) != m:
            return [f"row {i} has length {len(row)}, expected {m}"]
        for j, v in enumerate(row):
            if not 0 <= v < m:
                return [f"entry ({i},{j}) = {v} out of range"]
    for i in range(m):
        if t[0][i] != i or t[i][0] != i:
            problems.append(f"identity law fails at {i}")
    for i in range(m):
        if len(set(t[i])) != m:
            problems.append(f"row {i} is not a bijection")
        if len({t[j][i] for j in range(m)}) != m:
            problems.append(f"column {i} is not a bijection")
    for i in range(m):
        if not any(t[i][j] == 0 and t[j][i] == 0 for j in range(m)):
            problems.append(f"no inverse for {i}")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    problems.append(f"associativity fails at ({a},{b},{c})")
                    if len(problems) > 20:
                        return problems
    return problems


def inverses(table: Table) -> tuple[int, ...]:
    out = []
    for g in range(len(table)):
        for h in range(len(table)):
            if table[g][h] == 0 and table[h][g] == 0:
                out.append(h)
                break
        else:
            raise ValueError(f"element {g} has no inverse")
    return tuple(out)


def trivial() -> Table:
    return ((0,),)


def cyclic(n: int) -> Table:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def symmetric(n: int) -> Table:
    """S_n with elements the permutations of range(n) in lexicographic order.

    Index 0 is the identity. Product sigma*tau applies tau first.
    """
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in elems) for p in elems
    )


def direct_product(a: Table, b: Table) -> Table:
    """Product table on pairs, indexed (i,j) -> i*len(b)+j."""
    ma, mb = len(a), len(b)

    def mul(x, y):
        xa, xb = divmod(x, mb)
        ya, yb = divmod(y, mb)
        return a[xa][ya] * mb + b[xb][yb]

    return tuple(tuple(mul(x, y) for y in range(ma * mb)) for x in range(ma * mb))
