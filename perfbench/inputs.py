"""Seeded input files for the benchmark workloads.

Everything the library reads during a run is written here from the workload
seed, by code that does not import soficlab, so the inputs stay the same
when the library changes. The seed varies what can vary without changing
the work: group elements are relabelled by a permutation fixing the
identity, raw-table ids are shuffled, component order in the files is
shuffled, and the bisections, K sets and the suite seed are drawn afresh.
Element counts, tuple counts and regimes are fixed per workload.
"""

from __future__ import annotations

import json
import os
import random
from itertools import permutations

CAP = 200_000
SAMPLES = 500


# ---------------------------------------------------------------------------
# Cayley tables (identity at index 0)


def cyclic(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric(n: int) -> list[list[int]]:
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in elems] for p in elems]


def trivial() -> list[list[int]]:
    return [[0]]


def relabel(table, rng: random.Random) -> list[list[int]]:
    """The same group with its non-identity elements renamed at random."""
    m = len(table)
    rest = list(range(1, m))
    rng.shuffle(rest)
    sigma = [0] + rest
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[sigma[i]][sigma[j]] = sigma[table[i][j]]
    return out


def order_three(table) -> list[int]:
    """The identity and the elements of order 3 (the subgroup A3 of S3)."""
    return [0] + [x for x in range(1, len(table)) if table[x][x] != 0 and table[table[x][x]][x] == 0]


# ---------------------------------------------------------------------------
# File bodies


def groupoid(rng: random.Random, *components) -> dict:
    """Normal-form groupoid file; components are (table, base_size, "p/q")."""
    comps = [
        {"group_table": table, "base_size": base, "weight": weight}
        for table, base, weight in components
    ]
    rng.shuffle(comps)
    return {"components": comps}


def raw_table(rng: random.Random, table, base: int) -> dict:
    """Raw composition table of group x full relation on `base` points.

    Arrow (g, y_to, y_from) composes with (h, y_from, x) to (g*h, y_to, x).
    Unit ids are a shuffled 0..base-1, the other arrow ids a shuffled range
    after them, and the arrow and compose lists are shuffled.
    """
    m = len(table)
    unit_ids = list(range(base))
    rng.shuffle(unit_ids)
    others = list(range(base, m * base * base))
    rng.shuffle(others)
    ids = {}
    for y in range(base):
        ids[(0, y, y)] = unit_ids[y]
    it = iter(others)
    for g in range(m):
        for y_to in range(base):
            for y_from in range(base):
                if (g, y_to, y_from) not in ids:
                    ids[(g, y_to, y_from)] = next(it)
    arrows = [[aid, unit_ids[y_from], unit_ids[y_to]] for (g, y_to, y_from), aid in ids.items()]
    compose = []
    for (g, y_to, mid), a in ids.items():
        for h in range(m):
            for x in range(base):
                compose.append([a, ids[(h, mid, x)], ids[(table[g][h], y_to, x)]])
    rng.shuffle(arrows)
    rng.shuffle(compose)
    masses = {str(u): f"1/{base}" for u in unit_ids}
    return {"units": sorted(unit_ids), "arrows": arrows, "compose": compose, "masses": masses}


def dangling(rng: random.Random, raw: dict) -> dict:
    """A copy of a raw table with one non-unit arrow pointing at a missing unit."""
    units = set(raw["units"])
    arrows = [list(a) for a in raw["arrows"]]
    victims = [k for k, a in enumerate(arrows) if a[0] not in units]
    k = rng.choice(victims)
    arrows[k][2] = max(units) + 1 + rng.randrange(100)
    return dict(raw, arrows=arrows)


def random_bisection(rng: random.Random, components) -> dict:
    """Partial bisection over components given as (group order, base size)."""
    arrows = []
    for ci, (order, base) in enumerate(components):
        dom = [y for y in range(base) if rng.random() < 0.6]
        img = rng.sample(range(base), len(dom))
        for y_from, y_to in zip(dom, img):
            arrows.append([ci, rng.randrange(order), y_to, y_from])
    return {"arrows": arrows}


def unit_arrows(components) -> dict:
    """Arrow set of the unit subgroupoid over components (order, base)."""
    return {"arrows": [[ci, 0, y, y] for ci, (_, base) in enumerate(components) for y in range(base)]}


# ---------------------------------------------------------------------------
# Workloads


def suites_exhaustive(rng: random.Random) -> dict:
    z2 = cyclic(2)
    return {
        "n4.json": groupoid(rng, (trivial(), 4, "1/1")),
        "z2y2_y2.json": groupoid(rng, (z2, 2, "1/2"), (trivial(), 2, "1/2")),
        "n3.json": groupoid(rng, (trivial(), 3, "1/1")),
    }


def certify_constructions(rng: random.Random) -> dict:
    z2 = cyclic(2)
    s3 = relabel(symmetric(3), rng)
    return {
        "g6.json": groupoid(rng, (z2, 2, "1/2"), (trivial(), 3, "1/3"), (trivial(), 1, "1/6")),
        "g6_rho.json": groupoid(rng, (z2, 2, "1/3"), (trivial(), 3, "1/2"), (trivial(), 1, "1/6")),
        "z2y3.json": groupoid(rng, (z2, 3, "1/1")),
        "n3.json": groupoid(rng, (trivial(), 3, "1/1")),
        "n3_units.json": unit_arrows([(1, 3)]),
        "z2y2.json": groupoid(rng, (z2, 2, "1/1")),
        "z2y2_units.json": unit_arrows([(2, 2)]),
        "s3.json": groupoid(rng, (s3, 1, "1/1")),
        "s3_z3.json": {"arrows": [[0, e, 0, 0] for e in order_three(s3)]},
        "n2.json": groupoid(rng, (trivial(), 2, "1/1")),
        "n8.json": groupoid(rng, (trivial(), 8, "1/1")),
    }


def cli_batch(rng: random.Random) -> dict:
    z2 = cyclic(2)
    s3 = relabel(symmetric(3), rng)
    s4 = relabel(symmetric(4), rng)
    small = raw_table(rng, z2, 2)
    s3y2 = [(6, 2)]
    return {
        "raw_s4y2.json": raw_table(rng, s4, 2),
        "raw_s3y4.json": raw_table(rng, s3, 4),
        "bad_raw.json": dangling(rng, small),
        "z2y2.json": groupoid(rng, (z2, 2, "1/1")),
        "z2y2_units.json": unit_arrows([(2, 2)]),
        "s3y2.json": groupoid(rng, (s3, 2, "1/1")),
        "z3y2.json": groupoid(rng, (relabel(cyclic(3), rng), 2, "1/1")),
        "nu.json": groupoid(rng, (z2, 2, "1/2"), (trivial(), 1, "1/2")),
        "rho.json": groupoid(rng, (z2, 2, "1/3"), (trivial(), 1, "2/3")),
        "s3.json": groupoid(rng, (s3, 1, "1/1")),
        "s3_z3.json": {"arrows": [[0, e, 0, 0] for e in order_three(s3)]},
        "n2.json": groupoid(rng, (trivial(), 2, "1/1")),
        "s3y4.json": groupoid(rng, (s3, 4, "1/1")),
        "gamma.json": random_bisection(rng, [(6, 4)]),
        "k.json": [random_bisection(rng, s3y2) for _ in range(30)],
    }


WORKLOADS = {
    "suites-exhaustive": suites_exhaustive,
    "certify-constructions": certify_constructions,
    "cli-batch": cli_batch,
}


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files and return its manifest.

    The manifest names the files and carries the suite seed, which is
    derived from the workload seed like every other input.
    """
    rng = random.Random(f"{workload}:{seed}")
    files = WORKLOADS[workload](rng)
    os.makedirs(directory, exist_ok=True)
    for name, body in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(body, fh)
    manifest = {
        "workload": workload,
        "seed": seed,
        "dir": directory,
        "files": sorted(files),
        "budget": {"exhaustive_cap": CAP, "sample_count": SAMPLES, "seed": rng.randrange(1, 2**31)},
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
