"""The Bisection element pools that verify._pool replaced, kept as the
reference it is tested against: the seeded samplers of [[G]] and of its
full group [G], and the pool builder that enumerated or sampled Bisections
(and unit sets for "malg") and sorted them. verify._pool must return these
pools encoded, in the same order, for every kind, seed and budget.
"""

import random

from soficlab.groupoid import Arrow
from soficlab.semigroup import (
    Bisection,
    empty_bisection,
    enumerate_group,
    enumerate_malg,
    enumerate_semigroup,
    group_count,
    malg_count,
    semigroup_count,
    unit_bisection,
)


def sample_bisection(g, rng: random.Random) -> Bisection:
    arrows = []
    for ci, c in enumerate(g.components):
        n, m = c.base_size, c.group_order
        dom = [y for y in range(n) if rng.random() < 0.5]
        img = rng.sample(range(n), len(dom))
        for y_from, y_to in zip(dom, img):
            arrows.append(Arrow(ci, rng.randrange(m), y_to, y_from))
    return Bisection(g, tuple(arrows))


def sample_full_group(g, rng: random.Random) -> Bisection:
    arrows = []
    for ci, c in enumerate(g.components):
        n, m = c.base_size, c.group_order
        img = rng.sample(range(n), n)
        for y_from, y_to in zip(range(n), img):
            arrows.append(Arrow(ci, rng.randrange(m), y_to, y_from))
    return Bisection(g, tuple(arrows))


def reference_elements(g, kind: str, budget):
    """The pool of `kind` as Bisections (unit sets for "malg") and whether
    it is exhaustive."""
    counts = {
        "semigroup": semigroup_count,
        "group": group_count,
        "malg": malg_count,
    }
    count = counts[kind](g)
    if count <= budget.exhaustive_cap:
        if kind == "semigroup":
            return list(enumerate_semigroup(g, cap=budget.exhaustive_cap)), True
        if kind == "group":
            return list(enumerate_group(g, cap=budget.exhaustive_cap)), True
        return list(enumerate_malg(g, cap=budget.exhaustive_cap)), True

    rng = random.Random(budget.seed)
    target = min(budget.sample_count, count)
    if kind == "malg":
        units = list(g.units())
        pool = {frozenset(), frozenset(units)}
        while len(pool) < target:
            pool.add(frozenset(u for u in units if rng.random() < 0.5))
        return sorted(pool, key=sorted), False
    if kind == "group":
        pool = {unit_bisection(g)}
        draw = sample_full_group
    else:
        pool = {unit_bisection(g), empty_bisection(g)}
        draw = sample_bisection
    while len(pool) < target:
        pool.add(draw(g, rng))
    return sorted(pool, key=lambda b: b.arrows), False
