"""The Bisection element pools that verify._pool replaced, kept as the
reference it is tested against: the enumerators of [[G]], of its full
group [G] and of the measure algebra that built a Bisection (a unit set
for "malg") per element, the seeded samplers of [[G]] and [G], and the
pool builder that enumerated or sampled Bisections and sorted them. A
sampled pool of more than half the elements is one seeded sample of the
enumeration, not draws until it is full.
verify._pool, and the code enumerators of semigroup, must return these
pools encoded, in the same order, for every kind, seed and budget.
"""

import random
from itertools import combinations, permutations, product

from soficlab.groupoid import Arrow
from soficlab.semigroup import (
    Bisection,
    CapExceededError,
    empty_bisection,
    group_count,
    malg_count,
    semigroup_count,
    unit_bisection,
)


def _component_bisections(g, ci: int, full_only: bool):
    c = g.components[ci]
    n, m = c.base_size, c.group_order
    sizes = [n] if full_only else range(n + 1)
    for k in sizes:
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                for gs in product(range(m), repeat=k):
                    yield tuple(Arrow(ci, gs[t], img[t], dom[t]) for t in range(k))


def enumerate_semigroup(g, cap: int = 10**6):
    """All bisections of g, in a fixed order. Raises if the count exceeds cap."""
    predicted = semigroup_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "full semigroup enumeration")
    pieces = [list(_component_bisections(g, ci, False)) for ci in range(len(g.components))]
    for combo in product(*pieces):
        yield Bisection(g, tuple(a for piece in combo for a in piece))


def enumerate_group(g, cap: int = 10**6):
    predicted = group_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "full group enumeration")
    pieces = [list(_component_bisections(g, ci, True)) for ci in range(len(g.components))]
    for combo in product(*pieces):
        yield Bisection(g, tuple(a for piece in combo for a in piece))


def enumerate_malg(g, cap: int = 10**6):
    predicted = malg_count(g)
    if predicted > cap:
        raise CapExceededError(predicted, cap, "measure algebra enumeration")
    units = list(g.units())
    for k in range(len(units) + 1):
        for subset in combinations(units, k):
            yield frozenset(subset)


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
    target = min(budget.sample_count, budget.exhaustive_cap, count)
    units = list(g.units())
    if kind == "malg":
        seeds, enumerate_, order = [frozenset(units), frozenset()][:target], enumerate_malg, sorted
        draw = lambda g, rng: frozenset(u for u in units if rng.random() < 0.5)
    else:
        order = lambda b: b.arrows
        if kind == "group":
            seeds, enumerate_, draw = [unit_bisection(g)], enumerate_group, sample_full_group
        else:
            seeds = [unit_bisection(g), empty_bisection(g)][:target]
            enumerate_, draw = enumerate_semigroup, sample_bisection
    if 2 * target > count:
        # the seeds, then one sample of the other elements in enumeration order
        rest = [x for x in enumerate_(g, cap=count) if x not in seeds]
        return sorted(seeds + rng.sample(rest, target - len(seeds)), key=order), False
    pool = set(seeds)
    while len(pool) < target:
        pool.add(draw(g, rng))
    return sorted(pool, key=order), False
