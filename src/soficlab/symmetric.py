"""Distortion of the approximation ladder [[n]] -> [[p]].

[[n]], the monoid of partial injections on {0..n-1}, is the bisection
monoid of full_relation(n), and the ladder maps are arrow maps between
them (constructions.step_map and general_map): floor(p/n) exactly
isometric block copies, with the p mod n remaining points left undefined,
each such point moving the metric by at most 1/(stage size). The composite
stays within n/(p-n). A distortion report measures the worst deviation
exactly, on packed codes of full_relation(n) and full_relation(p): with
unit weights over the denominators n and p, a deviation is an integer
over n*p. Over all pairs, the distances come a row at a time from
PackedMonoid.dist_rows of the pool and of its images; sampled pairs keep
their draw order and one dist per pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .constructions import general_map
from .groupoid import Arrow
from .semigroup import CertificateError, PackedMonoid, semigroup_codes, semigroup_count
from .verify import SuiteBudget


@dataclass(frozen=True)
class DistortionReport:
    """Exact worst-case metric deviation of an embedding stage [[n]] -> [[p]]."""

    n: int
    p: int
    bound: Fraction | None  # n/(p-n); None when p == n
    observed_sup: Fraction
    trace_sup: Fraction
    pairs_tested: int
    exhaustive: bool
    seed: int | None

    def __post_init__(self):
        if self.bound is not None and self.observed_sup > self.bound:
            raise CertificateError(
                f"ladder [[{self.n}]] -> [[{self.p}]]: distortion {self.observed_sup} "
                f"exceeds the guaranteed bound {self.bound}"
            )


def _sample_code(pm: PackedMonoid, rng: random.Random) -> tuple[int, ...]:
    """A random packed element of [[n]] = pm: each point is a source with
    probability 1/2, and the sources get distinct random images. These are
    the "semigroup" draws of verify._pool less its group-label draw, which
    the full relation does not need but which would use up random state, so
    a seed keeps giving the ladder the partial injections it always drew."""
    n = pm.n_units
    sources = [x for x in range(n) if rng.random() < 0.5]
    out = [-1] * n
    for x, y in zip(sources, rng.sample(range(n), len(sources))):
        u, code = pm.place(Arrow(0, 0, y, x))
        out[u] = code
    return tuple(out)


def distortion_report(n: int, p: int, budget: SuiteBudget | None = None) -> DistortionReport:
    """Measure sup |d_p(images) - d_n| over element pairs, exactly.

    Exhaustive when |[[n]]|^2 fits budget.exhaustive_cap, otherwise
    budget.sample_count pairs, or exhaustive_cap if that is fewer, drawn
    with budget.seed; the trace deviation sup is tracked alongside.
    """
    budget = budget or SuiteBudget()
    m = general_map(n, p)
    g = m.domain
    dom, cod = PackedMonoid(g), PackedMonoid(m.codomain)
    image = m.packed(dom, cod)
    count = semigroup_count(g)
    exhaustive = count * count <= budget.exhaustive_cap
    if exhaustive:
        pool = list(semigroup_codes(dom))
        tested = count * count
        used_seed = None
    else:
        rng = random.Random(budget.seed)
        draws = min(budget.sample_count, budget.exhaustive_cap)
        pairs = [(_sample_code(dom, rng), _sample_code(dom, rng)) for _ in range(draws)]
        pool = [a for pair in pairs for a in pair]
        tested = len(pairs)
        used_seed = budget.seed

    images = {a: image(a) for a in pool}
    # d_n = dom.dist / dn and d_p = cod.dist / dp, so a deviation is an
    # integer over dn * dp (= n * p)
    dn, dp = dom.denom, cod.denom
    if exhaustive:
        rows = zip(dom.dist_rows(pool), cod.dist_rows([images[a] for a in pool]))
        d_sup = max(max([abs(dn * c - dp * d) for d, c in zip(dom_row, cod_row)]) for dom_row, cod_row in rows)
    else:
        d_sup = max(abs(dn * cod.dist(images[a], images[b]) - dp * dom.dist(a, b)) for a, b in pairs)
    t_sup = max(abs(dn * cod.trace(y) - dp * dom.trace(x)) for x, y in images.items())

    bound = None if p == n else Fraction(n, p - n)
    return DistortionReport(
        n=n,
        p=p,
        bound=bound,
        observed_sup=Fraction(d_sup, dn * dp),
        trace_sup=Fraction(t_sup, dn * dp),
        pairs_tested=tested,
        exhaustive=exhaustive,
        seed=used_seed,
    )
