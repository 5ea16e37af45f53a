"""Distortion of the approximation ladder [[n]] -> [[p]].

[[n]], the monoid of partial injections on {0..n-1}, is the bisection
monoid of full_relation(n), and the ladder maps are arrow maps between
them (constructions.step_map and general_map): floor(p/n) exactly
isometric block copies, with the p mod n remaining points left undefined,
each such point moving the metric by at most 1/(stage size). The composite
stays within n/(p-n). A distortion report measures the worst deviation
exactly, on packed codes of full_relation(n) and full_relation(p): with
unit weights over the denominators n and p, a deviation is an integer
over n*p. It is the metric pass of the certificate loop,
verify.metric_deviations, over the pool and its images; a ladder map is
exactly multiplicative, so no product pass runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .constructions import general_map
from .groupoid import Arrow, Value
from .semigroup import CertificateError, PackedMonoid, semigroup_codes, semigroup_count
from .verify import SuiteBudget, metric_deviations


class DistortionReport(Value):
    """Exact worst-case metric deviation of an embedding stage [[n]] -> [[p]];
    bound is n/(p-n), or None when p == n."""

    _fields = ("n", "p", "bound", "observed_sup", "trace_sup", "pairs_tested", "exhaustive", "seed")

    def __init__(self, n: int, p: int, bound: Fraction | None, observed_sup: Fraction, trace_sup: Fraction,
                 pairs_tested: int, exhaustive: bool, seed: int | None):
        self._set(n, p, bound, observed_sup, trace_sup, pairs_tested, exhaustive, seed)
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

    Exhaustive when |[[n]]|^2 fits budget.exhaustive_cap. Otherwise
    budget.sample_count pairs, or exhaustive_cap if that is fewer: the pool
    is that many pairs of _sample_code draws with budget.seed, in the order
    drawn, and pair i is the pool indices (2i, 2i+1). The trace deviation
    sup is measured over the pool alongside.
    """
    budget = budget or SuiteBudget()
    m = general_map(n, p)
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    count = semigroup_count(m.domain)
    exhaustive = count * count <= budget.exhaustive_cap
    if exhaustive:
        pool, pairs, tested, used_seed = list(semigroup_codes(dom)), None, count * count, None
    else:
        rng = random.Random(budget.seed)
        draws = min(budget.sample_count, budget.exhaustive_cap)
        pool = [_sample_code(dom, rng) for _ in range(2 * draws)]
        pairs, tested, used_seed = [(2 * i, 2 * i + 1) for i in range(draws)], draws, budget.seed
    # a ladder map is exactly multiplicative, so only the metric pass runs
    trace_sup, observed_sup, _ = metric_deviations(dom, cod, pool, list(map(m.packed(dom, cod), pool)), pairs)
    return DistortionReport(
        n=n,
        p=p,
        bound=None if p == n else Fraction(n, p - n),
        observed_sup=observed_sup,
        trace_sup=trace_sup,
        pairs_tested=tested,
        exhaustive=exhaustive,
        seed=used_seed,
    )
