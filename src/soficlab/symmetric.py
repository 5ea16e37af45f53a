"""Distortion of the approximation ladder [[n]] -> [[p]].

[[n]], the monoid of partial injections on {0..n-1}, is the bisection
monoid of full_relation(n), and the ladder maps are arrow maps between
them (constructions.step_map and general_map): floor(p/n) exactly
isometric block copies, with the p mod n remaining points left undefined,
each such point moving the metric by at most 1/(stage size). The composite
stays within n/(p-n). A distortion report measures the worst deviation
exactly, on packed codes of full_relation(n) and full_relation(p): with
unit weights over the denominators n and p, a deviation is an integer
over n*p. It takes the deviations as check_embedding does, by one rule:
verify.arrow_deviations certifies the map from its table within the
element pairs that check_embedding would run and, when its closed form
applies, reads both sups off the unit arrows' images (method
"arrow-table", exhaustive over all of [[n]], with no pool). Otherwise it
runs the metric pass of the certificate loop, verify.metric_deviations,
over the pool and pairs that check_embedding takes (verify.pool_pairs)
and the images of the pool (method "elements"); a ladder map is exactly
multiplicative, so no product pass runs.
"""

from __future__ import annotations

from fractions import Fraction

from .constructions import general_map
from .groupoid import Value
from .semigroup import CertificateError, PackedMonoid
from .verify import SuiteBudget, arrow_deviations, metric_deviations, pool_pairs


class DistortionReport(Value):
    """Exact worst-case metric deviation of an embedding stage [[n]] -> [[p]];
    bound is n/(p-n), or None when p == n."""

    _fields = ("n", "p", "bound", "observed_sup", "trace_sup", "pairs_tested", "exhaustive", "method", "seed")

    def __init__(self, n: int, p: int, bound: Fraction | None, observed_sup: Fraction, trace_sup: Fraction,
                 pairs_tested: int, exhaustive: bool, method: str, seed: int | None):
        self._set(n, p, bound, observed_sup, trace_sup, pairs_tested, exhaustive, method, seed)
        if self.bound is not None and self.observed_sup > self.bound:
            raise CertificateError(
                f"ladder [[{self.n}]] -> [[{self.p}]]: distortion {self.observed_sup} "
                f"exceeds the guaranteed bound {self.bound}"
            )


def distortion_report(n: int, p: int, budget: SuiteBudget | None = None) -> DistortionReport:
    """Measure sup |d_p(images) - d_n| over element pairs, exactly.

    Under the closed form of verify.arrow_deviations both sups are exact
    over all of [[n]], pairs_tested is the n^3 composable arrow pairs
    charged and seed is None. Otherwise the pool and pairs are a
    certificate's, from verify.pool_pairs: all pairs of [[n]] when they
    fit budget.exhaustive_cap, and otherwise the seeded pairs of the tuple
    gate over the pool of verify._pool, which holds the unit. The trace
    deviation sup is measured over the pool alongside, so the unit gives
    it the exact (p mod n)/p in every regime.
    """
    budget = budget or SuiteBudget()
    m = general_map(n, p)
    dom, cod = PackedMonoid(m.domain), PackedMonoid(m.codomain)
    f = m.packed(dom, cod)
    cert, exact = arrow_deviations(m, dom, cod, f, budget)
    if exact is not None:
        trace_sup = observed_sup = exact.deviation
        method, tested, exhaustive = "arrow-table", cert.pairs, True
    else:
        method = "elements"
        pool, pairs, exhaustive, tested = pool_pairs(dom, budget)
        # a ladder map is exactly multiplicative, so only the metric pass runs
        trace_sup, observed_sup, _ = metric_deviations(dom, cod, pool, list(map(f, pool)), pairs)
    return DistortionReport(
        n=n,
        p=p,
        bound=None if p == n else Fraction(n, p - n),
        observed_sup=observed_sup,
        trace_sup=trace_sup,
        pairs_tested=tested,
        exhaustive=exhaustive,
        method=method,
        seed=None if exhaustive else budget.seed,
    )
