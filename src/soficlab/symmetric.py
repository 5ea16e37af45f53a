"""Distortion of the approximation ladder [[n]] -> [[p]].

[[n]], the monoid of partial injections on {0..n-1}, is the bisection
monoid of full_relation(n), and the ladder maps are arrow maps between
them (constructions.step_map and general_map): floor(p/n) exactly
isometric block copies, with the p mod n remaining points left undefined,
each such point moving the metric by at most 1/(stage size). The composite
stays within n/(p-n). The ladder map is the sofic approximation of
G = [[n]] in [[p]], and its distortion report is the certificate of that
map, verify.check_embedding, with the bound n/(p-n) beside it: the sups,
pair count, regime and method are the certificate's, and so is every
rule that chooses them. A map that the certificate finds not
multiplicative, or whose distortion exceeds the bound, raises
CertificateError.
"""

from __future__ import annotations

from fractions import Fraction

from .constructions import general_map
from .groupoid import Value
from .semigroup import CertificateError
from .verify import SuiteBudget, check_embedding


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
    """Measure sup |d_p(images) - d_n| over element pairs, exactly, as
    check_embedding(general_map(n, p), budget) does, whose product
    deviation must be 0.

    Under its closed form both sups are exact over all of [[n]],
    pairs_tested is the n^3 composable arrow pairs charged and seed is
    None. Otherwise its element path runs, product pass included, over a
    pool that holds the unit, which gives the trace sup the exact
    (p mod n)/p in every regime.
    """
    budget = budget or SuiteBudget()
    cert = check_embedding(general_map(n, p), budget)
    if not cert.multiplicative:
        raise CertificateError(
            f"ladder [[{n}]] -> [[{p}]]: product deviation {cert.max_product_deviation}, "
            f"so the map is not multiplicative"
        )
    return DistortionReport(
        n=n,
        p=p,
        bound=None if p == n else Fraction(n, p - n),
        observed_sup=cert.max_distance_deviation,
        trace_sup=cert.max_trace_deviation,
        pairs_tested=cert.pair_count,
        exhaustive=cert.exhaustive,
        method=cert.method,
        seed=None if cert.exhaustive else budget.seed,
    )
