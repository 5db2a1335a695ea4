"""Formal invariants read off associated univariate systems.

Every question about growth in a single variable -- exponential order,
ramification, exponential parts -- reduces to the univariate system
obtained by freezing the other variables at the origin.  The growth
order of such a system is the steepest slope of the Newton polygon of
its characteristic polynomial, taken straight from the coefficient
valuations once the Poincare rank has been minimized; the full
exponential parts come from running the reduction driver on the same
univariate systems, once per variable.
"""

from fractions import Fraction
from math import ceil

from .errors import InputError, ReductionError, TruncationInsufficient
from .linalg import SeriesMatrix
from .reduction import check_order, moser_rank, rank_reduce
from .series import INF, Series
from .system import PfaffianSystem

__all__ = [
    "ExponentialPart",
    "exponential_order",
    "exponential_parts",
    "katz_order_univariate",
    "moser_rank",
    "true_poincare_rank",
]


def _ods_system(S: PfaffianSystem, i: int) -> PfaffianSystem:
    p, M = S.associated_ods(i)
    return PfaffianSystem([S.vars[i]], [p], [M], S.tower)


def katz_order_univariate(ods: PfaffianSystem, order: int = 10) -> Fraction:
    """Exponential growth order of a one-variable system.

    The system is first brought to minimal Poincare rank.  Writing
    chi(lam) = det(lam I - x^{-p-1} A) = sum_j c_j(x) lam^j, the order
    is max(0, max_{j<d} (-val c_j)/(d-j) - 1), i.e. the steepest slope
    of the Newton polygon of chi measured against the regular-singular
    baseline.  Valuations are certified against the truncation window:
    a coefficient with no visible term may hide anywhere at or beyond
    the window, and if that could change the maximum we refuse.  At
    minimal rank p the order lies in (p - 1, p]; an order outside it
    means the rank reduction did not finish, a ReductionError.
    """
    if ods.n != 1:
        raise InputError("katz order expects a one-variable system")
    if ods.A[0].is_zero():
        if ods.A[0].exact:
            return Fraction(0)
        raise TruncationInsufficient(
            "component vanishes within the truncation window")
    _, R, _ = rank_reduce(ods, order=order)
    p = R.p[0]
    if p == 0:
        return Fraction(0)
    d = R.d
    lam = Series.variable(2, 1, R.tower)
    Ae = R.A[0].map(Series.append_slot)
    M = SeriesMatrix.zeros(d, d, 2, R.tower)
    for t in range(d):
        for j in range(d):
            M.rows[t][j] = -Ae.rows[t][j]
            if t == j:
                M.rows[t][j] = M.rows[t][j] + lam
    chi = M.determinant()
    wx = chi.hi[0]
    seen = {}
    for (kx, kl) in chi.terms:
        if kl < d and (kl not in seen or kx < seen[kl]):
            seen[kl] = kx
    best = Fraction(0)
    for j, v in seen.items():
        slope = p - Fraction(v, d - j)
        if slope > best:
            best = slope
    for j in range(d):
        # an all-zero coefficient column is only safe if even a term
        # sitting right at the window could not beat the current max
        if j not in seen and wx != INF and p - Fraction(wx, d - j) > best:
            raise TruncationInsufficient(
                f"lambda^{j} coefficient of the characteristic polynomial "
                f"vanishes to order {wx}; growth order not certified")
    if not p - 1 < best <= p:
        raise ReductionError(
            f"growth order {best} is not within (p - 1, p] for the "
            f"reduced rank p = {p}")
    return best


def exponential_order(S: PfaffianSystem, order: int = 10):
    """Growth order in each variable, via the associated univariate systems."""
    return [katz_order_univariate(_ods_system(S, i), order=order)
            for i in range(S.n)]


def true_poincare_rank(S: PfaffianSystem, order: int = 10):
    """Smallest integers bounding the growth orders from above."""
    return [ceil(w) for w in exponential_order(S, order=order)]


class ExponentialPart:
    """Exponential data of one variable: ramification and per-block polar parts.

    Each q is {k: Scalar} standing for sum_k c_k z^k with z = x^{-1/s};
    k >= 1 always (no constant terms).
    """

    __slots__ = ("var", "s", "qs")

    def __init__(self, var, s, qs):
        if any(k < 1 for q in qs for k in q):
            raise InputError("exponential parts cannot carry constant terms")
        self.var = var
        self.s = int(s)
        self.qs = [dict(q) for q in qs]

    def omega(self) -> Fraction:
        worst = Fraction(0)
        for q in self.qs:
            if q:
                worst = max(worst, Fraction(max(q), self.s))
        return worst

    def __repr__(self):
        return f"ExponentialPart(var={self.var}, s={self.s}, qs={self.qs})"


def exponential_parts(S: PfaffianSystem, order: int = 10,
                      max_ext_degree: int = 2, max_retries: int = 4):
    """Per variable: ramification s_i and the multiset of block q's.

    Runs the full reduction driver on each associated univariate system;
    the driver's accumulated shift and scalar contributions are then
    repackaged as polynomials in x_i^{-1/s_i}.
    """
    from .driver import fmfs  # driver depends on this module

    check_order(order)
    out = []
    for i in range(S.n):
        ods = _ods_system(S, i)
        if ods.A[0].is_zero() and ods.A[0].exact:
            out.append(ExponentialPart(i, 1, [{} for _ in range(S.d)]))
            continue
        sol, _ = fmfs(ods, order=order, max_ext_degree=max_ext_degree,
                      max_retries=max_retries)
        s = sol.s[0]
        qs = []
        for q in sol.Q[0]:
            z = {}
            for e, c in q.items():
                k = -e * s
                if k.denominator != 1 or k < 1:
                    raise ReductionError(
                        f"q exponent {e} is off the x^(-1/{s}) grid")
                z[int(k)] = c
            qs.append(z)
        out.append(ExponentialPart(i, s, qs))
    return out
