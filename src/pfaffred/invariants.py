"""Formal invariants read off associated univariate systems.

Every question about growth in a single variable -- exponential order,
ramification, exponential parts -- reduces to the univariate system
obtained by freezing the other variables at the origin.  The growth
order of such a system is read off the Newton polygon of its
characteristic polynomial once the Poincare rank has been minimized;
the full exponential parts come from running the reduction driver on
the same univariate systems.
"""

from fractions import Fraction
from math import ceil

from .errors import InputError, TruncationInsufficient
from .linalg import SeriesMatrix
from .reduction import _append_slot, check_order, moser_rank, rank_reduce
from .series import INF, Series
from .system import PfaffianSystem

__all__ = [
    "ExponentialPart",
    "NewtonPolygon",
    "exponential_order",
    "exponential_parts",
    "katz_order_univariate",
    "moser_rank",
    "true_poincare_rank",
]


class NewtonPolygon:
    """Lower convex hull of (degree, valuation) points.

    Points with the same abscissa collapse to the lowest valuation.
    Slopes are the edge slopes of the hull, nondecreasing left to right.
    """

    __slots__ = ("points", "hull", "slopes")

    def __init__(self, points):
        lowest = {}
        for j, v in points:
            if j not in lowest or v < lowest[j]:
                lowest[j] = v
        pts = sorted(lowest.items())
        hull = []
        for pt in pts:
            while len(hull) >= 2:
                (ja, va), (jb, vb) = hull[-2], hull[-1]
                # pop the middle point when it sits on or above the chord
                if (jb - ja) * (pt[1] - va) - (vb - va) * (pt[0] - ja) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(pt)
        self.points = pts
        self.hull = hull
        self.slopes = [Fraction(b[1] - a[1], b[0] - a[0])
                       for a, b in zip(hull, hull[1:])]
        assert all(s < t for s, t in zip(self.slopes, self.slopes[1:]))

    def __repr__(self):
        return f"NewtonPolygon(hull={self.hull}, slopes={self.slopes})"


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
    the window, and if that could change the maximum we refuse.
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
    Ae = R.A[0].map(_append_slot)
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
    points = [(d, 0)]
    for j, v in seen.items():
        slope = p - Fraction(v, d - j)
        points.append((j, v - (p + 1) * (d - j)))
        if slope > best:
            best = slope
    for j in range(d):
        # an all-zero coefficient column is only safe if even a term
        # sitting right at the window could not beat the current max
        if j not in seen and wx != INF and p - Fraction(wx, d - j) > best:
            raise TruncationInsufficient(
                f"lambda^{j} coefficient of the characteristic polynomial "
                f"vanishes to order {wx}; growth order not certified")
    polygon = NewtonPolygon(points)
    assert polygon.slopes and best == max(Fraction(0), polygon.slopes[-1] - 1)
    assert p - 1 < best <= p
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

    def min_orders(self):
        """Most negative x-order in each block's q, None for empty blocks."""
        return [-Fraction(max(q), self.s) if q else None for q in self.qs]

    def canonical(self):
        """Order-free fingerprint: sorted blocks of sorted (k, coeff) pairs."""
        return tuple(sorted(
            tuple(sorted((k, str(c)) for k, c in q.items()))
            for q in self.qs))

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
                assert k == int(k) and k >= 1, "exponent outside x^(-1/s) grid"
                z[int(k)] = c
            qs.append(z)
        out.append(ExponentialPart(i, s, qs))
    return out
