"""Formal invariants read off associated univariate systems.

Every question about growth in a single variable -- exponential order,
ramification, exponential parts -- reduces to the univariate system
obtained by freezing the other variables at the origin.  The growth
order of such a system is the steepest slope of the Newton polygon of
its characteristic polynomial, taken straight from the coefficient
valuations once the Poincare rank has been minimized
(reduction.katz_order_univariate, which the driver also uses to pick
ramification indices).  The full exponential parts are those of the same
univariate systems (the paper's main result), and they are fixed once
the reduction of each reaches Poincare rank 0: exponential_parts runs
the driver's first phase alone, once per variable, and never builds a
fundamental matrix, so a resonant regular residue, which has no
x^C-solution, does not stop it.
"""

from fractions import Fraction
from math import ceil

from .driver import exponential_data
from .errors import InputError, ReductionError
from .reduction import check_order, katz_order_univariate
from .system import PfaffianSystem

__all__ = [
    "ExponentialPart",
    "exponential_order",
    "exponential_parts",
    "katz_order_univariate",
    "true_poincare_rank",
]


def exponential_order(S: PfaffianSystem, order: int = 10):
    """Growth order in each variable, via the associated univariate systems."""
    return [katz_order_univariate(S.associated_ods(i), order=order)
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


def exponential_parts(S: PfaffianSystem, order: int = 10, max_retries: int = 4):
    """Per variable: ramification s_i and the multiset of block q's.

    Runs the driver's irregular phase (driver.exponential_data) on each
    associated univariate system, down to its rank-zero leaves and no
    further: no regular endgame, no Phi and no residual check.  The
    eigenvalue shifts it accumulated are then repackaged as polynomials
    in x_i^{-1/s_i}.  A window too short for the answer raises
    TruncationInsufficient after max_retries restarts, each at double
    the working order.
    """
    check_order(order, max_retries)
    out = []
    for i in range(S.n):
        ram, Q = exponential_data(S.associated_ods(i), order=order,
                                  max_retries=max_retries)
        s = ram[0]
        qs = []
        for q in Q[0]:
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
