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
x^C-solution, does not stop it.  Its (s, Q) has the form of fmfs's, so
the two compare as they stand.
"""

from math import ceil

from .driver import exponential_data
from .reduction import check_order, katz_order_univariate
from .system import PfaffianSystem, require_integrable

__all__ = [
    "exponential_order",
    "exponential_parts",
    "katz_order_univariate",
    "true_poincare_rank",
]


def exponential_order(S: PfaffianSystem, order: int = 10):
    """Growth order in each variable, via the associated univariate systems."""
    require_integrable(S)
    return [katz_order_univariate(S.associated_ods(i), order=order)
            for i in range(S.n)]


def true_poincare_rank(S: PfaffianSystem, order: int = 10):
    """Smallest integers bounding the growth orders from above."""
    return [ceil(w) for w in exponential_order(S, order=order)]


def exponential_parts(S: PfaffianSystem, order: int = 10, max_retries: int = 4):
    """(s, Q), shaped like fmfs's FormalSolution.s and .Q: per variable
    the ramification index s_i, and one {negative x_i-exponent: Scalar}
    dict per diagonal slot.

    Runs the driver's irregular phase (driver.exponential_data) on each
    associated univariate system, down to its rank-zero leaves and no
    further: no regular endgame, no Phi and no residual check.  A window
    too short for the answer raises TruncationInsufficient after at most
    max_retries restarts, each at double the working order; sooner when
    a restart leaves a rank-zero leaf's window no wider than before.
    The associated systems are always integrable; S is checked first.
    """
    check_order(order, max_retries)
    require_integrable(S)
    s, Q = [], []
    for i in range(S.n):
        ram, qs = exponential_data(S.associated_ods(i), order=order,
                                   max_retries=max_retries)
        s.append(ram[0])
        Q.append(qs[0])
    return s, Q
