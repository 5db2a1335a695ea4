"""Growth orders from associated univariate systems.

References, all checked by hand:

* hyper 1st direction: A(x2=0) = [[x^3+x^2,0],[-1,x^3+x^2]] at p=3 has
  double eigenvalue x^3+x^2; integrating (x^3+x^2)/x^4 gives
  log x - 1/x, so the growth order is 1.
* hyper 2nd direction: leading matrix Diag(-6,-6) at p=2 is invertible,
  order = p = 2.
* Airy-like [[0,1],[x,0]] at p=1: chi = lam^2 - x/x^4 scaled, max
  slope 3/2 against the lam axis, order 1/2.
* triple_system: direction 1 restricts to [[x1-1,0],[0,0]] (order 1),
  direction 2 to [[2+3x2,0],[0,0]] at p=2 (order 2), direction 3 to
  [[1,0],[0,0]] at p=0 (regular, order 0).
"""

from fractions import Fraction

import pytest

from helpers import hyper_system, mat1, shifted_system, sys1, triple_system
from pfaffred import reduction
from pfaffred.errors import InputError, ReductionError, TruncationInsufficient
from pfaffred.invariants import (
    ExponentialPart,
    exponential_order,
    katz_order_univariate,
    true_poincare_rank,
)
from pfaffred.reduction import ramify_system, rank_reduce
from pfaffred.scalars import QQ
from pfaffred.system import GaugeTransformation, PfaffianSystem, apply_gauge

F = Fraction


# -- Katz order of univariate systems ---------------------------------------

def ods_of(S, i):
    p, M = S.associated_ods(i)
    return PfaffianSystem([S.vars[i]], [p], [M], QQ)


def test_katz_hyper_first_direction():
    assert katz_order_univariate(ods_of(hyper_system(), 0)) == 1


def test_katz_hyper_second_direction():
    assert katz_order_univariate(ods_of(hyper_system(), 1)) == 2


def test_katz_regular_scalar():
    assert katz_order_univariate(sys1([[5]], 0)) == 0


def test_katz_irregular_scalar():
    # x^2 f' = (1+x) f: order 1
    assert katz_order_univariate(sys1([[{0: 1, 1: 1}]], 1)) == 1


def test_katz_ramified_half():
    S = sys1([[0, 1], [{1: 1}, 0]], 1)
    w = katz_order_univariate(S)
    assert w == F(1, 2)


def test_katz_zero_matrix():
    S = sys1([[0, 0], [0, 0]], 1)
    assert katz_order_univariate(S) == 0
    with pytest.raises(TruncationInsufficient):
        katz_order_univariate(S.clipped((4,)))


def test_katz_rejects_multivariate_input():
    with pytest.raises(InputError):
        katz_order_univariate(hyper_system())


def test_katz_reduces_rank_first():
    # x2-direction of the shifted system: nilpotent leading matrix at
    # p=1, but the true rank is 0, so the order must come out 0.
    ods = ods_of(shifted_system(), 1)
    assert ods.coeff(0, 0).constant_term().rank() == 1  # nonzero but nilpotent
    assert katz_order_univariate(ods) == 0


def test_katz_unreduced_rank_is_a_reduction_error(monkeypatch):
    # the same ods left at p = 1 gives order 0, outside (p - 1, p]: a
    # broken rank reduction must be reported, not returned as an order
    ods = ods_of(shifted_system(), 1)
    monkeypatch.setattr(reduction, "rank_reduce",
                        lambda S, order: (None, S, []))
    with pytest.raises(ReductionError):
        katz_order_univariate(ods)


def test_katz_ramification_scales_order():
    base = sys1([[0, 1], [{1: 1}, 0]], 1)
    assert katz_order_univariate(ramify_system(base, 0, 2)) == 1
    ods = ods_of(hyper_system(), 1)
    assert katz_order_univariate(ramify_system(ods, 0, 2)) == 4


def test_katz_diagonal_max_of_pole_orders():
    # Diag(1+x, x^2) at p=2: first block irregular of order 2, second
    # block regular after normalization.
    S = sys1([[{0: 1, 1: 1}, 0], [0, {2: 1}]], 2)
    assert katz_order_univariate(S) == 2


# -- whole-system wrappers ---------------------------------------------------

def test_exponential_order_hyper():
    assert exponential_order(hyper_system()) == [1, 2]


def test_exponential_order_shifted():
    assert exponential_order(shifted_system()) == [0, 0]


def test_exponential_order_triple():
    assert exponential_order(triple_system()) == [1, 2, 0]


def test_true_poincare_rank():
    assert true_poincare_rank(hyper_system()) == [1, 2]
    assert true_poincare_rank(shifted_system()) == [0, 0]
    assert true_poincare_rank(triple_system()) == [1, 2, 0]
    assert true_poincare_rank(sys1([[0, 1], [{1: 1}, 0]], 1)) == [1]


def test_rank_reduce_reaches_true_rank():
    for S in (hyper_system(), shifted_system(), triple_system()):
        _, R, _ = rank_reduce(S)
        assert R.p == true_poincare_rank(S)


def test_order_invariant_under_polynomial_gauge():
    from helpers import poly2
    S = hyper_system()
    T = type(S.A[0])([[poly2({(0, 0): 1}), poly2({(1, 1): 3})],
                      [poly2({}), poly2({(0, 0): 1})]], 2, QQ)
    out = apply_gauge(S, GaugeTransformation(T, T.inverse()))
    assert exponential_order(out) == exponential_order(S)


# -- exponential part container ----------------------------------------------

def test_exponential_part_omega_and_orders():
    ep = ExponentialPart(0, 2, [{1: QQ.scalar(3)}, {}, {4: QQ.scalar(-1)}])
    assert ep.omega() == F(2)


def test_exponential_part_rejects_constant_term():
    with pytest.raises(InputError):
        ExponentialPart(0, 1, [{0: QQ.scalar(1)}])
