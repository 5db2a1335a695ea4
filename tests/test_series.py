import math

import pytest
from hypothesis import given, settings, strategies as st

from pfaffred.errors import DimensionError, NotUnitError, TruncationInsufficient
from pfaffred.scalars import QQ
from pfaffred.series import Series

INF = math.inf


def x(n=2, i=0):
    return Series.monomial(n, tuple(int(j == i) for j in range(n)), 1, QQ)


def test_polynomial_arithmetic_is_exact():
    s = (x() + x(i=1)) * (x() - x(i=1))
    t = x() * x() - x(i=1) * x(i=1)
    assert s.exact
    assert s == t
    assert str(s) == "x1^2 - x2^2"


def test_mul_window_rule():
    a = Series.constant(1, 1, QQ).clipped((3,))     # known below x^3
    b = Series.monomial(1, (1,), 1, QQ)             # exact, lo = 0... times x
    prod = a * b.mul_monomial((1,))                 # a * x^2
    assert prod.hi == (5,)
    assert prod.lo == (2,)


def test_public_constructor_checks_every_term():
    with pytest.raises(DimensionError, match="below the support floor"):
        Series(1, {(-1,): QQ.one()}, QQ)
    with pytest.raises(DimensionError, match="below the support floor"):
        Series(2, {(0, -2): QQ.one()}, QQ, lo=(0, -1))
    s = Series(2, {(0, 0): QQ.one(), (1, 0): QQ.zero(), (0, 3): QQ.one(),
                   (2, 1): QQ.scalar(5)}, QQ, hi=(INF, 3))
    assert s.terms == {(0, 0): QQ.one(), (2, 1): QQ.scalar(5)}


def test_truncated_zero_is_not_proven_zero():
    z = Series.zero(1, QQ, hi=(4,))
    assert z.is_zero() and not z.exact
    v, limited = z.valuation(0)
    assert v == INF and limited
    v, limited = Series.zero(1, QQ).valuation(0)
    assert v == INF and not limited


def test_coefficient_beyond_window_raises():
    a = Series.constant(1, 7, QQ).clipped((2,))
    assert a.coefficient((1,)) == 0
    with pytest.raises(TruncationInsufficient):
        a.coefficient((2,))


def test_euler_operator():
    s = x() * x() * x(i=1)                     # x1^2 x2
    assert s.euler(0, 0) == s * 2              # x1 d/dx1
    assert s.euler(1, 1) == s * x(i=1)         # x2^2 d/dx2


def test_euler_shifts_window():
    s = Series.constant(1, 1, QQ).clipped((5,))
    e = s.euler(0, 2)                          # x^3 d/dx
    assert (e.lo, e.hi) == ((2,), (7,))


def test_restrict_and_project():
    s = Series.constant(2, 3, QQ) + x() * 2 + x() * x(i=1)
    r = s.restrict([1])
    assert r == Series.constant(2, 3, QQ) + x() * 2
    p = s.project_to_var(0)
    assert p.nvars == 1
    assert p.coefficient((1,)) == 2


def test_restrict_pole_raises():
    s = x().mul_monomial((0, -1))              # x1/x2
    with pytest.raises(NotUnitError):
        s.restrict([1])
    # restricting the non-polar variable is fine
    assert s.restrict([0]).is_zero()


def test_coeff_in_xi():
    s = x() * x(i=1) + x(i=1) * x(i=1) * 5
    c1 = s.coeff_in_xi(1, 1)
    assert c1 == x()
    assert s.coeff_in_xi(1, 2) == 5


def test_ramify_scales_exponents():
    s = Series.monomial(1, (-2,), 3, QQ) + x(n=1)
    r = s.ramify(0, 2)
    assert r.coefficient((-4,)) == 3
    assert r.coefficient((2,)) == 1
    assert r.coefficient((1,)) == 0


def test_agrees_on_common_window_only():
    a = Series.constant(1, 1, QQ).clipped((3,))
    b = Series.constant(1, 1, QQ) + Series.monomial(1, (5,), 9, QQ)
    assert a == b          # the x^5 term sits outside a's window
    c = Series.constant(1, 1, QQ) + x(n=1)
    assert a != c


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polys(draw, nvars=2, max_deg=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        terms[exp] = QQ.scalar(draw(coeffs))
    return Series(nvars, terms, QQ)


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == 0
