from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfaffred.errors import FieldExtensionError
from pfaffred.scalars import (
    QQ,
    FieldTower,
    common_tower,
    fraction_sqrt,
    poly_gcd,
    poly_mul,
    roots_of_charpoly,
    squarefree_part,
)


def tower_sqrt2():
    return QQ.adjoin((-2, 0, 1))


def test_rational_arithmetic():
    a = QQ.scalar(Fraction(3, 4))
    b = QQ.scalar(2)
    assert a + b == Fraction(11, 4)
    assert (a * b).to_fraction() == Fraction(3, 2)
    assert (a / b) == Fraction(3, 8)
    assert -a == Fraction(-3, 4)


def test_quadratic_extension_multiplies_by_minpoly():
    K = tower_sqrt2()
    alpha = K.generator()
    assert alpha * alpha == 2
    # (1 + a)(-1 + a) = a^2 - 1 = 1
    one = (K.one() + alpha) * (-K.one() + alpha)
    assert one == 1
    assert one.is_rational()


def test_inverse_in_quadratic_field():
    K = tower_sqrt2()
    alpha = K.generator()
    x = K.one() + alpha
    assert x * x.inverse() == 1
    assert x.inverse() == alpha - 1


def test_embed_rational_into_extension():
    K = tower_sqrt2()
    x = K.generator() + Fraction(1, 2)
    assert (x - K.generator()).to_fraction() == Fraction(1, 2)


def test_common_tower_rejects_mixed_extensions():
    K1 = tower_sqrt2()
    K2 = QQ.adjoin((-3, 0, 1))
    with pytest.raises(FieldExtensionError):
        common_tower(K1, K2)
    assert common_tower(K1, QQ) is K1


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(0)) == 0
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None


def test_roots_repeated_rational():
    # (t + 6)^2
    p = [QQ.scalar(36), QQ.scalar(12), QQ.scalar(1)]
    roots = roots_of_charpoly(p)
    assert len(roots) == 1
    r, mult = roots[0]
    assert r == -6 and mult == 2
    assert r.tower is QQ


def test_roots_need_quadratic_extension():
    # t^2 - 2 has no rational roots; the tower must grow once
    p = [QQ.scalar(-2), QQ.scalar(0), QQ.scalar(1)]
    roots = roots_of_charpoly(p)
    assert all(r.tower.minpoly is not None for r, _ in roots)
    vals = sorted((r.coeffs for r, _ in roots))
    assert vals == [(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))]
    assert sum(m for _, m in roots) == 2


def test_roots_mixed_rational_and_extension():
    # t^3 - 1 = (t - 1)(t^2 + t + 1)
    p = [QQ.scalar(-1), QQ.scalar(0), QQ.scalar(0), QQ.scalar(1)]
    roots = roots_of_charpoly(p)
    assert sum(m for _, m in roots) == 3
    assert any(r == 1 for r, _ in roots)
    for r, _ in roots:
        # every claimed root really is one, in the join of the fields
        acc = QQ.zero()
        for c in reversed(p):
            acc = acc * r + c
        assert acc.is_zero()


def test_roots_over_existing_extension():
    K = tower_sqrt2()
    alpha = K.generator()
    # (t - a)(t + a) = t^2 - 2, already split over K
    p = [K.scalar(-2), K.zero(), K.one()]
    roots = roots_of_charpoly(p)
    assert all(r.tower == K for r, _ in roots)
    got = {tuple(r.coeffs) for r, _ in roots}
    assert got == {tuple(alpha.coeffs), tuple((-alpha).coeffs)}


def test_roots_sqrt_inside_extension():
    K = tower_sqrt2()
    alpha = K.generator()
    # t^2 - (3 + 2*sqrt2) = (t - (1 + sqrt2))^2 - ... no: (1+a)^2 = 3 + 2a
    target = (K.one() + alpha) * (K.one() + alpha)
    p = [-target, K.zero(), K.one()]
    roots = roots_of_charpoly(p)
    assert all(r.tower == K for r, _ in roots)
    assert any(r == K.one() + alpha or r == -(K.one() + alpha) for r, _ in roots)


def test_degree_three_irreducible_rejected():
    p = [QQ.scalar(-2), QQ.scalar(0), QQ.scalar(0), QQ.scalar(1)]
    with pytest.raises(FieldExtensionError):
        roots_of_charpoly(p)


def test_second_extension_rejected():
    K = tower_sqrt2()
    # t^2 - 3 is irreducible over Q(sqrt2) and would need a second generator
    p = [K.scalar(-3), K.zero(), K.one()]
    with pytest.raises(FieldExtensionError):
        roots_of_charpoly(p)


def test_squarefree_part():
    lin1 = [QQ.scalar(1), QQ.scalar(1)]       # t + 1
    lin2 = [QQ.scalar(-3), QQ.scalar(1)]      # t - 3
    p = poly_mul(poly_mul(lin1, lin1), lin2)
    sf = squarefree_part(p)
    assert sf == poly_mul(lin1, lin2)


def test_poly_gcd_is_monic():
    lin = [QQ.scalar(-1), QQ.scalar(1)]
    a = poly_mul(lin, [QQ.scalar(2), QQ.scalar(2)])   # 2(t-1)(t+1)
    g = poly_gcd(a, lin)
    assert g == lin


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@given(small_fracs, small_fracs, small_fracs, small_fracs)
def test_field_axioms_under_extension(a0, a1, b0, b1):
    K = tower_sqrt2()
    x = K.from_coeffs((a0, a1))
    y = K.from_coeffs((b0, b1))
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if not y.is_zero():
        assert (x / y) * y == x


@given(small_fracs, small_fracs)
def test_sort_key_total_order(a, b):
    x = QQ.scalar(a)
    y = QQ.scalar(b)
    assert (x.sort_key() == y.sort_key()) == (x == y)


# sympy is a test-only oracle for the rational roots: products of
# repeated rational linear factors, some with large numerators and
# denominators, times at most one irreducible quadratic
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 12, 10 ** 12),
                          st.integers(1, 10 ** 9), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.sampled_from([None, 2, 3, -1, 7]))
def test_rational_roots_match_sympy(factors, c):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sympy.Integer(1)
    for r, s, m in factors:
        expr *= (s * x - r) ** m
    if c is not None:
        expr *= x ** 2 - c
    coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()[::-1]
    p = [QQ.scalar(Fraction(int(a))) for a in coeffs]
    roots = roots_of_charpoly(p)
    got = {r.to_fraction(): m for r, m in roots if r.is_rational()}
    want = {Fraction(int(k.p), int(k.q)): m
            for k, m in sympy.roots(sympy.Poly(expr, x), filter="Q").items()}
    assert got == want
    assert sum(m for _, m in roots) == len(p) - 1
