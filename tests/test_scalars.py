from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pfaffred import scalars
from pfaffred.errors import FieldExtensionError, ReductionError
from pfaffred.scalars import (
    QQ,
    FieldTower,
    MinimalPolynomial,
    _rational_root_candidates,
    _sqrt_in_tower,
    common_tower,
    fraction_sqrt,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_trim,
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


def test_each_field_shares_its_zero_and_one():
    K = tower_sqrt2()
    for tower in (QQ, K):
        assert tower.zero() is tower.zero() and tower.one() is tower.one()
        assert tower.zero().is_zero() and tower.one() == 1
        assert tower.zero().tower is tower and tower.one().tower is tower
    assert K.zero().coeffs == (0, 0) and K.one().coeffs == (1, 0)


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


# -- the root finder against the one it replaced ------------------------------

def poly_eval(p, x):
    acc = x.tower.zero()
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_rational_root_candidates(p):
    """The candidates of the earlier root finder: 0 when p(0) = 0, then
    those of the polynomial with its zero roots divided out."""
    fracs = [c.to_fraction() for c in poly_trim(p)]
    low = next((k for k, f in enumerate(fracs) if f != 0), len(fracs))
    cands = [Fraction(0)] if low else []
    if len(fracs) - low >= 2:
        cands += _rational_root_candidates([QQ.scalar(f) for f in fracs[low:]])
    return sorted(cands)


def ref_deflate_root(p, root):
    mult = 0
    lin = [-root, root.tower.one()]
    while p and poly_eval(p, root).is_zero() and len(p) >= 2:
        p, rem = poly_divmod(p, lin)
        if rem:
            raise ReductionError("a root's linear factor left a remainder")
        mult += 1
    return p, mult


def ref_roots_of_charpoly(p):
    """The earlier roots_of_charpoly, kept as an oracle: every rational
    candidate is tested by evaluation and divided out by poly_divmod,
    and what is left is solved from its squarefree part."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no well-defined roots")
    tower = common_tower(*(c.tower for c in p))
    p = poly_monic(p)
    total = len(p) - 1
    if total == 1:
        r = -p[0]
        return [(QQ.scalar(r.to_fraction()) if r.is_rational() else r, 1)]
    roots = []
    if all(c.is_rational() for c in p):
        cands = ref_rational_root_candidates(p)
    else:
        cands = ref_rational_root_candidates(
            poly_mul(p, [c.conjugate() for c in p]))
    for cand in cands:
        if len(p) < 2:
            break
        r = QQ.scalar(cand)
        if poly_eval(p, r).is_zero():
            p, m = ref_deflate_root(p, r)
            roots.append((r, m))
    while len(p) >= 2:
        s = squarefree_part(p)
        if len(s) == 2:
            r = -s[0]
            p, m = ref_deflate_root(p, r)
            roots.append((r, m))
            continue
        if len(s) >= 4:
            raise FieldExtensionError("eigenvalue field unsupported")
        c0, c1, _ = poly_monic(s)
        D = c1 * c1 - 4 * c0
        if tower.degree == 1:
            mp = MinimalPolynomial([c0.to_fraction(), c1.to_fraction(), 1])
            alpha = tower.adjoin(mp).generator()
            r1, r2 = alpha, -c1 - alpha
        else:
            rd = _sqrt_in_tower(D, tower)
            if rd is None:
                raise FieldExtensionError("eigenvalue field unsupported")
            r1, r2 = (-c1 + rd) / 2, (-c1 - rd) / 2
        for r in (r1, r2):
            p, m = ref_deflate_root(p, r)
            if m == 0:
                raise FieldExtensionError("eigenvalue field unsupported")
            roots.append((r, m))
    if sum(m for _, m in roots) != total:
        raise ReductionError("root multiplicities do not add up to the degree")
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def outcome(finder, p):
    """What finder gives for p, in a comparable form: per root its
    string, multiplicity and field's minimal polynomial, in order; or the
    type and message of what it raised."""
    try:
        return [(str(r), m, r.tower.minpoly) for r, m in finder(p)]
    except (FieldExtensionError, ReductionError, ValueError) as exc:
        return type(exc), str(exc)


def poly_of(factors, tower):
    """The product of the factors, each a low-to-high list of rationals
    or Scalars, over tower."""
    p = [tower.one()]
    for f in factors:
        p = poly_mul(p, [tower.scalar(c) for c in f])
    return p


def linear(r):
    return [-r, 1]


# (c0, c1) of t^2 + c1 t + c0 irreducible over Q; then polynomials whose
# roots need a field out of policy: irreducible cubics and quartics, and
# two quadratic fields
IRREDUCIBLE_QUADRATICS = [(-2, 0), (-3, 0), (1, 0), (1, 1), (-5, 1), (3, -3),
                          (Fraction(1, 2), 1)]
REFUSED_OVER_Q = [[-2, 0, 0, 1], [1, 1, 0, 1], [-2, 0, 0, 0, 1],
                  [1, 0, 0, 0, 1], [6, 0, -5, 0, 1]]        # (t^2-2)(t^2-3)
REFUSED_OVER_SQRT2 = [[-3, 0, 1], [-2, 0, 0, 1], [-2, 0, 0, 0, 1]]

roots_q = st.dictionaries(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(1, 3), max_size=3)


@st.composite
def planted_over_q(draw):
    """factors of a polynomial over Q: rational roots with multiplicity,
    t^k and a power of one irreducible quadratic, times a leading
    constant"""
    factors = [linear(r) for r, m in draw(roots_q).items() for _ in range(m)]
    factors += [[0, 1]] * draw(st.integers(0, 3))
    c0, c1 = draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))
    factors += [[c0, c1, 1]] * draw(st.integers(0, 2))
    factors.append([draw(st.sampled_from([1, 2, Fraction(-1, 3)]))])
    return factors


@settings(max_examples=150, deadline=None)
@given(planted_over_q(),
       st.one_of(st.none(), st.sampled_from(REFUSED_OVER_Q)))
def test_roots_match_the_earlier_finder_over_q(factors, refused):
    if refused is not None:
        factors = factors + [refused]
    p = poly_of(factors, QQ)
    if len(poly_trim(p)) < 2:
        return
    assert outcome(roots_of_charpoly, p) == outcome(ref_roots_of_charpoly, p)


@settings(max_examples=60, deadline=None)
@given(planted_over_q(),
       st.one_of(st.none(), st.sampled_from(REFUSED_OVER_Q)))
def test_roots_over_q_match_sympy_factor_list(factors, refused):
    sympy = pytest.importorskip("sympy")
    if refused is not None:
        factors = factors + [refused]
    p = poly_of(factors, QQ)
    if len(poly_trim(p)) < 2:
        return
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.to_fraction().numerator,
                              c.to_fraction().denominator) * x ** k
               for k, c in enumerate(p))
    _, parts = sympy.factor_list(expr, x)
    want, quadratics = {}, []
    for f, e in parts:
        f = sympy.Poly(f, x)
        if f.degree() == 1:
            a, b = f.all_coeffs()
            r = -b / a
            want[Fraction(int(r.p), int(r.q))] = e
        else:
            quadratics.append((f.monic(), e))
    got = outcome(roots_of_charpoly, p)
    if any(f.degree() > 2 for f, _ in quadratics) or len(quadratics) > 1:
        assert got == (FieldExtensionError, "eigenvalue field unsupported")
        return
    assert {Fraction(s): m for s, m, mp in got if mp is None} == want
    irrational = [(m, mp) for _, m, mp in got if mp is not None]
    if quadratics:
        (f, e), = quadratics
        coeffs = [Fraction(int(c.p), int(c.q)) for c in f.all_coeffs()[::-1]]
        assert irrational == [(e, MinimalPolynomial(coeffs))] * 2
    else:
        assert irrational == []


@st.composite
def planted_over_sqrt2(draw):
    """factors over Q(sqrt 2): roots a + b sqrt 2, some with their
    conjugates at their own multiplicity, rational ones and t^k"""
    K = tower_sqrt2()
    a = K.generator()
    factors = []
    for (r0, r1), m in draw(st.dictionaries(
            st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
            st.integers(1, 3), max_size=3)).items():
        r = a * r1 + r0
        factors += [linear(r)] * m
        factors += [linear(r.conjugate())] * draw(st.integers(0, 2))
    factors += [[0, 1]] * draw(st.integers(0, 2))
    return K, factors


@settings(max_examples=150, deadline=None)
@given(planted_over_sqrt2(),
       st.one_of(st.none(), st.sampled_from(REFUSED_OVER_SQRT2)))
def test_roots_match_the_earlier_finder_over_sqrt2(planted, refused):
    K, factors = planted
    if refused is not None:
        factors = factors + [refused]
    p = poly_of(factors, K)
    if len(poly_trim(p)) < 2:
        return
    assert outcome(roots_of_charpoly, p) == outcome(ref_roots_of_charpoly, p)


def test_roots_match_the_earlier_finder_on_named_cases():
    K = tower_sqrt2()
    a = K.generator()
    cases = [
        poly_of([linear(a)] * 2, K),                        # (t - sqrt 2)^2
        poly_of([linear(a), linear(-a), [0, 1]], K),
        poly_of([[-2, 0, 1]] * 2, QQ),                      # (t^2 - 2)^2
        poly_of([[0, 1]] * 8, QQ),
        poly_of([[0, 1]] * 3, K),
        poly_of([[-3, 0, 1]], K),                           # a second field
        poly_of([[-2, 0, 1], [-3, 0, 1]], QQ),
        poly_of([[-2, 0, 0, 1]], QQ),
        poly_of([[-8, 0, 1], [-2, 0, 1]], QQ),
    ]
    for p in cases:
        assert outcome(roots_of_charpoly, p) == outcome(ref_roots_of_charpoly, p)
    assert outcome(roots_of_charpoly, []) == (
        ValueError, "zero polynomial has no well-defined roots")


def divisions(p):
    """How many poly_divmod calls roots_of_charpoly(p) makes, refusing
    or not."""
    with mock.patch.object(scalars, "poly_divmod",
                           wraps=scalars.poly_divmod) as spy:
        try:
            roots_of_charpoly(p)
        except FieldExtensionError:
            pass
    return spy.call_count


def test_powers_of_t_make_no_polynomial_division():
    for k in range(1, 9):
        for tower in (QQ, tower_sqrt2()):
            assert divisions(poly_of([[0, 1]] * k, tower)) == 0


coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coefficient, coefficient), min_size=2, max_size=3),
       st.booleans())
def test_degree_at_most_two_makes_no_polynomial_division(coords, extended):
    K = tower_sqrt2() if extended else QQ
    p = [K.from_coeffs(c) if extended else QQ.scalar(c[0]) for c in coords]
    p = poly_trim(p)
    if len(p) >= 2:
        assert divisions(p) == 0
