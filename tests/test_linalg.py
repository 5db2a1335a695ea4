from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pfaffred import series
from pfaffred.errors import DimensionError, NotInvertibleError
from pfaffred.linalg import (
    ConstMatrix,
    Elimination,
    Matrix,
    SeriesMatrix,
    SylvesterSolver,
    generalized_eigenspaces,
)
from pfaffred.scalars import QQ, Scalar, roots_of_charpoly
from pfaffred.series import Series

from helpers import dense_grid, mat1


def cm(rows):
    return ConstMatrix([[QQ.scalar(Fraction(v)) for v in r] for r in rows], QQ)


def sm(rows, nvars=2):
    out = []
    for r in rows:
        out.append([v if isinstance(v, Series) else Series.constant(nvars, v, QQ)
                    for v in r])
    return SeriesMatrix(out, nvars, QQ)


X1 = Series.monomial(2, (1, 0), 1, QQ)
X2 = Series.monomial(2, (0, 1), 1, QQ)


def test_const_product_and_identity():
    a = cm([[1, 2], [3, 4]])
    assert a * ConstMatrix.identity(2, QQ) == a
    b = cm([[0, 1], [1, 0]])
    assert (a * b) == cm([[2, 1], [4, 3]])


def test_const_product_skips_zero_factors(monkeypatch):
    # a dense d x d matrix times the identity: one product per nonzero
    # pair, d^2 in all, where a full inner product takes d^3
    d = 5
    a = cm([[i * d + j + 1 for j in range(d)] for i in range(d)])
    calls = []
    product = Scalar.__mul__

    def spy(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(Scalar, "__mul__", spy)
    assert a * ConstMatrix.identity(d, QQ) == a
    assert len(calls) <= d * d


def test_sylvester_parts_follow_the_block_patterns():
    # L = a 2x2 Jordan block beside 5, R = Diag(1, 2): the rows split
    # into {0, 1} and {2}, the columns into {0} and {1}; a part lists
    # its cells (i, j) as i * 2 + j on vec(X)
    L = cm([[3, 1, 0], [0, 3, 0], [0, 0, 5]])
    R = cm([[1, 0], [0, 2]])
    parts = SylvesterSolver([(L, R), (L * 2, R)], QQ).parts
    assert sorted(parts) == [[0, 2], [1, 3], [4], [5]]
    # a dense R links every column: one part per row class
    dense = cm([[1, 1], [1, 2]])
    assert sorted(SylvesterSolver([(L, dense)], QQ).parts) == [
        [0, 1, 2, 3], [4, 5]]


def test_is_identity_on_both_matrix_kinds():
    assert ConstMatrix.identity(3, QQ).is_identity()
    assert not cm([[1, 0], [0, 2]]).is_identity()
    assert not cm([[1, 0], [1, 1]]).is_identity()
    assert not cm([[1, 0]]).is_identity()              # not square
    assert SeriesMatrix.identity(2, 2, QQ).is_identity()
    assert not sm([[1, X2], [0, 1]]).is_identity()
    # an inexact entry is compared on its own window: 1 + x1^2 known
    # below x1^2 is 1 there, while 1 + x1 known below x1^2 is not
    assert sm([[(1 + X1 * X1).clipped((2, 2)), 0], [0, 1]]).is_identity()
    assert not sm([[(1 + X1).clipped((2, 2)), 0], [0, 1]]).is_identity()
    # so is an entry that vanishes within its window
    assert sm([[1, (X1 * X1).clipped((2, 2))], [0, 1]]).is_identity()


def test_rref_rank_kernel():
    a = cm([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert a.rank() == 2
    ker = a.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    for row in a.rows:
        acc = QQ.zero()
        for c, x in zip(row, v):
            acc = acc + c * x
        assert acc.is_zero()


def test_solve_vec():
    a = cm([[2, 0], [0, 3]])
    x = a.solve_vec([QQ.scalar(4), QQ.scalar(9)])
    assert x == [QQ.scalar(2), QQ.scalar(3)]
    # inconsistent system
    b = cm([[1, 1], [1, 1]])
    assert b.solve_vec([QQ.scalar(0), QQ.scalar(1)]) is None


def sympy_solve(rows, rhs):
    """x from sympy's rref of [A | b], free unknowns 0; None when b is a
    pivot column."""
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    R, pivots = sympy.Matrix([r + [v] for r, v in zip(rows, rhs)]).rref()
    if ncols in pivots:
        return None
    x = [QQ.zero()] * ncols
    for i, p in enumerate(pivots):
        x[p] = QQ.scalar(Fraction(str(R[i, ncols])))
    return x


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_elimination_replays_solve_vec(rows, rhs):
    # tall, often rank-deficient systems: replaying the recorded row
    # operations on b gives what rref([A | b]) leaves in its last column
    sympy = pytest.importorskip("sympy")
    a = cm(rows)
    el = Elimination(a)
    R, pivots = sympy.Matrix(rows).rref()
    assert el.pivots == list(pivots)
    assert a.rref() == (cm([[Fraction(str(v)) for v in R.row(i)]
                            for i in range(R.rows)]), list(pivots))
    consistent = [sum(r[j] * v for j, v in enumerate(rhs[:3])) for r in rows]
    for b in (rhs, consistent):
        want = sympy_solve(rows, b)
        got = el.solve([QQ.scalar(v) for v in b])
        assert got == want == a.solve_vec([QQ.scalar(v) for v in b])
    assert want is not None             # the consistent b has a solution


def test_inverse_and_failure():
    a = cm([[1, 2], [3, 5]])
    inv = a.inverse()
    assert a * inv == ConstMatrix.identity(2, QQ)
    with pytest.raises(NotInvertibleError):
        cm([[1, 2], [2, 4]]).inverse()


def test_charpoly_companion():
    # companion matrix of t^2 - t - 1
    a = cm([[0, 1], [1, 1]])
    p = a.charpoly()
    assert [c.to_fraction() for c in p] == [Fraction(-1), Fraction(-1), Fraction(1)]
    # Cayley-Hamilton
    acc = ConstMatrix.zeros(2, 2, QQ)
    for k, c in enumerate(p):
        acc = acc + a.power(k) * c
    assert acc.is_zero()


@pytest.mark.parametrize("k", range(6))
def test_power_matches_repeated_products(monkeypatch, k):
    a = cm([[1, 2, 0], [-1, 3, 1], [2, 0, -2]])
    want = ConstMatrix.identity(3, QQ)
    for _ in range(k):
        want = want * a
    products = []
    mul = ConstMatrix.__mul__
    monkeypatch.setattr(ConstMatrix, "__mul__",
                        lambda x, y: products.append(1) or mul(x, y))
    assert a.power(k) == want
    # a squaring per bit below the top one of k and a product per
    # further set bit: none for k = 1, one for k = 2
    assert len(products) == [0, 0, 1, 2, 2, 3][k]


def test_generalized_eigenspaces_jordan():
    # eigenvalue 2 with a 2x2 Jordan block, eigenvalue -1 simple
    a = cm([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
    roots = [(QQ.scalar(2), 2), (QQ.scalar(-1), 1)]
    V, sizes = generalized_eigenspaces(a, roots)
    assert sizes == [2, 1]
    B = V.inverse() * a * V
    # block triangular with the right diagonal
    assert B.rows[0][2].is_zero() and B.rows[1][2].is_zero()
    assert B.rows[2][0].is_zero() and B.rows[2][1].is_zero()
    assert B.rows[2][2] == -1


@pytest.mark.parametrize("rows", [[[2, 1, 0], [0, 2, 0], [0, 0, -1]],
                                  [[0, 1], [2, 0]]],
                         ids=["jordan-Q", "simple-Q(sqrt 2)"])
def test_generalized_eigenspaces_make_no_matrix_times_scalar(monkeypatch,
                                                             rows):
    a = cm(rows)
    roots = roots_of_charpoly(a.charpoly())
    scaled = []
    mul = ConstMatrix.__mul__

    def spy(x, y):
        if not isinstance(y, Matrix):
            scaled.append(y)
        return mul(x, y)

    monkeypatch.setattr(ConstMatrix, "__mul__", spy)
    V, sizes = generalized_eigenspaces(a, roots)
    assert scaled == []
    assert sizes == [m for _, m in roots]
    # V^-1 a V is block diagonal with one eigenvalue per block
    B = mul(mul(V.inverse(), a), V)
    owner = [k for k, s in enumerate(sizes) for _ in range(s)]
    for r, row in enumerate(B.rows):
        for c, x in enumerate(row):
            assert owner[r] == owner[c] or x.is_zero()
        assert row[r] == roots[owner[r]][0]


def test_series_matrix_product():
    a = sm([[1, X1], [0, 1]])
    b = sm([[1, -X1], [0, 1]])
    assert a * b == SeriesMatrix.identity(2, 2, QQ)


def test_series_product_multiplies_no_scalars(monkeypatch):
    # each entry of a dense product over Q adds integer numerator
    # products in one pass (series.sum_of_products), with no Scalar
    # product per term pair
    d = 4
    M = mat1(dense_grid(d))
    N = mat1(dense_grid(d, seed=1)) * Fraction(1, 3)
    calls = []
    product = Scalar.__mul__

    def spy(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(Scalar, "__mul__", spy)
    P = M * N
    assert not calls
    assert P.exact and not P.is_zero()


@pytest.mark.parametrize("left, right", [
    (cm([[1, 2]]), cm([[1], [2]])),
    (SeriesMatrix.identity(2, 1, QQ), SeriesMatrix.identity(3, 1, QQ)),
], ids=["const", "series"])
def test_sums_of_mismatched_shapes_are_refused(left, right):
    # zipping rows and entries would cut both to the smaller shape
    for a, b in ((left, right), (right, left)):
        with pytest.raises(DimensionError, match="shape mismatch in sum"):
            a + b
        with pytest.raises(DimensionError, match="shape mismatch in sum"):
            a - b


def test_determinant_exact():
    a = sm([[1 + X1, X2], [X2, 1 - X1]])
    det = a.determinant()
    assert det == Series.constant(2, 1, QQ) - X1 * X1 - X2 * X2


def test_determinant_windowed():
    a = sm([[(1 + X1).clipped((3, 3)), X2], [X2, 1 - X1]])
    det = a.determinant()
    assert not det.exact
    assert det.coefficient((0, 1)) == 0
    assert det.coefficient((2, 0)) == -1


def test_rank_generic_sees_series_pivots():
    a = sm([[X1, X2], [X1 * X2, X2 * X2]])  # second row = x2 * first
    assert a.rank_generic() == 1
    b = sm([[X1, X2], [X2, X1]])
    assert b.rank_generic() == 2


def test_series_matrix_derivative_and_restrict():
    a = sm([[X1 * X2, X1], [1, X2]])
    da = a.euler(0, 0)                  # x1 d/dx1
    assert da.rows[0][0] == X1 * X2
    assert da.rows[1][1].is_zero()


entries = st.integers(-3, 3)


@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=50)
def test_charpoly_roots_vs_det(rows):
    a = cm(rows)
    p = a.charpoly()
    # p(0) = det(-A) = (-1)^3 det(A); compare against series determinant
    det = a.to_series(1).determinant()
    assert p[0] == -det.constant_term()


@given(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=50)
def test_det_multiplicative(r1, r2):
    a, b = sm(r1), sm(r2)
    assert (a * b).determinant() == a.determinant() * b.determinant()


# -- sympy as a test-only oracle for charpoly and determinant -----------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def const_matrices(draw):
    d = draw(st.integers(1, 7))
    return [[draw(rationals) for _ in range(d)] for _ in range(d)]


@given(const_matrices())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    want = sympy.Matrix(rows).charpoly(lam).all_coeffs()[::-1]
    got = cm(rows).charpoly()
    assert [c.to_fraction() for c in got] == [Fraction(str(c)) for c in want]


@st.composite
def poly_matrices(draw):
    """(nvars, d x d grid of {exponent: coefficient}) with small degrees."""
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 7))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    cell = st.dictionaries(exps, rationals.filter(bool), max_size=3)
    return n, [[draw(cell) for _ in range(d)] for _ in range(d)]


@given(poly_matrices())
@settings(max_examples=40, deadline=None)
def test_series_determinant_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
    n, grid = case
    xs = sympy.symbols(f"x1:{n + 1}")
    ring = sympy.QQ[xs]

    def poly(cell):
        return ring.from_sympy(sum(
            (sympy.Rational(c.numerator, c.denominator)
             * sympy.prod([v ** k for v, k in zip(xs, e)])
             for e, c in cell.items()), sympy.Integer(0)))

    # Bareiss elimination over Q[x], another algorithm than the package's
    want = DomainMatrix([[poly(c) for c in r] for r in grid],
                        (len(grid), len(grid)), ring).det()
    M = SeriesMatrix([[Series(n, {e: QQ.scalar(c) for e, c in cell.items()},
                              QQ) for cell in r] for r in grid], n, QQ)
    det = M.determinant()
    assert det.exact
    assert {e: c.to_fraction() for e, c in det.terms.items()} == {
        e: Fraction(str(c)) for e, c in want.terms() if c != 0}


def test_dense_determinant_takes_order_d4_products(monkeypatch):
    # Berkowitz's algorithm: O(d^4) series products, where a Laplace
    # expansion memoized on column sets takes about d 2^(d-1); a product
    # is a Series.__mul__ or one entry pair of a series.sum_of_products
    d = 12
    M = mat1(dense_grid(d))
    calls = []
    product = Series.__mul__
    products = series.sum_of_products

    def spy(a, b):
        calls.append(1)
        return product(a, b)

    def spy_sum(start, pairs, tower):
        calls.append(sum(len(A) * len(B) * len(B[0]) for _, A, B in pairs))
        return products(start, pairs, tower)

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(series, "sum_of_products", spy_sum)
    det = M.determinant()
    assert det.exact and not det.is_zero()
    assert 0 < sum(calls) <= d ** 4 / 3
