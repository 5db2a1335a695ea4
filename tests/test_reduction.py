"""Constructor-level tests for the reduction moves.

Reference data is hand-computed: cofactor solves and column reductions
are checked against worked 3x4 / 4x4 matrices, the shearing against the
block-exchange picture on a rank-2 leading term, and the full loops
against the bivariate systems from helpers (whose reduced forms were
verified entry by entry through an independent gauge).
"""

from fractions import Fraction

import pytest

from helpers import (
    hyper_system, mat1, mat2, poly1, poly2, shifted_system, sys1,
)
from pfaffred import reduction
from pfaffred.docio import generate_equivalent
from pfaffred.driver import fmfs
from pfaffred.errors import (
    ColumnModuleNotFree,
    InputError,
    ResonanceError,
    RowModuleNotFree,
    TruncationInsufficient,
)
from pfaffred.linalg import SeriesMatrix
from pfaffred.reduction import (
    build_Q,
    build_shearing,
    column_reduce,
    eigen_shift,
    integral_cofactors,
    moser_data,
    moser_rank,
    ramify_system,
    rank_reduce,
    rank_reduce_alt,
    ramify_system,
    split,
)
from pfaffred.scalars import QQ
from pfaffred.series import INF, Series
from pfaffred.system import (
    GaugeTransformation, PfaffianSystem, apply_gauge, check_integrability,
)


X = poly1({1: 1})


def cofactor_fixture():
    # 3x4: columns v1, v2, v3 generate; v4 = v1 + v3
    return mat1([
        [{1: 1}, 0, {2: 1}, {2: 1, 1: 1}],
        [0, {1: 1}, {1: 1}, {1: 1}],
        [1, 0, 0, 1],
    ])


# -- integral cofactors --------------------------------------------------

def test_cofactors_recover_exact_combination():
    M = cofactor_fixture()
    B = M.submatrix(range(3), range(3))
    v4 = [M.rows[t][3] for t in range(3)]
    cof, info = integral_cofactors(B, v4, 3, [0])
    assert [c.coefficient((0,)) for c in cof] == [QQ.one(), QQ.zero(), QQ.one()]
    assert all(len(c.terms) <= 1 for c in cof)
    assert info["exact"]
    assert info["inconsistent_at"] is None


def test_cofactors_refuse_short_window():
    # det B = -x^3, so certifying any order needs data past that valuation;
    # order-1 data admits the spurious combination v4 = v1 + v2 and must
    # not be accepted.
    M = cofactor_fixture().clipped((2,))
    B = M.submatrix(range(3), range(3))
    v4 = [M.rows[t][3] for t in range(3)]
    with pytest.raises(TruncationInsufficient):
        integral_cofactors(B, v4, 1, [0])


def test_cofactors_detect_non_membership():
    B = mat1([[{1: 1}]])
    one = poly1({0: 1})
    cof, info = integral_cofactors(B, [one], 4, [0])
    assert cof is None


def test_cofactors_window_inexact_but_sufficient():
    B = mat1([[{1: 1}]]).clipped((10,))
    cof, info = integral_cofactors(B, [poly1({2: 1}).clipped((10,))], 3, [0])
    assert cof[0].coefficient((1,)) == QQ.one()
    assert not info["exact"]


# -- column reduction ----------------------------------------------------

def test_column_reduce_eliminates_dependent_column():
    S = shifted_system()
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    assert (colred.r, colred.v) == (1, 0)
    g = colred.gauge
    assert g.T.rows[0][1] == poly2({(0, 1): -1})
    assert g.T.rows[0][0] == 1 and g.T.rows[1][1] == 1
    red = colred.A0_reduced
    assert red.rows[1][0] == -1
    assert all(red.rows[t][j].is_zero()
               for t in range(2) for j in range(2) if (t, j) != (1, 0))


def test_column_reduce_full_rank_is_identity():
    A0 = mat2([[1, 1], [0, 2]])
    colred = column_reduce(A0, 0, 10)
    assert (colred.r, colred.v) == (2, 2)
    assert colred.gauge.is_identity()


def test_column_reduce_refines_core_block():
    A0 = mat1([
        [1, 2, 0, 0],
        [0, 0, 0, 0],
        [-2, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    colred = column_reduce(A0, 0, 10)
    assert (colred.r, colred.v) == (2, 1)
    red = colred.A0_reduced
    # second core column is a multiple of the first; after elimination
    # only column 0 survives in the top two rows
    assert red.rows[0][1].is_zero() and red.rows[1][1].is_zero()


def test_column_module_not_free():
    A0 = SeriesMatrix([
        [Series.zero(3, QQ), Series.variable(3, 0, QQ), Series.variable(3, 1, QQ)],
        [Series.zero(3, QQ)] * 3,
        [Series.zero(3, QQ)] * 3,
    ], 3, QQ)
    with pytest.raises(ColumnModuleNotFree) as exc:
        column_reduce(A0, 2, 6)
    assert "column module not free" in str(exc.value)


# -- the reduction pencil ------------------------------------------------

def test_pencil_regular_case():
    # A = diag(1, 0) + x diag(5, 7): pencil determinant is lambda + 7
    S = sys1([[{0: 1, 1: 5}, 0], [0, {1: 7}]], 1)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    md = moser_data(S, 0, colred)
    assert not md.theta_zero
    assert md.theta.coefficient((0, 1)) == QQ.one()
    assert md.theta.coefficient((0, 0)) == QQ.scalar(7)


def test_pencil_vanishes_for_nilpotent_leading_term():
    S = sys1([[0, 0], [1, 0]], 1)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    md = moser_data(S, 0, colred)
    assert md.theta_zero and not md.theta_limited


def test_pencil_invertible_leading_term():
    S = sys1([[1, 1], [0, 2]], 1)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    md = moser_data(S, 0, colred)
    assert not md.theta_zero
    assert md.theta.coefficient((0, 0)) == QQ.scalar(2)


def laurent_pencil(S, i, r):
    """Oracle for theta: x_i^r det(lambda I + A_{i,0}/x_i + A_{i,1}) at
    x_i = 0, expanded over n + 1 variables with lambda last."""
    d, n, tower = S.d, S.n, S.tower
    A0e = S.coeff(i, 0).map(Series.append_slot)
    A1e = S.coeff(i, 1).map(Series.append_slot)
    lam = Series.variable(n + 1, n, tower)
    shift = tuple(-1 if k == i else 0 for k in range(n + 1))
    P = SeriesMatrix([[A0e.rows[t][j].mul_monomial(shift) + A1e.rows[t][j]
                       + (lam if t == j else Series.zero(n + 1, tower))
                       for j in range(d)] for t in range(d)], n + 1, tower)
    return P.determinant().mul_monomial(
        tuple(r if k == i else 0 for k in range(n + 1))).restrict([i])


def assert_pencil_matches_oracle(S, i, colred, md):
    want = laurent_pencil(S, i, colred.r)
    assert md.theta.terms == want.terms
    assert (md.theta.lo, md.theta.hi) == (want.lo, want.hi)


def _row_module_system():
    rows = [[Series.zero(3, QQ) for _ in range(4)] for _ in range(4)]
    rows[0][0] = Series.constant(3, 1, QQ)
    rows[2][1] = Series.variable(3, 1, QQ)
    rows[3][1] = Series.variable(3, 2, QQ)
    Z = SeriesMatrix.zeros(4, 4, 3, QQ)
    return PfaffianSystem(["x1", "x2", "x3"], [1, 0, 0],
                          [SeriesMatrix(rows, 3, QQ), Z, Z], QQ)


@pytest.mark.parametrize("build", [
    lambda: sys1([[{0: 1, 1: 5}, 0], [0, {1: 7}]], 1),
    lambda: sys1([[0, 0], [1, 0]], 1),
    lambda: sys1([[1, 1], [0, 2]], 1),
    lambda: PfaffianSystem(["x1", "x2"], [3, 1], [
        mat2([[{(3, 0): 1}, 0], [-1, {(3, 0): 1}]]),
        mat2([[{(0, 1): -1}, 0], [-2, {(0, 1): -1}]])], QQ),
    lambda: sys1([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], 1),
    _row_module_system,
], ids=["regular", "nilpotent", "invertible", "empty-core", "widest-rho",
        "row-module"])
def test_pencil_matches_the_laurent_expansion(build):
    S = build()
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    assert_pencil_matches_oracle(S, 0, colred, moser_data(S, 0, colred))


@pytest.mark.parametrize("seed,shape", [
    (3, {"n": 2, "d": 2, "p": [2, 1], "ramified": True}),
    (0, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}),
], ids=["r3-n2d2p21", "r0-n2d3p21"])
def test_pencil_matches_the_laurent_expansion_on_plants(monkeypatch, seed,
                                                        shape):
    # every pencil a full reduction builds, vanishing and truncated
    # ones included
    seen = []

    def checked(S, i, colred, certify_order=None):
        md = moser_data(S, i, colred, certify_order)
        assert_pencil_matches_oracle(S, i, colred, md)
        seen.append((md.theta_zero, md.theta.exact))
        return md

    monkeypatch.setattr(reduction, "moser_data", checked)
    fmfs(generate_equivalent(seed, shape)[0], order=8)
    assert any(zero for zero, _ in seen)


def test_moser_rank_values():
    S = shifted_system()
    assert moser_rank(S, 0) == Fraction(7, 2)
    assert moser_rank(S, 1) == Fraction(3, 2)


# -- pencil reorganization and shearing ----------------------------------

def test_build_q_trivial_when_core_empty():
    # v = 0 requires no reorganization at all
    A1 = mat2([[{(3, 0): 1}, 0], [-1, {(3, 0): 1}]])
    A2 = mat2([[{(0, 1): -1}, 0], [-2, {(0, 1): -1}]])
    S = PfaffianSystem(["x1", "x2"], [3, 1], [A1, A2], QQ)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    md = moser_data(S, 0, colred)
    assert md.theta_zero
    g, md2 = build_Q(S, 0, md)
    assert g.is_identity()
    assert md2.rho == 0


def test_build_q_selects_widest_valid_rho():
    S = sys1([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ], 1)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    md = moser_data(S, 0, colred)
    assert md.theta_zero
    g, md2 = build_Q(S, 0, md)
    assert md2.rho == 1


def test_build_q_row_module_not_free():
    # 32-block rows x2 and x3 span a rank-one module needing two
    # generators, so no unimodular reorganization can clear either
    rows = [[Series.zero(3, QQ) for _ in range(4)] for _ in range(4)]
    rows[0][0] = Series.constant(3, 1, QQ)
    rows[2][1] = Series.variable(3, 1, QQ)
    rows[3][1] = Series.variable(3, 2, QQ)
    A1 = SeriesMatrix(rows, 3, QQ)
    Z = SeriesMatrix.zeros(4, 4, 3, QQ)
    S = PfaffianSystem(["x1", "x2", "x3"], [1, 0, 0], [A1, Z, Z], QQ)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    assert (colred.r, colred.v) == (2, 1)
    md = moser_data(S, 0, colred)
    assert md.theta_zero
    with pytest.raises(RowModuleNotFree) as exc:
        build_Q(S, 0, md)
    assert "row module not free" in str(exc.value)


def test_shearing_shape():
    g = build_shearing(0, 2, 1, 4, 1, QQ)
    for k, e in enumerate([(1,), (1,), (0,), (1,)]):
        assert g.T.rows[k][k] == Series.monomial(1, e, 1, QQ)


def test_shearing_block_exchange():
    # rank-2 leading term; Diag(x,x,1,1) swaps the off-diagonal 2x2
    # blocks between consecutive coefficients and drops the rank to 1
    A = mat1([
        [{0: 1, 1: 4}, {0: 2, 1: 9}, {1: 2}, {1: -5}],
        [{1: 8}, {1: 9}, 0, 0],
        [{0: -2, 1: 8}, {1: 6}, {1: 2}, {1: 4}],
        [{1: 5}, {0: 1, 1: 6}, {1: 3}, {1: 3}],
    ])
    S = PfaffianSystem(["x"], [2], [A], QQ)
    colred = column_reduce(S.coeff(0, 0), 0, 10)
    assert (colred.r, colred.v) == (2, 1)
    g = build_shearing(0, 2, 0, 4, 1, QQ)
    out = apply_gauge(S, g)
    assert out.p == [2]
    A0 = out.coeff(0, 0)
    assert A0.rows[0][0] == 1 and A0.rows[0][1] == 2
    assert A0.rows[0][2] == 2 and A0.rows[0][3] == -5
    assert all(A0.rows[t][j].is_zero() for t in range(1, 4) for j in range(4))
    assert A0.rank_generic() == 1
    A1 = out.coeff(0, 1)
    expect = [[4, 9, 0, 0], [8, 9, 0, 0], [-2, 0, 2, 4], [0, 1, 3, 3]]
    for t in range(4):
        for j in range(4):
            assert A1.rows[t][j] == expect[t][j]


# -- rank reduction ------------------------------------------------------

def test_rank_reduce_bivariate_reaches_regular_form():
    S = shifted_system()
    T, out, steps = rank_reduce(S)
    assert out.p == [0, 0]
    want1 = mat2([[-2, 0], [{(0, 1): -1}, 1]])
    want2 = mat2([[-2, 0], [{(3, 0): -2}, -1]])
    assert out.A[0].agrees(want1) and out.A[1].agrees(want2)
    # the composed gauge replays to the same endpoint
    g = GaugeTransformation(T, T.inverse())
    assert apply_gauge(S, g).fingerprint() == out.fingerprint()
    assert any(s["kind"] == "shear" for s in steps)


def test_rank_reduce_stops_at_true_ranks():
    _, out, steps = rank_reduce(hyper_system())
    assert out.p == [1, 2]
    want1 = mat2([[{(0, 0): 1, (1, 0): -1}, 0], [-1, {(0, 0): 1, (1, 0): 1}]])
    assert out.A[0].agrees(want1)
    d = poly2({(0, 2): -1, (0, 1): -2, (0, 0): -6})
    assert out.A[1].rows[0][0] == d and out.A[1].rows[1][1] == d
    assert out.A[1].rows[0][1].is_zero()
    assert out.A[1].rows[1][0] == poly2({(2, 1): -2})


def test_rank_reduce_uses_reorganization_path():
    S = sys1([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ], 1)
    _, out, steps = rank_reduce(S)
    assert out.p == [0]
    final = out.A[0]
    expect = [[-2, 0, 0, 0], [1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1]]
    for t in range(4):
        for j in range(4):
            assert final.rows[t][j] == expect[t][j]
    shears = [s for s in steps if s["kind"] == "shear"]
    assert len(shears) == 2
    # first pass isolates one clearable row (exponents x,x,1,x), second
    # pass runs with an empty core and shears the rank block alone
    assert shears[0]["gauge"].T.rows[3][3] == Series.variable(1, 0, QQ)
    assert shears[1]["gauge"].T.rows[3][3] == 1


def test_rank_reduce_propagates_window_exhaustion():
    S = shifted_system().clipped((2, 2))
    with pytest.raises(TruncationInsufficient):
        rank_reduce(S)


def test_rank_reduce_alt_agrees_on_final_ranks():
    for build in (shifted_system, hyper_system):
        _, out, _ = rank_reduce(build())
        _, out2, _ = rank_reduce_alt(build())
        assert out.p == out2.p


def test_rank_reduce_alt_univariate():
    S = sys1([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ], 1)
    _, out, _ = rank_reduce_alt(S)
    assert out.p == [0]


# -- splitting -----------------------------------------------------------

def h_system():
    """Regular form of the shifted system: eigenvalues (-2, 1) and (-2, -1)."""
    A1 = mat2([[-2, 0], [{(0, 1): -1}, 1]])
    A2 = mat2([[-2, 0], [{(3, 0): -2}, -1]])
    return PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)


def test_split_decouples_lower_triangular_couplings():
    S = h_system()
    T, top, bottom, whole = split(S, 0)
    assert top.d == 1 and bottom.d == 1
    assert top.A[0].rows[0][0] == -2 and top.A[1].rows[0][0] == -2
    assert bottom.A[0].rows[0][0] == 1 and bottom.A[1].rows[0][0] == -1
    # coupling solves two one-dimensional recurrences with a finite answer
    assert T.rows[1][0] == poly2({(0, 1): Fraction(1, 3), (3, 0): 2})
    assert T.rows[1][0].exact
    for k in range(2):
        assert whole.A[k].rows[0][1].is_zero()
        assert whole.A[k].rows[1][0].is_zero()


def test_split_respects_integrability():
    S = h_system()
    _, top, bottom, _ = split(S, 0)
    assert check_integrability(top).passed
    assert check_integrability(bottom).passed


def test_split_with_quadratic_eigenvalues():
    A = mat1([[0, 1], [2, 0]])
    S = PfaffianSystem(["x"], [0], [A], QQ)
    _, top, bottom, whole = split(S, 0)
    lam = whole.A[0].rows[0][0].coefficient((0,))
    mu = whole.A[0].rows[1][1].coefficient((0,))
    assert (lam * lam).to_fraction() == 2
    assert mu == -lam
    assert whole.A[0].rows[0][1].is_zero()


def test_split_requires_distinct_eigenvalues():
    S = sys1([[0, 1], [0, 0]], 0)
    with pytest.raises(InputError):
        split(S, 0)


def test_split_rejects_order_below_one():
    S = sys1([[1, 0], [0, 0]], 0)
    for order in (0, -5):
        with pytest.raises(InputError):
            split(S, 0, order=order)


def test_split_resonant_inconsistent_coupling():
    # x F' = [[1, x], [0, 0]] F: the coupling equation at x^1 reads
    # (1 - 0 - 1) p_1 = -1, which no p_1 solves
    with pytest.raises(ResonanceError):
        split(sys1([[1, {1: 1}], [0, 0]], 0), 0)


@pytest.mark.parametrize("grid,gauge", [
    # the operator vanishes at x^1, where the right-hand side is 0 too,
    # and is invertible at x^2; the eigenvalue order swaps the blocks
    ([[1, {2: 1}], [0, 0]], [[{2: 1}, 1], [1, 0]]),
    # eigenvalues 0 | 1, 3: at x^1 the operator diag(0, 2) is singular
    # while the right-hand side (0, -1) is not zero; the free unknown
    # stays 0
    ([[0, 0, 0], [0, 1, 0], [{1: 1}, 0, 3]],
     [[1, 0, 0], [0, 1, 0], [{1: Fraction(-1, 2)}, 0, 1]]),
])
def test_split_resonant_consistent_coupling(grid, gauge):
    T, top, bottom, whole = split(sys1(grid, 0), 0)
    assert T == mat1(gauge)
    assert T.exact
    d = len(grid)
    for i in range(d):
        for j in range(d):
            if i != j:
                assert whole.A[0].rows[i][j].is_zero()


# -- shifting and ramification -------------------------------------------

def test_eigen_shift_strips_exponential_growth():
    S = hyper_system()
    (pow1, coeff1), S1 = eigen_shift(S, 1, QQ.scalar(-6))
    assert (pow1, coeff1) == (2, QQ.scalar(3))
    assert S1.p == [3, 1]
    assert S1.A[1].rows[0][0] == poly2({(0, 1): 1, (0, 0): -2})
    (pow2, coeff2), S2 = eigen_shift(S1, 1, QQ.scalar(-2))
    assert (pow2, coeff2) == (1, QQ.scalar(2))
    # the second component now matches the reference regular-growth data;
    # the first component is untouched by shifts in x2
    assert S2.p == [3, 1]
    assert S2.A[1].agrees(shifted_system().A[1])
    assert S2.A[0].agrees(hyper_system().A[0])


def test_eigen_shift_rejects_regular_component():
    S = h_system()
    with pytest.raises(InputError):
        eigen_shift(S, 0, QQ.scalar(1))


def test_ramify_system_doubles_rank_and_scales():
    S = sys1([[{0: 1, 1: 3}, 0], [0, 1]], 1)
    R = ramify_system(S, 0, 2)
    assert R.p == [2]
    assert R.A[0].rows[0][0] == poly1({0: 2, 2: 6})
    assert ramify_system(S, 0, 1) is S


def test_ramify_rejects_bad_index():
    with pytest.raises(InputError):
        ramify_system(sys1([[1]], 1), 0, 0)
