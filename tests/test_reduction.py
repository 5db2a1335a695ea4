"""Constructor-level tests for the reduction moves.

Reference data is hand-computed: cofactor solves and column reductions
are checked against worked 3x4 / 4x4 matrices, the shearing against the
block-exchange picture on a rank-2 leading term, and the rank reduction
against the bivariate systems from helpers (whose reduced forms were
verified entry by entry through an independent gauge) and against the
growth orders the planted generator plants.
"""

import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    hyper_system, mat1, mat2, poly1, poly2, quadratic_system, random_grids,
    shifted_system, sys1, triple_system,
)
from pfaffred import driver, linalg, reduction
from pfaffred.docio import generate_equivalent
from pfaffred.driver import fmfs, regular_endgame
from pfaffred.errors import (
    ColumnModuleNotFree,
    FieldExtensionError,
    InputError,
    ResonanceError,
    TruncationInsufficient,
)
from pfaffred.linalg import (
    ConstMatrix, Elimination, SeriesMatrix, SylvesterSolver,
    generalized_eigenspaces,
)
from pfaffred.reduction import (
    build_shearing,
    column_reduce,
    eigen_shift,
    integral_cofactors,
    ramify_system,
    rank_reduce,
    riccati,
    solve_graded,
    split,
)
from pfaffred.scalars import QQ, common_tower, roots_of_charpoly
from pfaffred.series import INF, Series, divide_form, fold_scalars
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
    (cof,) = integral_cofactors(B, [v4], 3, [0])
    assert [c.coefficient((0,)) for c in cof] == [QQ.one(), QQ.zero(), QQ.one()]
    assert all(len(c.terms) <= 1 for c in cof)
    assert all(c.exact for c in cof)


def test_cofactors_refuse_short_window():
    # det B = -x^3, so certifying any order needs data past that valuation;
    # order-1 data admits the spurious combination v4 = v1 + v2 and must
    # not be accepted.
    M = cofactor_fixture().clipped((2,))
    B = M.submatrix(range(3), range(3))
    v4 = [M.rows[t][3] for t in range(3)]
    with pytest.raises(TruncationInsufficient):
        integral_cofactors(B, [v4], 1, [0])


def test_cofactors_detect_non_membership():
    B = mat1([[{1: 1}]])
    one = poly1({0: 1})
    assert integral_cofactors(B, [[one]], 4, [0]) is None


def test_cofactors_window_inexact_but_sufficient():
    B = mat1([[{1: 1}]]).clipped((10,))
    (cof,) = integral_cofactors(
        B, [[poly1({2: 1}).clipped((10,))]], 3, [0])
    assert cof[0].coefficient((1,)) == QQ.one()
    assert not cof[0].exact


# the per-grade linear solve that the division replaced, kept as its
# oracle: every grade-g monomial over the slots is an unknown, and the
# product with Dk is matched monomial by monomial
def monomials_of_grade(slots, g, nvars):
    return [e for e in itertools.product(range(g + 1), repeat=nvars)
            if sum(e) == g and all(e[j] == 0 for j in range(nvars)
                                    if j not in slots)]


def linear_solve_of_grade(F, Dk, g, slots, nvars):
    unknowns = monomials_of_grade(slots, g, nvars)
    rows = sorted({tuple(a + b for a, b in zip(de, ue))
                   for de in Dk for ue in unknowns} | set(F))
    row_ix = {m: j for j, m in enumerate(rows)}
    M = ConstMatrix.zeros(len(rows), len(unknowns), QQ)
    for uj, ue in enumerate(unknowns):
        for de, dc in Dk.items():
            m = row_ix[tuple(a + b for a, b in zip(de, ue))]
            M.rows[m][uj] = M.rows[m][uj] + dc
    x = M.solve_vec([F.get(m, QQ.zero()) for m in rows])
    if x is None:
        return None
    return {ue: v for ue, v in zip(unknowns, x) if not v.is_zero()}


def random_division(seed):
    """(F, Dk, g, slots, nvars): Dk a nonzero form over 1-2 slots, F = Dk c
    for a random form c of grade g, sometimes plus a stray term, which may
    sit on the variable outside the slots."""
    rng = random.Random(seed)
    slots = sorted(rng.sample(range(3), rng.randint(1, 2)))
    k, g = rng.randint(0, 2), rng.randint(0, 3)

    def form(deg, over):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0, 0, 0]
            for _ in range(deg):
                e[rng.choice(over)] += 1
            terms[tuple(e)] = QQ.scalar(rng.choice([1, -1, 2, Fraction(1, 3)]))
        return Series(3, terms, QQ)

    Dk = form(k, slots)
    while Dk.is_zero():
        Dk = form(k, slots)
    F = Dk * form(g, slots)
    if rng.random() < 0.4:
        F = F + form(k + g, slots + [rng.randrange(3)])
    return F.terms, Dk.terms, g, slots, 3


def test_division_matches_the_linear_solve_of_each_grade():
    got, want = [], []
    for seed in range(60):
        F, Dk, g, slots, nvars = random_division(seed)
        got.append(divide_form(F, Dk, slots))
        want.append(linear_solve_of_grade(F, Dk, g, slots, nvars))
    assert got == want
    # divisible and indivisible forms both occur, and nonzero quotients
    assert None in got and any(got) and any(c == {} for c in got)


# -- column reduction ----------------------------------------------------

def test_column_reduce_eliminates_dependent_column():
    S = shifted_system()
    A0 = S.coeff(0, 0)
    colred = column_reduce(A0, 0, 10)
    assert colred.r == 1
    g = colred.gauge
    assert g.T.rows[0][1] == poly2({(0, 1): -1})
    assert g.T.rows[0][0] == 1 and g.T.rows[1][1] == 1
    red = g.T_inv * A0 * g.T
    assert red.rows[1][0] == -1
    assert all(red.rows[t][j].is_zero()
               for t in range(2) for j in range(2) if (t, j) != (1, 0))


def test_column_reduce_basis_of_a_matrix_singular_at_the_origin(
        monkeypatch):
    # columns b1, c2 = y b0 + b1, c3 = 2 b0 - y b1, b0 with b0 = (y, 0, 1, 0)
    # and b1 = (0, y, 0, y): rank 2 but 1 at the origin, so every pair is
    # ranked by the valuation of its determinant.  (b1, c3) comes first and
    # generates: c2 = (1 + y^2/2) b1 + (y/2) c3, b0 = (y/2) b1 + (1/2) c3.
    # The data is known below y^7, so the cofactors hold below y^(ell+1).
    determinants = []
    det = SeriesMatrix.determinant

    def spy(M):
        determinants.append(M)
        return det(M)

    monkeypatch.setattr(SeriesMatrix, "determinant", spy)
    A0 = mat2([
        [0, {(0, 2): 1}, {(0, 1): 2}, {(0, 1): 1}],
        [{(0, 1): 1}, {(0, 1): 1}, {(0, 2): -1}, 0],
        [0, {(0, 1): 1}, 2, 1],
        [{(0, 1): 1}, {(0, 1): 1}, {(0, 2): -1}, 0],
    ]).clipped((INF, 7))
    assert A0.constant_term().rank() == 1
    colred = column_reduce(A0, 0, 3)
    assert colred.r == 2
    # one det(B) per ranked pair, all six of them, which the cofactor
    # solve of the chosen pair reuses, and one det(B_i) per cofactor
    assert len(determinants) == 6 + 2 * 2
    h = Fraction(1, 2)
    # basis columns first, then c2 and b0 minus their combinations
    want = mat2([[1, 0, {(0, 0): -1, (0, 2): -h}, {(0, 1): -h}],
                 [0, 0, 1, 0],
                 [0, 1, {(0, 1): -h}, -h],
                 [0, 0, 0, 1]])
    T = colred.gauge.T
    cofactor_entries = {(0, 2), (2, 2), (0, 3), (2, 3)}
    for t in range(4):
        for j in range(4):
            window = (INF, 4) if (t, j) in cofactor_entries else (INF, INF)
            assert T.rows[t][j].hi == window
            assert T.rows[t][j].terms == want.rows[t][j].terms
    red = colred.gauge.T_inv * A0 * colred.gauge.T
    assert all(red.rows[t][j].is_zero() for t in range(4) for j in (2, 3))


def test_column_reduce_full_rank_is_identity():
    A0 = mat2([[1, 1], [0, 2]])
    colred = column_reduce(A0, 0, 10)
    assert colred.r == 2
    assert colred.gauge.T.is_identity()


def test_column_module_not_free():
    A0 = SeriesMatrix([
        [Series.zero(3, QQ), Series.monomial(3, (1, 0, 0), 1, QQ),
         Series.monomial(3, (0, 1, 0), 1, QQ)],
        [Series.zero(3, QQ)] * 3,
        [Series.zero(3, QQ)] * 3,
    ], 3, QQ)
    with pytest.raises(ColumnModuleNotFree) as exc:
        column_reduce(A0, 2, 6)
    assert "column module not free" in str(exc.value)


# -- shearing ----------------------------------------------------------

def test_shearing_shape():
    g = build_shearing(0, 2, 4, 1, QQ)
    for k, e in enumerate([(1,), (1,), (0,), (0,)]):
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
    assert column_reduce(S.coeff(0, 0), 0, 10).r == 2
    g = build_shearing(0, 2, 4, 1, QQ)
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

def assert_steps_replay(S, T, out, steps):
    """The logged steps compose to T and replay to the same endpoint."""
    g = GaugeTransformation.identity(S.d, S.n, S.tower)
    for st in steps:
        g = g.compose(st["gauge"])
    assert g.T == T
    assert apply_gauge(S, g).fingerprint() == out.fingerprint()


def test_rank_reduce_bivariate_reaches_regular_form():
    S = shifted_system()
    T, out, steps = rank_reduce(S)
    assert out.p == [0, 0]
    want1 = mat2([[-2, 0], [{(0, 1): -1}, 1]])
    want2 = mat2([[-2, 0], [{(3, 0): -2}, -1]])
    assert out.A[0] == want1 and out.A[1] == want2
    assert_steps_replay(S, T, out, steps)
    assert any(s["kind"] == "shear" for s in steps)


def test_rank_reduce_stops_at_true_ranks():
    _, out, steps = rank_reduce(hyper_system())
    assert out.p == [1, 2]
    want1 = mat2([[{(0, 0): 1, (1, 0): -1}, 0], [-1, {(0, 0): 1, (1, 0): 1}]])
    assert out.A[0] == want1
    d = poly2({(0, 2): -1, (0, 1): -2, (0, 0): -6})
    assert out.A[1].rows[0][0] == d and out.A[1].rows[1][1] == d
    assert out.A[1].rows[0][1].is_zero()
    assert out.A[1].rows[1][0] == poly2({(2, 1): -2})


def test_rank_reduce_uses_reorganization_path():
    # a nilpotent chain of length three: the first shear of the rank
    # block leaves p = 1, and the second, within Levelt's d - 1, lowers it
    S = sys1([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ], 1)
    T, out, steps = rank_reduce(S)
    assert out.p == [0]
    assert [(s["kind"], s["p_after"]) for s in steps] == [
        ("shear", [1]), ("shear", [0])]
    assert_steps_replay(S, T, out, steps)


def test_rank_reduce_alt_univariate():
    # the same chain through the graded reduction that replaced the
    # pencil one reaches p = 0 however its steps are logged
    S = sys1([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ], 1)
    _, out, _ = rank_reduce(S)
    assert out.p == [0]


def test_rank_reduce_rolls_back_sterile_shears():
    # Airy has growth order 1/2, so p = 1 is minimal: the one shear
    # allowed at d = 2 leaves p as it was and is taken back, and the
    # column reduction before it stays
    S = sys1([[0, 1], [{1: 1}, 0]], 1)
    T, out, steps = rank_reduce(S)
    assert out.p == [1]
    assert [s["kind"] for s in steps] == ["column_reduce"]
    assert out.fingerprint() == apply_gauge(S, steps[0]["gauge"]).fingerprint()
    assert_steps_replay(S, T, out, steps)


def test_rank_reduce_propagates_window_exhaustion():
    S = shifted_system().clipped((2, 2))
    with pytest.raises(TruncationInsufficient):
        rank_reduce(S)


# the planted growth orders are the oracle: minimal integer ranks are the
# least integers above them; the ramified plants need sterile shears
@pytest.mark.parametrize("seed,shape", [
    (2, {"n": 2, "d": 4, "p": [1, 1]}),
    (3, {"n": 2, "d": 2, "p": [2, 1], "ramified": True}),
    (0, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}),
    (1, {"n": 1, "d": 3, "p": [2], "ramified": True}),
], ids=["g2-n2d4p11", "r3-n2d2p21", "r0-n2d3p21", "r1-n1d3p2"])
def test_rank_reduce_reaches_the_planted_ranks(seed, shape):
    S, planted = generate_equivalent(seed, shape)
    T, out, steps = rank_reduce(S, order=8)
    assert out.p == [math.ceil(w) for w in planted["omega"]]
    assert_steps_replay(S, T, out, steps)


def test_rank_reduce_lowers_past_a_sterile_shear():
    # growth order 1 at p = 3: the second shear leaves p = 2 as it was,
    # and the third, after a new column reduction, lowers it to 1
    S = sys1([[{4: 2}, {2: -1, 4: 2}, 0], [{3: 1, 4: 1}, {4: 1}, {4: 2}],
              [{4: -1}, {0: 2}, {2: 1, 4: -1}]], 3)
    T, out, steps = rank_reduce(S)
    assert [s["p_after"] for s in steps if s["kind"] == "shear"] == [
        [2], [2], [1]]
    assert out.p == [1]
    assert_steps_replay(S, T, out, steps)


# -- splitting -----------------------------------------------------------

def eigenvalues(S, i):
    """The roots of A_i(0)'s characteristic polynomial, as the driver
    hands them to split."""
    return roots_of_charpoly(S.A[i].constant_term().charpoly())


def h_system():
    """Regular form of the shifted system: eigenvalues (-2, 1) and (-2, -1)."""
    A1 = mat2([[-2, 0], [{(0, 1): -1}, 1]])
    A2 = mat2([[-2, 0], [{(3, 0): -2}, -1]])
    return PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)


# (grid of a regular one-variable system, its coupling T) where a grade
# is resonant but consistent
RESONANT_CONSISTENT = [
    # the operator vanishes at x^1, where the right-hand side is 0 too,
    # and is invertible at x^2; the eigenvalue order swaps the blocks
    ([[1, {2: 1}], [0, 0]], [[{2: 1}, 1], [1, 0]]),
    # eigenvalues 0 | 1, 3: at x^1 the operator diag(0, 2) is singular
    # while the right-hand side (0, -1) is not zero; the free unknown
    # stays 0
    ([[0, 0, 0], [0, 1, 0], [{1: 1}, 0, 3]],
     [[1, 0, 0], [0, 1, 0], [{1: Fraction(-1, 2)}, 0, 1]]),
]


def test_split_decouples_lower_triangular_couplings():
    S = h_system()
    T, top, bottom = split(S, 0, eigenvalues(S, 0))
    assert top.d == 1 and bottom.d == 1
    assert top.A[0].rows[0][0] == -2 and top.A[1].rows[0][0] == -2
    assert bottom.A[0].rows[0][0] == 1 and bottom.A[1].rows[0][0] == -1
    # coupling solves two one-dimensional recurrences with a finite answer
    assert T.rows[1][0] == poly2({(0, 1): Fraction(1, 3), (3, 0): 2})
    assert T.rows[1][0].exact


def test_split_respects_integrability():
    S = h_system()
    _, top, bottom = split(S, 0, eigenvalues(S, 0))
    assert check_integrability(top).passed
    assert check_integrability(bottom).passed


def test_split_with_quadratic_eigenvalues():
    S = quadratic_system()
    _, top, bottom = split(S, 0, eigenvalues(S, 0))
    lam = top.A[0].rows[0][0].coefficient((0,))
    mu = bottom.A[0].rows[0][0].coefficient((0,))
    assert (lam * lam).to_fraction() == 2
    assert mu == -lam


@pytest.mark.parametrize("build,exact", [
    (h_system, True),
    (quadratic_system, True),
    (lambda: sys1(RESONANT_CONSISTENT[0][0], 0), True),
    (lambda: sys1(RESONANT_CONSISTENT[1][0], 0), True),
    (triple_system, False),
], ids=["h_system", "quadratic", "resonant-1", "resonant-2", "triple"])
def test_split_satisfies_the_splitting_identity(build, exact):
    """A_k T - x_k^{p_k+1} dT/dx_k = T Diag(top_k, bottom_k) for every k,
    on the common window; T is exact only when the couplings are."""
    S = build()
    T, top, bottom = split(S, 0, eigenvalues(S, 0))
    assert T.exact == exact
    for k in range(S.n):
        lhs = S.A[k] * T - T.euler(k, S.p[k])
        rhs = T * SeriesMatrix.block_diag([top.A[k], bottom.A[k]])
        assert lhs == rhs


def split_boxes(monkeypatch):
    """The (Poincare ranks, box) of every solve_graded call split makes
    from now on."""
    boxes = []
    solve = reduction.solve_graded

    def spy(blocks, p, box, tower):
        boxes.append((list(p), box))
        return solve(blocks, p, box, tower)

    monkeypatch.setattr(reduction, "solve_graded", spy)
    return boxes


def test_airy_split_keeps_the_box_of_the_working_order(monkeypatch):
    # x = t^2 and a rank reduction leave Airy at p = 1, its couplings
    # floored at 0: the blocks lose one degree on the way to rank 0,
    # which N + 1 already covers
    boxes = split_boxes(monkeypatch)
    fmfs(sys1([[0, 1], [{1: 1}, 0]], 1), order=8)
    assert boxes == [([1], (9,))] * 2


@pytest.mark.parametrize("p,floor,hi,box", [
    (1, 0, INF, 9),         # p - f <= 2: N + 1
    (2, 0, INF, 9),
    (1, -1, 20, 9),
    (3, 0, INF, 10),        # N - 1 + p - f
    (2, -2, 20, 11),
    (3, -2, 20, 12),
    (2, -2, INF, 9),        # an exact coupling's floor is its support
    (3, -2, 11, 11),        # capped by the input window
])
def test_split_box_covers_the_loss_to_rank_zero(monkeypatch, p, floor, hi,
                                                box):
    # x^{p+1} F' = [[1, c], [c, 2]] F, c = x on the floor x^floor, known
    # below x^hi: the box is max(N + 1, N - 1 + p - f) at N = 8, f the
    # lower of floor and 0 when c is inexact
    c = Series(1, {(1,): QQ.one()}, QQ, (floor,), (hi,))
    one, two = poly1({0: 1}), poly1({0: 2})
    S = PfaffianSystem(["x"], [p], [SeriesMatrix([[one, c], [c, two]], 1,
                                                 QQ)], QQ)
    boxes = split_boxes(monkeypatch)
    split(S, 0, eigenvalues(S, 0), order=8)
    assert boxes == [([p], (box,))] * 2


def test_split_requires_distinct_eigenvalues():
    S = sys1([[0, 1], [0, 0]], 0)
    with pytest.raises(InputError):
        split(S, 0, eigenvalues(S, 0))


def test_split_rejects_order_below_one():
    S = sys1([[1, 0], [0, 0]], 0)
    for order in (0, -5):
        with pytest.raises(InputError):
            split(S, 0, eigenvalues(S, 0), order=order)


def test_split_resonant_inconsistent_coupling():
    # x F' = [[1, x], [0, 0]] F: the coupling equation at x^1 reads
    # (1 - 0 - 1) p_1 = -1, which no p_1 solves
    S = sys1([[1, {1: 1}], [0, 0]], 0)
    with pytest.raises(ResonanceError, match="grade") as exc:
        split(S, 0, eigenvalues(S, 0))
    assert exc.value.grade == (1,)


def test_split_residue_check_refuses_wrong_couplings(monkeypatch):
    # a solver that answers 0 leaves the couplings at 0, and one that
    # answers x1^(box - 1) leaves them at the box edge, where the
    # certification evaluates one grade past the box first; either way
    # the Riccati residuals are nonzero inside the box
    def zero(blocks, p, box, tower):
        return SeriesMatrix.zeros(blocks[0][1].nrows, blocks[0][1].ncols,
                                  len(box), tower)

    def edge(blocks, p, box, tower):
        X = zero(blocks, p, box, tower)
        X.rows[0][0] = Series.monomial(len(box), (box[0] - 1, 0), 1, tower)
        return X

    S = h_system()
    for stub in (zero, edge):
        monkeypatch.setattr(reduction, "solve_graded", stub)
        with pytest.raises(ResonanceError, match="off-diagonal residue"):
            split(S, 0, eigenvalues(S, 0))


def riccati_operands(monkeypatch):
    """The X of every riccati evaluation from now on."""
    seen = []
    riccati_ = reduction.riccati

    def spy(blocks, X, p, k):
        seen.append(X)
        return riccati_(blocks, X, p, k)

    monkeypatch.setattr(reduction, "riccati", spy)
    return seen


def test_split_certifies_an_exact_coupling_at_the_box_edge(monkeypatch):
    # x F' = [[1, x^10], [0, 0]] F at order 10: the box is (11,), and the
    # coupling x^10/9 is a polynomial ending at its edge.  The layer one
    # grade past the box is zero, so the full residual decides, and it
    # certifies: the edge only orders the work
    seen = riccati_operands(monkeypatch)
    S = sys1([[1, {10: 1}], [0, 0]], 0)
    T, top, bottom = split(S, 0, eigenvalues(S, 0), order=10)
    assert T == mat1([[{10: Fraction(1, 9)}, 1], [1, 0]])
    assert T.exact and top.A[0].exact and bottom.A[0].exact
    # the witness one grade past the box, then the full residual of P
    assert any(X.window_hi() == (12,) for X in seen)
    assert any(X.exact and not X.is_zero() for X in seen)


def test_split_refuses_a_cut_off_coupling_one_grade_past_the_box(
        monkeypatch):
    # x^2 F' = [[1, x], [0, 0]] F: the coupling sum (k - 1)! x^k never
    # ends, so its residual has a term at x^11, one grade past the box of
    # order 10; that refuses certification before the full residual of
    # that coupling is evaluated, and P, Q and both blocks are clipped to
    # the box
    seen = riccati_operands(monkeypatch)
    S = sys1([[1, {1: 1}], [0, 0]], 1)
    T, top, bottom = split(S, 0, eigenvalues(S, 0), order=10)
    assert T.rows[0][0] == poly1({k: -math.factorial(k - 1)
                                  for k in range(1, 11)})
    assert T.window_hi() == top.A[0].window_hi() == (11,)
    assert bottom.A[0].window_hi() == (11,)
    assert any(X.window_hi() == (12,) for X in seen)
    assert not any(X.exact and not X.is_zero() for X in seen)


def full_residual_certified(equations):
    """The certification split and the endgame made before the edge
    witness: every full riccati residual, nothing clipped, is zero on an
    infinite window."""
    return all(b[1].exact and b[2].exact for b, _, _, _ in equations) and all(
        R.is_zero() and R.exact
        for R in (riccati(b, X, p, k) for b, X, p, k in equations))


# the plant shapes of the split and ramified benchmark workloads, seeds
# 0-3, and every tenth system of the R150 oracle in tests/test_driver.py
ORACLE_SHAPES = [
    {"n": 2, "d": 4, "p": [1, 1]},
    {"n": 2, "d": 3, "p": [1, 1]},
    {"n": 3, "d": 3, "p": [1, 1, 0]},
    {"n": 2, "d": 3, "p": [2, 1]},
    {"n": 2, "d": 2, "p": [2, 1], "ramified": True},
    {"n": 2, "d": 3, "p": [2, 1], "ramified": True},
    {"n": 1, "d": 3, "p": [2], "ramified": True},
]


def test_certification_matches_the_full_residual_test(monkeypatch):
    # every split's and every endgame's certification, on the systems
    # below, is the one the full residuals give
    decisions = []
    certify_ = reduction.certify

    def oracle(equations, box, check=True):
        got = certify_(equations, box, check)
        decisions.append((got, full_residual_certified(equations)))
        return got

    monkeypatch.setattr(reduction, "certify", oracle)
    monkeypatch.setattr(driver, "certify", oracle)
    systems = [generate_equivalent(seed, shape)[0]
               for shape in ORACLE_SHAPES for seed in range(4)]
    systems += [sys1(*g) for g in random_grids(150, 11)[::10]]
    for S in systems:
        try:
            fmfs(S, order=8)
        except (FieldExtensionError, ResonanceError):
            pass
    assert all(got == want for got, want in decisions)
    # both outcomes occur, so neither is compared vacuously
    assert {got for got, _ in decisions} == {True, False}


# -- the graded Riccati solver ----------------------------------------------

def split_blocks(S, i, order):
    """(system in the eigenbasis of A_i(0), per-component blocks
    (a11, a12, a21, a22), box of the order and the input windows)."""
    V, sizes = generalized_eigenspaces(S.A[i].constant_term(),
                                       eigenvalues(S, i))
    Vinv = V.inverse()
    S = PfaffianSystem(S.vars, S.p, [Vinv * A * V for A in S.A],
                       common_tower(S.tower, V.tower))
    top, bottom = range(sizes[0]), range(sizes[0], S.d)
    blocks = [(A.submatrix(top, top), A.submatrix(top, bottom),
               A.submatrix(bottom, top), A.submatrix(bottom, bottom))
              for A in S.A]
    box = tuple(min([order + 1] + [M.window_hi()[k]
                                   for b in blocks for M in b])
                for k in range(S.n))
    return S, blocks, box


def endgame_blocks(S, order):
    """The regular endgame's (A_i, A_i - C_i, 0, C_i) and its box."""
    zero = SeriesMatrix.zeros(S.d, S.d, S.n, S.tower)
    blocks = []
    for A in S.A:
        C = A.constant_term().to_series(S.n)
        blocks.append((A, A - C, zero, C))
    box = tuple(min(order + 1, w) for w in S.window_hi())
    return blocks, box


def assert_solves_riccati(blocks, p, box, tower):
    X = solve_graded(blocks, p, box, tower)
    assert X.exact
    assert X.constant_term().is_zero()
    for k, b in enumerate(blocks):
        assert riccati(b, X, p[k], k).clipped(box).is_zero()
    return X


@pytest.mark.parametrize("build", [h_system, triple_system],
                         ids=["h_system", "triple"])
def test_solve_graded_solves_both_split_orientations(build):
    # triple mixes p_k = 0 and p_k > 0 and has a21 != 0, so both the
    # derivative scatter and the quadratic term are exercised
    S, blocks, box = split_blocks(build(), 0, 10)
    P = assert_solves_riccati(blocks, S.p, box, S.tower)
    Q = assert_solves_riccati([(b22, b21, b12, b11)
                               for b11, b12, b21, b22 in blocks],
                              S.p, box, S.tower)
    assert not (P.is_zero() and Q.is_zero())


def test_solve_graded_solves_the_endgame_equation():
    S = generate_equivalent(0, {"n": 3, "d": 3, "p": [0, 0, 0]})[0]
    blocks, box = endgame_blocks(S, 8)
    X = assert_solves_riccati(blocks, S.p, box, S.tower)
    assert not X.is_zero()


def stack_solve(self, shifts, b):
    """The reference per-grade solve: eliminate the whole stack of
    X -> L_k X - X R_k - s_k X, built entry by entry, free unknowns 0."""
    nr, nc = self.pairs[0][0].nrows, self.pairs[0][1].nrows
    cells = list(itertools.product(range(nr), range(nc)))
    rows = []
    for (L, R), s in zip(self.pairs, shifts):
        for i, j in cells:
            row = []
            for r, c in cells:
                v = QQ.zero()
                if c == j:
                    v = v + L.rows[i][r]
                if r == i:
                    v = v - R.rows[c][j]
                if (r, c) == (i, j):
                    v = v - s
                row.append(v)
            rows.append(row)
    return Elimination(ConstMatrix(rows, self.tower)).solve(b)


def graded_outcome(blocks, p, box):
    """solve_graded's X as plain term dicts, or the grade it refuses."""
    try:
        X = solve_graded(blocks, p, box, QQ)
    except ResonanceError as exc:
        return exc.grade
    return [[s.terms for s in r] for r in X.rows]


def random_graded_problem(seed, shape):
    """(blocks, p, box) on two variables with commuting constant terms.

    endgame: the endgame's shape, b11(0) = b22(0) = C_k with integer
    eigenvalues (so some grades are resonant), b21 = 0 and p = 0.
    eigenbasis: the same, with the C_k already in a joint eigenbasis:
    diagonal, or block diagonal with a 2x2 block a I + b N, N nilpotent,
    so the solver splits each grade into parts.  split: a 2x3 X,
    b21 != 0 and p = [1, 0] or [1, 1].  b12 is made so that a random
    X_true solves every equation, and sometimes gets one more random
    term, which may make a grade inconsistent.
    """
    rng = random.Random(seed)
    n, box = 2, (4, 4)
    square = shape != "split"
    d1, d2 = (3, 3) if square else (2, 3)
    small = lambda: QQ.scalar(rng.randint(-2, 2))

    def series(lo_deg, hi_deg):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            e = (rng.randint(0, hi_deg), rng.randint(0, hi_deg))
            if lo_deg <= sum(e) <= hi_deg:
                terms[e] = small()
        return Series(n, terms, QQ)

    def matrix(r, c, lo_deg, hi_deg):
        return SeriesMatrix([[series(lo_deg, hi_deg) for _ in range(c)]
                             for _ in range(r)], n, QQ)

    def commuting(d, count):
        # square: V D_k V^-1 for one V and integer diagonals D_k, so some
        # grades are resonant, with V = I and, half the time, b_k N in
        # the leading 2x2 block of D_k in the eigenbasis; otherwise
        # a_k I + b_k M for one M
        if shape == "eigenbasis":
            jordan, out = rng.random() < 0.5, []
            for _ in range(count):
                D = [[QQ.scalar(rng.randint(-1, 2) if i == j else 0)
                      for j in range(d)] for i in range(d)]
                if jordan:
                    D[1][1], D[0][1] = D[0][0], QQ.scalar(rng.randint(0, 2))
                out.append(ConstMatrix(D, QQ))
            return out
        if square:
            V = ConstMatrix([[QQ.scalar(1 if i == j else
                                        rng.randint(-1, 1) if i < j else 0)
                              for j in range(d)] for i in range(d)], QQ)
            Vi = V.inverse()
            return [V * ConstMatrix([[QQ.scalar(rng.randint(-1, 2))
                                      if i == j else QQ.zero()
                                      for j in range(d)] for i in range(d)],
                                    QQ) * Vi for _ in range(count)]
        M = ConstMatrix([[small() for _ in range(d)] for _ in range(d)], QQ)
        I = ConstMatrix.identity(d, QQ)
        return [I * small() + M * small() for _ in range(count)]

    Ls = commuting(d1, n)
    Rs = Ls if square else commuting(d2, n)
    p = [0, 0] if square else [1, rng.randint(0, 1)]
    X_true = matrix(d1, d2, 1, 3)
    blocks = []
    for k in range(n):
        b11 = Ls[k].to_series(n) + matrix(d1, d1, 1, 2)
        b22 = Rs[k].to_series(n) + matrix(d2, d2, 1, 2)
        b21 = (SeriesMatrix.zeros(d2, d1, n, QQ) if square
               else matrix(d2, d1, 0, 2))
        zero = SeriesMatrix.zeros(d1, d2, n, QQ)
        b12 = riccati((b11, zero, b21, b22), X_true, p[k], k) * -1
        if rng.random() < 0.3:
            b12 = b12 + matrix(d1, d2, 1, 2)
        blocks.append(tuple(M.clipped(box) for M in (b11, b12, b21, b22)))
    return blocks, p, box


@pytest.mark.parametrize("shape", ["endgame", "eigenbasis", "split"])
def test_solve_graded_matches_the_stacked_elimination(monkeypatch, shape):
    # in each part, the first invertible block solves each grade and the
    # others check it; eliminating the full stack at every grade must
    # give the same X or refuse the same grade
    problems = [random_graded_problem(seed, shape) for seed in range(12)]
    if shape == "eigenbasis":
        # residues in a joint eigenbasis: every grade splits into parts
        assert all(len(SylvesterSolver(
            [(b[0].constant_term(), b[3].constant_term()) for b in blocks],
            QQ).parts) > 1 for blocks, _, _ in problems)
    got = [graded_outcome(*pr) for pr in problems]
    monkeypatch.setattr(SylvesterSolver, "solve", stack_solve)
    want = [graded_outcome(*pr) for pr in problems]
    assert got == want
    # both outcomes occur, so neither path is compared vacuously
    assert any(isinstance(g, tuple) for g in got)
    assert any(isinstance(g, list) for g in got)


def stacked_eliminations(monkeypatch):
    """Record the shape of every Elimination the solver builds."""
    shapes = []

    class Recorded(Elimination):
        def __init__(self, A):
            shapes.append((A.nrows, A.ncols))
            super().__init__(A)

    monkeypatch.setattr(linalg, "Elimination", Recorded)
    return shapes


def test_solve_graded_falls_back_to_the_stack(monkeypatch):
    # residues Diag(0, 1) in x1 and Diag(0, 2) in x2, conjugated with all
    # data by the dense V, so the solver sees one part: at grade (1, 0)
    # neither block is invertible, x1's leaves V E_21 V^-1 free and x2's
    # leaves V Diag(u, v) V^-1 free, but the stack pins
    # X = V (-1/2 E_21) V^-1
    shapes = stacked_eliminations(monkeypatch)
    V, Vinv = mat2([[1, 1], [1, 2]]), mat2([[2, -1], [-1, 1]])

    def conj(grid):
        return V * mat2(grid) * Vinv

    C1, C2 = conj([[0, 0], [0, 1]]), conj([[0, 0], [0, 2]])
    zero = mat2([[0, 0], [0, 0]])
    blocks = [(C1, zero, zero, C1),
              (C2, conj([[0, 0], [{(1, 0): 1}, 0]]), zero, C2)]
    X = solve_graded(blocks, [0, 0], (3, 3), QQ)
    assert X == conj([[0, 0], [{(1, 0): Fraction(-1, 2)}, 0]])
    assert (8, 4) in shapes


def test_solve_graded_checks_the_other_components():
    # residue Diag(0, 3) in x1 gives an invertible block at grade (1, 0),
    # whose X_11 = 1 fails the x2 equation 0 * X_11 = -1
    E = mat2([[{(1, 0): 1}, 0], [0, 0]])
    C1, C2 = mat2([[0, 0], [0, 3]]), mat2([[0, 0], [0, 1]])
    zero = mat2([[0, 0], [0, 0]])
    with pytest.raises(ResonanceError) as exc:
        solve_graded([(C1, E, zero, C1), (C2, E, zero, C2)], [0, 0], (3, 3),
                     QQ)
    assert exc.value.grade == (1, 0)


def nonconstant_grades(M, box):
    """{gamma: [(row, col, coeff)]}: the nonzero entries of M at each
    nonconstant grade gamma inside the box."""
    out = {}
    for r, row in enumerate(M.rows):
        for c, s in enumerate(row):
            for e, co in s.terms.items():
                if any(e) and all(x < h for x, h in zip(e, box)):
                    out.setdefault(e, []).append((r, c, co))
    return out


def ref_solve_graded(blocks, p, box, tower):
    """The graded solver with a Scalar scatter per solved beta and its
    quadratic term as SeriesMatrix products: each X_beta goes at once
    through the nonconstant grades of b11 and b22 and, when p_k >= 1,
    the derivative term at beta + p_k e_k; once a total degree is done,
    its increment D adds -(D b21 X + (X + D) b21 D), each product
    clipped to the box, and X grows by X + D.  The oracle for the one
    grid product per grade and component."""
    n = len(box)
    nr, nc = blocks[0][1].nrows, blocks[0][1].ncols
    size = nr * nc
    solver = SylvesterSolver(
        [(b[0].constant_term(), b[3].constant_term()) for b in blocks], tower)
    linear = []
    for b11, _, _, b22 in blocks:
        moves = {}
        for gamma, nz in nonconstant_grades(b11, box).items():
            moves.setdefault(gamma, []).extend(
                (j * nc + c, i * nc + c, a)
                for i, j, a in nz for c in range(nc))
        for gamma, nz in nonconstant_grades(b22, box).items():
            moves.setdefault(gamma, []).extend(
                (r * nc + i, r * nc + j, -a)
                for i, j, a in nz for r in range(nr))
        linear.append(list(moves.items()))
    pending, heap = {}, []
    in_box = lambda beta: all(x < h for x, h in zip(beta, box))

    def rhs(beta):
        if beta not in pending:
            pending[beta] = [tower.zero()] * (n * size)
            heapq.heappush(heap, (sum(beta), beta))
        return pending[beta]

    for k, b in enumerate(blocks):
        for gamma, nz in nonconstant_grades(b[1], box).items():
            for i, j, a in nz:
                rhs(gamma)[k * size + i * nc + j] += a
    X = SeriesMatrix.zeros(nr, nc, n, tower)
    while heap:
        g, terms = heap[0][0], {}
        while heap and heap[0][0] == g:
            _, beta = heapq.heappop(heap)
            r = pending.pop(beta)
            if all(v.is_zero() for v in r):
                continue
            x = solver.solve([b if pk == 0 else 0 for b, pk in zip(beta, p)],
                             [-v for v in r])
            if x is None:
                raise ResonanceError(f"grade {beta}", grade=beta)
            xs = {i: v for i, v in enumerate(x) if not v.is_zero()}
            for i, v in xs.items():
                terms.setdefault(divmod(i, nc), {})[beta] = v
            for k in range(n):
                for gamma, moves in linear[k]:
                    target = tuple(b + c for b, c in zip(beta, gamma))
                    if in_box(target):
                        for src, dst, a in moves:
                            if src in xs:
                                rhs(target)[k * size + dst] += a * xs[src]
                target = tuple(b + p[k] * (kk == k)
                               for kk, b in enumerate(beta))
                if p[k] and beta[k] and in_box(target):
                    for i, v in xs.items():
                        rhs(target)[k * size + i] -= beta[k] * v
        if not terms:
            continue
        D = SeriesMatrix.zeros(nr, nc, n, tower)
        for (i, j), t in terms.items():
            D.rows[i][j] = Series(n, t, tower)
        XD = X + D
        for k, (_, _, b21, _) in enumerate(blocks):
            R = ((D * b21).clipped(box) * X
                 + XD * (b21 * D).clipped(box)).clipped(box)
            for i, row in enumerate(R.rows):
                for j, s in enumerate(row):
                    for e, v in s.terms.items():
                        rhs(e)[k * size + i * nc + j] -= v
        X = XD
    return X


def graded_signature(solve, blocks, p, box, tower):
    """("X", the matrix's field, each entry's terms in order, window and
    field) of the solver's X, or ("grade", the grade it refuses)."""
    try:
        X = solve(blocks, p, box, tower)
    except ResonanceError as exc:
        return "grade", exc.grade
    return "X", X.tower, [[(list(s.terms.items()), s.lo, s.hi, s.tower)
                           for s in row] for row in X.rows]


def sqrt2_blocks(blocks):
    """The blocks with b12 times sqrt 2 and b21 over it, over
    Q(sqrt 2): sqrt 2 X solves them wherever X solves the blocks."""
    K = QQ.adjoin([-2, 0, 1])
    r = K.generator()
    return [(b11, b12 * r, b21 * (r * Fraction(1, 2)), b22)
            for b11, b12, b21, b22 in blocks], K


def below_the_floor(blocks, box):
    """The blocks with b21 inexact on the box, its declared floor
    (-2, 0) below its support, as a second split meets it."""
    out = []
    for b11, b12, b21, b22 in blocks:
        b21 = b21.map(lambda s: Series(2, s.terms, s.tower, lo=(-2, 0),
                                       hi=box))
        out.append((b11, b12, b21, b22))
    return out


# the split cases, where b21 != 0, are named by their field alone
@pytest.mark.parametrize("shape,field", [
    *itertools.product(("endgame", "eigenbasis", "split"), ("Q", "Q(sqrt 2)")),
    ("split", "floor below 0"),
], ids=["endgame-Q", "endgame-Q(sqrt 2)", "eigenbasis-Q",
        "eigenbasis-Q(sqrt 2)", "Q", "Q(sqrt 2)", "floor below 0"])
def test_solve_graded_matches_the_product_update(shape, field):
    # feeding each grade forward by one grid product per component must
    # give the X (terms in order, windows and fields) or the refused
    # grade of the per-beta scatter and the per-grade SeriesMatrix
    # products
    got, quadratic = [], False
    for seed in range(12):
        blocks, p, box = random_graded_problem(seed, shape)
        tower = QQ
        if field == "Q(sqrt 2)":
            blocks, tower = sqrt2_blocks(blocks)
        elif field == "floor below 0":
            blocks = below_the_floor(blocks, box)
            assert all(s.lo == (-2, 0) and not s.exact
                       for b in blocks for row in b[2].rows for s in row)
        want = graded_signature(ref_solve_graded, blocks, p, box, tower)
        assert graded_signature(solve_graded, blocks, p, box, tower) == want
        got.append(want)
        linear = [(b11, b12, b21 * 0, b22) for b11, b12, b21, b22 in blocks]
        quadratic |= want != graded_signature(solve_graded, linear, p, box,
                                              tower)
    # both outcomes occur, and the quadratic term, where there is one,
    # moves some outcome
    assert {g[0] for g in got} == {"X", "grade"}
    assert quadratic == (shape == "split")
    if field == "Q(sqrt 2)":
        assert any(c.tower is not QQ for g in got if g[0] == "X"
                   for row in g[2] for terms, _, _, _ in row
                   for _, c in terms)


def test_solve_graded_makes_no_series_matrix_product(monkeypatch):
    # b21 != 0, so the quadratic term is added at every solved grade;
    # it comes from the series kernel's pieces, not from SeriesMatrix
    # products
    for seed in itertools.count():
        blocks, p, box = random_graded_problem(seed, "split")
        try:
            X = ref_solve_graded(blocks, p, box, QQ)
        except ResonanceError:
            continue
        if not X.is_zero():
            break
    assert not all(b[2].is_zero() for b in blocks)
    calls = []
    product = linalg._product
    monkeypatch.setattr(linalg, "_product",
                        lambda *args: calls.append(args) or product(*args))
    assert solve_graded(blocks, p, box, QQ) == X
    assert not calls


def test_solve_graded_feeds_each_grade_forward_once(monkeypatch):
    # b21 = 0: each grade with a nonzero increment goes forward by one
    # grid product per component, with no b21 columns and so no
    # coordinate product of its own
    for seed in itertools.count():
        blocks, p, box = random_graded_problem(seed, "endgame")
        try:
            X = ref_solve_graded(blocks, p, box, QQ)
        except ResonanceError:
            continue
        if not X.is_zero():
            break
    folds = []
    product = reduction.grid_product
    monkeypatch.setattr(reduction, "grid_product", lambda *args: folds.append(
        args[-2]) or product(*args))
    assert solve_graded(blocks, p, box, QQ) == X
    grades = {sum(e) for row in X.rows for s in row for e in s.terms}
    assert folds == [fold_scalars] * (len(box) * len(grades))


def test_endgame_solves_no_stacked_elimination(monkeypatch):
    shapes = stacked_eliminations(monkeypatch)
    S = generate_equivalent(0, {"n": 3, "d": 3, "p": [0, 0, 0]})[0]
    regular_endgame(S, order=8)
    assert shapes
    assert all(rows <= cols for rows, cols in shapes)


@pytest.mark.parametrize("grid,gauge", RESONANT_CONSISTENT)
def test_split_resonant_consistent_coupling(grid, gauge):
    S = sys1(grid, 0)
    T, _, _ = split(S, 0, eigenvalues(S, 0))
    assert T == mat1(gauge)
    assert T.exact


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
    assert S2.A[1] == shifted_system().A[1]
    assert S2.A[0] == hyper_system().A[0]


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
