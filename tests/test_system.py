from fractions import Fraction

import pytest

from helpers import hyper_system, mat2, poly2, shifted_system
from pfaffred.docio import generate_equivalent
from pfaffred.errors import InputError, NotUnitError, ReductionError
from pfaffred.linalg import SeriesMatrix
from pfaffred.scalars import QQ
from pfaffred.series import INF, Series
from pfaffred.system import (
    GaugeTransformation,
    PfaffianSystem,
    apply_gauge,
    check_integrability,
    normalize_poincare,
)


def test_integrability_passes_on_reference_system():
    rep = check_integrability(hyper_system())
    assert rep.passed
    assert rep.worst is None


def test_integrability_constant_diagonal():
    A1 = mat2([[2, 0], [0, 3]])
    A2 = mat2([[-1, 0], [0, 5]])
    S = PfaffianSystem(["x1", "x2"], [1, 1], [A1, A2], QQ)
    assert check_integrability(S).passed


def test_integrability_detects_broken_entry():
    S = hyper_system()
    A1 = S.A[0].copy()
    A1.rows[0][1] = poly2({(0, 3): 1})     # x2^3 instead of x2^2
    bad = PfaffianSystem(S.vars, S.p, [A1, S.A[1]], QQ)
    rep = check_integrability(bad)
    assert not rep.passed
    i, j, r, c, exp = rep.worst
    assert (i, j) == (0, 1)


def test_normalize_poincare_shifts_valuation():
    # A2 + 6I of the reference system is divisible by x2
    S = hyper_system()
    six = mat2([[6, 0], [0, 6]])
    A2 = S.A[1] + six
    shifted = PfaffianSystem(S.vars, [3, 2], [S.A[0], A2], QQ)
    out, notes = normalize_poincare(shifted)
    assert out.p == [3, 1]
    assert out.A[1].rows[0][0] == poly2({(0, 1): 1, (0, 0): -2})


def test_normalize_flags_zero_component():
    Z = SeriesMatrix.zeros(2, 2, 2, QQ)
    S = PfaffianSystem(["x1", "x2"], [2, 1], [hyper_system().A[0], Z], QQ)
    out, notes = normalize_poincare(S)
    assert out.trivial == [False, True]
    assert out.p[1] == 0


def test_rejects_negative_rank():
    S = hyper_system()
    with pytest.raises(InputError):
        PfaffianSystem(S.vars, [-1, 2], S.A, QQ)


def test_rejects_polar_entries():
    bad = mat2([[0, 0], [0, 0]])
    bad.rows[0][0] = Series.monomial(2, (-1, 0), 1, QQ)
    with pytest.raises(InputError):
        PfaffianSystem(["x1", "x2"], [1, 1], [bad, mat2([[0, 0], [0, 0]])], QQ)


def test_associated_ods_restriction():
    S = hyper_system()
    p1, M1 = S.associated_ods(0)
    assert p1 == 3
    # A_1(x1, 0) = [[x1^3+x1^2, 0], [-1, x1^3+x1^2]]
    assert M1.rows[0][0].coefficient((3,)) == 1
    assert M1.rows[0][0].coefficient((2,)) == 1
    assert M1.rows[0][1].is_zero()
    p2, M2 = S.associated_ods(1)
    assert M2.rows[1][0].coefficient((1,)) == -2


def test_gauge_identity_roundtrip():
    S = hyper_system()
    g = GaugeTransformation.identity(2, 2, QQ)
    out = apply_gauge(S, g)
    assert out.p == S.p
    for M, N in zip(out.A, S.A):
        assert M == N


def test_gauge_determinant_guard():
    # det = x1 + x2 is not monomial x unit
    T = mat2([[{(1, 0): 1}, 0], [0, 0]])
    T.rows[1][1] = poly2({(0, 0): 1})
    T.rows[0][1] = poly2({(0, 0): 0})
    T.rows[0][0] = poly2({(1, 0): 1, (0, 1): 1})
    with pytest.raises(NotUnitError):
        T.inverse()


def _structured_gauges():
    N = mat2([[0, 0, {(1, 0): 2, (0, 3): -1}], [0, 0, {(0, 1): 1}],
              [0, 0, 0]])                          # N^2 = 0
    swap = GaugeTransformation.permutation([1, 0], 2, QQ)
    return {
        "permutation": GaugeTransformation.permutation([2, 0, 1], 2, QQ),
        "unipotent": GaugeTransformation.unipotent(N),
        "block_diag": GaugeTransformation.block_diag(
            [GaugeTransformation.unipotent(N), swap]),
    }


@pytest.mark.parametrize("kind", ["permutation", "unipotent", "block_diag"])
def test_structured_gauge_inverse_is_exact(kind):
    g = _structured_gauges()[kind]
    I = SeriesMatrix.identity(g.T.nrows, 2, QQ)
    assert g.T * g.T_inv == I and g.T_inv * g.T == I
    assert g.T.exact and g.T_inv.exact


@pytest.mark.parametrize("shape", [
    {"n": 2, "d": 3, "p": [2, 1], "gauge_ops": 8},
    {"n": 2, "d": 3, "p": [2, 1], "gauge_ops": 8, "ramified": True},
], ids=["plain", "ramified"])
def test_generator_gauge_inverse_is_exact(shape):
    g = generate_equivalent(5, shape)[1]["gauge"]
    I = SeriesMatrix.identity(3, 2, QQ)
    assert g.T * g.T_inv == I and g.T_inv * g.T == I
    assert all(e.hi == (INF, INF) for row in g.T_inv.rows for e in row)
    assert not g.is_identity()


def test_permutation_gauge_moves_coordinates():
    # coordinate k of G is coordinate order[k] of F
    g = GaugeTransformation.permutation([2, 0, 1], 2, QQ)
    assert [[int(not e.is_zero()) for e in row] for row in g.T.rows] == \
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_naive_transformation_breaks_crossings():
    """The classic bad gauge: drops p_1 but introduces a foreign pole."""
    S = shifted_system()
    T = mat2([[{(3, 0): 1}, {(0, 2): -1}], [0, {(0, 1): 1}]])
    g = GaugeTransformation(T, T.inverse())
    with pytest.raises(ReductionError, match="component 0 gains a pole in x2"):
        apply_gauge(S, g)


def test_good_transformation_reduces_and_stays_compatible():
    """T = [[x2 x1^3, -x2],[0, 1]] drops the ranks to (0,0)."""
    S = shifted_system()
    T = mat2([[{(3, 1): 1}, {(0, 1): -1}], [0, 1]])
    g = GaugeTransformation(T, T.inverse())
    out = apply_gauge(S, g)
    assert out.p == [0, 0]
    assert out.A[0] == mat2([[-2, 0], [{(0, 1): -1}, 1]])
    assert out.A[1] == mat2([[-2, 0], [{(3, 0): -2}, -1]])


def test_gauge_roundtrip_restores_system():
    S = shifted_system()
    T = mat2([[{(3, 1): 1}, {(0, 1): -1}], [0, 1]])
    g = GaugeTransformation(T, T.inverse())
    back = apply_gauge(apply_gauge(S, g), GaugeTransformation(g.T_inv, g.T))
    for M, N in zip(back.A, S.A):
        assert M == N
    assert back.p == S.p


def test_integrability_preserved_by_compatible_gauge():
    S = shifted_system()
    T = mat2([[{(3, 1): 1}, {(0, 1): -1}], [0, 1]])
    g = GaugeTransformation(T, T.inverse())
    assert check_integrability(apply_gauge(S, g)).passed


def test_fingerprint_stability():
    a = hyper_system()
    b = hyper_system()
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != shifted_system().fingerprint()
