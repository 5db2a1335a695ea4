import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import hyper_system, mat2, poly2, shifted_system
from pfaffred.docio import generate_equivalent
from pfaffred.errors import InputError, NonIntegrableError, ReductionError
from pfaffred.linalg import ConstMatrix, SeriesMatrix
from pfaffred.scalars import QQ
from pfaffred.series import INF, Series
from pfaffred.system import (
    GaugeTransformation,
    PfaffianSystem,
    apply_gauge,
    check_integrability,
    normalize_poincare,
    require_integrable,
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
    A1 = SeriesMatrix(S.A[0].rows, 2, QQ)
    A1.rows[0][1] = poly2({(0, 3): 1})     # x2^3 instead of x2^2
    bad = PfaffianSystem(S.vars, S.p, [A1, S.A[1]], QQ)
    rep = check_integrability(bad)
    assert not rep.passed
    i, j, r, c, exp = rep.worst
    assert (i, j) == (0, 1)
    with pytest.raises(NonIntegrableError, match=r"pair \(x1, x2\)"):
        require_integrable(bad)


def test_integrability_worst_is_the_grlex_least_exponent():
    # the (0, 1) residual entry is 6 x1 + 6 x2 + x2^2: two terms of
    # degree 1, of which grlex_key puts x1 first
    A1 = mat2([[0, {(0, 1): 1, (1, 0): 1}], [0, 0]])
    A2 = mat2([[-1, 0], [0, 5]])
    rep = check_integrability(PfaffianSystem(["x1", "x2"], [1, 1],
                                             [A1, A2], QQ))
    assert rep.worst == (0, 1, 0, 1, (1, 0))


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
    assert out.p == [2, 0]
    assert notes == [(1, "identically zero; regular component")]


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
    ods1 = S.associated_ods(0)
    p1, M1 = ods1.p[0], ods1.A[0]
    assert ods1.vars == ["x1"]
    assert p1 == 3
    # A_1(x1, 0) = [[x1^3+x1^2, 0], [-1, x1^3+x1^2]]
    assert M1.rows[0][0].coefficient((3,)) == 1
    assert M1.rows[0][0].coefficient((2,)) == 1
    assert M1.rows[0][1].is_zero()
    M2 = S.associated_ods(1).A[0]
    assert M2.rows[1][0].coefficient((1,)) == -2


def test_gauge_identity_roundtrip():
    S = hyper_system()
    g = GaugeTransformation.identity(2, 2, QQ)
    out = apply_gauge(S, g)
    assert out.p == S.p
    for M, N in zip(out.A, S.A):
        assert M == N


def _structured_gauges():
    N = mat2([[0, 0, {(1, 0): 2, (0, 3): -1}], [0, 0, {(0, 1): 1}],
              [0, 0, 0]])                          # N^2 = 0
    return {
        "diagonal_monomial": GaugeTransformation.diagonal_monomial(
            [(1, 0), (0, 2), (1, 1)], 2, QQ),
        "unipotent": GaugeTransformation.unipotent(N),
    }


@pytest.mark.parametrize("kind", ["diagonal_monomial", "unipotent"])
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
    assert not g.T.is_identity()


def _sheared(shear, exps):
    """(I + [[0, shear], [0, 0]]) Diag(x^e for e in exps), with its inverse."""
    return GaugeTransformation.unipotent(mat2([[0, shear], [0, 0]])).compose(
        GaugeTransformation.diagonal_monomial(exps, 2, QQ))


def test_naive_transformation_breaks_crossings():
    """The classic bad gauge: drops p_1 but introduces a foreign pole."""
    S = shifted_system()
    g = _sheared({(0, 1): -1}, [(3, 0), (0, 1)])
    assert g.T == mat2([[{(3, 0): 1}, {(0, 2): -1}], [0, {(0, 1): 1}]])
    with pytest.raises(ReductionError, match="component 0 gains a pole in x2"):
        apply_gauge(S, g)


def test_good_transformation_reduces_and_stays_compatible():
    """T = [[x2 x1^3, -x2],[0, 1]] drops the ranks to (0,0)."""
    S = shifted_system()
    g = _sheared({(0, 1): -1}, [(3, 1), (0, 0)])
    assert g.T == mat2([[{(3, 1): 1}, {(0, 1): -1}], [0, 1]])
    out = apply_gauge(S, g)
    assert out.p == [0, 0]
    assert out.A[0] == mat2([[-2, 0], [{(0, 1): -1}, 1]])
    assert out.A[1] == mat2([[-2, 0], [{(3, 0): -2}, -1]])


def test_gauge_roundtrip_restores_system():
    S = shifted_system()
    g = _sheared({(0, 1): -1}, [(3, 1), (0, 0)])
    back = apply_gauge(apply_gauge(S, g), GaugeTransformation(g.T_inv, g.T))
    for M, N in zip(back.A, S.A):
        assert M == N
    assert back.p == S.p


def test_integrability_preserved_by_compatible_gauge():
    S = shifted_system()
    g = _sheared({(0, 1): -1}, [(3, 1), (0, 0)])
    assert check_integrability(apply_gauge(S, g)).passed


def test_fingerprint_stability():
    a = hyper_system()
    b = hyper_system()
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != shifted_system().fingerprint()


# -- the integrability check against the Series products it replaced -------

K = QQ.adjoin([-2, 0, 1])  # Q(sqrt 2)


def ref_check_integrability(S):
    """The check as it was: each residual entry from SeriesMatrix
    products and Euler operators, and from an entry with terms its
    first exponent of least total degree in dict order."""
    worst = None
    for i in range(S.n):
        for j in range(i + 1, S.n):
            res = (S.A[i] * S.A[j] - S.A[j] * S.A[i]
                   - S.A[j].euler(i, S.p[i]) + S.A[i].euler(j, S.p[j]))
            for r in range(S.d):
                for c in range(S.d):
                    entry = res.rows[r][c]
                    if not entry.is_zero():
                        exp = min(entry.terms, key=lambda e: sum(e))
                        if worst is None or sum(exp) < sum(worst[4]):
                            worst = (i, j, r, c, exp)
    return worst is None, worst, S.window_hi()


def outcome(passed, worst, window):
    """What the two checks must agree on: the exponent only by degree,
    since they break ties between exponents differently."""
    return (passed, worst and worst[:4], worst and sum(worst[4]), window)


def _replace(S, i, r, c, entry):
    A = [SeriesMatrix(M.rows, S.n, S.tower) for M in S.A]
    A[i].rows[r][c] = entry
    return PfaffianSystem(S.vars, S.p, A, S.tower)


@st.composite
def checked_systems(draw):
    """An integrable plant in 2 or 3 variables, over Q or moved to
    Q(sqrt 2) by a constant change of basis and a shift by a multiple
    of I; then possibly one perturbed term, a finite window on the
    system or on one component, and exact zeros beside zeros that are
    only zero on a finite window, with a floor at -1 or 0."""
    n, d = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    shape = {"n": n, "d": d, "p": [draw(st.integers(0, 2)) for _ in range(n)],
             "gauge_ops": draw(st.integers(0, 4))}
    S = generate_equivalent(draw(st.integers(0, 40)), shape)[0]
    a = K.generator()
    if draw(st.booleans()):
        V = ConstMatrix.identity(d, K)
        W = ConstMatrix.identity(d, K)
        if d > 1:
            V.rows[0][d - 1], W.rows[0][d - 1] = a, -a
        shift = SeriesMatrix.identity(d, n, K) * (1 + a)
        S = PfaffianSystem(S.vars, S.p, [W * M * V + shift for M in S.A], K)
    coeffs = [1, -2, Fraction(1, 3)] + ([a, 1 - a] if S.tower is K else [])
    cell = lambda: (draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1)),
                    draw(st.integers(0, d - 1)))
    if draw(st.booleans()):
        i, r, c = cell()
        exp = tuple(draw(st.integers(0, 4)) for _ in range(n))
        S = _replace(S, i, r, c, S.A[i].rows[r][c] + Series.monomial(
            n, exp, draw(st.sampled_from(coeffs)), S.tower))
    top = tuple(draw(st.sampled_from([1, 2, 3, 4, 5, 6, INF]))
                for _ in range(n))
    window = draw(st.sampled_from(["exact", "system", "component"]))
    if window == "system":
        S = S.clipped(top)
    elif window == "component":
        i = draw(st.integers(0, n - 1))
        A = list(S.A)
        A[i] = A[i].clipped(top)
        S = PfaffianSystem(S.vars, S.p, A, S.tower)
    for _ in range(draw(st.integers(0, 2))):
        i, r, c = cell()
        lo = tuple(draw(st.integers(-1, 0)) for _ in range(n))
        hi = top if draw(st.booleans()) else None
        S = _replace(S, i, r, c, Series.zero(n, S.tower, lo, hi))
    return S


@given(checked_systems())
@settings(max_examples=120, deadline=None)
def test_integrability_check_matches_the_series_products(S):
    rep = check_integrability(S)
    assert outcome(rep.passed, rep.worst, rep.window) == outcome(
        *ref_check_integrability(S))


def test_integrability_euler_term_counts_below_its_own_top():
    # A_1 = 0 sets no top, so the entry's top is that of x1^3 dA_2/dx1:
    # A_2's top 3 in x1, moved by p_1 = 2; both its terms count
    A2 = SeriesMatrix([[Series(2, {(1, 0): QQ.one(), (2, 0): QQ.one()}, QQ,
                               hi=(3, INF))]], 2, QQ)
    S = PfaffianSystem(["x1", "x2"], [2, 0], [SeriesMatrix.zeros(1, 1, 2, QQ),
                                               A2], QQ)
    rep = check_integrability(S)
    assert rep.worst == (0, 1, 0, 0, (3, 0))
    assert outcome(rep.passed, rep.worst, rep.window) == outcome(
        *ref_check_integrability(S))


def test_integrability_check_cost_follows_no_common_denominator():
    """Every coefficient has its own ~150-digit denominator: 30 terms per
    entry, d = 2.  On a shared 2-vCPU x86 host the Series-product check
    took 1.3 s on this system, and a check with its own integer bucket
    loop 0.23-0.51 s of CPU time.  The check by the series kernel took
    0.59-0.72 s when it reduced each exponent's sum to a Fraction, one
    gcd per exponent; folding the sums to integers instead, as it reads
    only which exponents survive, it takes 0.21-0.25 s, most of it in
    scalars.fraction_sum.  A check that scaled by a common denominator
    of each matrix would work with the lcm of all its 120 denominators
    on every term.  The budget is six times the Series-product cost."""
    rng = random.Random(0)

    def entry():
        terms = {}
        while len(terms) < 30:
            terms[(rng.randrange(8), rng.randrange(8))] = QQ.scalar(Fraction(
                rng.randint(1, 9), rng.randrange(10 ** 149, 10 ** 150)))
        return Series(2, terms, QQ)

    A = [SeriesMatrix([[entry() for _ in range(2)] for _ in range(2)], 2, QQ)
         for _ in range(2)]
    S = PfaffianSystem(["x1", "x2"], [1, 1], A, QQ)
    start = time.perf_counter()
    rep = check_integrability(S)
    assert time.perf_counter() - start < 8.0
    assert not rep.passed
