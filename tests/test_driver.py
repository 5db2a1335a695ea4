"""Driver tests: scalar leaves, the regular endgame, and full runs."""

import time
from fractions import Fraction

import pytest

from pfaffred import driver
from pfaffred import (
    INF,
    ConstMatrix,
    FieldExtensionError,
    FormalSolution,
    GaugeTransformation,
    InputError,
    NonIntegrableError,
    PfaffianSystem,
    QQ,
    ReductionError,
    Series,
    SeriesMatrix,
    TruncationInsufficient,
    apply_gauge,
    exponential_order,
    exponential_parts,
    fmfs,
    generate_equivalent,
    regular_endgame,
    true_poincare_rank,
    verify_solution,
)
from pfaffred.reduction import MAX_ORDER, MAX_RETRIES

from helpers import (
    hyper_system,
    mat2,
    shifted_system,
    sys1,
    triple_system,
)


def strq(qs):
    return [{str(e): str(c) for e, c in q.items()} for q in qs]


def strm(C):
    return [[str(x) for x in r] for r in C.rows]


# -- scalar leaf -------------------------------------------------------------


def test_scalar_univariate_closed_form():
    # x^2 f' = (1 + x) f  ->  f = x e^{-1/x}
    S = sys1([[{0: 1, 1: 1}]], 1)
    sol, trace = fmfs(S, order=10)
    assert sol.s == [1]
    assert sol.structure == ("scalar",)
    assert strq(sol.Q[0]) == [{"-1": "-1"}]
    assert strm(sol.C[0]) == [["1"]]
    # no analytic tail: phi is exactly 1
    assert sol.phi.rows[0][0].terms == {(0,): QQ.one()}
    assert sol.phi.exact
    assert sol.verified_to == INF


def test_scalar_bivariate_tail_integration():
    # planted: F = x1^{1/1...} with a_i = c_i + x1 x2 both directions
    A1 = mat2([[{(0, 0): 3, (1, 1): 1}]])
    A2 = mat2([[{(0, 0): -2, (1, 1): 1}]])
    S = PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)
    sol, _ = fmfs(S, order=8)
    assert strm(sol.C[0]) == [["3"]]
    assert strm(sol.C[1]) == [["-2"]]
    assert sol.Q == [[{}], [{}]]
    # phi = exp(x1 x2): diagonal coefficients 1/k!
    phi = sol.phi.rows[0][0]
    fact = 1
    for k in range(4):
        if k:
            fact *= k
        assert phi.coefficient((k, k)) == QQ.scalar(Fraction(1, fact))
    assert sol.verified_to >= 6


def test_scalar_low_order_coefficients_must_be_constant():
    # integrability pins a_{1,k}, k <= p_1; a nonconstant one cannot pass
    # the full check, so feed the leaf directly through a 1-var system
    # with a fake second variable influence via an inconsistent pair
    A1 = mat2([[{(0, 1): 1, (2, 0): 1}]])     # a_1 = x2 + x1^2, p = 1
    A2 = mat2([[{(0, 0): 1}]])
    S = PfaffianSystem(["x1", "x2"], [1, 0], [A1, A2], QQ)
    with pytest.raises(NonIntegrableError):
        fmfs(S, order=6)


# -- regular endgame ---------------------------------------------------------


def h_system():
    A1 = mat2([[-2, 0], [{(0, 1): -1}, 1]])
    A2 = mat2([[-2, 0], [{(3, 0): -2}, -1]])
    return PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)


def test_endgame_polynomial_certified():
    T, C, diag = regular_endgame(h_system(), order=10)
    assert diag is None
    assert strm(C[0]) == [["-2", "0"], ["0", "1"]]
    assert strm(C[1]) == [["-2", "0"], ["0", "-1"]]
    t21 = T.rows[1][0]
    assert t21.coefficient((0, 1)) == QQ.scalar(Fraction(1, 3))
    assert t21.coefficient((3, 0)) == QQ.scalar(2)
    assert len(t21.terms) == 2
    assert T.rows[0][1].is_zero()
    assert T.exact                      # closed polynomially, certified


@pytest.mark.parametrize("S", [
    h_system(),
    # residue with eigenvalues 1/3 and -1/2 off its eigenbasis, so the
    # constant conjugation W is not the identity
    sys1([[Fraction(1, 3), 1], [{1: 1}, Fraction(-1, 2)]], 0),
], ids=["h", "nondiagonal-residue"])
def test_endgame_matrix_conjugates_to_the_residues(S):
    T, C, diag = regular_endgame(S, order=10)
    out = apply_gauge(S, GaugeTransformation(T, T.inverse()))
    for i in range(S.n):
        assert out.A[i] == C[i].to_series(S.n)


def test_endgame_resonant_is_diagnostic_not_error():
    # residue Diag(0, 1); the x^1 coupling lands on the singular grade
    # inconsistently, so no polynomial T exists
    S = sys1([[0, 0], [{1: 1}, 1]], 0)
    T, C, diag = regular_endgame(S, order=10)
    assert T is None and C is None
    assert "resonant" in diag

    sol, trace = fmfs(S, order=10)
    assert sol.structure == ("regular-resonant", 2)
    assert sol.C == [None]
    assert sol.verified_to is None
    assert any("resonant" in d for d in sol.diagnostics)


def test_endgame_bivariate_resonance_names_its_grade():
    # residue Diag(0, 1) in x1 and a scalar residue in x2: the x1
    # coupling reaches grade (1, 0), where neither direction can absorb it
    A1 = mat2([[0, 0], [{(1, 0): 1}, 1]])
    A2 = mat2([[3, 0], [0, 3]])
    S = PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)
    T, C, diag = regular_endgame(S, order=6)
    assert (T, C) == (None, None)
    assert diag == "resonant: no polynomial correction at grade (1, 0)"

    sol, _ = fmfs(S, order=6)
    assert sol.structure == ("regular-resonant", 2)
    assert sol.C == [None, None]
    assert sol.diagnostics == [diag]


def test_endgame_integer_spacing_without_resonance():
    # same residue, but the coupling misses the singular grade
    S = sys1([[0, 0], [{2: 1}, 1]], 0)
    sol, _ = fmfs(S, order=10)
    assert strm(sol.C[0]) == [["0", "0"], ["0", "1"]]
    assert sol.verified_to == INF


def test_endgame_requires_rank_zero():
    with pytest.raises(InputError):
        regular_endgame(sys1([[0, 1], [0, 0]], 1))


def test_endgame_diagonalizes_the_residue():
    # A(0) = [[0,1],[-2,-3]] has eigenvalues -1, -2: the constant
    # conjugation must surface them on the diagonal
    S = sys1([[0, 1], [-2, -3]], 0)
    sol, _ = fmfs(S, order=10)
    vals = sorted(str(sol.C[0].rows[j][j]) for j in range(2))
    assert vals == ["-1", "-2"]
    assert sol.C[0].rows[0][1].is_zero() and sol.C[0].rows[1][0].is_zero()


# -- full reductions ---------------------------------------------------------


def test_fmfs_hyperexponential_pair():
    sol, trace = fmfs(hyper_system(), order=10)
    assert sol.s == [1, 1]
    assert sol.structure == ("regular", 2)
    assert strq(sol.Q[0]) == [{"-1": "-1"}] * 2
    assert strq(sol.Q[1]) == [{"-2": "3", "-1": "2"}] * 2
    assert strm(sol.C[0]) == [["-2", "0"], ["0", "1"]]
    assert strm(sol.C[1]) == [["-2", "0"], ["0", "-1"]]
    assert sol.verified_to == INF
    kinds = [s["kind"] for s in trace.steps]
    assert kinds == ["shift", "shift", "rank_reduce", "shift",
                     "rank_reduce", "endgame"]
    assert trace.retries == 0


def test_fmfs_triple_splits_into_scalars():
    sol, trace = fmfs(triple_system(), order=10)
    assert sol.s == [1, 1, 1]
    assert sol.structure == ("split", 0, 1, ("scalar",), ("scalar",))
    assert strq(sol.Q[0]) == [{"-1": "1"}, {}]
    assert strq(sol.Q[1]) == [{"-2": "-1", "-1": "-3"}, {}]
    assert strq(sol.Q[2]) == [{}, {}]
    assert sol.omega() == [Fraction(1), Fraction(2), Fraction(0)]
    assert sol.verified_to >= 8
    assert strm(sol.C[0]) == [["1", "0"], ["0", "0"]]
    assert strm(sol.C[2]) == [["1", "0"], ["0", "0"]]


def test_fmfs_shifted_system_is_purely_regular():
    sol, _ = fmfs(shifted_system(), order=10)
    assert sol.Q == [[{}, {}], [{}, {}]]
    assert strm(sol.C[0]) == [["-2", "0"], ["0", "1"]]
    assert strm(sol.C[1]) == [["-2", "0"], ["0", "-1"]]
    assert sol.verified_to == INF


def test_fmfs_ramified_airy():
    S = sys1([[0, 1], [{1: 1}, 0]], 1)
    sol, trace = fmfs(S, order=8)
    assert sol.s == [2]
    qs = sorted(strq(sol.Q[0]), key=str)
    assert qs == [{"-1/2": "-2"}, {"-1/2": "2"}]
    # classical x^{-1/4} prefactor on both branches
    assert strm(sol.C[0]) == [["-1/4", "0"], ["0", "-1/4"]]
    assert sol.phi.tower.degree == 1
    assert "ramify" in [s["kind"] for s in trace.steps]
    assert sol.verified_to >= 6


def test_fmfs_quadratic_eigenvalues():
    S = sys1([[0, 1], [-1, 0]], 1)
    sol, _ = fmfs(S, order=8)
    assert sol.s == [1]
    assert sol.phi.tower.degree == 2
    ks = {str(e) for q in sol.Q[0] for e in q}
    assert ks == {"-1"}
    coeffs = sorted(str(c) for q in sol.Q[0] for c in q.values())
    assert coeffs == ["-1*a", "a"]
    assert sol.verified_to == INF


def test_fmfs_cubic_eigenvalues_are_out_of_policy():
    # companion matrix of t^3 - 2: its eigenvalues need a cubic field;
    # the dispatch records the FieldExtensionError, and it is raised
    # once no other move applies
    S = sys1([[0, 0, 2], [1, 0, 0], [0, 1, 0]], 1)
    with pytest.raises(FieldExtensionError):
        fmfs(S, order=8)


def test_fmfs_rejects_non_integrable():
    A1 = mat2([[{(0, 1): 1}, 0], [0, 0]])
    A2 = mat2([[0, 0], [{(1, 0): 1}, 0]])
    S = PfaffianSystem(["x1", "x2"], [1, 1], [A1, A2], QQ)
    with pytest.raises(NonIntegrableError):
        fmfs(S)


def test_fmfs_deterministic():
    a1, t1 = fmfs(hyper_system(), order=10)
    a2, t2 = fmfs(hyper_system(), order=10)
    assert a1.fingerprint() == a2.fingerprint()
    assert t1.fingerprint() == t2.fingerprint()


# Solution and trace fingerprints pinned on systems that reach `split`
# (triple, the plants) or ramify first (Airy, the ramified plant); a
# faster split must reproduce them bit for bit.  The ramified plant
# retries once, at 8 plus its shortfall; the test below that compares it
# with a higher-order reference checks that Phi on its window.
PINNED = [
    ("triple", triple_system, 10,
     ("d2b27dae50b3b8aa", "bfd5ddb91be830fb")),
    ("airy", lambda: sys1([[0, 1], [{1: 1}, 0]], 1), 8,
     ("70176170dcec73e1", "ee0816f9fa5fe27c")),
    ("plant-split",
     lambda: generate_equivalent(2, {"n": 2, "d": 4, "p": [1, 1]})[0], 8,
     ("55bae17d1277ebf9", "f60804f0b57982b1")),
    ("plant-ramified",
     lambda: generate_equivalent(
         3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True})[0], 8,
     ("546ecdc7c9505d10", "0f207a6fa600d0f1")),
    # the regular endgame: fixed systems and rank-zero plants
    ("hyper", hyper_system, 10,
     ("3bb120b2e32a07df", "8dd3d1695f84d2d9")),
    ("shifted", shifted_system, 10,
     ("1632fc94083cb4fa", "d6333858f99215a8")),
    ("plant-regular-n2d4",
     lambda: generate_equivalent(0, {"n": 2, "d": 4, "p": [0, 0]})[0], 8,
     ("bc8078bb8e34614b", "43781bd173e7f868")),
    ("plant-regular-n3d3",
     lambda: generate_equivalent(0, {"n": 3, "d": 3, "p": [0, 0, 0]})[0], 8,
     ("9177aefbd72e8c51", "c3e2d9118b3639ee")),
    ("plant-regular-n3d3-order24",
     lambda: generate_equivalent(0, {"n": 3, "d": 3, "p": [0, 0, 0]})[0], 24,
     ("9177aefbd72e8c51", "5e33e9b70082e6cd")),
]


@pytest.mark.parametrize("build,order,expected",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_fmfs_pinned_fingerprints(build, order, expected):
    sol, trace = fmfs(build(), order=order)
    assert (sol.fingerprint(), trace.fingerprint()) == expected


def test_fmfs_truncation_exhaustion():
    z = Series(1, {}, QQ, None, (3,))
    S = PfaffianSystem(["x"], [2], [SeriesMatrix([[z]], 1, QQ)], QQ)
    with pytest.raises(TruncationInsufficient):
        fmfs(S, order=10, max_retries=2)


def q_canonical(qs):
    return sorted(tuple(sorted((str(e), str(c)) for e, c in q.items()
                               if not c.is_zero()))
                  for q in qs)


def assert_planted(sol, planted):
    assert sol.s == planted["s"]
    assert sol.omega() == planted["omega"]
    assert [q_canonical(q) for q in sol.Q] == [q_canonical(q)
                                                for q in planted["Q"]]


def working_orders(monkeypatch):
    """The working order of every attempt fmfs makes from now on."""
    orders = []
    reduce_ = driver._reduce

    def spy(S, ram, order, trace, path, certify=None):
        if not path:
            orders.append(order)
        return reduce_(S, ram, order, trace, path, certify)

    monkeypatch.setattr(driver, "_reduce", spy)
    return orders


# each loses a constant number of degrees to verification, so one retry
# at 8 plus the shortfall reaches the order - 2 = 6 the check asks for
@pytest.mark.parametrize("seed,shape", [
    (3, {"n": 2, "d": 2, "p": [2, 1], "ramified": True}),
    (0, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}),
    (3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}),
    (1, {"n": 1, "d": 3, "p": [2], "ramified": True}),
    (1, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}),
    (776, {"n": 3, "d": 3, "p": [2, 0, 2]}),
], ids=["r3-n2d2p21", "r0-n2d3p21", "r3-n2d3p21", "r1-n1d3p2",
        "r1-n2d3p21", "g776-n3d3p202"])
def test_one_retry_at_the_shortfall(seed, shape):
    S, planted = generate_equivalent(seed, shape)
    sol, trace = fmfs(S, order=8)
    assert trace.retries == 1
    [entry] = trace.retry_log
    v = entry["verified_to"]
    assert entry["order"] == 8 and v < 6
    assert entry["next_order"] == trace.order == 8 + (6 - v)
    assert sol.verified_to >= 6
    assert_planted(sol, planted)


def test_shortfall_retry_agrees_with_a_higher_order_reference():
    S, planted = generate_equivalent(
        3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True})
    sol, trace = fmfs(S, order=8)
    ref, ref_trace = fmfs(S, order=14)
    assert (trace.order, ref_trace.order) == (9, 15)
    window = sol.phi.window_hi()
    assert all(a < b for a, b in zip(window, ref.phi.window_hi()))
    assert sol.phi == ref.phi           # equal on the common window
    assert any(sum(k) > 0 for row in sol.phi.rows for e in row
               for k in e.terms)        # which holds more than Phi(0)
    assert [strm(c) for c in sol.C] == [strm(c) for c in ref.C]
    assert [q_canonical(q) for q in sol.Q] == [q_canonical(q) for q in ref.Q]
    assert sol.s == ref.s == planted["s"]


def test_retries_double_without_a_verified_degree_and_stop_at_the_bound(
        monkeypatch):
    # x^5 f' = a f with a known only below x^3: the scalar leaf needs
    # a_3 and a_4, so no attempt reaches the residual check; 320 would
    # pass MAX_ORDER
    a = Series(1, {(0,): QQ.one()}, QQ, None, (3,))
    S = PfaffianSystem(["x"], [4], [SeriesMatrix([[a]], 1, QQ)], QQ)
    orders = working_orders(monkeypatch)
    with pytest.raises(TruncationInsufficient,
                       match="coefficient beyond truncation") as exc:
        fmfs(S, order=10, max_retries=MAX_RETRIES)
    assert exc.value.verified_to is None
    assert orders == [10, 20, 40, 80, 160]
    assert 2 * orders[-1] > MAX_ORDER


def test_truncated_airy_retries_by_its_shortfall(monkeypatch):
    # the data ends at x^4, so every attempt verifies to degree 2: the
    # retry at 10 + 6 verifies no further than the attempt at 10, which
    # ends the retries, and from order 130 the one retry lands on 256
    A = sys1([[0, 1], [{1: 1}, 0]], 1).A[0].clipped((4,))
    S = PfaffianSystem(["x"], [1], [A], QQ)
    orders = working_orders(monkeypatch)
    with pytest.raises(TruncationInsufficient, match="degree 2$"):
        fmfs(S, order=10, max_retries=MAX_RETRIES)
    assert orders == [10, 16]
    orders.clear()
    with pytest.raises(TruncationInsufficient, match="degree 2$"):
        fmfs(S, order=130, max_retries=MAX_RETRIES)
    assert orders == [130, MAX_ORDER]


def test_window_that_never_fits_is_not_retried(monkeypatch):
    # the cofactor solve asks for depth 2N from a window of N + 1, which
    # no larger N closes
    S, _ = generate_equivalent(584, {"n": 3, "d": 3, "p": [2, 2, 0],
                                     "ramified": True})
    orders = working_orders(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(TruncationInsufficient,
                       match="cofactor solve needs data") as exc:
        fmfs(S, order=8)
    assert time.perf_counter() - start < 30
    assert exc.value.final
    assert orders == [8]


def test_fmfs_growth_orders_match_invariants():
    for S in (hyper_system(), triple_system(), shifted_system()):
        sol, _ = fmfs(S, order=10)
        assert sol.omega() == exponential_order(S, order=10)
        assert true_poincare_rank(S) == [-(-w.numerator // w.denominator)
                                         for w in sol.omega()]


# -- verification ------------------------------------------------------------


def test_verify_detects_wrong_exponent_matrix():
    S = hyper_system()
    sol, _ = fmfs(S, order=10)
    assert verify_solution(S, sol)["ok"]
    bad = ConstMatrix([[QQ.scalar(7), QQ.zero()],
                       [QQ.zero(), QQ.scalar(1)]], QQ)
    tampered = FormalSolution(sol.phi, [bad, sol.C[1]], sol.Q, sol.s,
                              sol.structure, [])
    assert not verify_solution(S, tampered)["ok"]


def test_verify_detects_wrong_q():
    S = hyper_system()
    sol, _ = fmfs(S, order=10)
    Q = [[dict(q) for q in qs] for qs in sol.Q]
    Q[1][0][Fraction(-2)] = QQ.scalar(5)
    tampered = FormalSolution(sol.phi, sol.C, Q, sol.s, sol.structure, [])
    assert not verify_solution(S, tampered)["ok"]


@pytest.mark.parametrize("exponent", [
    Fraction(-1, 2),  # off the x^(1/s) grid of an unramified solution
    Fraction(-5),     # a pole deeper than p_2 = 2 allows
])
def test_verify_rejects_q_exponent_it_cannot_place(exponent):
    S = hyper_system()
    sol, _ = fmfs(S, order=10)
    Q = [[dict(q) for q in qs] for qs in sol.Q]
    Q[1][0][exponent] = QQ.scalar(5)
    tampered = FormalSolution(sol.phi, sol.C, Q, sol.s, sol.structure, [])
    with pytest.raises(ReductionError):
        verify_solution(S, tampered)


def test_verify_needs_exponent_matrices():
    S = sys1([[0, 0], [{1: 1}, 1]], 0)
    sol, _ = fmfs(S, order=10)
    with pytest.raises(InputError):
        verify_solution(S, sol)


def test_block_compatibility_guard():
    S = triple_system()
    sol, _ = fmfs(S, order=10)
    coupled = ConstMatrix([[QQ.zero(), QQ.one()],
                           [QQ.zero(), QQ.zero()]], QQ)
    broken = FormalSolution(sol.phi, [coupled, sol.C[1], sol.C[2]],
                            sol.Q, sol.s, sol.structure, [])
    with pytest.raises(ReductionError):
        broken.check_block_compatibility()


# -- exponential parts over the corpus ---------------------------------------


def test_exponential_parts_hyper():
    eps = exponential_parts(hyper_system(), order=10)
    assert [ep.s for ep in eps] == [1, 1]
    assert sorted(({k: str(c) for k, c in q.items()} for q in eps[0].qs),
                  key=str) == [{1: "-1"}, {1: "-1"}]
    assert sorted(({k: str(c) for k, c in q.items()} for q in eps[1].qs),
                  key=str) == [{1: "2", 2: "3"}, {1: "2", 2: "3"}]


def test_exponential_parts_triple():
    eps = exponential_parts(triple_system(), order=10)
    assert [ep.s for ep in eps] == [1, 1, 1]
    assert sorted(({k: str(c) for k, c in q.items()} for q in eps[0].qs),
                  key=str) == [{1: "1"}, {}]
    assert sorted(({k: str(c) for k, c in q.items()} for q in eps[1].qs),
                  key=str) == [{1: "-3", 2: "-1"}, {}]
    assert eps[2].qs == [{}, {}]
    assert [ep.omega() for ep in eps] == [Fraction(1), Fraction(2),
                                          Fraction(0)]


def test_exponential_parts_shifted_all_regular():
    eps = exponential_parts(shifted_system(), order=10)
    assert all(q == {} for ep in eps for q in ep.qs)


def test_exponential_parts_ramified():
    S = sys1([[0, 1], [{1: 1}, 0]], 1)
    eps = exponential_parts(S, order=8)
    assert eps[0].s == 2
    assert sorted(({k: str(c) for k, c in q.items()} for q in eps[0].qs),
                  key=str) == [{1: "-2"}, {1: "2"}]
