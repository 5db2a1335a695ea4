"""Driver tests: scalar equations, the regular endgame, and full runs."""

import importlib.util
import json
import math
import random
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from pfaffred import docio, driver, linalg, scalars, series, system
from pfaffred import (
    INF,
    ConstMatrix,
    FieldExtensionError,
    FormalSolution,
    InputError,
    NonIntegrableError,
    PfaffianSystem,
    QQ,
    ReductionError,
    ResonanceError,
    Series,
    SeriesMatrix,
    TruncationInsufficient,
    exponential_order,
    exponential_parts,
    fmfs,
    generate_equivalent,
    parse_solution,
    regular_endgame,
    serialize_solution,
    true_poincare_rank,
    verify_solution,
)
from pfaffred.driver import growth_order
from pfaffred.reduction import MAX_ORDER, MAX_RETRIES, rank_reduce

from helpers import (
    MERGE_CASES,
    hyper_system,
    jordan_systems,
    kron_system,
    mat2,
    merge_system,
    mixed_system,
    quadratic_system,
    random_grids,
    shifted_system,
    sibling_system,
    sys1,
    triple_system,
)


def strq(qs):
    return [{str(e): str(c) for e, c in q.items()} for q in qs]


def strm(C):
    return [[str(x) for x in r] for r in C.rows]


# -- scalar equations ---------------------------------------------------------


def test_scalar_univariate_closed_form():
    # x^2 f' = (1 + x) f  ->  f = x e^{-1/x}
    S = sys1([[{0: 1, 1: 1}]], 1)
    sol, trace = fmfs(S, order=10)
    assert sol.s == [1]
    assert sol.structure == ("regular", 1)
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
    # integrability pins a_{1,k}, k <= p_1, to constants: a_1 = x2 + x1^2
    # at p_1 = 1 cannot pass the full check beside a_2 = 1
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
    T, C = regular_endgame(h_system(), order=10)
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
    T, C = regular_endgame(S, order=10)
    for i in range(S.n):
        assert T.euler(i, S.p[i]) == S.A[i] * T - T * C[i].to_series(S.n)


# fmfs returns only residual-verified solutions, so a resonance is an
# error (exit 2), never a solution without exponent matrices
def test_endgame_resonance_is_an_error():
    # residue Diag(0, 1); the x^1 coupling lands on the singular grade
    # inconsistently, so no polynomial T exists
    S = sys1([[0, 0], [{1: 1}, 1]], 0)
    with pytest.raises(ResonanceError) as exc:
        regular_endgame(S, order=10)
    assert exc.value.grade == (1,)
    with pytest.raises(ResonanceError):
        fmfs(S, order=10)


def test_endgame_bivariate_resonance_names_its_grade():
    # residue Diag(0, 1) in x1 and a scalar residue in x2: the x1
    # coupling reaches grade (1, 0), where neither direction can absorb it
    A1 = mat2([[0, 0], [{(1, 0): 1}, 1]])
    A2 = mat2([[3, 0], [0, 3]])
    S = PfaffianSystem(["x1", "x2"], [0, 0], [A1, A2], QQ)
    with pytest.raises(ResonanceError) as exc:
        regular_endgame(S, order=6)
    assert exc.value.grade == (1, 0)
    assert str(exc.value) == "no polynomial correction at grade (1, 0)"
    with pytest.raises(ResonanceError, match=r"grade \(1, 0\)"):
        fmfs(S, order=6)


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


def test_endgame_resonant_consistent_grade_is_zero_in_the_eigenbasis():
    # x F' = [[-x, 1], [1, 0]] F: the residue's eigenvalues -1 and 1 make
    # grade 2 resonant but consistent.  Its free unknown is 0 in the
    # residue's eigenbasis, so Phi's first column is the polynomial
    # (-1, 1 - x).  Taking it 0 in the input basis gives F K instead,
    # K = I - (1/12) E_10 with E_10 the matrix unit at row 1, column 0:
    # the same solutions, recombined by a constant
    sol, _ = fmfs(sys1([[{1: -1}, 1], [1, 0]], 0), order=8)
    assert sol.fingerprint() == "b8c5e39197d5e02b"
    assert strm(sol.C[0]) == [["-1", "0"], ["0", "1"]]
    assert [{e: str(c) for e, c in row[0].terms.items()}
            for row in sol.phi.rows] == [{(0,): "-1"}, {(0,): "1", (1,): "-1"}]


@pytest.mark.parametrize("build", [
    lambda: generate_equivalent(0, {"n": 3, "d": 3, "p": [0, 0, 0]})[0],
    lambda: sibling_system([[0, 1], [8, 0]]),
    lambda: sibling_system([[0, 1], [1, 2]])],
    ids=["plant-regular-n3d3", "siblings-sqrt8", "siblings-shifted"])
def test_joint_block_diagonalize_returns_its_inverse_and_conjugates(build):
    Cs = [A.constant_term() for A in build().A]
    W, Winv, conj = driver._joint_block_diagonalize(Cs)
    assert not W.is_identity()
    assert (W * Winv).is_identity()
    assert conj == [Winv * C * W for C in Cs]
    # every joint eigenblock of these families is 1x1
    assert all(a.is_zero() for M in conj for r, row in enumerate(M.rows)
               for c, a in enumerate(row) if r != c)


def test_joint_eigenbasis_of_one_split_makes_only_the_conjugations(
        monkeypatch):
    # the residues of the regular workload's plant g1: the first has four
    # distinct eigenvalues, so every block is 1x1 and its own identity
    S, _ = generate_equivalent(1, {"n": 3, "d": 4, "p": [0, 0, 0]})
    Cs = [A.constant_term() for A in S.A]
    roots = scalars.roots_of_charpoly(Cs[0].charpoly())
    assert len(roots) == 4
    V, _ = linalg.generalized_eigenspaces(Cs[0], roots)
    Vinv = V.inverse()
    want = [Vinv * C * V for C in Cs]
    made = []
    mul = linalg.ConstMatrix.__mul__

    def spy(x, y):
        made.append(isinstance(y, linalg.Matrix))
        return mul(x, y)

    monkeypatch.setattr(linalg.ConstMatrix, "__mul__", spy)
    W, Winv, conj = driver._joint_block_diagonalize(Cs)
    assert made == [True] * (2 * len(Cs))
    # what V Diag(I) and Diag(I) V^-1 gave before
    assert (W, Winv) == (V, Vinv)
    assert conj == want


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
    assert sol.structure == ("split", 0, 1, ("regular", 1), ("regular", 1))
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


# (solution, trace) fingerprints pinned on systems that reach `split`
# (triple, the plants) or ramify first (Airy, the ramified plant); a
# faster split must reproduce them bit for bit.  The two halves are
# checked apart, so a change to what the trace logs shows as such: a
# trace pin may move with the steps the driver takes, a solution pin
# only with a stated reason.  The ramified plant and ramified-4/3 verify
# at their first attempt, since each split's box covers the degrees its
# blocks lose on the way to rank 0: their traces lost the retry, and the
# plant's Phi, now solved at 8 where it was solved at 9, has another
# window and equals the old Phi on the common one; the test that
# compares it with a higher-order reference checks that Phi.
PINNED = [
    ("triple", triple_system, 10,
     ("d2b27dae50b3b8aa", "829bf05481a51ee3")),
    ("airy", lambda: sys1([[0, 1], [{1: 1}, 0]], 1), 8,
     ("70176170dcec73e1", "6a7dc8711a506c9e")),
    ("plant-split",
     lambda: generate_equivalent(2, {"n": 2, "d": 4, "p": [1, 1]})[0], 8,
     ("55bae17d1277ebf9", "c5b6fa17bde3180f")),
    ("plant-ramified",
     lambda: generate_equivalent(
         3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True})[0], 8,
     ("ed9878360c09d695", "ed294056db41f7a4")),
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
    # systems over Q whose solutions need Q(sqrt 2): one split, a Q
    # branch merged with a Q(sqrt 2) branch, and an endgame that meets
    # t^2 - 8 inside Q(sqrt 2)
    ("quadratic", quadratic_system, 8,
     ("ea910afa93f981f7", "8f40e10bfae3a991")),
    ("mixed", mixed_system, 8,
     ("8ac502b24bfe2b87", "0450d3b39a13a41f")),
    ("kron", kron_system, 8,
     ("85e1c298e4dfce5b", "91d86823f6a436a8")),
    # sibling eigenblocks whose eigenvalues +-sqrt(2) and +-2 sqrt(2), or
    # +-sqrt(2) and 1 +- sqrt(2), have different minimal polynomials but
    # one field
    ("siblings-sqrt8", lambda: sibling_system([[0, 1], [8, 0]]), 8,
     ("3c8f1fdcfb89be92", "43781bd173e7f868")),
    ("siblings-shifted", lambda: sibling_system([[0, 1], [1, 2]]), 8,
     ("88401eba4c35cd8f", "43781bd173e7f868")),
    # a split over Q whose two blocks each need Q(sqrt 2): the bottom block
    # is reduced in the field the top one reached
    ("split-sqrt2-sqrt8",
     lambda: merge_system(*MERGE_CASES["split-sqrt2-sqrt8"]), 8,
     ("a911acfae97205c1", "0d0f148b5fe461e7")),
    ("split-sqrt8-sqrt2",
     lambda: merge_system(*MERGE_CASES["split-sqrt8-sqrt2"]), 8,
     ("702a06a35e9ed626", "0d0f148b5fe461e7")),
    ("split-sqrt2-shifted",
     lambda: merge_system(*MERGE_CASES["split-sqrt2-shifted"]), 8,
     ("0f5aadb9ad4ae403", "0d0f148b5fe461e7")),
    # rank reductions that need sterile shears: p = 3 down to 1, and the
    # growth order 4/3 ramified by 3 (p = 6 down to 4)
    ("sterile-p3",
     lambda: sys1([[{4: 2}, {2: -1, 4: 2}, 0], [{3: 1, 4: 1}, {4: 1}, {4: 2}],
                   [{4: -1}, {0: 2}, {2: 1, 4: -1}]], 3), 8,
     ("0c9dcc607ac8f58f", "d9363a2bfc678539")),
    ("ramified-4/3",
     lambda: sys1([[0, 1, 0], [0, 0, 1], [{2: 1}, 0, {1: 1}]], 2), 8,
     ("700179820aa0414c", "20f9774c80ff2eaf")),
]


@pytest.mark.parametrize("build,order,expected",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_fmfs_pinned_fingerprints(build, order, expected):
    sol, _ = fmfs(build(), order=order)
    assert sol.fingerprint() == expected[0]


@pytest.mark.parametrize("build,order,expected",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_fmfs_pinned_trace_fingerprints(build, order, expected):
    _, trace = fmfs(build(), order=order)
    assert trace.fingerprint() == expected[1]


@pytest.mark.parametrize("build,order", [case[1:3] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_pinned_solutions_keep_the_stored_term_invariant(build, order):
    # Phi comes out of the kernel's unchecked constructions: no stored
    # coefficient may be zero and no term may lie outside its window
    sol, _ = fmfs(build(), order=order)
    for row in sol.phi.rows:
        for s in row:
            for exp, c in s.terms.items():
                assert not c.is_zero()
                assert all(l <= e < h for e, l, h in zip(exp, s.lo, s.hi))


def bench_solve_items(workload, corpus_seed):
    """(id, system, order, check) of each solve item of a benchmark
    workload; check(solution) raises unless it is the expected answer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    pf = types.SimpleNamespace(scalars=scalars, series=series, linalg=linalg,
                               system=system, docio=docio)
    return corpus.solve_inputs(pf, workload, corpus_seed)


def assert_round_trip(S, order):
    # The fingerprints do not survive the round trip: Phi's entries may
    # carry different windows, and the document keeps only their minimum
    # as trunc.
    sol, _ = fmfs(S, order=order)
    back = parse_solution(json.dumps(serialize_solution(sol, S.vars)))
    assert verify_solution(S, back)["verified_to"] == sol.verified_to
    assert back.s == sol.s
    assert back.C == sol.C
    assert back.Q == sol.Q
    assert back.phi.window_hi() == sol.phi.window_hi()
    assert back.phi == sol.phi


# The benchmark corpus is read inside the test, so a change to it can
# fail only this test, not the collection of the module.
@pytest.mark.parametrize("workload", ["split", "ramified", "regular"])
def test_solution_document_round_trip_corpus(workload):
    items = bench_solve_items(workload, 0)
    assert items
    for id_, S, order, _ in items:
        try:
            assert_round_trip(S, order)
        except AssertionError as exc:
            raise AssertionError(f"{workload}/{id_}: {exc}") from exc


@pytest.mark.parametrize("build", [
    quadratic_system, mixed_system, kron_system,
    lambda: sibling_system([[0, 1], [8, 0]])],
    ids=["quadratic", "mixed", "kron", "siblings-sqrt8"])
def test_solution_document_round_trip(build):
    assert_round_trip(build(), 8)


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


def sweep_shapes(count, seed):
    """(generator seed, shape) pairs drawn from random.Random(seed): n in
    1..2, d in 2..3, p_i in 0..2, ramified with probability 0.3 when
    p_1 >= 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 2)
        d = rng.randint(2, 3)
        p = [rng.randint(0, 2) for _ in range(n)]
        ramified = p[0] >= 1 and rng.random() < 0.3
        out.append((rng.randrange(1000),
                    {"n": n, "d": d, "p": p, "ramified": ramified}))
    return out


SWEEP = sweep_shapes(20, 7)


# the planted generator as an oracle over seeded shapes: fmfs recovers the
# plant, the per-variable exponential parts agree with fmfs's Q, and the
# rank reduction reaches the least integers above the planted growth
# orders
@pytest.mark.parametrize("seed,shape", SWEEP, ids=[
    f"{'r' if sh['ramified'] else 'g'}{g}-n{sh['n']}d{sh['d']}p"
    + "".join(map(str, sh["p"])) for g, sh in SWEEP])
def test_planted_sweep(seed, shape):
    S, planted = generate_equivalent(seed, shape)
    sol, _ = fmfs(S, order=8)
    assert_planted(sol, planted)
    s, Q = exponential_parts(S, order=8)
    assert s == sol.s
    assert [q_canonical(qs) for qs in Q] == [q_canonical(qs) for qs in sol.Q]
    assert rank_reduce(S, order=8)[1].p == [math.ceil(w)
                                            for w in planted["omega"]]


R150 = random_grids(150, 11)

# the items of R150 with no verified solution, and the error each exits 2
# with: eigenvalues beyond one quadratic extension, and resonant residues
# whose solutions need logarithms
R150_UNSUPPORTED = {
    k: FieldExtensionError for k in (
        6, 9, 14, 35, 37, 38, 40, 42, 47, 51, 52, 61, 63, 64, 66, 69, 74,
        76, 94, 104, 107, 109, 119, 128, 134, 138, 142, 145)}
R150_UNSUPPORTED.update({k: ResonanceError
                         for k in (25, 59, 67, 92, 98, 110)})


# the items of R150_UNSUPPORTED whose exponential parts the reduction
# still finds, since it stops at rank 0, with their growth orders (every
# s is 1): the resonant residues, and 51, 66 and 145, whose second field
# extension only the endgame's residues need
R150_PHASE_ONE = {25: 0, 51: 0, 59: 2, 66: 0, 67: 0, 92: 0, 98: 0,
                  110: 1, 145: 0}


# systems outside the planted envelope, where residual verification is
# the oracle: every item verifies or is refused with its documented error,
# and the exponential parts, read at rank 0 without the endgame or the
# residual check, are those of the verified solution
@pytest.mark.parametrize("k", range(len(R150)))
def test_random_systems_verify_or_exit_with_their_code(k):
    S = sys1(*R150[k])
    if k in R150_PHASE_ONE:
        with pytest.raises(R150_UNSUPPORTED[k]):
            fmfs(S, order=8)
        s, [qs] = exponential_parts(S, order=8)
        assert (s, growth_order(qs)) == ([1], R150_PHASE_ONE[k])
    elif k in R150_UNSUPPORTED:
        for run in (fmfs, exponential_parts):
            with pytest.raises(FieldExtensionError):
                run(S, order=8)
    else:
        sol, _ = fmfs(S, order=8)
        assert sol.verified_to >= 6
        # Phi is known only below its window, so no degree past it verifies
        assert sol.verified_to <= min(sol.phi.window_hi()) - 1
        s, [qs] = exponential_parts(S, order=8)
        assert s == sol.s
        assert q_canonical(qs) == q_canonical(sol.Q[0])


# windows cut short near the pole order, where the data a rank-0 leaf
# rests on runs out: R150 items at every 15th index (those that verify),
# and ramified and split plants.  Without the residual check, the
# exponential parts must still be those of the uncut system, or refused
HONESTY_PLANTS = {
    "ramified": {"n": 1, "d": 3, "p": [2], "ramified": True},
    "ramified-n2": {"n": 2, "d": 3, "p": [2, 1], "ramified": True},
    "split": {"n": 2, "d": 3, "p": [2, 1]},
    "split-p3": {"n": 1, "d": 3, "p": [3]},
}
HONESTY = ([(f"R{k}", N) for k in range(0, len(R150), 15)
            if k not in R150_UNSUPPORTED
            for N in (R150[k][1] + 1, R150[k][1] + 3)]
           + [(f"{name}/{seed}", N) for name in HONESTY_PLANTS
              for seed in (1, 4) for N in (1, 2, 3)])


@pytest.mark.parametrize("case,N", HONESTY)
def test_clipped_window_keeps_the_exponential_parts_or_refuses(case, N):
    if case.startswith("R"):
        S = sys1(*R150[int(case[1:])])
    else:
        name, seed = case.split("/")
        S = generate_equivalent(int(seed), HONESTY_PLANTS[name])[0]

    def parts(T):
        s, Q = exponential_parts(T, order=8)
        return s, [q_canonical(qs) for qs in Q]

    want = parts(S)
    try:
        got = parts(S.clipped((N,) * S.n))
    except TruncationInsufficient:
        return
    assert got == want


# the clipped-window oracle of fmfs: a system known only below x^N is
# solved beside one completion of it, the same data plus random exact
# terms at degrees N..N+2.  What the clipped run returns holds for every
# completion, so it must agree with this one: s, Q and C, and Phi on
# every total degree it claims as verified, which Phi's window holds.
# Items 49 and 121 are ramified.
FMFS_HONESTY = [(k, R150[k][1] + dn) for k in (2, 13, 22, 28, 49, 121)
                for dn in (5, 9)]


def completed(S, N, rng):
    """The one-variable S clipped below x^N, with exact terms at degrees
    N..N+2, each present with probability 1/2, from 1, -1, 2."""
    rows = [[Series(1, {**s.clipped((N,)).terms,
                        **{(e,): QQ.scalar(rng.choice([1, -1, 2]))
                           for e in range(N, N + 3) if rng.random() < 0.5}},
                    QQ) for s in row] for row in S.A[0].rows]
    return PfaffianSystem(S.vars, S.p, [SeriesMatrix(rows, 1, QQ)], QQ)


@pytest.mark.parametrize("k,N", FMFS_HONESTY)
def test_clipped_window_keeps_the_solution_or_refuses(k, N):
    S = sys1(*R150[k])
    try:
        got, _ = fmfs(S.clipped((N,)), order=8)
    except TruncationInsufficient:
        return
    want, _ = fmfs(completed(S, N, random.Random(100 * k + N)), order=8)
    v = got.verified_to
    assert v <= min(got.phi.window_hi()) - 1
    assert got.s == want.s
    assert [q_canonical(qs) for qs in got.Q] == [q_canonical(qs)
                                                  for qs in want.Q]
    assert got.C == want.C
    for r1, r2 in zip(got.phi.rows, want.phi.rows):
        for a, b in zip(r1, r2):
            for e in set(a.terms) | set(b.terms):
                if sum(e) <= v:
                    assert a.coefficient(e) == b.coefficient(e)


def working_orders(monkeypatch):
    """The working order of every attempt fmfs or exponential_data
    makes from now on."""
    orders = []
    reduce_ = driver._reduce

    def spy(S, ram, order, trace, path, *mode):
        if not path:
            orders.append(order)
        return reduce_(S, ram, order, trace, path, *mode)

    monkeypatch.setattr(driver, "_reduce", spy)
    return orders


# the ramified plants split after x = t^2, and the split's box covers
# the degrees the eigenvalue shifts down to rank 0 take, so they verify
# at their first attempt.  g776 splits twice, and the first split's
# clipped window caps the second's box: it loses a constant number of
# degrees to verification, so one retry at 8 plus the shortfall reaches
# the order - 2 = 6 the check asks for
@pytest.mark.parametrize("seed,shape,retries", [
    (3, {"n": 2, "d": 2, "p": [2, 1], "ramified": True}, 0),
    (0, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}, 0),
    (3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}, 0),
    (1, {"n": 1, "d": 3, "p": [2], "ramified": True}, 0),
    (1, {"n": 2, "d": 3, "p": [2, 1], "ramified": True}, 0),
    (776, {"n": 3, "d": 3, "p": [2, 0, 2]}, 1),
], ids=["r3-n2d2p21", "r0-n2d3p21", "r3-n2d3p21", "r1-n1d3p2",
        "r1-n2d3p21", "g776-n3d3p202"])
def test_one_retry_at_the_shortfall(seed, shape, retries):
    S, planted = generate_equivalent(seed, shape)
    sol, trace = fmfs(S, order=8)
    assert trace.retries == retries
    if retries:
        [entry] = trace.retry_log
        v = entry["verified_to"]
        assert entry["order"] == 8 and v < 6
        assert entry["next_order"] == trace.order == 8 + (6 - v)
    else:
        assert trace.order == 8
    assert sol.verified_to >= 6
    assert_planted(sol, planted)


def assert_agrees_with_a_higher_order_reference(S, order=8, ref_order=14):
    """fmfs(S, order) verifies at its first attempt, and its Phi, C, Q
    and s are those of fmfs(S, ref_order) on the common window."""
    sol, trace = fmfs(S, order=order)
    ref, _ = fmfs(S, order=ref_order)
    assert (trace.order, trace.retries) == (order, 0)
    window = sol.phi.window_hi()
    assert all(a < b for a, b in zip(window, ref.phi.window_hi()))
    assert sol.phi == ref.phi           # equal on the common window
    assert any(sum(k) > 0 for row in sol.phi.rows for e in row
               for k in e.terms)        # which holds more than Phi(0)
    assert [strm(c) for c in sol.C] == [strm(c) for c in ref.C]
    assert [q_canonical(q) for q in sol.Q] == [q_canonical(q) for q in ref.Q]
    assert sol.s == ref.s
    return sol


def test_first_attempt_agrees_with_a_higher_order_reference():
    S, planted = generate_equivalent(
        3, {"n": 2, "d": 3, "p": [2, 1], "ramified": True})
    sol = assert_agrees_with_a_higher_order_reference(S)
    assert sol.s == planted["s"]


# every ramified item of the benchmark, at the corpus seed it runs and at
# the two hold-out seeds, verifies at its first attempt and recovers its
# plant (Airy@8: its pinned fingerprint)
@pytest.mark.parametrize("corpus_seed", [0, 1, 2])
def test_ramified_bench_items_verify_at_their_first_attempt(corpus_seed):
    items = bench_solve_items("ramified", corpus_seed)
    assert items
    for id_, S, order, check in items:
        sol, trace = fmfs(S, order=order)
        assert (trace.order, trace.retries) == (order, 0), id_
        check(sol)


# R150 items with p = 3 and s = 2: each splits at p = 3 in x and again at
# p = 5 in t = x^(1/2), so one attempt at 8 now verifies to 6, where the
# attempt at 8 verified to 1 and the retry ran at 13
@pytest.mark.parametrize("k", [49, 57, 114, 121, 133])
def test_ramified_random_systems_verify_at_their_first_attempt(k):
    S = sys1(*R150[k])
    assert S.p == [3]
    sol = assert_agrees_with_a_higher_order_reference(S)
    assert sol.s == [2]


def test_retries_double_without_a_verified_degree_and_stop_at_the_bound(
        monkeypatch):
    # x^5 f' = a f with a known only below x^3: after the shift by 1 the
    # endgame needs a_4, so no attempt reaches the residual check; 320
    # would pass MAX_ORDER
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


def test_component_zero_within_its_window_keeps_an_honest_window():
    # x^2 f' = (0 + O(x^3)) f: a = x^3 fits the data too, and its Phi is
    # exp(x^2/2) = 1 + x^2/2 + ..., so the data fixes Phi below x^2 only
    a = Series(1, {}, QQ, None, (3,))
    S = PfaffianSystem(["x"], [1], [SeriesMatrix([[a]], 1, QQ)], QQ)
    sol, _ = fmfs(S, order=3)
    assert sol.phi.window_hi() == (2,)
    assert sol.verified_to == 1
    with pytest.raises(TruncationInsufficient):
        fmfs(S, order=4)


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


@pytest.mark.parametrize("N", [1, 2, 3])
def test_input_limited_leaf_is_not_retried(monkeypatch, N):
    # the input's window, not the working order, empties the rank-zero
    # leaf: the attempt at 16 runs out in the same window as the one at
    # 8, which ends the retries
    S = generate_equivalent(1, {"n": 1, "d": 3, "p": [3]})[0].clipped((N,))
    orders = working_orders(monkeypatch)
    with pytest.raises(TruncationInsufficient,
                       match="rank-zero leaf") as exc:
        driver.exponential_data(S, order=8, max_retries=MAX_RETRIES)
    assert exc.value.window == (0,)
    assert orders == [8, 16]


def test_fmfs_growth_orders_match_invariants():
    for S in (hyper_system(), triple_system(), shifted_system()):
        sol, _ = fmfs(S, order=10)
        assert sol.omega() == exponential_order(S, order=10)
        assert true_poincare_rank(S) == [math.ceil(w) for w in sol.omega()]


# -- verification ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(jordan_systems()))
def test_jordan_block_residue_stays_in_c(name):
    # x^C with a Jordan block C carries the log(x) coupling itself, so
    # the diagonal of C alone does not solve the system
    S = jordan_systems()[name]
    sol, _ = fmfs(S, order=8)
    assert sol.verified_to == INF
    C1 = sol.C[0]
    assert any(not a.is_zero() for r, row in enumerate(C1.rows)
               for c, a in enumerate(row) if r != c)
    diag = ConstMatrix([[a if r == c else C1.tower.zero()
                         for c, a in enumerate(row)]
                        for r, row in enumerate(C1.rows)], C1.tower)
    tampered = FormalSolution(sol.phi, [diag] + sol.C[1:], sol.Q, sol.s,
                              sol.structure)
    assert not verify_solution(S, tampered)["ok"]


def test_verify_detects_wrong_exponent_matrix():
    S = hyper_system()
    sol, _ = fmfs(S, order=10)
    assert verify_solution(S, sol)["ok"]
    bad = ConstMatrix([[QQ.scalar(7), QQ.zero()],
                       [QQ.zero(), QQ.scalar(1)]], QQ)
    tampered = FormalSolution(sol.phi, [bad, sol.C[1]], sol.Q, sol.s,
                              sol.structure)
    assert not verify_solution(S, tampered)["ok"]


def test_verify_refuses_c_coupling_distinct_exponential_parts():
    # x^C e^Q with C = [[0, 1], [0, 0]] and q = (1/x, 2/x) misses the
    # (1, 2) entry by log(x) e^(2/x); fmfs finds C = 0 for this system
    S = sys1([[-1, {1: 1}], [0, -2]], 1)
    C = ConstMatrix([[QQ.zero(), QQ.one()], [QQ.zero(), QQ.zero()]], QQ)
    Q = [[{Fraction(-1): QQ.one()}, {Fraction(-1): QQ.scalar(2)}]]
    sol = FormalSolution(SeriesMatrix.identity(2, 1, QQ), [C], Q, [1],
                         ("regular", 2))
    with pytest.raises(InputError, match="distinct exponential parts"):
        verify_solution(S, sol)
    assert fmfs(S, order=6)[0].C[0].is_zero()


def test_verify_detects_wrong_q():
    S = hyper_system()
    sol, _ = fmfs(S, order=10)
    Q = [[dict(q) for q in qs] for qs in sol.Q]
    Q[1][0][Fraction(-2)] = QQ.scalar(5)
    tampered = FormalSolution(sol.phi, sol.C, Q, sol.s, sol.structure)
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
    tampered = FormalSolution(sol.phi, sol.C, Q, sol.s, sol.structure)
    with pytest.raises(InputError, match=str(exponent)):
        verify_solution(S, tampered)


def test_verify_needs_exponent_matrices():
    S = hyper_system()
    doc = serialize_solution(fmfs(S, order=10)[0], S.vars)
    doc["C"][1] = None
    with pytest.raises(InputError, match="each C must be"):
        parse_solution(json.dumps(doc))


def test_block_compatibility_guard():
    S = triple_system()
    sol, _ = fmfs(S, order=10)
    coupled = ConstMatrix([[QQ.zero(), QQ.one()],
                           [QQ.zero(), QQ.zero()]], QQ)
    broken = FormalSolution(sol.phi, [coupled, sol.C[1], sol.C[2]],
                            sol.Q, sol.s, sol.structure)
    with pytest.raises(ReductionError):
        broken.check_block_compatibility()


# -- exponential parts over the corpus ---------------------------------------


def test_exponential_parts_hyper():
    s, Q = exponential_parts(hyper_system(), order=10)
    assert s == [1, 1]
    assert sorted(strq(Q[0]), key=str) == [{"-1": "-1"}, {"-1": "-1"}]
    assert sorted(strq(Q[1]), key=str) == [{"-1": "2", "-2": "3"}] * 2


def test_exponential_parts_triple():
    s, Q = exponential_parts(triple_system(), order=10)
    assert s == [1, 1, 1]
    assert sorted(strq(Q[0]), key=str) == [{"-1": "1"}, {}]
    assert sorted(strq(Q[1]), key=str) == [{"-1": "-3", "-2": "-1"}, {}]
    assert Q[2] == [{}, {}]
    assert [growth_order(qs) for qs in Q] == [Fraction(1), Fraction(2),
                                              Fraction(0)]


def test_exponential_parts_shifted_all_regular():
    _, Q = exponential_parts(shifted_system(), order=10)
    assert all(q == {} for qs in Q for q in qs)


def test_exponential_parts_of_an_exactly_zero_direction():
    # x1 d1 F = x1 x2 F, x2^2 d2 F = (x1 x2^2 - 1) F: the first associated
    # system is exactly zero, so its direction is regular and unramified
    S = PfaffianSystem(["x1", "x2"], [0, 1],
                       [mat2([[{(1, 1): 1}]]),
                        mat2([[{(1, 2): 1, (0, 0): -1}]])], QQ)
    s, Q = exponential_parts(S, order=8)
    assert s == [1, 1]
    assert [strq(qs) for qs in Q] == [[{}], [{"-1": "1"}]]


def test_exponential_parts_ramified():
    S = sys1([[0, 1], [{1: 1}, 0]], 1)
    s, Q = exponential_parts(S, order=8)
    assert s == [2]
    assert sorted(strq(Q[0]), key=str) == [{"-1/2": "-2"}, {"-1/2": "2"}]
