"""The series kernel's fast paths against the loops they replaced.

Every product of series matrices, and every sum start + s_1 M_1 N_1 +
... of them, is one kernel call, series.sum_of_products(start, pairs,
tower), which adds integer numerator products in buckets.  Each entry
must be exactly what the fold acc = acc + s_k a b from its start entry
gives, a pair with an exact-zero factor skipped: a SeriesMatrix product
is its sum from Series.zero, a Berkowitz step its 1 x k sum from the
step's first addend, Series.__mul__ its one-pair sum from nothing.  One
rule holds on every path: a product with an exact-zero factor (a zero
scalar, or a series zero on an infinite window) is Series.zero in the
join of the fields.  Series.__add__ and the kernel build their results without the public
constructor's checks.  The reference implementations below are the
plain loops those replaced: every result goes through the public
constructor, each term pair is a Scalar product, and a sum of products
is that fold.  The series derived from one series (Euler operator,
restriction, coefficient, ramification, projection, clipping, zero)
skip that constructor too; their references feed the same terms through
it.  On random series the fast paths must give the same terms, the same
window and the same field.  Terms compare by value: a coefficient's
field is not part of a series' value, and the kernel holds a rational
coefficient in Q where the fold may leave it in the extension.

A scalar times a series must be the product with the constant series,
window included, and a ConstMatrix times a SeriesMatrix, on either side,
the product with its to_series.

SeriesMatrix.determinant (Berkowitz's algorithm) is checked against the
memoized Laplace expansion it replaced.  The two multiply different
entries, so their windows may differ; they must agree on the common
window, and on exact input they must give the same terms.
"""

import math
import operator
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pfaffred import docio, linalg
from pfaffred.driver import FormalSolution
from pfaffred.errors import NotUnitError, TruncationInsufficient
from pfaffred.linalg import ConstMatrix, SeriesMatrix
from pfaffred.scalars import QQ, common_tower, roots_of_charpoly
from pfaffred.series import Series, sum_of_products, term_coordinates
from pfaffred.system import PfaffianSystem, check_integrability

from helpers import dense_grid, mat1

INF = math.inf
K = QQ.adjoin([-2, 0, 1])  # Q(sqrt 2)
K2 = QQ.adjoin([-2, 0, 1])  # the same field, another object


# -- reference implementations ----------------------------------------------


def exact_zero(s):
    return s.is_zero() and s.exact


def ref_add(a, b):
    lo = tuple(min(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    terms = dict(a.terms)
    for exp, c in b.terms.items():
        s = terms.get(exp)
        terms[exp] = c if s is None else s + c
    return Series(a.nvars, terms, common_tower(a.tower, b.tower), lo, hi)


def ref_neg(a):
    return Series(a.nvars, {e: -c for e, c in a.terms.items()}, a.tower,
                  a.lo, a.hi)


def ref_mul(a, b):
    if exact_zero(a) or exact_zero(b):
        return Series.zero(a.nvars, common_tower(a.tower, b.tower))
    fla, flb = a.effective_floor(), b.effective_floor()
    lo = tuple(x + y for x, y in zip(fla, flb))
    hi = tuple(min(ha + lb, hb + la)
               for ha, hb, la, lb in zip(a.hi, b.hi, fla, flb))
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= h for e, h in zip(exp, hi)):
                continue
            prod = c1 * c2
            s = terms.get(exp)
            terms[exp] = prod if s is None else s + prod
    return Series(a.nvars, terms, common_tower(a.tower, b.tower), lo, hi)


def ref_matmul(A, B):
    tower = common_tower(A.tower, B.tower)
    out = []
    for r in A.rows:
        row = []
        for c in zip(*B.rows):
            acc = Series.zero(A.nvars, tower)
            for a, b in zip(r, c):
                if a.is_zero() and a.exact:
                    continue
                if b.is_zero() and b.exact:
                    continue
                acc = ref_add(acc, ref_mul(a, b))
            row.append(acc)
        out.append(row)
    return out, tower


def ref_determinant(entries, one, zero, nonzero, mul, add, neg):
    """Determinant of a square grid over any commutative ring.

    Laplace expansion along the rows, memoized on the set of columns
    used so far; an entry failing nonzero is skipped.
    """
    d = len(entries)
    memo = {}

    def minor(row, mask):
        if row == d:
            return one
        got = memo.get(mask)
        if got is not None:
            return got
        acc = zero
        sign = 1
        for j in range(d):
            bit = 1 << j
            if mask & bit:
                continue
            e = entries[row][j]
            if nonzero(e):
                term = mul(e, minor(row + 1, mask | bit))
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0, 0)


def ref_series_determinant(M):
    return ref_determinant(
        M.rows, Series.constant(M.nvars, 1, M.tower),
        Series.zero(M.nvars, M.tower),
        lambda e: not (e.is_zero() and e.exact),
        operator.mul, operator.add, operator.neg)


# -- random series ----------------------------------------------------------

RATIONALS = [-2, -1, 1, 2]


@st.composite
def scalars(draw, field):
    if field is QQ:
        return QQ.scalar(draw(st.sampled_from(RATIONALS + [0])))
    a, b = draw(st.sampled_from([-1, 0, 1])), draw(st.sampled_from([-1, 0, 1]))
    return field.from_coeffs((a, b))


@st.composite
def series(draw, nvars, exact=None):
    """A series over Q, Q(sqrt 2) or its twin, with a floor in [-2, 0]
    and a finite or infinite top; drawn terms at or above the top and
    zero coefficients are dropped by the public constructor."""
    field = draw(st.sampled_from([QQ, QQ, K, K2]))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(nvars))
    if exact is None:
        exact = draw(st.booleans())
    hi = tuple(INF if exact or draw(st.booleans())
               else l + draw(st.integers(1, 4)) for l in lo)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(l + draw(st.integers(0, 4)) for l in lo)
        terms[exp] = draw(scalars(field))
    return Series(nvars, terms, field, lo, hi)


@st.composite
def series_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(series(n)), draw(series(n))


def signature(s):
    """Everything a result is compared on: each term's coefficient by
    value, the window and the field."""
    return dict(s.terms), s.lo, s.hi, s.tower


def assert_invariant(s):
    """No stored zero, no stored term outside [lo, hi)."""
    for exp, c in s.terms.items():
        assert not c.is_zero()
        assert all(l <= e < h for e, l, h in zip(exp, s.lo, s.hi))


# -- the fast paths against the references ----------------------------------


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_product_matches_the_reference_loop(pair):
    a, b = pair
    got = a * b
    assert signature(got) == signature(ref_mul(a, b))
    assert_invariant(got)


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_sum_matches_the_reference_loop(pair):
    a, b = pair
    for got, want in ((a + b, ref_add(a, b)), (b + a, ref_add(b, a)),
                      (a - b, ref_add(a, ref_neg(b)))):
        assert signature(got) == signature(want)
        assert_invariant(got)


@given(series_pairs(), st.sampled_from([QQ, K]).flatmap(scalars))
@settings(max_examples=100, deadline=None)
def test_negation_scalar_product_and_shift_keep_the_invariant(pair, c):
    a, _ = pair
    neg, scaled = -a, a * c
    assert_invariant(neg)
    assert_invariant(scaled)
    assert neg.terms == {e: -v for e, v in a.terms.items()}
    assert scaled.terms == {e: v * c for e, v in a.terms.items()
                            if not (v * c).is_zero()}
    assert (neg.lo, neg.hi) == (a.lo, a.hi)
    # the scalar product is the product with the constant series
    assert signature(scaled) == signature(
        a * Series.constant(a.nvars, c, a.tower))
    assert scaled.tower == common_tower(a.tower, c.tower)
    shift = tuple(range(-1, a.nvars - 1))
    moved = a.mul_monomial(shift)
    assert_invariant(moved)
    assert moved.lo == tuple(l + k for l, k in zip(a.lo, shift))


@st.composite
def series_and_exact_zeros(draw):
    """A series and an exact zero in as many variables, the zero over Q
    or Q(sqrt 2) with a declared floor in [-2, 1]."""
    n = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-2, 1)) for _ in range(n))
    return draw(series(n)), Series.zero(n, draw(st.sampled_from([QQ, K])), lo)


@given(series_and_exact_zeros(), st.sampled_from([QQ, K]).flatmap(scalars))
@settings(max_examples=150, deadline=None)
def test_a_product_with_an_exact_zero_factor_is_series_zero(case, c):
    # the one rule, on every path that multiplies by an exact zero
    a, z = case
    n = a.nvars
    zero = lambda *fields: signature(Series.zero(n, common_tower(*fields)))
    za = ConstMatrix([[c.tower.zero()]], c.tower)
    A, Z = SeriesMatrix([[a]], n, a.tower), SeriesMatrix([[z]], n, z.tower)
    for got, fields in ((a * z, (a.tower, z.tower)),
                        (z * a, (z.tower, a.tower)),
                        (a * 0, (a.tower,)),
                        (a * c.tower.zero(), (a.tower, c.tower)),
                        (z * c, (z.tower, c.tower)),
                        ((A * Z).rows[0][0], (a.tower, z.tower)),
                        ((Z * A).rows[0][0], (z.tower, a.tower)),
                        ((za * A).rows[0][0], (c.tower, a.tower)),
                        ((A * za).rows[0][0], (a.tower, c.tower))):
        assert signature(got) == zero(*fields)


def test_a_rational_one_shares_the_terms_and_a_field_one_lifts_them():
    q = Series(1, {(0,): QQ.scalar(2), (1,): QQ.one()}, QQ, hi=(3,))
    k = Series(1, {(0,): QQ.scalar(2), (1,): K.generator()}, K)
    for s, one in ((q, 1), (q, QQ.one()), (k, QQ.one())):
        got = s * one
        assert got.terms is s.terms
        assert signature(got) == signature(
            s * Series.constant(1, one, s.tower))
    got = k * K.one()
    assert got.terms[(0,)].tower is K and got.terms[(1,)] == K.generator()


def test_a_cancelling_product_stores_no_zero():
    x = Series.monomial(1, (1,), 1, QQ)
    got = (1 + x) * (1 - x)
    assert got.terms == {(0,): QQ.one(), (2,): QQ.scalar(-1)}
    r2 = K.generator()
    y = Series.monomial(2, (0, 1), 1, K)
    got = (y + r2) * (y - r2)  # y^2 - 2, the middle terms cancel
    assert set(got.terms) == {(0, 0), (0, 2)}
    assert_invariant(got)


def test_a_product_holds_a_rational_coefficient_in_q():
    # at x1 x2 the pairs over Q(sqrt 2) give 1 - 1 and the pair over Q
    # gives 1: the coefficient is 1, held in Q though the series and
    # the fold are over the extension
    a = Series(2, {(1, 0): K.one(), (0, 1): K.one(), (1, 1): QQ.one()}, K)
    b = Series(2, {(0, 1): QQ.one(), (1, 0): QQ.scalar(-1),
                   (0, 0): QQ.one()}, QQ)
    got = a * b
    c = got.terms[(1, 1)]
    assert c == 1 and c.tower is QQ and got.tower is K
    assert ref_mul(a, b).terms[(1, 1)].tower == K
    assert signature(got) == signature(ref_mul(a, b))


def test_outputs_read_a_coefficients_value_not_its_field():
    # the same rational 2 held in Q and in Q(sqrt 2), in a series, a
    # system, a solution and a constant matrix over Q(sqrt 2)
    outputs = []
    for two in (QQ.scalar(2), K.scalar(2)):
        s = Series(2, {(0, 0): two, (1, 0): K.generator(),
                       (0, 1): QQ.scalar(Fraction(1, 3))}, K)
        one, zero = Series.constant(2, 1, K), Series.zero(2, K)
        A = SeriesMatrix([[zero, one], [s, zero]], 2, K)
        S = PfaffianSystem(["x1", "x2"], [1, 0],
                           [A, SeriesMatrix.zeros(2, 2, 2, K)], K)
        M = ConstMatrix([[K.zero(), K.one()], [two, K.zero()]], K)
        sol = FormalSolution(A, [M, M], [[{Fraction(-1): two}, {}], [{}, {}]],
                             [1, 1], "fixed")
        roots = roots_of_charpoly(M.charpoly())
        outputs.append((str(s), docio.matrix_to_json(A), S.fingerprint(),
                        sol.fingerprint(),
                        [(str(r), r.tower.minpoly, m) for r, m in roots]))
    assert outputs[0] == outputs[1]


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    d, e, f = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        grid = [[draw(st.one_of(series(n), st.just(Series.zero(n, QQ))))
                 for _ in range(cols)] for _ in range(rows)]
        tower = common_tower(QQ, *(s.tower for r in grid for s in r))
        return SeriesMatrix(grid, n, tower)

    return matrix(d, e), matrix(e, f)


@given(matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_matrix_product_matches_the_folded_sum(pair):
    A, B = pair
    got = A * B
    want, tower = ref_matmul(A, B)
    assert got.tower == tower
    for r1, r2 in zip(got.rows, want):
        for g, w in zip(r1, r2):
            assert signature(g) == signature(w)
            assert_invariant(g)


@st.composite
def products_from_a_start(draw):
    """A start and up to four pairs of series, in n <= 3 variables."""
    n = draw(st.integers(1, 3))
    pairs = [(draw(series(n)), draw(series(n)))
             for _ in range(draw(st.integers(0, 4)))]
    return draw(series(n)), pairs


@given(products_from_a_start())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_the_fold_from_its_start(case):
    # the kernel's 1 x k case, a row of the a_k times a column of the b_k
    start, pairs = case
    want = start
    for a, b in pairs:
        if not (exact_zero(a) or exact_zero(b)):
            want = ref_add(want, ref_mul(a, b))
    grids = [(1, [[a for a, _ in pairs]], [[b] for _, b in pairs])]
    got, = sum_of_products([[start]], grids if pairs else [], start.tower)[0]
    assert signature(got) == signature(want)
    assert_invariant(got)


def test_matrix_product_holds_a_cancelled_then_rational_entry_in_q():
    # the products (x/2) 2 and -x 1, over Q(sqrt 2), cancel at x^1 and
    # the third, over Q, lands there: the entry sums all three in one
    # pass, so its coefficient 1 is held in Q, as every rational one is,
    # and it agrees with the reference fold in value and in the series'
    # field; the first two have different denominators, so they cancel
    # only when the buckets are folded
    x = Series.monomial(1, (1,), K.one(), K)
    half = Series.monomial(1, (1,), K.scalar(Fraction(1, 2)), K)
    one, two = Series.constant(1, 1, QQ), Series.constant(1, 2, QQ)
    A = SeriesMatrix([[half, -x, one]], 1, K)
    B = SeriesMatrix([[two], [one], [Series.monomial(1, (1,), 1, QQ)]], 1, QQ)
    got = (A * B).rows[0][0]
    c = got.terms[(1,)]
    assert c == 1 and c.tower == QQ
    want, tower = ref_matmul(A, B)
    assert signature(got) == signature(want[0][0]) and got.tower == tower


@st.composite
def square_matrices(draw, n=None, d=None):
    """A d x d matrix, d <= 4, in n <= 2 variables unless given: exact
    zeros beside series that may vanish within a finite window; all of
    them exact in about half the draws."""
    n = draw(st.integers(1, 2)) if n is None else n
    d = draw(st.integers(1, 4)) if d is None else d
    exact = draw(st.booleans()) or None
    grid = [[draw(st.one_of(series(n, exact), st.just(Series.zero(n, QQ))))
             for _ in range(d)] for _ in range(d)]
    tower = common_tower(QQ, *(s.tower for r in grid for s in r))
    return SeriesMatrix(grid, n, tower)


@given(square_matrices(), st.sampled_from([QQ, K]), st.data())
@settings(max_examples=150, deadline=None)
def test_constant_matrix_multiplies_as_its_constant_series(M, field, data):
    d = M.nrows
    V = ConstMatrix([[data.draw(scalars(field)) for _ in range(d)]
                     for _ in range(d)], field)
    Vs = V.to_series(M.nvars)
    for got, want in ((V * M, Vs * M), (M * V, M * Vs)):
        assert isinstance(got, SeriesMatrix) and got.tower == want.tower
        for r1, r2 in zip(got.rows, want.rows):
            for g, w in zip(r1, r2):
                assert signature(g) == signature(w)
                assert_invariant(g)


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_determinant_matches_the_minor_expansion(M):
    got, want = M.determinant(), ref_series_determinant(M)
    assert got == want                   # every coefficient both know
    assert_invariant(got)
    if M.exact:
        assert got.exact and want.exact
        assert got.terms == want.terms


@st.composite
def sums_of_products(draw):
    """A start and one to three signed pairs of square_matrices of one
    shape, the operands drawn from a pool of three, so that one may recur
    on either side and with either sign."""
    n, d = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    pool = [draw(square_matrices(n, d)) for _ in range(3)]
    pick = st.sampled_from(pool)
    pairs = [(draw(st.sampled_from([1, -1])), draw(pick), draw(pick))
             for _ in range(draw(st.integers(1, 3)))]
    return draw(square_matrices(n, d)), pairs


@given(sums_of_products())
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_the_chain_it_replaced(case):
    # the chain start + M_1 N_1 - M_2 N_2 ... of SeriesMatrix +, - and *,
    # and the same chain from the reference loops; each of its products
    # folds from the zero matrix, whose floor 0 lies at or above every
    # start floor drawn here
    start, pairs = case
    chain, ref, tower = start, [list(r) for r in start.rows], start.tower
    for sign, M, N in pairs:
        chain = chain + M * N if sign > 0 else chain - M * N
        prod, t = ref_matmul(M, N)
        tower = common_tower(tower, t)
        ref = [[ref_add(a, b if sign > 0 else ref_neg(b))
                for a, b in zip(r1, r2)] for r1, r2 in zip(ref, prod)]
    got = linalg.sum_of_products(start, pairs)
    assert got.tower == chain.tower == tower
    for r1, r2, r3 in zip(got.rows, chain.rows, ref):
        for g, c, w in zip(r1, r2, r3):
            assert signature(g) == signature(c) == signature(w)
            assert_invariant(g)


def test_kernel_reads_each_operand_entry_once(monkeypatch):
    # a d x d product reads each operand entry's coordinates once, where
    # a sum per entry read each factor d times; the integrability check
    # makes one kernel call per pair of variables, and none in one
    reads, calls = [], []
    monkeypatch.setattr("pfaffred.series.term_coordinates",
                        lambda t, s: reads.append(1) or term_coordinates(t, s))
    monkeypatch.setattr("pfaffred.series.sum_of_products",
                        lambda *a: calls.append(1) or sum_of_products(*a))
    d = 4
    M, N = mat1(dense_grid(d)), mat1(dense_grid(d, seed=1))
    assert all(e.terms for A in (M, N) for r in A.rows for e in r)
    M * N
    assert (len(reads), len(calls)) == (2 * d * d, 1)
    for n, pairs in ((1, 0), (2, 1), (3, 3)):
        S = docio.generate_equivalent(0, {"n": n, "d": 2, "p": [1] * n})[0]
        reads.clear()
        calls.clear()
        assert check_integrability(S)
        assert len(calls) == pairs
        assert bool(reads) == bool(pairs)


# -- derived series against the public constructor --------------------------
#
# zero, euler, restrict, coeff_in_xi, ramify, project_to_var and clipped
# build their results without the public constructor's checks.  Each
# reference below feeds the same terms and window through Series(...),
# as the constructors once did.


def ref_euler(a, i, p):
    """x_i^{p+1} d/dx_i as it was computed before: the derivative, then
    the shift by x_i^{p+1}, each through the public constructor."""
    step = lambda w, k: tuple(v + k if j == i else v for j, v in enumerate(w))
    terms = {step(e, -1): c * e[i] for e, c in a.terms.items() if e[i]}
    d = Series(a.nvars, terms, a.tower, step(a.lo, -1), step(a.hi, -1))
    return Series(a.nvars, {step(e, p + 1): c for e, c in d.terms.items()},
                  a.tower, step(d.lo, p + 1), step(d.hi, p + 1))


def ref_restrict(a, zero):
    terms = {e: c for e, c in a.terms.items() if all(e[i] == 0 for i in zero)}
    lo = tuple(0 if i in zero else v for i, v in enumerate(a.lo))
    hi = tuple(INF if i in zero else v for i, v in enumerate(a.hi))
    return Series(a.nvars, terms, a.tower, lo, hi)


def ref_coeff_in_xi(a, i, k):
    terms = {e[:i] + (0,) + e[i + 1:]: c
             for e, c in a.terms.items() if e[i] == k}
    lo = tuple(0 if j == i else v for j, v in enumerate(a.lo))
    hi = tuple(INF if j == i else v for j, v in enumerate(a.hi))
    return Series(a.nvars, terms, a.tower, lo, hi)


def ref_ramify(a, i, m):
    scale = lambda w: tuple(v * m if j == i else v for j, v in enumerate(w))
    terms = {scale(e): c for e, c in a.terms.items()}
    return Series(a.nvars, terms, a.tower, scale(a.lo), scale(a.hi))


def ref_project_to_var(a, i):
    r = ref_restrict(a, [j for j in range(a.nvars) if j != i])
    return Series(1, {(e[i],): c for e, c in r.terms.items()}, a.tower,
                  (r.lo[i],), (r.hi[i],))


def ref_clipped(a, hi):
    return Series(a.nvars, a.terms, a.tower, a.lo,
                  tuple(min(x, y) for x, y in zip(a.hi, hi)))


@given(series_pairs(), st.integers(0, 2), st.integers(0, 3),
       st.integers(2, 3), st.lists(st.integers(-1, 3), min_size=3,
                                   max_size=3))
@settings(max_examples=150, deadline=None)
def test_derived_series_match_the_public_constructor(pair, i, k, m, top):
    a, _ = pair
    i %= a.nvars
    top = tuple(INF if t == 3 else t for t in top[:a.nvars])
    others = [j for j in range(a.nvars) if j != i]
    cases = [
        (lambda: a.euler(i, k), lambda: ref_euler(a, i, k)),
        (lambda: a.restrict([i]), lambda: ref_restrict(a, [i])),
        (lambda: a.restrict(others), lambda: ref_restrict(a, others)),
        (lambda: a.coeff_in_xi(i, a.lo[i] + k),
         lambda: ref_coeff_in_xi(a, i, a.lo[i] + k)),
        (lambda: a.ramify(i, m), lambda: ref_ramify(a, i, m)),
        (lambda: a.project_to_var(i), lambda: ref_project_to_var(a, i)),
        (lambda: a.clipped(top), lambda: ref_clipped(a, top)),
        (lambda: Series.zero(a.nvars, a.tower, a.lo, list(a.hi)),
         lambda: Series(a.nvars, {}, a.tower, a.lo, a.hi)),
        (lambda: Series.zero(a.nvars, a.tower),
         lambda: Series(a.nvars, {}, a.tower)),
    ]
    for build, ref in cases:
        try:
            got = build()
        except (TruncationInsufficient, NotUnitError):
            continue            # the same checks run before any term is built
        assert signature(got) == signature(ref())
        assert_invariant(got)
