"""Transformation constructors for the reduction pipeline.

The rank-reduction loop alternates three kinds of moves on one
component at a time: unimodular column reductions of the leading
coefficient (computed over the power-series ring in the remaining
variables, with basis columns certified by integral cofactors), a
unimodular reorganization Q of the reduced pencil, and diagonal
monomial shearings.  Each move is applied to the full system through
apply_gauge, which refuses a move that breaks normal crossings, so that
is verified rather than assumed.  The growth order of a one-variable
system (katz_order_univariate) is read off the characteristic
polynomial of its rank-reduced form.

Splitting decouples a component whose constant term has at least two
distinct eigenvalues into two diagonal blocks; the off-diagonal blocks
of the coupling transformation solve Riccati-type equations grade by
grade, jointly over all components.  Each monomial's unknowns solve one
stacked linear system whose operator depends only on the block
orientation and on the shifts beta_k of the regular components, so each
distinct operator is eliminated once per split and its row operations
are replayed on every right-hand side.  The right-hand sides come from
Riccati residuals kept inside the solve box and updated by each grade's
increment alone.  Whether the couplings are exact is decided once, by
evaluating the full equations on the final couplings.  Eigenvalue
shifting and ramification are the remaining primitive moves of the full
reduction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    ColumnModuleNotFree,
    InputError,
    ReductionError,
    ResonanceError,
    RowModuleNotFree,
    TruncationInsufficient,
)
from .linalg import (
    ConstMatrix,
    Elimination,
    SeriesMatrix,
    generalized_eigenspaces,
    sylvester_stack,
)
from .scalars import Scalar, roots_of_charpoly
from .series import INF, Series
from .system import (
    GaugeTransformation,
    PfaffianSystem,
    apply_gauge,
    normalize_poincare,
)


MAX_ORDER = 256
MAX_RETRIES = 8


def check_order(order, max_retries=0):
    """Reject truncation orders below 1, where no series work is
    possible, and above MAX_ORDER, which bounds every working order;
    and retry budgets outside 0..MAX_RETRIES."""
    if order < 1:
        raise InputError(f"truncation order must be at least 1, got {order}")
    if order > MAX_ORDER:
        raise InputError(f"truncation order {order} exceeds the bound "
                         f"{MAX_ORDER}")
    if not 0 <= max_retries <= MAX_RETRIES:
        raise InputError(f"retry budget {max_retries} is outside the bound "
                         f"0..{MAX_RETRIES}")


# ---------------------------------------------------------------------------
# integral cofactors (module membership by coefficient comparison)
# ---------------------------------------------------------------------------

def _monomials_of_grade(slots, g, nvars):
    """All exponent tuples of total degree g supported on the given slots."""
    if not slots:
        return [(0,) * nvars] if g == 0 else []
    out = []

    def rec(idx, rem, acc):
        if idx == len(slots) - 1:
            exp = [0] * nvars
            for s, v in zip(slots, acc + [rem]):
                exp[s] = v
            out.append(tuple(exp))
            return
        for v in range(rem + 1):
            rec(idx + 1, rem - v, acc + [v])

    rec(0, g, [])
    return out


def _graded_piece(s: Series, g: int):
    return {e: c for e, c in s.terms.items() if sum(e) == g}


def integral_cofactors(B: SeriesMatrix, vcol, ell: int, slots):
    """Solve B c = v for c over the series ring, degree by degree.

    B is square with det(B) != 0 over the fraction field; the defining
    identities det(B) c_i = det(B_i) pin c uniquely, and are solved by
    coefficient comparison.  Grades run far enough that a window of
    ell+1 in each free variable is honest.  Returns (cofactors, info);
    cofactors is None when some grade is inconsistent, which certifies
    that v is not an integral combination at this truncation.
    """
    tower = B.tower
    nvars = B.nvars
    D = B.determinant()
    if D.is_zero():
        if D.exact:
            raise InputError("basis determinant vanishes")
        raise TruncationInsufficient(
            "basis determinant vanishes within the window")
    k = D.total_valuation()
    rate = max(1, len(slots))
    depth = rate * ell
    win = min((h for h in B.window_hi()), default=INF)
    if win != INF and win <= depth + k:
        # windows are clipped at ell + 1, times any later ramification
        # index, so the window grows by about win / (ell + 1) per unit
        # of ell; a demand growing at least as fast never fits
        raise TruncationInsufficient(
            f"cofactor solve needs data beyond total degree {depth + k}",
            final=rate >= -(-win // (ell + 1)))
    Dk = _graded_piece(D, k)
    r = B.nrows
    cof = []
    all_exact = True
    for i in range(r):
        Ri = B.with_col(i, vcol).determinant()
        c_terms: dict = {}
        residual = Ri
        inconsistent = None
        for g in range(depth + 1):
            target = _graded_piece(residual, k + g)
            unknowns = _monomials_of_grade(slots, g, nvars)
            if not unknowns:
                if target:
                    inconsistent = g
                break
            rows = sorted({tuple(a + b for a, b in zip(de, ue))
                           for de in Dk for ue in unknowns}
                          | set(target.keys()))
            row_ix = {m: j for j, m in enumerate(rows)}
            M = ConstMatrix.zeros(len(rows), len(unknowns), tower)
            for uj, ue in enumerate(unknowns):
                for de, dc in Dk.items():
                    m = tuple(a + b for a, b in zip(de, ue))
                    M.rows[row_ix[m]][uj] = M.rows[row_ix[m]][uj] + dc
            b = [target.get(m, tower.zero()) for m in rows]
            x = M.solve_vec(b)
            if x is None:
                inconsistent = g
                break
            grade_terms = {ue: xv for ue, xv in zip(unknowns, x)
                           if not xv.is_zero()}
            if grade_terms:
                c_terms.update(grade_terms)
                piece = Series(nvars, grade_terms, tower)
                residual = residual - D * piece
            if residual.is_zero() and residual.exact:
                break
        if inconsistent is not None:
            return None, {"exact": False, "checked_to": ell,
                          "inconsistent_at": inconsistent, "column": i}
        ci = Series(nvars, c_terms, tower)
        if not (D.exact and Ri.exact and (D * ci - Ri).is_zero()
                and (D * ci - Ri).exact):
            all_exact = False
            hi = tuple(ell + 1 if j in slots else INF for j in range(nvars))
            ci = ci.with_window(hi=hi)
        cof.append(ci)
    # the Cramer identities pin c over the fraction field; confirm the
    # column relation directly as far as the data allows
    for t in range(r):
        e = sum((B.rows[t][i] * cof[i] for i in range(r)),
                Series.zero(nvars, tower)) - vcol[t]
        if not e.is_zero():
            return None, {"exact": False, "checked_to": ell,
                          "inconsistent_at": e.total_valuation(), "column": t}
    return cof, {"exact": all_exact, "checked_to": ell,
                 "inconsistent_at": None}


def _rank_at_origin(M: SeriesMatrix):
    try:
        return M.constant_term().rank()
    except TruncationInsufficient:
        return -1


def _basis_candidates(A0: SeriesMatrix, r: int):
    """Column subsets, residue-rank-r first, then by determinant valuation."""
    d = A0.ncols
    scored = []
    for sub in itertools.combinations(range(d), r):
        cols = A0.submatrix(range(A0.nrows), sub)
        if _rank_at_origin(cols) == r:
            scored.append((0, 0, sub))
            continue
        rows = cols.pivot_rows()
        if len(rows) < r:
            continue
        B = cols.submatrix(rows, range(r))
        scored.append((1, B.determinant().total_valuation(), sub))
    scored.sort()
    return [s[2] for s in scored]


def _module_column_basis(A0: SeriesMatrix, r: int, ell: int, slots):
    """(basis subset, {other column -> cofactors}), or raises.

    ColumnModuleNotFree when the data is exact and no subset admits
    integral cofactors for all remaining columns; TruncationInsufficient
    when the data is truncated, since the same failure could then be an
    artifact of the window.
    """
    d = A0.ncols
    nontrivial = [j for j in range(d)
                  if any(not A0.rows[t][j].is_zero() for t in range(A0.nrows))]
    for sub in _basis_candidates(A0, r):
        basis_cols = A0.submatrix(range(A0.nrows), sub)
        rows = basis_cols.pivot_rows()
        B = basis_cols.submatrix(rows, range(r))
        ok = True
        relations = {}
        for j in nontrivial:
            if j in sub:
                continue
            cof, _info = integral_cofactors(
                B, [A0.rows[t][j] for t in rows], ell, slots)
            if cof is None:
                ok = False
                break
            resid = [sum((basis_cols.rows[t][c] * cof[c] for c in range(r)),
                         Series.zero(A0.nvars, A0.tower)) - A0.rows[t][j]
                     for t in range(A0.nrows)]
            if any(not e.is_zero() for e in resid):
                ok = False
                break
            relations[j] = cof
        if ok:
            return sub, relations
    if A0.exact:
        raise ColumnModuleNotFree("column module not free")
    raise TruncationInsufficient(
        "no column basis certified at this truncation")


# ---------------------------------------------------------------------------
# column reduction to the three-block leading form
# ---------------------------------------------------------------------------

class ColumnReduction:
    __slots__ = ("gauge", "r", "v", "A0_reduced")

    def __init__(self, gauge, r, v, A0_reduced):
        self.gauge = gauge
        self.r = r
        self.v = v
        self.A0_reduced = A0_reduced


def _basis_gauge(relations, sub, d, nvars, tower):
    """Basis columns sub first, then each other column j minus
    c_{kj} times basis column k."""
    order = list(sub) + [j for j in range(d) if j not in sub]
    pos = {old: new for new, old in enumerate(order)}
    N = SeriesMatrix.zeros(d, d, nvars, tower)
    for j, cof in relations.items():
        for k_idx, k in enumerate(sub):
            if not cof[k_idx].is_zero():
                N.rows[pos[k]][pos[j]] = -cof[k_idx]
    return GaugeTransformation.permutation(order, nvars, tower).compose(
        GaugeTransformation.unipotent(N))


def column_reduce(A0: SeriesMatrix, i: int, ell: int) -> ColumnReduction:
    """Unimodular U with U^{-1} A0 U in the three-block leading form:
    columns r..d vanish, and columns v..r vanish in the top r rows.

    A0 must be free of x_i; U has entries in the series ring of the
    remaining variables and determinant +-1.
    """
    d = A0.ncols
    nvars, tower = A0.nvars, A0.tower
    slots = [j for j in range(nvars) if j != i]
    r = A0.rank_generic()
    if r == 0 or r == d:
        g = GaugeTransformation.identity(d, nvars, tower)
        return ColumnReduction(g, r, r, A0)
    sub, relations = _module_column_basis(A0, r, ell, slots)
    g1 = _basis_gauge(relations, sub, d, nvars, tower)
    A0r = g1.T_inv * A0 * g1.T
    for t in range(d):
        for j in range(r, d):
            if not A0r.rows[t][j].is_zero():
                raise ReductionError("column elimination left a nonzero tail")
    B11 = A0r.submatrix(range(r), range(r))
    v = B11.rank_generic()
    if 0 < v < r:
        sub2, rel2 = _module_column_basis(B11, v, ell, slots)
        g2 = GaugeTransformation.block_diag([
            _basis_gauge(rel2, sub2, r, nvars, tower),
            GaugeTransformation.identity(d - r, nvars, tower)])
        g1 = g1.compose(g2)
        A0r = g2.T_inv * A0r * g2.T
    for t in range(r):
        for j in range(v, r):
            if not A0r.rows[t][j].is_zero():
                raise ReductionError("reduced form violates the block pattern")
    return ColumnReduction(g1, r, v, A0r)


# ---------------------------------------------------------------------------
# the reduction pencil and its vanishing test
# ---------------------------------------------------------------------------

class MoserData:
    __slots__ = ("r", "v", "rho", "theta", "theta_zero", "theta_limited",
                 "A0", "A1")

    def __init__(self, r, v, theta, theta_zero, theta_limited, A0, A1):
        self.r = r
        self.v = v
        self.rho = None
        self.theta = theta          # over (x, lambda); lambda is the last slot
        self.theta_zero = theta_zero
        self.theta_limited = theta_limited
        self.A0 = A0
        self.A1 = A1


def _swap_to_last(s: Series, i: int) -> Series:
    """Move slot-i content of s into a fresh last slot."""
    ext = s.append_slot()
    terms = {}
    for e, c in ext.terms.items():
        e2 = list(e)
        e2[-1], e2[i] = e2[i], 0
        terms[tuple(e2)] = c
    lo, hi = list(ext.lo), list(ext.hi)
    lo[-1], lo[i] = lo[i], 0
    hi[-1], hi[i] = hi[i], INF
    return Series(ext.nvars, terms, ext.tower, tuple(lo), tuple(hi))


def moser_data(S: PfaffianSystem, i: int, colred: ColumnReduction,
               certify_order: int | None = None) -> MoserData:
    """Assemble the lambda-pencil of component i and test its vanishing.

    The pencil G takes its first r columns from the leading coefficient
    and the rest from the next one, with lambda, in the free slot i,
    added on the trailing diagonal.  theta is det G with lambda moved to
    a last slot; it equals x_i^r det(lambda I + A_{i,0}/x_i + A_{i,1})
    at x_i = 0 because columns r..d of A_{i,0} vanish.  That premise is
    checked: a ReductionError reports a corrupt block form.

    A determinant that vanishes only within a finite window counts as
    vanishing when the window still covers certify_order; with no budget
    given, anything short of exactness is reported truncation-limited.
    """
    d, n, tower = S.d, S.n, S.tower
    r = colred.r
    A0 = S.coeff(i, 0)
    A1 = S.coeff(i, 1)
    if not all(A0.rows[t][j].is_zero() for t in range(d) for j in range(r, d)):
        raise ReductionError("leading coefficient has nonzero columns past "
                             "its rank; block form is corrupt")
    lam = Series.variable(n, i, tower)
    G = SeriesMatrix.zeros(d, d, n, tower)
    for t in range(d):
        for j in range(d):
            if j < r:
                G.rows[t][j] = A0.rows[t][j]
            else:
                G.rows[t][j] = A1.rows[t][j] + (lam if t == j
                                                else Series.zero(n, tower))
    theta = _swap_to_last(G.determinant(), i)
    zero = theta.is_zero()
    limited = zero and not theta.exact
    if limited and certify_order is not None:
        limited = any(h != INF and h <= certify_order for h in theta.hi)
    return MoserData(r, colred.v, theta, zero, limited, A0, A1)


def moser_rank(S: PfaffianSystem, i: int) -> Fraction:
    """p_i + rank(A_{i,0})/d, floored at zero."""
    m = Fraction(S.p[i]) + Fraction(S.coeff(i, 0).rank_generic(), S.d)
    return m if m > 0 else Fraction(0)


# ---------------------------------------------------------------------------
# the unimodular pencil reorganization Q
# ---------------------------------------------------------------------------

def _hstack(parts):
    parts = [p for p in parts if p is not None and p.ncols > 0]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return SeriesMatrix.block([parts])


def build_Q(S: PfaffianSystem, i: int, md: MoserData, order: int = 10):
    """Unimodular Q = Diag(I_r, Q33) reorganizing the vanished pencil.

    Q33 eliminates the rows of the lower 32-block that are integral
    combinations of the others and moves them to the bottom rho
    coordinates, taking the largest rho for which both rank conditions
    of the sheared pencil hold.  With an empty core (v = 0) the reduced
    form needs no reorganization at all and rho = 0.  Raises
    RowModuleNotFree when the row module admits no basis, and
    ReductionError when every arrangement fails the rank conditions.
    """
    d, n, tower = S.d, S.n, S.tower
    r, v = md.r, md.v
    if S.p[i] < 1 or r < 1 or r >= d:
        raise InputError("pencil reorganization needs p >= 1 and 0 < r < d")
    if v == r:
        raise ReductionError("vanishing pencil with an invertible core")
    A0, A1 = md.A0, md.A1
    m = d - r
    if v == 0:
        md2 = MoserData(r, v, md.theta, md.theta_zero, md.theta_limited,
                        A0, A1)
        md2.rho = 0
        return GaugeTransformation.identity(d, n, tower), md2
    slots = [k for k in range(n) if k != i]
    a32 = A0.submatrix(range(r, d), range(v, r))
    # N clears each non-basis row j of a32 by c_{jk} times basis row k;
    # rows and columns of N are disjoint index sets, so N^2 = 0
    N = SeriesMatrix.zeros(m, m, n, tower)
    basis_rows = []
    rowrank = a32.rank_generic()
    if rowrank:
        try:
            sub, relations = _module_column_basis(
                a32.transpose(), rowrank, order, slots)
        except ColumnModuleNotFree as exc:
            raise RowModuleNotFree("row module not free") from exc
        basis_rows = list(sub)
        for j, cof in relations.items():
            for k_idx, k in enumerate(sub):
                if not cof[k_idx].is_zero():
                    N.rows[j][k] = cof[k_idx]
    clear = GaugeTransformation.unipotent(N)
    cleared = [t for t in range(m) if t not in basis_rows]
    head = GaugeTransformation.identity(r, n, tower)

    def candidate(bottom):
        order33 = [t for t in range(m) if t not in bottom] + list(bottom)
        return GaugeTransformation.block_diag([head, clear.compose(
            GaugeTransformation.permutation(order33, n, tower))])

    for rho in range(len(cleared), -1, -1):
        for chosen in itertools.combinations(cleared, rho):
            g = candidate(list(chosen))
            A0n = g.T_inv * A0 * g.T
            A1n = g.T_inv * A1 * g.T
            if not all(A0n.rows[t][j].is_zero()
                       for t in range(d - rho, d) for j in range(v, r)):
                continue
            top = _hstack([
                A0n.submatrix(range(r), range(v)) if v else None,
                A1n.submatrix(range(r), range(r, d - rho))
                if d - rho > r else None])
            rk_top = top.rank_generic() if top is not None else 0
            if rk_top >= r:
                continue
            if rho:
                bot = _hstack([
                    A0n.submatrix(range(d - rho, d), range(v)) if v else None,
                    A1n.submatrix(range(d - rho, d), range(r, d - rho))
                    if d - rho > r else None])
                if bot is not None and top is not None:
                    both = SeriesMatrix.block([[top], [bot]])
                    if both.rank_generic() != rk_top:
                        continue
                elif bot is not None and not bot.is_zero():
                    continue
            md2 = MoserData(r, v, md.theta, md.theta_zero, md.theta_limited,
                            A0n, A1n)
            md2.rho = rho
            return g, md2
    raise ReductionError("unable to reach the sheared pencil form; "
                         "rank conditions fail for every kernel choice")


def build_shearing(i: int, r: int, rho: int, d: int, nvars, tower):
    """Diag(x_i I_r, I_{d-r-rho}, x_i I_rho)."""
    e_i = tuple(1 if k == i else 0 for k in range(nvars))
    zero = (0,) * nvars
    exps = [e_i] * r + [zero] * (d - r - rho) + [e_i] * rho
    return GaugeTransformation.diagonal_monomial(exps, nvars, tower)


# ---------------------------------------------------------------------------
# rank reduction loops
# ---------------------------------------------------------------------------

def _apply_logged(S, g, steps, kind, i):
    out = apply_gauge(S, g)
    steps.append({"kind": kind, "component": i, "gauge": g,
                  "p_before": list(S.p), "p_after": list(out.p)})
    return out


def _product(steps, S):
    """The product of the transformations the steps applied, in order."""
    T = SeriesMatrix.identity(S.d, S.n, S.tower)
    for st in steps:
        if st["gauge"] is not None:
            T = T * st["gauge"].T
    return T


def rank_reduce(S: PfaffianSystem, order: int = 10,
                certify_order: int | None = None):
    """Lower every Poincare rank to its minimal integer value.

    Per component: column-reduce the leading coefficient; while the
    pencil determinant vanishes and p stays positive, reorganize with Q
    and shear, renormalizing as the valuation allows.  Returns
    (T, system, steps), T the product of the steps' transformations.
    certify_order is the window depth at which pencil vanishing is
    accepted on truncated data (default: order).
    """
    check_order(order)
    if certify_order is None:
        certify_order = order
    S, _ = normalize_poincare(S)
    steps = []
    for i in range(S.n):
        guard = (S.p[i] + 1) * S.d + S.d
        it = 0
        while S.p[i] > 0 and not S.trivial[i]:
            it += 1
            if it > guard:
                raise ReductionError(
                    f"rank reduction did not stabilize on component {i}")
            try:
                colred = column_reduce(S.coeff(i, 0), i, order)
            except (ColumnModuleNotFree, TruncationInsufficient) as exc:
                exc.args = (f"component {i}: {exc.args[0]}",)
                raise
            if not colred.gauge.is_identity():
                S = _apply_logged(S, colred.gauge, steps, "column_reduce", i)
            if colred.r == 0:
                S, _ = normalize_poincare(S)
                steps.append({"kind": "renormalize", "component": i,
                              "gauge": None, "p_before": None,
                              "p_after": list(S.p)})
                continue
            md = moser_data(S, i, colred, certify_order)
            if md.theta_limited:
                raise TruncationInsufficient(
                    f"component {i}: pencil vanishing is truncation-limited")
            if not md.theta_zero:
                break
            gq, md = build_Q(S, i, md, order)
            if not gq.is_identity():
                S = _apply_logged(S, gq, steps, "pencil_reorganize", i)
            p_before = S.p[i]
            shear = build_shearing(i, md.r, md.rho, S.d, S.n, S.tower)
            S = _apply_logged(S, shear, steps, "shear", i)
            if (S.p[i] >= p_before
                    and S.coeff(i, 0).rank_generic() >= colred.r):
                raise ReductionError(
                    f"shearing failed to make progress on component {i}")
    return _product(steps, S), S, steps


def rank_reduce_alt(S: PfaffianSystem, order: int = 10):
    """Levelt-style loop: always shear the full rank block.

    The sterile-iteration counter resets whenever p drops; d-1 sterile
    rounds in a row certify that the current p is minimal.  Returns
    what rank_reduce does.  Nothing in the pipeline calls it: it is kept
    as the independent test oracle for the final ranks that rank_reduce
    reaches.
    """
    check_order(order)
    S, _ = normalize_poincare(S)
    steps = []
    for i in range(S.n):
        j = 0
        while j < S.d - 1 and S.p[i] > 0 and not S.trivial[i]:
            colred = column_reduce(S.coeff(i, 0), i, order)
            if not colred.gauge.is_identity():
                S = _apply_logged(S, colred.gauge, steps, "column_reduce", i)
            if colred.r == 0:
                S, _ = normalize_poincare(S)
                steps.append({"kind": "renormalize", "component": i,
                              "gauge": None, "p_before": None,
                              "p_after": list(S.p)})
                continue
            p_before = S.p[i]
            shear = build_shearing(i, colred.r, 0, S.d, S.n, S.tower)
            S = _apply_logged(S, shear, steps, "shear", i)
            j = 0 if S.p[i] < p_before else j + 1
    return _product(steps, S), S, steps


# ---------------------------------------------------------------------------
# growth order of a one-variable system
# ---------------------------------------------------------------------------

def katz_order_univariate(ods: PfaffianSystem, order: int = 10) -> Fraction:
    """Exponential growth order of a one-variable system.

    The system is first brought to minimal Poincare rank.  Writing
    chi(lam) = det(lam I - x^{-p-1} A) = sum_j c_j(x) lam^j, the order
    is max(0, max_{j<d} (-val c_j)/(d-j) - 1), i.e. the steepest slope
    of the Newton polygon of chi measured against the regular-singular
    baseline.  Valuations are certified against the truncation window:
    a coefficient with no visible term may hide anywhere at or beyond
    the window, and if that could change the maximum we refuse.  At
    minimal rank p the order lies in (p - 1, p]; an order outside it
    means the rank reduction did not finish, a ReductionError.
    """
    if ods.n != 1:
        raise InputError("katz order expects a one-variable system")
    if ods.A[0].is_zero():
        if ods.A[0].exact:
            return Fraction(0)
        raise TruncationInsufficient(
            "component vanishes within the truncation window")
    _, R, _ = rank_reduce(ods, order=order)
    p = R.p[0]
    if p == 0:
        return Fraction(0)
    d = R.d
    lam = Series.variable(2, 1, R.tower)
    Ae = R.A[0].map(Series.append_slot)
    M = SeriesMatrix.zeros(d, d, 2, R.tower)
    for t in range(d):
        for j in range(d):
            M.rows[t][j] = -Ae.rows[t][j]
            if t == j:
                M.rows[t][j] = M.rows[t][j] + lam
    chi = M.determinant()
    wx = chi.hi[0]
    seen = {}
    for (kx, kl) in chi.terms:
        if kl < d and (kl not in seen or kx < seen[kl]):
            seen[kl] = kx
    best = Fraction(0)
    for j, v in seen.items():
        slope = p - Fraction(v, d - j)
        if slope > best:
            best = slope
    for j in range(d):
        # an all-zero coefficient column is only safe if even a term
        # sitting right at the window could not beat the current max
        if j not in seen and wx != INF and p - Fraction(wx, d - j) > best:
            raise TruncationInsufficient(
                f"lambda^{j} coefficient of the characteristic polynomial "
                f"vanishes to order {wx}; growth order not certified")
    if not p - 1 < best <= p:
        raise ReductionError(
            f"growth order {best} is not within (p - 1, p] for the "
            f"reduced rank p = {p}")
    return best


# ---------------------------------------------------------------------------
# splitting along an eigenvalue decomposition
# ---------------------------------------------------------------------------

def split(S: PfaffianSystem, i: int, order: int = 10):
    """Decouple component i by the eigenvalues of its constant term.

    The constant term must have at least two distinct eigenvalues; the
    first in canonical order drives the top block.  Off-diagonal
    couplings P (top right) and Q (bottom left) are removed grade by
    grade, jointly over all components, inside the box W of monomials
    that the input windows determine:

    - at grade g, every monomial beta in the box solves one stacked
      system for its coefficients of P (and one for Q), with the
      residual's beta coefficients on the right.  The operator is
      eliminated once per (orientation, shifts) and replayed, so the
      solution, including the free unknowns set to 0 in resonant but
      consistent cases, is that of a fresh elimination, and an
      inconsistent right-hand side raises ResonanceError;
    - the residuals of P and Q are clipped to W and carried across
      grades: adding the grade's increment D to X adds only
      b11 D - D b22 - D b21 X - (X + D) b21 D - x_k^{p_k+1} dD/dx_k;
    - the loop ends when the clipped residuals vanish or the grades of
      the box run out.

    The couplings are certified exact only when the full, unclipped
    equations evaluated on the final P and Q vanish on an infinite
    window; otherwise the coupling is clipped to W and inverted on W.
    Returns (T, top, bottom, whole): T is the eigenbasis change times
    the coupling [[I, P], [Q, I]], top and bottom are standalone
    systems on the diagonal blocks and whole is the full
    block-diagonalized system, possibly over an extended field.
    """
    check_order(order)
    n, d = S.n, S.d
    C = S.A[i].constant_term()
    roots, tower = roots_of_charpoly(C.charpoly())
    if len(roots) < 2:
        raise InputError("constant term has a single eigenvalue; "
                         "splitting needs at least two")
    if tower is not S.tower:
        S = S.lift_tower(tower)
        C = C.lift_tower(tower)
    V, sizes = generalized_eigenspaces(C, roots)
    d1 = sizes[0]
    gV = GaugeTransformation.from_constant(V, n)
    S = apply_gauge(S, gV)
    tower = S.tower

    rs1, rs2 = list(range(d1)), list(range(d1, d))
    a = []
    for k in range(n):
        Ak = S.A[k]
        a.append((Ak.submatrix(rs1, rs1), Ak.submatrix(rs1, rs2),
                  Ak.submatrix(rs2, rs1), Ak.submatrix(rs2, rs2)))
    a11_0 = [blk[0].constant_term() for blk in a]
    a22_0 = [blk[3].constant_term() for blk in a]

    def oriented(blocks, up):
        """(b11, b12, b21, b22) of the equation for P, mirrored for Q."""
        b11, b12, b21, b22 = blocks
        return (b11, b12, b21, b22) if up else (b22, b21, b12, b11)

    ei = [tuple(S.p[k] + 1 if kk == k else 0 for kk in range(n))
          for k in range(n)]

    def riccati(X, up, k):
        """b11 X + b12 - X b22 - X b21 X - x_k^{p_k+1} dX/dx_k."""
        b11, b12, b21, b22 = oriented(a[k], up)
        return (b11 * X + b12 - X * b22 - X * b21 * X
                - X.partial_derivative(k).mul_monomial(ei[k]))

    # solve only inside the box the input windows can serve: every
    # monomial read below stays strictly under W in each variable, so
    # the couplings are correct on the whole box and may be clipped to it
    W = [order + 1] * n
    for blocks in a:
        for M in blocks:
            wh = M.window_hi()
            for kk in range(n):
                if wh[kk] != INF and wh[kk] < W[kk]:
                    W[kk] = wh[kk]
    box = tuple(W)

    def in_box(M):
        # zero entries become exact zeros, which products skip; only
        # coefficients inside the box are ever read
        return M.map(lambda s: s.clipped(box) if s.terms
                     else Series.zero(n, tower))

    boxed = [tuple(in_box(M) for M in blocks) for blocks in a]

    # The unknowns of one grade solve, per monomial beta, one stacked
    # linear system: row block k is X -> C1 X - X C2 - shift_k X with
    # C1, C2 the constant diagonal blocks, shift_k = beta_k when p_k = 0
    # and 0 otherwise.  The operator depends only on the orientation and
    # those shifts, so each is eliminated once and replayed per monomial.
    eliminations: dict = {}

    def solve(up, beta, rhs):
        shifts = tuple(beta[k] if S.p[k] == 0 else 0 for k in range(n))
        el = eliminations.get((up, shifts))
        if el is None:
            C1, C2 = (a11_0, a22_0) if up else (a22_0, a11_0)
            el = eliminations[(up, shifts)] = Elimination(sylvester_stack(
                list(zip(C1, C2, shifts)), tower))
        sol = el.solve(rhs)
        if sol is None:
            raise ResonanceError("off-diagonal elimination is inconsistent; "
                                 "integrability invariant breached")
        return sol

    def grade_step(X, res, up, g):
        """Increment of X solving the residual's grade-g part (None if 0)."""
        nr, nc = X.nrows, X.ncols
        add: dict = {}
        for beta in _monomials_of_grade(list(range(n)), g, n):
            if any(beta[kk] >= W[kk] for kk in range(n)):
                continue
            rhs = [-res[k].rows[rr][cc].coefficient(beta)
                   for k in range(n) for rr in range(nr) for cc in range(nc)]
            if all(v.is_zero() for v in rhs):
                continue
            x = solve(up, beta, rhs)
            for rr in range(nr):
                for cc in range(nc):
                    val = x[rr * nc + cc]
                    if not val.is_zero():
                        add.setdefault((rr, cc), {})[beta] = val
        if not add:
            return None
        inc = SeriesMatrix.zeros(nr, nc, n, tower)
        for (rr, cc), terms in add.items():
            inc.rows[rr][cc] = Series(n, terms, tower)
        return inc

    def advance(X, res, up, D):
        """(X + D, its residuals inside the box) from X and its residuals:
        only the terms that involve D are computed."""
        XD = X + D
        out = []
        for k in range(n):
            b11, _, b21, b22 = oriented(boxed[k], up)
            DB = (D * b21).clipped(box)
            BD = (b21 * D).clipped(box)
            out.append((res[k] + b11 * D - D * b22 - DB * X - XD * BD
                        - D.partial_derivative(k).mul_monomial(ei[k])
                        ).clipped(box))
        return XD, out

    # residuals of P = Q = 0, carried across grades and updated by each
    # grade's increment; they only steer the solve, certification below
    # re-evaluates the full equations
    P = SeriesMatrix.zeros(d1, d - d1, n, tower)
    Q = SeriesMatrix.zeros(d - d1, d1, n, tower)
    resP = [oriented(boxed[k], True)[1] for k in range(n)]
    resQ = [oriented(boxed[k], False)[1] for k in range(n)]
    for g in range(1, sum(w - 1 for w in W) + 1):
        if all(m.is_zero() for m in resP + resQ):
            break
        incP = grade_step(P, resP, True, g)
        incQ = grade_step(Q, resQ, False, g)
        if incP is not None:
            P, resP = advance(P, resP, True, incP)
        if incQ is not None:
            Q, resQ = advance(Q, resQ, False, incQ)
    certified = all(
        m.is_zero() and m.exact
        for k in range(n)
        for m in (riccati(P, True, k), riccati(Q, False, k)))
    if not certified:
        P = P.clipped(box)
        Q = Q.clipped(box)
    T = SeriesMatrix.block([
        [SeriesMatrix.identity(d1, n, tower), P],
        [Q, SeriesMatrix.identity(d - d1, n, tower)]])
    whole = apply_gauge(S, GaugeTransformation(
        T, T.inverse(None if certified else box)))
    for k in range(n):
        if not (whole.A[k].submatrix(rs1, rs2).is_zero()
                and whole.A[k].submatrix(rs2, rs1).is_zero()):
            raise ResonanceError("off-diagonal residue after splitting")
    top = PfaffianSystem(S.vars, whole.p,
                         [whole.A[k].submatrix(rs1, rs1) for k in range(n)],
                         tower)
    bottom = PfaffianSystem(S.vars, whole.p,
                            [whole.A[k].submatrix(rs2, rs2) for k in range(n)],
                            tower)
    return gV.T * T, top, bottom, whole


# ---------------------------------------------------------------------------
# eigenvalue shifting and ramification
# ---------------------------------------------------------------------------

def eigen_shift(S: PfaffianSystem, i: int, gamma: Scalar):
    """Strip the scalar exponential growth gamma/x_i^{p_i}.

    A_i loses gamma I; the exponential part of component i gains the
    term -(gamma/p_i) x_i^{-p_i}, returned as (power, coefficient).
    """
    if gamma.is_zero():
        raise InputError("eigenvalue shift with gamma = 0")
    p = S.p[i]
    if p == 0:
        raise InputError("eigenvalue shift on a regular component")
    gI = SeriesMatrix.identity(S.d, S.n, S.tower) * gamma
    A = list(S.A)
    A[i] = A[i] - gI
    out = PfaffianSystem(S.vars, S.p, A, S.tower, S.trivial)
    out, _ = normalize_poincare(out)
    return (p, -gamma * Fraction(1, p)), out


def ramify_system(S: PfaffianSystem, i: int, m: int) -> PfaffianSystem:
    """Substitute x_i = t^m; component i picks up the chain-rule factor m."""
    if m < 1:
        raise InputError("ramification index must be >= 1")
    if m == 1:
        return S
    A = [M.ramify(i, m) for M in S.A]
    A[i] = A[i] * m
    p = list(S.p)
    p[i] = m * p[i]
    return PfaffianSystem(S.vars, p, A, S.tower, S.trivial)
