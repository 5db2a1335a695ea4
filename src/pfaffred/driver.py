"""Complete reduction driver.

Orchestrates block splitting, eigenvalue shifts, rank reduction and
ramification until every branch bottoms out in a scalar equation or a
regular (rank-zero) system, then assembles the pieces into a truncated
fundamental solution

    F = Phi . prod_i x_i^{C_i} . prod_i exp(Q_i)

with Phi a matrix over the ramified variables t_i = x_i^{1/s_i}, C_i
constant, and Q_i diagonal with polynomial entries in 1/t_i.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import (
    FieldExtensionError,
    InputError,
    NonIntegrableError,
    ReductionError,
    TruncationInsufficient,
)
from .linalg import (
    ConstMatrix,
    SeriesMatrix,
    generalized_eigenspaces,
    sylvester_stack,
)
from .scalars import common_tower, roots_of_charpoly
from .series import INF, Series, series_exp
from .system import (
    PfaffianSystem,
    check_integrability,
    digest,
    normalize_poincare,
)
from .reduction import (
    MAX_ORDER,
    check_order,
    eigen_shift,
    katz_order_univariate,
    ramify_system,
    rank_reduce,
    split,
)


class FormalSolution:
    """Truncated formal fundamental matrix in factored form.

    phi   -- SeriesMatrix in the ramified coordinates t_i = x_i^{1/s_i}
    C     -- per variable, a constant matrix (exponent of x_i), or None
             when the regular endgame reported a resonance
    Q     -- per variable, one dict per diagonal slot mapping a negative
             rational x_i-exponent to its coefficient
    s     -- per variable ramification index
    """

    __slots__ = ("phi", "C", "Q", "s", "structure", "diagnostics",
                 "verified_to")

    def __init__(self, phi, C, Q, s, structure, diagnostics):
        self.phi = phi
        self.C = C
        self.Q = Q
        self.s = list(s)
        self.structure = structure
        self.diagnostics = list(diagnostics)
        self.verified_to = None

    @property
    def d(self):
        return self.phi.nrows

    @property
    def n(self):
        return len(self.s)

    def omega(self):
        """Per variable: the growth order max(-e) over all q exponents."""
        out = []
        for qs in self.Q:
            w = Fraction(0)
            for q in qs:
                for e in q:
                    if -e > w:
                        w = -e
            out.append(w)
        return out

    def check_block_compatibility(self):
        """Every C_i must vanish across slots whose q's differ anywhere.

        This is what makes the factored product well defined: x^{C} and
        the exp factors commute exactly when C is block diagonal with
        respect to the common refinement of the Q block structures.
        """
        if self.C is None or any(c is None for c in self.C):
            return
        d = self.d
        for c in self.C:
            for r in range(d):
                for k in range(d):
                    if r == k or c.rows[r][k].is_zero():
                        continue
                    for qs in self.Q:
                        if _qkey(qs[r]) != _qkey(qs[k]):
                            raise ReductionError(
                                "exponent matrix couples slots with "
                                "distinct exponential parts")

    def fingerprint(self) -> str:
        parts = [_matrix_fp(self.phi)]
        if self.C is None:
            parts.append("C:none")
        else:
            parts += ["C:none" if c is None else
                      repr([[str(x) for x in r] for r in c.rows])
                      for c in self.C]
        parts += [repr([_qkey(q) for q in qs]) for qs in self.Q]
        parts.append(repr(self.s))
        return digest(parts)

    def __repr__(self):
        return (f"FormalSolution(d={self.d}, s={self.s}, "
                f"structure={self.structure!r})")


class ReductionTrace:
    """Flat record of what the driver did, in order."""

    __slots__ = ("order", "retries", "retry_log", "steps")

    def __init__(self, order, retries=0, retry_log=None):
        self.order = order
        self.retries = retries
        self.retry_log = list(retry_log or [])
        self.steps = []

    def add(self, path, kind, **kw):
        step = {"path": path, "kind": kind}
        step.update(kw)
        self.steps.append(step)

    def fingerprint(self) -> str:
        return digest([repr((self.order, self.retries, self.retry_log)),
                       repr(self.steps)])

    def as_dict(self):
        return {"order": self.order, "retries": self.retries,
                "retry_log": list(self.retry_log),
                "steps": [dict(s) for s in self.steps]}


# -- small helpers ----------------------------------------------------------


def _qkey(q):
    return tuple(sorted((e, str(c)) for e, c in q.items()))


def _qadd(q, key, coeff):
    cur = q.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        q.pop(key, None)
    else:
        q[key] = cur


def _lift_q(qs, tower):
    return [{e: tower.scalar(c) for e, c in q.items()} for q in qs]


def _series_fp(s):
    items = sorted((e, str(c)) for e, c in s.terms.items() if not c.is_zero())
    return repr((items, s.lo, s.hi))


def _matrix_fp(M):
    return repr([[_series_fp(s) for s in r] for r in M.rows])


def _block_diag_const(A: ConstMatrix, B: ConstMatrix, tower) -> ConstMatrix:
    d1, d2 = A.nrows, B.nrows
    out = ConstMatrix.zeros(d1 + d2, d1 + d2, tower)
    for r in range(d1):
        for c in range(d1):
            out.rows[r][c] = tower.scalar(A.rows[r][c])
    for r in range(d2):
        for c in range(d2):
            out.rows[d1 + r][d1 + c] = tower.scalar(B.rows[r][c])
    return out


# -- scalar (d = 1) leaf ----------------------------------------------------


def _scalar_leaf(S: PfaffianSystem, ram, order):
    """Integrate a rank-one system in closed form.

    Returns (phi 1x1, residues, q dicts); residues and exponents are in
    the current (possibly ramified) coordinates, the caller rescales.
    Integrability pins every coefficient a_{i,k} with k <= p_i to a
    constant, which is what makes the split into q + residue + analytic
    tail well defined.
    """
    n, tower = S.n, S.tower
    qs = [dict() for _ in range(n)]
    residues = []
    tails = []
    for i in range(n):
        a = S.A[i].rows[0][0]
        p = S.p[i]
        poly = Series.zero(n, tower)
        for k in range(p + 1):
            ck = a.coeff_in_xi(i, k)    # raises TruncationInsufficient if unseen
            c = ck.constant_term()
            if not (ck - c).is_zero():
                raise ReductionError(
                    "low-order scalar coefficients must be constant under "
                    "integrability")
            if k < p and not c.is_zero():
                _qadd(qs[i], Fraction(k - p, ram[i]), c * Fraction(1, k - p))
            if k == p:
                residues.append(c)
            if not c.is_zero():
                e = tuple(k if j == i else 0 for j in range(n))
                poly = poly + Series.monomial(n, e, c, tower)
        shift = tuple(-(p + 1) if j == i else 0 for j in range(n))
        tails.append((a - poly).mul_monomial(shift))

    # d log(phi) = sum tails_i dx_i; each monomial of the primitive is
    # pinned by the first variable that actually appears in it.
    gterms = {}
    for i, r in enumerate(tails):
        for e, c in r.terms.items():
            if all(e[j] == 0 for j in range(i)):
                beta = e[:i] + (e[i] + 1,) + e[i + 1:]
                gterms[beta] = c * Fraction(1, beta[i])
    hi = []
    for j in range(n):
        h = INF
        for i, r in enumerate(tails):
            hj = r.hi[j]
            if i == j and hj != INF:
                hj = hj + 1
            if hj < h:
                h = hj
        hi.append(h)
    g = Series(n, gterms, tower, None, tuple(hi))
    for i in range(n):
        if not g.partial_derivative(i).agrees(tails[i]):
            raise ReductionError(
                f"scalar tail is not a gradient in component {i}")
    box = tuple(min(order + 1, h) if h != INF else order + 1 for h in g.hi)
    phi = SeriesMatrix([[series_exp(g, box)]], n, tower)
    return phi, residues, qs


# -- regular endgame --------------------------------------------------------


def regular_endgame(S: PfaffianSystem, order=10):
    """Reduce a rank-zero system to constant coefficients.

    Solves x_i dT/dx_i = A_i T - T C_i grade by grade with T(0) = I and
    C_i = A_i(0), all components stacked so a grade left free by one
    direction can still be pinned by another (free unknowns are 0).

    The grade loop walks the support of T, not the whole window box:
    each solved nonzero T_beta is scattered, as A_{i,gamma} T_beta over
    the nonzero entries of each nonconstant grade of A_i, into a pending
    right-hand side at beta + gamma when that grade lies in the box.
    Pending grades pop from a heap in (|beta|, beta) order; every
    contribution comes from a strictly lower total degree, so a popped
    grade is complete.  The cost is the nonzero grades of T times the
    nonzero entries of A, plus one stacked solve per grade with a
    nonzero right-hand side; grades nothing reaches are never visited.

    Resonance is decided at the popped grades: an inconsistent stacked
    system returns (None, None, diagnostic) rather than raising, since
    the input itself is fine.  Certification follows the loop: on exact
    input, T taken as a polynomial is checked against the full
    equations, and only then keeps an infinite window.  Finally the
    commuting family C_i is split into joint generalized eigenblocks by
    a further constant conjugation W, and (T W, residues, None) comes
    back; no inverse of T is formed, since nothing applies it.
    """
    if any(p != 0 for p in S.p):
        raise InputError("regular endgame needs Poincare rank 0 throughout")
    n, d, tower = S.n, S.d, S.tower
    C = [S.A[i].constant_term() for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not (C[i] * C[j] - C[j] * C[i]).is_zero():
                raise NonIntegrableError(
                    "residue matrices of a regular system must commute")

    window = S.window_hi()
    hi = tuple(min(order + 1, w) if w != INF else order + 1 for w in window)

    # sparse support of the nonconstant part of each A_i: per grade
    # gamma inside the box, its nonzero entries (r, c, coeff)
    Aterms = []
    for i in range(n):
        bya = {}
        for r in range(d):
            for c in range(d):
                for e, co in S.A[i].rows[r][c].terms.items():
                    if all(x == 0 for x in e) or co.is_zero():
                        continue
                    if any(x >= h for x, h in zip(e, hi)):
                        continue
                    bya.setdefault(e, []).append((r, c, co))
        Aterms.append(list(bya.items()))

    # pending right-hand sides, one d x d grid per direction, keyed by
    # the grades that some solved T_beta has reached so far
    pending = {}
    heap = []

    def scatter(beta, M):
        cols = [[(c, v) for c, v in enumerate(row) if not v.is_zero()]
                for row in M.rows]
        for i in range(n):
            for gamma, nz in Aterms[i]:
                target = tuple(b + g for b, g in zip(beta, gamma))
                if any(x >= h for x, h in zip(target, hi)):
                    continue
                rhs = pending.get(target)
                if rhs is None:
                    z = tower.zero()
                    rhs = pending[target] = [[[z] * d for _ in range(d)]
                                             for _ in range(n)]
                    heapq.heappush(heap, (sum(target), target))
                R = rhs[i]
                for r, k, a in nz:
                    for c, v in cols[k]:
                        R[r][c] = R[r][c] + a * v

    zero_grade = (0,) * n
    terms = {zero_grade: ConstMatrix.identity(d, tower)}
    scatter(zero_grade, terms[zero_grade])
    while heap:
        _, beta = heapq.heappop(heap)
        rhs = pending.pop(beta)
        if all(x.is_zero() for R in rhs for row in R for x in row):
            continue            # zero is the canonical kernel choice
        # x_i dT/dx_i = A_i T - T C_i at grade beta: C_i T_beta - T_beta C_i
        # - beta_i T_beta = -(what lower grades contribute)
        op = sylvester_stack([(C[i], C[i], beta[i]) for i in range(n)], tower)
        sol = op.solve_vec([-x for R in rhs for row in R for x in row])
        if sol is None:
            return None, None, (f"resonant: no polynomial correction at "
                                f"grade {tuple(beta)}")
        M = ConstMatrix([[sol[r * d + c] for c in range(d)] for r in range(d)],
                        tower)
        if not M.is_zero():
            terms[beta] = M
            scatter(beta, M)

    entries = [[dict() for _ in range(d)] for _ in range(d)]
    for beta, M in terms.items():
        for r in range(d):
            for c in range(d):
                if not M.rows[r][c].is_zero():
                    entries[r][c][beta] = M.rows[r][c]

    # certify: if T taken as an exact polynomial closes the equation,
    # its window is infinite, otherwise it is honest truncated data
    T = SeriesMatrix([[Series(n, entries[r][c], tower)
                       for c in range(d)] for r in range(d)], n, tower)
    exact = all(S.A[i].exact for i in range(n))
    if exact:
        for i in range(n):
            e = tuple(1 if k == i else 0 for k in range(n))
            R = (T.partial_derivative(i).mul_monomial(e)
                 - S.A[i] * T + T * C[i].to_series(n))
            if not (R.is_zero() and R.exact):
                exact = False
                break
    if not exact:
        T = T.clipped(hi)

    W, tw2 = _joint_block_diagonalize(C, tower)
    if tw2.degree > tower.degree:
        C = [M.lift_tower(tw2) for M in C]
    if not W == ConstMatrix.identity(d, tw2):
        Winv = W.inverse()
        C = [Winv * M * W for M in C]
        if tw2.degree > tower.degree:
            T = T.lift_tower(tw2)
        T = T * W.to_series(n)
    return T, C, None


def _joint_block_diagonalize(Cs, tower):
    """Constant W with W^-1 C_i W block diagonal, one joint eigenvalue
    tuple per block.  Recurses over the commuting family."""
    if not Cs:
        return ConstMatrix.identity(0, tower), tower
    d = Cs[0].nrows
    for C in Cs:
        roots, tw2 = roots_of_charpoly(C.charpoly())
        if len(roots) < 2:
            continue
        if tw2.degree > tower.degree:
            Cs = [M.lift_tower(tw2) for M in Cs]
            C = C.lift_tower(tw2)
            tower = tw2
        V, sizes = generalized_eigenspaces(C, roots)
        Vinv = V.inverse()
        conj = [Vinv * M * V for M in Cs]
        # commuting family: each conjugate must respect the block split
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        for M in conj:
            for r in range(d):
                for c in range(d):
                    rb = max(k for k in range(len(sizes)) if offsets[k] <= r)
                    cb = max(k for k in range(len(sizes)) if offsets[k] <= c)
                    if rb != cb and not M.rows[r][c].is_zero():
                        raise ReductionError(
                            "commuting family failed to respect its own "
                            "eigenblock split")
        W = ConstMatrix.zeros(d, d, tower)
        for k, s in enumerate(sizes):
            lo = offsets[k]
            subs = [ConstMatrix([[tower.scalar(M.rows[lo + r][lo + c])
                                  for c in range(s)] for r in range(s)], tower)
                    for M in conj]
            Wk, tower = _joint_block_diagonalize(subs, tower)
            if tower.degree > W.tower.degree:
                W = W.lift_tower(tower)
                V = V.lift_tower(tower)
            for r in range(s):
                for c in range(s):
                    W.rows[lo + r][lo + c] = Wk.rows[r][c]
        return V.lift_tower(tower) * W, tower
    return ConstMatrix.identity(d, tower), tower


# -- the reduction loop -----------------------------------------------------


def _collapse(factors, ram, n, d, tower):
    out = SeriesMatrix.identity(d, n, tower)
    for M, r in factors:
        for i in range(n):
            if ram[i] % r[i] != 0:
                raise ReductionError("ramification bookkeeping out of step")
            k = ram[i] // r[i]
            if k > 1:
                M = M.ramify(i, k)
        if M.tower.degree < tower.degree:
            M = M.lift_tower(tower)
        out = out * M
    return out


def _reduce(S, ram, order, trace, path, certify=None):
    n, d = S.n, S.d
    ram = list(ram)
    factors = []
    qacc = [dict() for _ in range(n)]
    diags = []
    just_reduced = False
    guard = 0
    ram_cap = math.lcm(*range(1, d + 1)) * max(ram)

    while True:
        guard += 1
        if guard > 64 * (d + sum(S.p) + 2):
            raise ReductionError("reduction loop failed to make progress")
        tower = S.tower

        if d == 1:
            phi, residues, qs = _scalar_leaf(S, ram, order)
            for i in range(n):
                for e, c in qacc[i].items():
                    _qadd(qs[i], e, tower.scalar(c))
            C = [ConstMatrix([[residues[i] * Fraction(1, ram[i])]], tower)
                 for i in range(n)]
            factors.append((phi, tuple(ram)))
            trace.add(path, "scalar", p=list(S.p))
            return (_collapse(factors, ram, n, d, tower), ram,
                    [[qs[i]] for i in range(n)], C, ("scalar",), diags)

        if all(p == 0 for p in S.p):
            T, Cs, diag = regular_endgame(S, order=order)
            Q = [[dict(qacc[i]) for _ in range(d)] for i in range(n)]
            if T is None:
                diags.append(diag)
                trace.add(path, "endgame", resonant=True)
                return (_collapse(factors, ram, n, d, tower), ram, Q,
                        [None] * n, ("regular-resonant", d), diags)
            tower = T.tower
            factors.append((T, tuple(ram)))
            C = [Cs[i] * Fraction(1, ram[i]) for i in range(n)]
            Q = [_lift_q(Q[i], tower) for i in range(n)]
            trace.add(path, "endgame", d=d)
            return (_collapse(factors, ram, n, d, tower), ram, Q, C,
                    ("regular", d), diags)

        # dispatch on the leading constant of each irregular component
        eig = {}
        last_fee = None
        for i in range(n):
            if S.p[i] > 0 and not S.trivial[i]:
                try:
                    eig[i] = roots_of_charpoly(
                        S.A[i].constant_term().charpoly())[0]
                except FieldExtensionError as exc:
                    eig[i] = None
                    last_fee = exc

        split_i = next((i for i in sorted(eig)
                        if eig[i] is not None and len(eig[i]) >= 2), None)
        if split_i is not None:
            T, top, bottom, _ = split(S, split_i, order=order)
            factors.append((T, tuple(ram)))
            d1 = top.d
            trace.add(path, "split", component=split_i,
                      sizes=[top.d, bottom.d], p=list(S.p))
            top_n, _ = normalize_poincare(top)
            bot_n, _ = normalize_poincare(bottom)
            phiT, ramT, QT, CT, stT, dgT = _reduce(
                top_n, ram, order, trace, path + f"{split_i}a/", certify)
            phiB, ramB, QB, CB, stB, dgB = _reduce(
                bot_n, ram, order, trace, path + f"{split_i}b/", certify)
            s = [math.lcm(a, b) for a, b in zip(ramT, ramB)]
            tw = common_tower(phiT.tower, phiB.tower)
            for i in range(n):
                if s[i] > ramT[i]:
                    phiT = phiT.ramify(i, s[i] // ramT[i])
                if s[i] > ramB[i]:
                    phiB = phiB.ramify(i, s[i] // ramB[i])
            big = SeriesMatrix.block_diag([phiT.lift_tower(tw),
                                           phiB.lift_tower(tw)])
            factors.append((big, tuple(s)))
            C = []
            for i in range(n):
                if CT[i] is None or CB[i] is None:
                    C.append(None)
                else:
                    C.append(_block_diag_const(CT[i].lift_tower(tw),
                                               CB[i].lift_tower(tw), tw))
            Q = []
            for i in range(n):
                blocks = _lift_q(QT[i], tw) + _lift_q(QB[i], tw)
                for q in blocks:
                    for e, c in qacc[i].items():
                        _qadd(q, e, tw.scalar(c))
                Q.append(blocks)
            struct = ("split", split_i, d1, stT, stB)
            return (_collapse(factors, s, n, d, tw), s, Q, C, struct,
                    diags + dgT + dgB)

        shift_i = next((i for i in sorted(eig)
                        if eig[i] is not None and not eig[i][0][0].is_zero()),
                       None)
        if shift_i is not None:
            gamma = eig[shift_i][0][0]
            (pw, coeff), S = eigen_shift(S, shift_i, gamma)
            _qadd(qacc[shift_i], Fraction(-pw, ram[shift_i]), coeff)
            trace.add(path, "shift", component=shift_i,
                      exponent=str(Fraction(-pw, ram[shift_i])),
                      p=list(S.p))
            just_reduced = False
            continue

        if not just_reduced:
            p_before = list(S.p)
            T, S, steps = rank_reduce(S, order=order, certify_order=certify)
            if T != SeriesMatrix.identity(d, n, S.tower):
                factors.append((T, tuple(ram)))
            trace.add(path, "rank_reduce", p_before=p_before,
                      p_after=list(S.p), gauges=len(steps))
            just_reduced = True
            continue

        # nilpotent at true rank: the growth order is fractional and a
        # ramification makes it visible to the leading constant
        cand = [i for i in range(n) if S.p[i] > 0 and not S.trivial[i]]
        if not cand:
            continue
        i = cand[0]
        if ram[i] > ram_cap:
            if last_fee is not None:
                raise last_fee
            raise ReductionError(
                "ramification exceeded the dimension bound")
        p_ass, M_ass = S.associated_ods(i)
        ods = PfaffianSystem([S.vars[i]], [p_ass], [M_ass], S.tower)
        w = katz_order_univariate(ods, order=order)
        m = w.denominator
        if m == 1:
            if last_fee is not None:
                raise last_fee
            raise ReductionError(
                "nilpotent leading constant with integer growth order")
        S = ramify_system(S, i, m)
        ram[i] *= m
        trace.add(path, "ramify", component=i, factor=m, p=list(S.p))
        just_reduced = False


# -- verification and the public driver -------------------------------------


def verify_solution(S: PfaffianSystem, sol: FormalSolution):
    """Residual check of the factored solution against the system.

    In the coordinates t_i = x_i^{1/s_i} the factored form solves the
    ramified system iff for every i

        t^{p~+1} dPhi/dt_i + Phi (dq~ + s_i t^{p~} C_i) - A~_i Phi = 0

    where p~ = s_i p_i and A~_i = s_i A_i(t^s).  Returns a dict with
    "ok", "verified_to" (a total degree, INF when exact), and the
    per-component detail.
    """
    if sol.C is None or any(c is None for c in sol.C):
        raise InputError("solution has no exponent matrices to verify")
    tower = sol.phi.tower
    St = S
    if St.tower.degree < tower.degree:
        St = St.lift_tower(tower)
    for i, m in enumerate(sol.s):
        St = ramify_system(St, i, m)
    n, d = St.n, St.d
    ok = True
    verified = INF
    per = []
    for i in range(n):
        p = St.p[i]
        e_deriv = tuple(p + 1 if k == i else 0 for k in range(n))
        qterms = [[Series.zero(n, tower) for _ in range(d)] for _ in range(d)]
        for j in range(d):
            acc = {}
            for xe, c in sol.Q[i][j].items():
                te = xe * sol.s[i]
                if te.denominator != 1:
                    raise ReductionError(
                        f"q exponent {xe} is off the x^(1/{sol.s[i]}) grid")
                te = int(te)
                exp = tuple(te + p if k == i else 0 for k in range(n))
                if exp[i] < 0:
                    raise ReductionError(
                        f"q exponent {xe} is below the pole order {p}")
                cur = acc.get(exp)
                val = tower.scalar(c) * te
                acc[exp] = val if cur is None else cur + val
            qterms[j][j] = Series(n, acc, tower)
        D = SeriesMatrix(qterms, n, tower)
        Cser = sol.C[i].lift_tower(tower).to_series(n) \
            .mul_monomial(tuple(p if k == i else 0 for k in range(n))) \
            * sol.s[i]
        R = (sol.phi.partial_derivative(i).mul_monomial(e_deriv)
             + sol.phi * (D + Cser) - St.A[i] * sol.phi)
        if R.is_zero():
            w = min(h for r in R.rows for s_ in r for h in s_.hi)
            k = w if w == INF else w - 1
            per.append({"component": i, "ok": True, "verified_to": k})
            if k < verified:
                verified = k
        else:
            bad = min(sum(e) for r in R.rows for s_ in r
                      for e, c in s_.terms.items() if not c.is_zero())
            ok = False
            per.append({"component": i, "ok": False,
                        "verified_to": bad - 1})
            if bad - 1 < verified:
                verified = bad - 1
    return {"ok": ok, "verified_to": verified, "per_component": per}


def fmfs(S: PfaffianSystem, order=10, max_retries=4):
    """Formal fundamental matrix of solutions, with retry on truncation.

    Returns (FormalSolution, ReductionTrace).  The solution must verify
    to total degree order - 2.  After a TruncationInsufficient the
    reduction restarts at a larger working order N, up to max_retries
    times:

    - when the residual check verified to a known degree v < order - 2,
      the loss N - v is taken as constant and the next N is
      N + (order - 2 - v), the shortfall;
    - when the failure reports no verified degree, N doubles;
    - a failure marked final (a demand that grows at least as fast as
      the window) is raised at once, and so is the last failure when
      the next N would pass MAX_ORDER, or when the attempt verified no
      further than the one before it (the input's window limits it).

    Each retry logs the order it ran at, the degree it verified (None
    when unknown), the next order and the reason, in the trace.
    """
    check_order(order, max_retries)
    rep = check_integrability(S)
    if not rep:
        raise NonIntegrableError(
            f"system is not completely integrable; first failure at "
            f"components {rep.worst[0]},{rep.worst[1]}")
    retry_log = []
    N = order
    attempt = 0
    previous = None
    while True:
        trace = ReductionTrace(order=N, retries=attempt, retry_log=retry_log)
        try:
            Sn, notes = normalize_poincare(S)
            for i, msg in notes:
                trace.add("", "normalize", component=i, note=msg)
            phi, ram, Q, C, struct, diags = _reduce(
                Sn, [1] * S.n, N, trace, "", order)
            sol = FormalSolution(phi, C, Q, ram, struct, diags)
            sol.check_block_compatibility()
            if all(c is not None for c in sol.C):
                report = verify_solution(S, sol)
                if not report["ok"]:
                    raise ReductionError(
                        "residual is nonzero inside its validity window")
                sol.verified_to = report["verified_to"]
                if report["verified_to"] < order - 2:
                    raise TruncationInsufficient(
                        f"solution verified only to total degree "
                        f"{report['verified_to']}",
                        verified_to=report["verified_to"])
            return sol, trace
        except TruncationInsufficient as exc:
            v = exc.verified_to
            stalled = v is not None and previous is not None and v <= previous
            if exc.final or stalled or attempt >= max_retries:
                raise
            nxt = 2 * N if v is None else N + (order - 2 - v)
            if nxt > MAX_ORDER:
                raise
            previous = v
            retry_log.append({"order": N, "verified_to": v,
                              "next_order": nxt, "reason": str(exc)})
            N = nxt
            attempt += 1
