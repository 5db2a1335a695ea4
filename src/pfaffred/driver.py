"""Complete reduction driver.

Orchestrates block splitting, eigenvalue shifts, rank reduction and
ramification until every branch is a regular (rank-zero) system, then
assembles the pieces into a truncated fundamental solution

    F = Phi . prod_i x_i^{C_i} . prod_i exp(Q_i)

with Phi a matrix over the ramified variables t_i = x_i^{1/s_i}, C_i
constant, and Q_i diagonal with polynomial entries in 1/t_i.

The reduction has two phases with one loop.  Phase one, the irregular
reduction, ends at rank-zero leaves: by then every eigenvalue shift has
been read and every ramification made, so s and Q are fixed.  Phase two,
the regular endgame, builds each leaf's Phi and C, and the split merges
assemble them.  fmfs runs both; exponential_data stops at the leaves,
with no Phi, no endgame and no residual check, since nothing after rank
zero changes s or Q.  Truncation stays honest there without the check:
every constant term the loop reads raises beyond its window, and a leaf
whose window holds no term in some variable raises too, since not even
its constant term is known: a component that vanished within a window
hi <= p, say, may still have poles past it, and normalize_poincare
clips it to an empty window.

Each branch keeps one running Phi, starting at the identity: every
gauge is multiplied in when it is made (a rank reduction, a split, the
endgame's conjugation), and a ramification ramifies Phi together with
the system.  Ramification scales exponents and windows alike, so
ramifying a product ramifies each factor.  A 1x1 block takes the same
path as any other: its eigenvalue shifts strip the polar part of each
component, and the endgame integrates the rest.  At a split the two
branch solutions are ramified to their common s_i, as is the Phi built
so far, which then takes their block sum.  Every value lives in the join
of its operands' fields, so nothing is lifted into Q(alpha) by hand; the
bottom block of a split is reduced in the field the top branch reached
(its Phi's, or in phase one its leaves'), so an eigenvalue the top
adjoined is found there, not adjoined again.

The loop dispatches on the eigenvalues of each irregular component's
leading constant A_i(0), and a split takes them from it.  It keeps them
from pass to pass and finds them again only for what a step changed:
the component an eigenvalue shift or a ramification acted on
(x_i = t^m leaves every other A_j(0) as it was), or every component
after a rank reduction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    FieldExtensionError,
    InputError,
    NonIntegrableError,
    ReductionError,
    TruncationInsufficient,
)
from .linalg import (ConstMatrix, SeriesMatrix, generalized_eigenspaces,
                     sum_of_products)
from .scalars import common_tower, roots_of_charpoly
from .series import INF, Series
from .system import (
    PfaffianSystem,
    digest,
    normalize_poincare,
    require_integrable,
)
from .reduction import (
    MAX_ORDER,
    certify,
    check_order,
    eigen_shift,
    katz_order_univariate,
    ramify_system,
    rank_reduce,
    solve_graded,
    split,
)


class FormalSolution:
    """Truncated formal fundamental matrix in factored form.

    phi   -- SeriesMatrix in the ramified coordinates t_i = x_i^{1/s_i}
    C     -- per variable, a constant matrix (exponent of x_i)
    Q     -- per variable, one dict per diagonal slot mapping a negative
             rational x_i-exponent to its coefficient
    s     -- per variable ramification index
    verified_to -- what verify_solution reports for it (fmfs sets it):
             the largest total degree through which Phi is known and
             the residual is known to vanish, INF when both are exact
    """

    __slots__ = ("phi", "C", "Q", "s", "structure", "verified_to")

    def __init__(self, phi, C, Q, s, structure):
        self.phi = phi
        self.C = C
        self.Q = Q
        self.s = list(s)
        self.structure = structure
        self.verified_to = None

    @property
    def d(self):
        return self.phi.nrows

    @property
    def n(self):
        return len(self.s)

    def omega(self):
        """Per variable: the growth order of its q's."""
        return [growth_order(qs) for qs in self.Q]

    def check_block_compatibility(self):
        """Every C_i must vanish across slots whose q's differ anywhere.

        This is what makes the factored product well defined: x^{C} and
        the exp factors commute exactly when C is block diagonal with
        respect to the common refinement of the Q block structures.
        """
        for c in self.C:
            for r, row in enumerate(c.rows):
                for k, a in enumerate(row):
                    if r != k and not a.is_zero() and any(
                            _qkey(qs[r]) != _qkey(qs[k]) for qs in self.Q):
                        raise ReductionError("exponent matrix couples slots "
                                             "with distinct exponential parts")

    def fingerprint(self) -> str:
        parts = [_matrix_fp(self.phi)]
        parts += [repr([[str(x) for x in r] for r in c.rows]) for c in self.C]
        parts += [repr([_qkey(q) for q in qs]) for qs in self.Q]
        parts.append(repr(self.s))
        return digest(parts)

    def __repr__(self):
        return (f"FormalSolution(d={self.d}, s={self.s}, "
                f"structure={self.structure!r})")


class ReductionTrace:
    """Flat record of what the driver did, in order."""

    __slots__ = ("order", "retry_log", "steps")

    def __init__(self, order, retry_log=()):
        self.order = order
        self.retry_log = list(retry_log)
        self.steps = []

    @property
    def retries(self):
        """The restarts made before this attempt, one per retry_log entry."""
        return len(self.retry_log)

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


def growth_order(qs):
    """Growth order of one variable's q's: the largest -e over their
    exponents e, or 0 when every q is zero."""
    return max((-e for q in qs for e in q), default=Fraction(0))


def _qkey(q):
    return tuple(sorted((e, str(c)) for e, c in q.items()))


def _qadd(q, key, coeff):
    cur = q.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur.is_zero():
        q.pop(key, None)
    else:
        q[key] = cur


def _field_name(tower):
    if tower.minpoly is None:
        return "Q"
    return "Q(a), minpoly " + str([str(c) for c in tower.minpoly.coeffs])


def _series_fp(s):
    items = sorted((e, str(c)) for e, c in s.terms.items())
    return repr((items, s.lo, s.hi))


def _matrix_fp(M):
    return repr([[_series_fp(s) for s in r] for r in M.rows])


# -- regular endgame --------------------------------------------------------


def regular_endgame(S: PfaffianSystem, order=10):
    """Reduce a rank-zero system to constant coefficients.

    Conjugate first, then solve.  The commuting residues C_i = A_i(0)
    are split into joint generalized eigenblocks by a constant W
    (_joint_block_diagonalize), and the system is conjugated into that
    basis, A'_i = W^-1 A_i W with residues C'_i = W^-1 C_i W, by
    products with the ConstMatrix W and its inverse.  There it
    solves x_i dT'/dx_i = A'_i T' - T' C'_i with T'(0) = I, all
    components stacked so a grade left free by one direction can still
    be pinned by another (free unknowns are 0).  Written T' = I + X,
    this is the splitting's Riccati equation with b11 = A'_i,
    b12 = A'_i - C'_i, b21 = 0, b22 = C'_i and p_i = 0, so
    reduction.solve_graded solves it inside the box of the working order
    and the input windows, visiting only the grades the support of X
    reaches; in the eigenbasis each grade splits into one small system
    per joint block pair (linalg.SylvesterSolver), one per entry when
    the C'_i are diagonal.

    Resonance is decided at those grades: an inconsistent stacked system
    raises ResonanceError naming its grade.  Certification follows: on
    exact input, T' taken as a polynomial is checked against the full
    equations by reduction.certify, the test splitting uses, since
    x_i dT'/dx_i - A'_i T' + T' C'_i = -riccati(..., X, 0, i), and only
    then keeps an infinite window.  Finally (W T', C') comes back: W T'
    solves x_i dF/dx_i = A_i F - F C'_i, and no inverse of it is formed,
    since nothing applies one.  A 1x1 system, what the eigenvalue shifts
    leave of a scalar equation, takes the same path: X is then the
    analytic tail of exp(integral of (A_i - C_i)/x_i), one grade at a
    time, and W is 1.
    """
    if any(p != 0 for p in S.p):
        raise InputError("regular endgame needs Poincare rank 0 throughout")
    n, d = S.n, S.d
    C = [S.A[i].constant_term() for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not (C[i] * C[j] - C[j] * C[i]).is_zero():
                raise NonIntegrableError(
                    "residue matrices of a regular system must commute")

    W, Winv, C = _joint_block_diagonalize(C)
    A = [Winv * M * W for M in S.A]
    tower = common_tower(S.tower, W.tower)
    window = S.window_hi()
    hi = tuple(min(order + 1, w) if w != INF else order + 1 for w in window)
    zero = SeriesMatrix.zeros(d, d, n, tower)
    blocks = []
    for i in range(n):
        Ci = C[i].to_series(n)
        blocks.append((A[i], A[i] - Ci, zero, Ci))
    X = solve_graded(blocks, S.p, hi, tower)

    # certify: if T' taken as an exact polynomial closes the equation,
    # its window is infinite, otherwise it is honest truncated data
    T = SeriesMatrix.identity(d, n, tower) + X
    if not certify([(b, X, 0, i) for i, b in enumerate(blocks)], hi,
                   check=False):
        T = T.clipped(hi)
    return W * T, C


def _joint_block_diagonalize(Cs):
    """(W, W^-1, [W^-1 C_i W]) for a constant W making every W^-1 C_i W
    block diagonal, one joint eigenvalue tuple per block, over the join
    of the fields of the C_i and their eigenvalues.  Recurses over the
    commuting family: W = V Diag(W_k) and W^-1 = Diag(W_k^-1) V^-1, with
    V splitting the first C_i of two or more eigenvalues and W_k the
    blocks' own, so each conjugate is assembled from its blocks' and no
    W is inverted.  A 1x1 family, or one of single eigenvalues, is its
    own block, W = I; when every block is, W = V: no Diag(I) product."""
    I = ConstMatrix.identity(Cs[0].nrows, Cs[0].tower)
    if I.nrows == 1:
        return I, I, list(Cs)
    for C in Cs:
        roots = roots_of_charpoly(C.charpoly())
        if len(roots) < 2:
            continue
        V, sizes = generalized_eigenspaces(C, roots)
        Vinv = V.inverse()
        conj = [Vinv * M * V for M in Cs]
        # commuting family: each conjugate must respect the block split
        owner = [k for k, s in enumerate(sizes) for _ in range(s)]
        if any(owner[r] != owner[c] and not a.is_zero() for M in conj
               for r, row in enumerate(M.rows) for c, a in enumerate(row)):
            raise ReductionError(
                "commuting family failed to respect its own eigenblock split")
        offsets = [sum(sizes[:k]) for k in range(len(sizes))]
        # the sibling blocks share one running field, so a later block
        # factors its charpoly over what an earlier one adjoined, and
        # +-sqrt(2) beside +-2 sqrt(2) needs one extension, not two
        running, parts = V.tower, []
        for lo, s in zip(offsets, sizes):
            part = _joint_block_diagonalize(
                [ConstMatrix([r[lo:lo + s] for r in M.rows[lo:lo + s]],
                             common_tower(M.tower, running)) for M in conj])
            running = common_tower(running, part[0].tower)
            parts.append(part)
        W, Winv, Cw = zip(*parts)
        if all(map(ConstMatrix.is_identity, W)):
            return V, Vinv, conj
        return (V * ConstMatrix.block_diag(W),
                ConstMatrix.block_diag(Winv) * Vinv,
                [ConstMatrix.block_diag(c) for c in zip(*Cw)])
    return I, I, list(Cs)


# -- the reduction loop -----------------------------------------------------


def _reduce(S, ram, order, trace, path, endgame=True):
    """Reduce one branch; returns (phi, field, s, Q, C, structure).

    With endgame False the branch stops at its rank-zero leaves (phase
    one): phi and C are None, no gauge is multiplied in, and field is
    the leaves' field, which holds every value a q can use.
    """
    n, d = S.n, S.d
    ram = list(ram)
    phi = SeriesMatrix.identity(d, n, S.tower) if endgame else None
    qacc = [dict() for _ in range(n)]
    just_reduced = False
    guard = 0
    ram_cap = math.lcm(*range(1, d + 1)) * max(ram)
    # per irregular component, the roots of A_i(0)'s charpoly (eig) or
    # the FieldExtensionError finding them raised (fee); stale lists the
    # components changed since
    eig, fee, stale = {}, {}, set(range(n))

    while True:
        guard += 1
        if guard > 64 * (d + sum(S.p) + 2):
            raise ReductionError("reduction loop failed to make progress")

        if all(p == 0 for p in S.p):
            Q = [[dict(qacc[i]) for _ in range(d)] for i in range(n)]
            if not endgame:
                if min(S.window_hi()) <= 0:
                    raise TruncationInsufficient(
                        "a rank-zero leaf holds no term of its window",
                        window=S.window_hi())
                return None, S.tower, ram, Q, None, ("regular", d)
            T, Cs = regular_endgame(S, order=order)
            phi = phi * T
            C = [Cs[i] * Fraction(1, ram[i]) for i in range(n)]
            trace.add(path, "endgame", d=d)
            return phi, phi.tower, ram, Q, C, ("regular", d)

        # dispatch on the leading constant of each irregular component
        for i in stale:
            eig.pop(i, None)
            fee.pop(i, None)
            if S.p[i] > 0:
                try:
                    eig[i] = roots_of_charpoly(
                        S.A[i].constant_term().charpoly())
                except FieldExtensionError as exc:
                    fee[i] = exc
        stale = set()
        last_fee = fee[max(fee)] if fee else None

        split_i = next((i for i in sorted(eig) if len(eig[i]) >= 2), None)
        if split_i is not None:
            T, top, bottom = split(S, split_i, eig[split_i], order=order)
            if endgame:
                phi = phi * T
            d1 = top.d
            trace.add(path, "split", component=split_i,
                      sizes=[top.d, bottom.d], p=list(S.p))
            top_n, _ = normalize_poincare(top)
            bot_n, _ = normalize_poincare(bottom)
            phiT, fieldT, ramT, QT, CT, stT = _reduce(
                top_n, ram, order, trace, path + f"{split_i}a/", endgame)
            # the bottom block factors its eigenvalues over the field the
            # top reached, so both branches' fields join at the merge
            tw = common_tower(bot_n.tower, fieldT)
            bot_n = PfaffianSystem(
                bot_n.vars, bot_n.p,
                [SeriesMatrix(M.rows, n, tw) for M in bot_n.A], tw)
            phiB, fieldB, ramB, QB, CB, stB = _reduce(
                bot_n, ram, order, trace, path + f"{split_i}b/", endgame)
            s = [math.lcm(a, b) for a, b in zip(ramT, ramB)]
            Q = []
            for i in range(n):
                blocks = QT[i] + QB[i]
                for q in blocks:
                    for e, c in qacc[i].items():
                        _qadd(q, e, c)
                Q.append(blocks)
            struct = ("split", split_i, d1, stT, stB)
            if not endgame:
                # the bottom was reduced over the top's field, so its
                # leaves' field holds both
                return None, fieldB, s, Q, None, struct
            for i in range(n):
                phi = phi.ramify(i, s[i] // ram[i])
                phiT = phiT.ramify(i, s[i] // ramT[i])
                phiB = phiB.ramify(i, s[i] // ramB[i])
            phi = phi * SeriesMatrix.block_diag([phiT, phiB])
            C = [ConstMatrix.block_diag([CT[i], CB[i]]) for i in range(n)]
            return phi, phi.tower, s, Q, C, struct

        shift_i = next((i for i in sorted(eig)
                        if not eig[i][0][0].is_zero()), None)
        if shift_i is not None:
            gamma = eig[shift_i][0][0]
            (pw, coeff), S = eigen_shift(S, shift_i, gamma)
            stale = {shift_i}
            _qadd(qacc[shift_i], Fraction(-pw, ram[shift_i]), coeff)
            trace.add(path, "shift", component=shift_i,
                      exponent=str(Fraction(-pw, ram[shift_i])),
                      p=list(S.p))
            just_reduced = False
            continue

        if not just_reduced:
            p_before = list(S.p)
            T, S, steps = rank_reduce(S, order=order)
            if endgame and not T.is_identity():
                phi = phi * T
            trace.add(path, "rank_reduce", p_before=p_before,
                      p_after=list(S.p), gauges=len(steps))
            just_reduced = True
            stale = set(range(n))
            continue

        # nilpotent at true rank: the growth order is fractional and a
        # ramification makes it visible to the leading constant
        cand = [i for i in range(n) if S.p[i] > 0]
        i = cand[0]
        if ram[i] > ram_cap:
            if last_fee is not None:
                raise last_fee
            raise ReductionError(
                "ramification exceeded the dimension bound")
        w = katz_order_univariate(S.associated_ods(i), order=order)
        m = w.denominator
        if m == 1:
            if last_fee is not None:
                raise last_fee
            raise ReductionError(
                "nilpotent leading constant with integer growth order")
        # x_i = t^m keeps every other A_j(0)
        S = ramify_system(S, i, m)
        stale = {i}
        if endgame:
            phi = phi.ramify(i, m)
        ram[i] *= m
        trace.add(path, "ramify", component=i, factor=m, p=list(S.p))
        just_reduced = False


# -- verification and the public driver -------------------------------------


def verify_solution(S: PfaffianSystem, sol: FormalSolution):
    """Residual check of the factored solution against the system.

    In the coordinates t_i = x_i^{1/s_i} the factored form solves the
    ramified system iff for every i

        t^{p~+1} dPhi/dt_i + Phi (dq~ + s_i t^{p~} C_i) - A~_i Phi = 0

    where p~ = s_i p_i and A~_i = s_i A_i(t^s), each residual one
    linalg.sum_of_products from its Euler term.  Returns a dict with
    "ok", "verified_to" and the per-component detail.  verified_to is
    the largest total degree k such that every coefficient of total
    degree <= k of Phi and of each residual lies inside its window, and
    every such coefficient of each residual is zero: one less than the
    least of Phi's window tops, the residuals' window tops and the
    degree of the lowest residual term; INF when every window is
    infinite and every residual zero.  A solution that does not fit the
    system is an InputError: another variable count or d, a field that
    does not join the system's, a q exponent off the x^(1/s_i) grid or
    below the pole order, or a C coupling slots whose q's differ, where
    the factored form is not a product of commuting factors.
    """
    if sol.n != S.n or sol.d != S.d:
        raise InputError(
            f"solution has {sol.n} variables and d = {sol.d}, the system "
            f"{S.n} variables and d = {S.d}")
    try:
        sol.check_block_compatibility()
    except ReductionError as exc:
        raise InputError(str(exc)) from None
    try:
        tower = common_tower(S.tower, sol.phi.tower, *(c.tower for c in sol.C))
    except FieldExtensionError:
        raise InputError(
            f"solution field {_field_name(sol.phi.tower)} does not match "
            f"the system field {_field_name(S.tower)}") from None
    St = S
    for i, m in enumerate(sol.s):
        St = ramify_system(St, i, m)
    n, d = St.n, St.d
    top = min(sol.phi.window_hi())
    ok = True
    verified = INF
    per = []
    for i in range(n):
        p = St.p[i]
        qterms = [[Series.zero(n, tower) for _ in range(d)] for _ in range(d)]
        for j in range(d):
            acc = {}
            for xe, c in sol.Q[i][j].items():
                te = xe * sol.s[i]
                if te.denominator != 1:
                    raise InputError(
                        f"q exponent {xe} is off the x^(1/{sol.s[i]}) grid")
                te = int(te)
                exp = tuple(te + p if k == i else 0 for k in range(n))
                if exp[i] < 0:
                    raise InputError(
                        f"q exponent {xe} is below the pole order {p}")
                cur = acc.get(exp)
                val = c * te
                acc[exp] = val if cur is None else cur + val
            qterms[j][j] = Series(n, acc, tower)
        D = SeriesMatrix(qterms, n, tower)
        Cser = sol.C[i].to_series(n) \
            .mul_monomial(tuple(p if k == i else 0 for k in range(n))) \
            * sol.s[i]
        R = sum_of_products(sol.phi.euler(i, p),
                            [(1, sol.phi, D + Cser), (-1, St.A[i], sol.phi)])
        bad = [sum(e) for r in R.rows for s_ in r for e in s_.terms]
        k = min([top, *R.window_hi(), *bad]) - 1
        ok = ok and not bad
        per.append({"component": i, "ok": not bad, "verified_to": k})
        verified = min(verified, k)
    return {"ok": ok, "verified_to": verified, "per_component": per}


def _retrying(S, order, max_retries, run):
    """Check S, then run(normalized S, working order, trace),
    restarting at a larger order after a TruncationInsufficient as fmfs
    describes; returns (run's result, the last trace)."""
    check_order(order, max_retries)
    require_integrable(S)
    retry_log = []
    N = order
    previous = None, None
    while True:
        trace = ReductionTrace(order=N, retry_log=retry_log)
        try:
            Sn, notes = normalize_poincare(S)
            for i, msg in notes:
                trace.add("", "normalize", component=i, note=msg)
            return run(Sn, N, trace), trace
        except TruncationInsufficient as exc:
            v, w = exc.verified_to, exc.window
            pv, pw = previous
            # the input's own window limits an attempt that verified no
            # further, or whose leaf ran out in no wider a window, than
            # the attempt before it
            stalled = (v is not None and pv is not None and v <= pv
                       or w is not None and pw is not None
                       and all(a <= b for a, b in zip(w, pw)))
            if exc.final or stalled or len(retry_log) >= max_retries:
                raise
            nxt = 2 * N if v is None else N + (order - 2 - v)
            if nxt > MAX_ORDER:
                raise
            previous = v, w
            retry_log.append({"order": N, "verified_to": v,
                              "next_order": nxt, "reason": str(exc)})
            N = nxt


def fmfs(S: PfaffianSystem, order=10, max_retries=4):
    """Formal fundamental matrix of solutions, with retry on truncation.

    Returns (FormalSolution, ReductionTrace).  The solution must verify
    to total degree order - 2.  Each split solves in a box that covers
    what its blocks lose on the way to rank 0 (reduction.split states
    the rule), so a loss to the ranks the split blocks shed costs no
    retry.  Two losses no split can see still do: a later split whose
    box the clipped window of an earlier one caps, and a window the
    input limits.

    After a TruncationInsufficient the reduction restarts at a larger
    working order N, up to max_retries times:

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
    def solve(Sn, N, trace):
        phi, _, ram, Q, C, struct = _reduce(Sn, [1] * S.n, N, trace, "")
        sol = FormalSolution(phi, C, Q, ram, struct)
        sol.check_block_compatibility()
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
        return sol

    return _retrying(S, order, max_retries, solve)


def exponential_data(S: PfaffianSystem, order=10, max_retries=4):
    """(s, Q) of fmfs's solution from phase one alone: per variable the
    ramification index, and per variable one q dict per diagonal slot.

    The reduction stops at its rank-zero leaves and restarts as fmfs
    does; a truncation failure here reports no verified degree, so each
    restart doubles the working order.  A leaf that holds no term of its
    window reports that window instead, and an attempt whose leaf ran
    out in a window no wider than the attempt before it ends the
    retries: the input's own window limits it.
    """
    def leaves(Sn, N, trace):
        _, _, ram, Q, _, _ = _reduce(Sn, [1] * S.n, N, trace, "", False)
        return ram, Q

    return _retrying(S, order, max_retries, leaves)[0]
