"""Pfaffian systems with normal crossings and the gauge action on them.

A system couples n equations x_i^{p_i+1} dF/dx_i = A_i F over series in
x_1..x_n.  The complete-integrability commutation rule ties the
components together; gauge transformations act by
A_i -> T^{-1} A_i T - x_i^{p_i+1} T^{-1} dT/dx_i, after which Poincare
ranks are renormalized by own-variable valuation.  A transformation
that gives some component a pole in a foreign variable breaks normal
crossings and is refused.  A gauge transformation carries the T^{-1}
that the code building T supplies; nothing here inverts a series
matrix.
"""

from __future__ import annotations

import hashlib

from .errors import DimensionError, InputError, ReductionError
from .linalg import SeriesMatrix
from .series import INF, Series


def digest(parts) -> str:
    """Short SHA-256 fingerprint of a sequence of strings, read in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()[:16]


class PfaffianSystem:
    """Immutable model of the n-component system."""

    __slots__ = ("vars", "n", "d", "p", "A", "tower", "trivial")

    def __init__(self, vars, p, A, tower, trivial=None):
        self.vars = list(vars)
        self.n = len(self.vars)
        if len(p) != self.n or len(A) != self.n:
            raise DimensionError("component count mismatch")
        self.p = [int(q) for q in p]
        if any(q < 0 for q in self.p):
            raise InputError("negative Poincare rank; the origin would be "
                             "an ordinary point, which is rejected")
        self.A = list(A)
        d = self.A[0].nrows
        for M in self.A:
            if M.nrows != d or M.ncols != d:
                raise DimensionError("components must be square of equal size")
            if M.nvars != self.n:
                raise DimensionError("matrix variable count mismatch")
            for row in M.rows:
                for e in row:
                    sm = e.support_min()
                    if sm and any(v < 0 for v in sm):
                        raise InputError("matrix entries must be series "
                                         "without poles")
        self.d = d
        self.tower = tower
        self.trivial = list(trivial) if trivial else [False] * self.n

    # -- views -------------------------------------------------------------

    def coeff(self, i: int, k: int) -> SeriesMatrix:
        """x_i^k coefficient of A_i, a matrix over the other variables."""
        return self.A[i].coeff_in_xi(i, k)

    @property
    def exact(self) -> bool:
        return all(M.exact for M in self.A)

    def window_hi(self):
        return tuple(min(M.window_hi()[k] for M in self.A) for k in range(self.n))

    def clipped(self, hi):
        return PfaffianSystem(self.vars, self.p, [M.clipped(hi) for M in self.A],
                              self.tower, self.trivial)

    def lift_tower(self, tower):
        return PfaffianSystem(self.vars, self.p,
                              [M.lift_tower(tower) for M in self.A],
                              tower, self.trivial)

    def associated_ods(self, i: int):
        """(p_i, univariate matrix): A_i with every other variable at 0."""
        return self.p[i], self.A[i].project_to_var(i)

    def fingerprint(self) -> str:
        parts = [repr((self.vars, self.p))]
        for M in self.A:
            for row in M.rows:
                for e in row:
                    parts += [str(e), "|"]
        return digest(parts)

    def __repr__(self):
        return (f"PfaffianSystem(n={self.n}, d={self.d}, p={self.p}, "
                f"vars={self.vars})")


class IntegrabilityReport:
    __slots__ = ("passed", "worst", "window")

    def __init__(self, passed, worst, window):
        self.passed = passed
        self.worst = worst          # (i, j, row, col, exponent) or None
        self.window = window        # the data window the check covered

    def __bool__(self):
        return self.passed


def check_integrability(S: PfaffianSystem) -> IntegrabilityReport:
    """Verify the commutation rule for every component pair.

    A_iA_j - A_jA_i must equal x_i^{p_i+1} dA_j/dx_i - x_j^{p_j+1} dA_i/dx_j,
    up to the validity windows of the data.
    """
    worst = None
    hi = S.window_hi()
    for i in range(S.n):
        for j in range(i + 1, S.n):
            ei = tuple(S.p[i] + 1 if k == i else 0 for k in range(S.n))
            ej = tuple(S.p[j] + 1 if k == j else 0 for k in range(S.n))
            lhs = S.A[i] * S.A[j] - S.A[j] * S.A[i]
            rhs = (S.A[j].partial_derivative(i).mul_monomial(ei)
                   - S.A[i].partial_derivative(j).mul_monomial(ej))
            res = lhs - rhs
            for r in range(S.d):
                for c in range(S.d):
                    entry = res.rows[r][c]
                    if not entry.is_zero():
                        exp = min(entry.terms, key=lambda e: sum(e))
                        cand = (i, j, r, c, exp)
                        if worst is None or sum(exp) < sum(worst[4]):
                            worst = cand
    return IntegrabilityReport(worst is None, worst, hi)


def normalize_poincare(S: PfaffianSystem):
    """Shift own-variable valuation of each A_i into p_i, flooring at 0.

    Returns (system, notes); a component that vanishes within its window
    is flagged trivial and treated as regular.
    """
    newA, newp, notes, trivial = [], [], [], []
    for i in range(S.n):
        M, p = S.A[i], S.p[i]
        v, limited = M.valuation(i)
        if v == INF:
            trivial.append(True)
            if limited:
                notes.append((i, "zero within window; treated as regular"))
            else:
                notes.append((i, "identically zero; regular component"))
            newA.append(M)
            newp.append(0)
            continue
        trivial.append(False)
        if v < 0:
            raise InputError("component has a pole in its own variable")
        shift = min(v, p)
        if shift > 0:
            M = M.mul_monomial(tuple(-shift if k == i else 0 for k in range(S.n)))
            p -= shift
            notes.append((i, f"valuation {v}: rank lowered by {shift}"))
        newA.append(M)
        newp.append(p)
    return PfaffianSystem(S.vars, newp, newA, S.tower, trivial), notes


class GaugeTransformation:
    """Invertible change of basis F = T G, built together with T^{-1}.

    The constructors read T^{-1} off the structure of T; a caller with a
    general T passes T.inverse(), which refuses a determinant that is
    not a unit times a monomial.
    """

    __slots__ = ("T", "T_inv")

    def __init__(self, T: SeriesMatrix, T_inv: SeriesMatrix):
        self.T = T
        self.T_inv = T_inv

    @classmethod
    def identity(cls, d, nvars, tower):
        I = SeriesMatrix.identity(d, nvars, tower)
        return cls(I, I)

    @classmethod
    def from_constant(cls, C, nvars):
        return cls(C.to_series(nvars), C.inverse().to_series(nvars))

    @classmethod
    def diagonal_monomial(cls, exps, nvars, tower):
        """Diag(x^e) for a list of exponent vectors e (one per row)."""
        def mono(e):
            return SeriesMatrix([[Series.monomial(nvars, e, 1, tower)]],
                                nvars, tower)
        return cls.block_diag([cls(mono(e), mono(tuple(-x for x in e)))
                               for e in exps])

    @classmethod
    def permutation(cls, order, nvars, tower):
        """Coordinate k of G is coordinate order[k] of F; T^{-1} = T^t."""
        d = len(order)
        P = SeriesMatrix.zeros(d, d, nvars, tower)
        one = Series.constant(nvars, 1, tower)
        for new, old in enumerate(order):
            P.rows[old][new] = one
        return cls(P, P.transpose())

    @classmethod
    def unipotent(cls, N: SeriesMatrix):
        """T = I + N for N with N^2 = 0, so that T^{-1} = I - N."""
        I = SeriesMatrix.identity(N.nrows, N.nvars, N.tower)
        return cls(I + N, I - N)

    @classmethod
    def block_diag(cls, blocks):
        """Diag(T_1, .., T_k), one block per transformation, in order."""
        return cls(SeriesMatrix.block_diag([g.T for g in blocks]),
                   SeriesMatrix.block_diag([g.T_inv for g in blocks]))

    def compose(self, other: "GaugeTransformation") -> "GaugeTransformation":
        """self applied first, then other: F = (T_self T_other) H."""
        return GaugeTransformation(self.T * other.T, other.T_inv * self.T_inv)

    def is_identity(self):
        return self.T == SeriesMatrix.identity(self.T.nrows, self.T.nvars,
                                               self.T.tower)


def apply_gauge(S: PfaffianSystem, g: GaugeTransformation) -> PfaffianSystem:
    """The transformed system, its Poincare ranks renormalized.

    Raises ReductionError, naming the component and the variable, when
    a transformed component has a pole in a foreign variable: the
    result would break normal crossings.  A pole in the own variable
    raises that component's rank instead.
    """
    T, T_inv = g.T, g.T_inv
    newA, newp = [], []
    for i in range(S.n):
        ei = tuple(S.p[i] + 1 if k == i else 0 for k in range(S.n))
        Ai = T_inv * S.A[i] * T - (T_inv * T.partial_derivative(i)).mul_monomial(ei)
        mins = [0] * S.n
        for row in Ai.rows:
            for e in row:
                sm = e.support_min()
                if sm:
                    mins = [min(a, b) for a, b in zip(mins, sm)]
        for k in range(S.n):
            if k != i and mins[k] < 0:
                raise ReductionError(
                    f"gauge breaks normal crossings: component {i} gains a "
                    f"pole in {S.vars[k]}")
        own = mins[i]
        if own < 0:
            Ai = Ai.mul_monomial(tuple(-own if k == i else 0
                                       for k in range(S.n)))
        newA.append(Ai)
        newp.append(S.p[i] - own)
    return normalize_poincare(PfaffianSystem(S.vars, newp, newA, S.tower))[0]
