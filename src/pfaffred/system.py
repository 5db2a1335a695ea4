"""Pfaffian systems with normal crossings and the gauge action on them.

A system couples n equations x_i^{p_i+1} dF/dx_i = A_i F over series in
x_1..x_n.  The complete-integrability commutation rule ties the
components together; require_integrable raises the one error for a
system that breaks it.  A gauge transformation acts by
A_i -> T^{-1} (A_i T - x_i^{p_i+1} dT/dx_i), computed as
T_inv * (A_i * T - T.euler(i, p_i)), after which Poincare ranks are
renormalized by own-variable valuation.  A transformation that gives
some component a pole in a foreign variable breaks normal crossings and
is refused.  A gauge transformation carries the T^{-1}
that the code building T supplies from the structure of T; the package
inverts no series matrix.  A constant change of basis V is no gauge
here: it has no derivative term, and is the product V^{-1} A_i V with a
ConstMatrix (linalg).
"""

from __future__ import annotations

import hashlib

from .errors import (DimensionError, InputError, NonIntegrableError,
                     ReductionError)
from .linalg import SeriesMatrix, support_of_sum
from .scalars import common_tower
from .series import INF, Series, grlex_key


def digest(parts) -> str:
    """Short SHA-256 fingerprint of a sequence of strings, read in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()[:16]


class PfaffianSystem:
    """Immutable model of the n-component system."""

    __slots__ = ("vars", "n", "d", "p", "A", "tower")

    def __init__(self, vars, p, A, tower):
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
            if any(v < 0 for row in M.rows for e in row
                   for v in e.support_min() or ()):
                raise InputError("matrix entries must be series without "
                                 "poles")
        self.d = d
        self.tower = tower

    # -- views -------------------------------------------------------------

    def coeff(self, i: int, k: int) -> SeriesMatrix:
        """x_i^k coefficient of A_i, a matrix over the other variables."""
        return self.A[i].coeff_in_xi(i, k)

    @property
    def exact(self) -> bool:
        return all(M.exact for M in self.A)

    def window_hi(self):
        return tuple(map(min, zip(*(M.window_hi() for M in self.A))))

    def clipped(self, hi):
        return PfaffianSystem(self.vars, self.p, [M.clipped(hi) for M in self.A],
                              self.tower)

    def associated_ods(self, i: int) -> PfaffianSystem:
        """The one-variable system of component i: A_i with every other
        variable at 0, and rank p_i."""
        return PfaffianSystem([self.vars[i]], [self.p[i]],
                              [self.A[i].project_to_var(i)], self.tower)

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
        # (i, j, row, col, exponent) of a residual term of least total
        # degree, first in (i, j, row, col) order, its exponent the least
        # in grlex_key order within that entry; None when all vanish
        self.worst = worst
        self.window = window        # the data window the check covered

    def __bool__(self):
        return self.passed


def check_integrability(S: PfaffianSystem) -> IntegrabilityReport:
    """Verify the commutation rule for every component pair.

    A_iA_j - A_jA_i must equal x_i^{p_i+1} dA_j/dx_i - x_j^{p_j+1} dA_i/dx_j,
    up to the validity windows of the data.  Each pair's residual is one
    linalg.support_of_sum, from the two Euler terms, so each entry is
    exact below its top and summed in integers, with no Fraction made.
    worst names a term of least total degree: the first such entry in
    (i, j, row, col) order, and in it the least exponent by
    series.grlex_key.
    """
    worst = None
    for i in range(S.n):
        for j in range(i + 1, S.n):
            Ai, Aj = S.A[i], S.A[j]
            R = support_of_sum(Ai.euler(j, S.p[j]) - Aj.euler(i, S.p[i]),
                               [(1, Ai, Aj), (-1, Aj, Ai)])
            for r, row in enumerate(R):
                for c, e in enumerate(row):
                    if e:
                        exp = min(e, key=grlex_key)
                        if worst is None or sum(exp) < sum(worst[4]):
                            worst = (i, j, r, c, exp)
    return IntegrabilityReport(worst is None, worst, S.window_hi())


def require_integrable(S: PfaffianSystem) -> IntegrabilityReport:
    """check_integrability's report of a system that passes; otherwise
    NonIntegrableError, naming the first failing pair by its variables."""
    rep = check_integrability(S)
    if not rep:
        i, j = rep.worst[0], rep.worst[1]
        raise NonIntegrableError(
            f"system is not completely integrable: the integrability "
            f"condition fails for the pair ({S.vars[i]}, {S.vars[j]})")
    return rep


def normalize_poincare(S: PfaffianSystem):
    """Shift own-variable valuation of each A_i into p_i, flooring at 0.

    Returns (system, notes); a component that vanishes within its window
    is treated as regular.  Its data is then x_i^{-p_i} A_i, known only
    below hi_i - p_i, so its window in x_i is clipped there.
    """
    newA, newp, notes = [], [], []
    for i in range(S.n):
        M, p = S.A[i], S.p[i]
        v, limited = M.valuation(i)
        if v == INF:
            if limited:
                notes.append((i, "zero within window; treated as regular"))
                hi = [INF] * S.n
                hi[i] = max(M.window_hi()[i] - p, 0)
                M = M.clipped(tuple(hi))
            else:
                notes.append((i, "identically zero; regular component"))
            newA.append(M)
            newp.append(0)
            continue
        if v < 0:
            raise InputError("component has a pole in its own variable")
        shift = min(v, p)
        if shift > 0:
            M = M.mul_monomial(tuple(-shift if k == i else 0 for k in range(S.n)))
            p -= shift
            notes.append((i, f"valuation {v}: rank lowered by {shift}"))
        newA.append(M)
        newp.append(p)
    return PfaffianSystem(S.vars, newp, newA, S.tower), notes


class GaugeTransformation:
    """Invertible change of basis F = T G, built together with T^{-1}.

    The constructors read T^{-1} off the structure of T (a diagonal
    monomial or unipotent matrix) and compose keeps it; a caller with
    another T passes an inverse it already knows.  A constant change of
    basis is a product with a ConstMatrix, not a gauge.
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
    def diagonal_monomial(cls, exps, nvars, tower):
        """Diag(x^e) for a list of exponent vectors e (one per row)."""
        def diag(sign):
            return SeriesMatrix.block_diag([SeriesMatrix(
                [[Series.monomial(nvars, [sign * x for x in e], 1, tower)]],
                nvars, tower) for e in exps])
        return cls(diag(1), diag(-1))

    @classmethod
    def unipotent(cls, N: SeriesMatrix):
        """T = I + N for N with N^2 = 0, so that T^{-1} = I - N."""
        I = SeriesMatrix.identity(N.nrows, N.nvars, N.tower)
        return cls(I + N, I - N)

    def compose(self, other: "GaugeTransformation") -> "GaugeTransformation":
        """self applied first, then other: F = (T_self T_other) H."""
        return GaugeTransformation(self.T * other.T, other.T_inv * self.T_inv)


def apply_gauge(S: PfaffianSystem, g: GaugeTransformation) -> PfaffianSystem:
    """The transformed system, its Poincare ranks renormalized, over the
    join of the fields of S and the gauge.

    Raises ReductionError, naming the component and the variable, when
    a transformed component has a pole in a foreign variable: the
    result would break normal crossings.  A pole in the own variable
    raises that component's rank instead.
    """
    T, T_inv = g.T, g.T_inv
    newA, newp = [], []
    for i in range(S.n):
        Ai = T_inv * (S.A[i] * T - T.euler(i, S.p[i]))
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
    tower = common_tower(S.tower, T.tower, T_inv.tower)
    return normalize_poincare(PfaffianSystem(S.vars, newp, newA, tower))[0]
