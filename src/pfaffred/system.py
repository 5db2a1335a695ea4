"""Pfaffian systems with normal crossings and the gauge action on them.

A system couples n equations x_i^{p_i+1} dF/dx_i = A_i F over series in
x_1..x_n.  The complete-integrability commutation rule ties the
components together; gauge transformations act by
A_i -> T^{-1} A_i T - x_i^{p_i+1} T^{-1} dT/dx_i, after which Poincare
ranks are renormalized by own-variable valuation.  A transformation is
weakly compatible when every transformed component stays free of poles
in foreign variables (normal crossings preserved), and compatible when
additionally no Poincare rank increases.
"""

from __future__ import annotations

import hashlib

from .errors import DimensionError, InputError, NotUnitError
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

    def __init__(self, vars, p, A, tower, trivial=None, allow_laurent=False):
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
            if not allow_laurent:
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
    __slots__ = ("passed", "worst", "verified_to")

    def __init__(self, passed, worst, verified_to):
        self.passed = passed
        self.worst = worst          # (i, j, row, col, exponent) or None
        self.verified_to = verified_to

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
    """Invertible change of basis F = T G with a tracked inverse.

    det(T) is required to be a unit times a monomial; this is checked on
    construction (it is what membership in GL_d of the localization
    amounts to for the transformations this pipeline produces).
    """

    __slots__ = ("T", "T_inv", "det_monomial")

    def __init__(self, T: SeriesMatrix, T_inv=None, hi=None, check=True):
        self.T = T
        self.det_monomial = None
        if check:
            det = T.determinant()
            beta = det.support_min()
            if beta is None:
                raise NotUnitError("gauge determinant vanishes within window")
            unit = det.mul_monomial(tuple(-b for b in beta))
            if unit.constant_term().is_zero():
                raise NotUnitError("gauge determinant is not monomial x unit")
            self.det_monomial = beta
        if T_inv is None:
            T_inv = T.inverse(hi)
        self.T_inv = T_inv

    @classmethod
    def identity(cls, d, nvars, tower):
        I = SeriesMatrix.identity(d, nvars, tower)
        return cls(I, I, check=False)

    @classmethod
    def from_constant(cls, C, nvars):
        T = C.to_series(nvars)
        T_inv = C.inverse().to_series(nvars)
        g = cls(T, T_inv, check=False)
        g.det_monomial = (0,) * nvars
        return g

    @classmethod
    def diagonal_monomial(cls, exps, nvars, tower):
        """Diag(x^e) for a list of exponent vectors e (one per row)."""
        entries = [Series.monomial(nvars, e, 1, tower) for e in exps]
        inv_entries = [Series.monomial(nvars, tuple(-x for x in e), 1, tower)
                       for e in exps]
        g = cls(SeriesMatrix.diagonal(entries, nvars, tower),
                SeriesMatrix.diagonal(inv_entries, nvars, tower), check=False)
        g.det_monomial = tuple(sum(e[k] for e in exps) for k in range(nvars))
        return g

    def compose(self, other: "GaugeTransformation") -> "GaugeTransformation":
        """self applied first, then other: F = (T_self T_other) H."""
        g = GaugeTransformation(self.T * other.T, other.T_inv * self.T_inv,
                                check=False)
        if self.det_monomial is not None and other.det_monomial is not None:
            g.det_monomial = tuple(a + b for a, b in
                                   zip(self.det_monomial, other.det_monomial))
        return g

    def is_identity(self):
        return self.T == SeriesMatrix.identity(self.T.nrows, self.T.nvars,
                                               self.T.tower)


class GaugeReport:
    __slots__ = ("system", "weakly_compatible", "compatible", "p",
                 "raw", "factored", "notes")

    def __init__(self, system, weakly_compatible, compatible, p, raw,
                 factored, notes):
        self.system = system
        self.weakly_compatible = weakly_compatible
        self.compatible = compatible
        self.p = p
        self.raw = raw
        self.factored = factored
        self.notes = notes


def apply_gauge(S: PfaffianSystem, g: GaugeTransformation) -> GaugeReport:
    """Transform the system and classify the result.

    Returns a report; report.system is None when the result breaks
    normal crossings (poles in foreign variables), in which case
    report.factored holds, per component, the left-side exponent vector
    and the pole-free matrix after factoring the offending monomial.
    """
    T, T_inv = g.T, g.T_inv
    raw = []
    for i in range(S.n):
        ei = tuple(S.p[i] + 1 if k == i else 0 for k in range(S.n))
        Ai = T_inv * S.A[i] * T - (T_inv * T.partial_derivative(i)).mul_monomial(ei)
        raw.append(Ai)

    weakly = True
    factored = []
    newA, newp, notes = [], [], []
    for i in range(S.n):
        Ai = raw[i]
        mins = [None] * S.n
        for row in Ai.rows:
            for e in row:
                sm = e.support_min()
                if sm:
                    for k in range(S.n):
                        if mins[k] is None or sm[k] < mins[k]:
                            mins[k] = sm[k]
        mins = [0 if m is None else m for m in mins]
        foreign_poles = any(mins[k] < 0 for k in range(S.n) if k != i)
        if foreign_poles:
            weakly = False
        # display form: extract the own-variable valuation entirely and
        # foreign poles only, so the left side reads prod x_k^e * d/dx_i
        mu = [mins[k] if k == i else min(0, mins[k]) for k in range(S.n)]
        lhs = [(S.p[i] + 1 - mu[k] if k == i else -mu[k]) for k in range(S.n)]
        factored.append((lhs, Ai.mul_monomial(tuple(-m for m in mu))))
        if not foreign_poles:
            own = mins[i]
            p_new = S.p[i] + max(0, -own)
            M = Ai
            if own < 0:
                M = Ai.mul_monomial(tuple(-own if k == i else 0
                                          for k in range(S.n)))
            newA.append(M)
            newp.append(p_new)
        else:
            newA.append(None)
            newp.append(None)

    if not weakly:
        return GaugeReport(None, False, False, newp, raw, factored, notes)

    sys2 = PfaffianSystem(S.vars, newp, newA, S.tower)
    sys2, norm_notes = normalize_poincare(sys2)
    notes.extend(norm_notes)
    compatible = all(a <= b for a, b in zip(sys2.p, S.p))
    return GaugeReport(sys2, True, compatible, sys2.p, raw, factored, notes)
