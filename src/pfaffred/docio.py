"""System documents: JSON (de)serialization and the seeded generator.

A system document is
    {"vars": [...], "d": d, "p": [p_1..p_n], "A": [matrix_1..matrix_n],
     "trunc": [N_1..N_n] | null, "minpoly": ["c0","c1","1"] | null}
with matrices row-major, each entry a list of {"exp": [e_1..e_n],
"coeff": scalar}, rationals as "p" or "p/q" strings and extension
elements as two-element coefficient lists.  A trunc slot of null means
the entry data is exact in that variable.

Inputs are bounded: d at most MAX_DIMENSION and every p_i at most
MAX_POINCARE_RANK, in system documents and generator shapes alike.
The work of a reduction grows with both (the scalar leaf alone walks
p_i + 1 coefficients), so an absurd value is refused up front instead
of hanging.  The generator's gauge takes at most MAX_GAUGE_OPS row
operations with exponents at most MAX_GAUGE_DEGREE: each operation
multiplies the gauge and its inverse by one more polynomial, so their
size grows with both.
A minpoly that is not monic of degree >= 2, or a quadratic with a
rational root, is not a minimal polynomial and is bad input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .driver import FormalSolution
from .errors import InputError
from .linalg import ConstMatrix, SeriesMatrix
from .scalars import QQ, FieldTower, MinimalPolynomial, Scalar
from .series import INF, Series
from .system import GaugeTransformation, PfaffianSystem, apply_gauge


MAX_DIMENSION = 32
MAX_POINCARE_RANK = 64
MAX_GAUGE_OPS = 16
MAX_GAUGE_DEGREE = 16


# -- scalars -----------------------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer; Python counts true and false as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rational_from_json(v) -> Fraction:
    """A rational literal: an integer or a "p" / "p/q" string."""
    if not (_is_int(v) or isinstance(v, str)):
        raise InputError(f"bad scalar: {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal: {v!r}") from exc


def _tower_from_json(doc) -> FieldTower:
    """Q, or Q(alpha) when the document names a minimal polynomial."""
    mp = doc.get("minpoly")
    if mp is None:
        return QQ
    if not isinstance(mp, list):
        raise InputError(f"minpoly must be a list of coefficients: {mp!r}")
    coeffs = [_rational_from_json(c) for c in mp]
    if len(coeffs) < 3 or coeffs[-1] != 1:
        raise InputError(f"minpoly must be monic of degree at least 2: {mp!r}")
    minpoly = MinimalPolynomial(coeffs)
    if minpoly.degree == 2 and not minpoly.is_irreducible_quadratic():
        raise InputError(f"minpoly has a rational root: {mp!r}")
    return QQ.adjoin(minpoly)


def _scalar_to_json(c: Scalar):
    coeffs = [str(x) for x in c.coeffs]
    if len(coeffs) == 1:
        return coeffs[0]
    return coeffs


def _scalar_from_json(v, tower: FieldTower) -> Scalar:
    if not isinstance(v, list):
        return tower.scalar(_rational_from_json(v))
    if len(v) != tower.degree:
        raise InputError(
            f"scalar has {len(v)} coefficients but the declared "
            f"field has degree {tower.degree}")
    return tower.from_coeffs([_rational_from_json(x) for x in v])


# -- series and matrices -----------------------------------------------------


def _series_to_json(s: Series):
    out = []
    for e in sorted(s.terms, key=lambda e: (sum(e), e)):
        c = s.terms[e]
        if not c.is_zero():
            out.append({"exp": list(e), "coeff": _scalar_to_json(c)})
    return out


def _series_from_json(lst, nvars, tower, hi) -> Series:
    if not isinstance(lst, list):
        raise InputError("series entry must be a list of terms")
    terms = {}
    for item in lst:
        if not isinstance(item, dict) or set(item) != {"exp", "coeff"}:
            raise InputError(f"bad series term: {item!r}")
        e = item["exp"]
        if (not isinstance(e, list) or len(e) != nvars
                or not all(_is_int(x) for x in e)):
            raise InputError(f"bad exponent vector: {e!r}")
        if any(x < 0 for x in e):
            raise InputError("input entries must be polynomial (no poles)")
        c = _scalar_from_json(item["coeff"], tower)
        if not c.is_zero():
            key = tuple(e)
            terms[key] = terms.get(key, tower.zero()) + c
    return Series(nvars, terms, tower, None, hi)


def matrix_to_json(M: SeriesMatrix):
    return [[_series_to_json(M.rows[r][c]) for c in range(M.ncols)]
            for r in range(M.nrows)]


def _trunc_to_json(hi):
    return [None if h == INF else h for h in hi]


def _trunc_from_json(t, nvars):
    if t is None:
        return (INF,) * nvars
    if not isinstance(t, list) or len(t) != nvars:
        raise InputError("trunc must be null or one bound per variable")
    out = []
    for x in t:
        if x is None:
            out.append(INF)
        elif _is_int(x) and x > 0:
            out.append(x)
        else:
            raise InputError(f"bad truncation bound: {x!r}")
    return tuple(out)


# -- documents ---------------------------------------------------------------


def _vars_from_json(v):
    if (not isinstance(v, list) or not v
            or not all(isinstance(x, str) for x in v)
            or len(set(v)) != len(v)):
        raise InputError("vars must be a list of distinct names")
    return v


def _check_bounds(d, p):
    if d > MAX_DIMENSION:
        raise InputError(f"d = {d} exceeds the bound {MAX_DIMENSION}")
    if any(x > MAX_POINCARE_RANK for x in p):
        raise InputError(f"p = {p} exceeds the bound {MAX_POINCARE_RANK}")


def _is_square(M, d):
    """M is a d x d grid of JSON lists, row-major."""
    return (isinstance(M, list) and len(M) == d
            and all(isinstance(r, list) and len(r) == d for r in M))


def serialize_system(S: PfaffianSystem) -> dict:
    doc = {
        "vars": list(S.vars),
        "d": S.d,
        "p": list(S.p),
        "A": [matrix_to_json(A) for A in S.A],
        "trunc": _trunc_to_json(S.window_hi()),
    }
    if S.tower.minpoly is not None:
        doc["minpoly"] = [str(c) for c in S.tower.minpoly.coeffs]
    return doc


def parse_system_dict(doc) -> PfaffianSystem:
    if not isinstance(doc, dict):
        raise InputError("system document must be a JSON object")
    for key in ("vars", "d", "p", "A"):
        if key not in doc:
            raise InputError(f"missing document key: {key!r}")
    vars_ = _vars_from_json(doc["vars"])
    n = len(vars_)
    d = doc["d"]
    if not _is_int(d) or d < 1:
        raise InputError("d must be a positive integer")
    p = doc["p"]
    if (not isinstance(p, list) or len(p) != n
            or not all(_is_int(x) and x >= 0 for x in p)):
        raise InputError("p must list one nonnegative integer per variable")
    _check_bounds(d, p)
    tower = _tower_from_json(doc)
    hi = _trunc_from_json(doc.get("trunc"), n)
    mats = doc["A"]
    if not isinstance(mats, list) or len(mats) != n:
        raise InputError("A must hold one matrix per variable")
    A = []
    for M in mats:
        if not _is_square(M, d):
            raise InputError(f"each matrix must be {d}x{d}, row-major")
        rows = [[_series_from_json(M[r][c], n, tower, hi) for c in range(d)]
                for r in range(d)]
        A.append(SeriesMatrix(rows, n, tower))
    return PfaffianSystem(vars_, p, A, tower)


def parse_system(text: str) -> PfaffianSystem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    return parse_system_dict(doc)


def serialize_solution(sol: FormalSolution, vars_) -> dict:
    def qdict(q):
        return {str(e): _scalar_to_json(c)
                for e, c in sorted(q.items(), key=lambda kv: kv[0])}

    doc = {
        "vars": list(vars_),
        "d": sol.d,
        "s": list(sol.s),
        "Phi": {"entries": matrix_to_json(sol.phi),
                "trunc": _trunc_to_json(sol.phi.window_hi())},
        "C": [None if c is None else
              [[_scalar_to_json(x) for x in r] for r in c.rows]
              for c in sol.C],
        "Q": [[qdict(q) for q in qs] for qs in sol.Q],
        "structure": _structure_to_json(sol.structure),
        "diagnostics": list(sol.diagnostics),
        "verified_to_order": order_to_json(sol.verified_to),
    }
    tower = sol.phi.tower
    if tower.minpoly is not None:
        doc["minpoly"] = [str(c) for c in tower.minpoly.coeffs]
    return doc


def order_to_json(k):
    if k is None:
        return None
    if k == INF:
        return "inf"
    return k


def _structure_to_json(st):
    return list(st[:3]) + [_structure_to_json(x) for x in st[3:]] \
        if st and st[0] == "split" else list(st)


def parse_solution_dict(doc) -> FormalSolution:
    if not isinstance(doc, dict):
        raise InputError("solution document must be a JSON object")
    for key in ("vars", "d", "s", "Phi", "C", "Q"):
        if key not in doc:
            raise InputError(f"missing solution key: {key!r}")
    n = len(_vars_from_json(doc["vars"]))
    d = doc["d"]
    if not _is_int(d) or d < 1:
        raise InputError("d must be a positive integer")
    tower = _tower_from_json(doc)
    s = doc["s"]
    if (not isinstance(s, list) or len(s) != n
            or not all(_is_int(x) and x >= 1 for x in s)):
        raise InputError("s must list one positive ramification per variable")
    phi_doc = doc["Phi"]
    if not isinstance(phi_doc, dict) or "entries" not in phi_doc:
        raise InputError("Phi must be an object with entries")
    hi = _trunc_from_json(phi_doc.get("trunc"), n)
    entries = phi_doc["entries"]
    if not _is_square(entries, d):
        raise InputError("Phi must be d x d")
    phi = SeriesMatrix(
        [[_series_from_json(entries[r][c], n, tower, hi) for c in range(d)]
         for r in range(d)], n, tower)
    if not isinstance(doc["C"], list) or len(doc["C"]) != n:
        raise InputError("C must hold one matrix (or null) per variable")
    C = []
    for cm in doc["C"]:
        if cm is None:
            C.append(None)
            continue
        if not _is_square(cm, d):
            raise InputError("each C must be d x d")
        C.append(ConstMatrix([[_scalar_from_json(x, tower) for x in r]
                              for r in cm], tower))
    if not isinstance(doc["Q"], list) or len(doc["Q"]) != n:
        raise InputError("Q must hold one list of slots per variable")
    Q = []
    for qs in doc["Q"]:
        if (not isinstance(qs, list) or len(qs) != d
                or not all(isinstance(q, dict) for q in qs)):
            raise InputError("Q needs one dict per diagonal slot")
        blocks = []
        for q in qs:
            out = {}
            for e, c in q.items():
                exp = _rational_from_json(e)
                if exp >= 0:
                    raise InputError("q exponents must be negative")
                out[exp] = _scalar_from_json(c, tower)
            blocks.append(out)
        Q.append(blocks)
    structure = _structure_from_json(doc.get("structure", ["unknown"]))
    diagnostics = doc.get("diagnostics", [])
    if not isinstance(diagnostics, list):
        raise InputError("diagnostics must be a list")
    return FormalSolution(phi, C, Q, s, structure, diagnostics)


def _structure_from_json(st):
    if not isinstance(st, list):
        raise InputError(f"bad structure: {st!r}")
    if st and st[0] == "split":
        return tuple(st[:3]) + tuple(_structure_from_json(x) for x in st[3:])
    return tuple(st)


def parse_solution(text: str) -> FormalSolution:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "solution" in doc:
        doc = doc["solution"]
    return parse_solution_dict(doc)


# -- generator ---------------------------------------------------------------

# residue pool with no two entries an integer apart, so the planted
# systems never land on a resonant grade
_RESIDUE_POOL = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5),
                 Fraction(-1, 7), Fraction(3, 8)]
_COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(3), Fraction(-1, 3)]


def generate_equivalent(seed, shape):
    """Diagonal normal form, obfuscated by a seeded unimodular gauge.

    shape: {"n": .., "d": .., "p": [..], "gauge_ops": int (default 4,
            at most MAX_GAUGE_OPS), "gauge_degree": int (default 2, at most
            MAX_GAUGE_DEGREE), "ramified": bool}.
    Returns (system, planted) where planted holds the invariants the
    reduction must recover: per-variable Q slot dicts, s, p_true, omega.
    The construction is integrable by commutativity (diagonal matrices
    in independent variables), and unipotent row operations preserve
    that while hiding the block structure.
    """
    rng = random.Random(seed)
    n, d = shape["n"], shape["d"]
    p = list(shape["p"])
    if not _is_int(d) or d < 1:
        raise InputError("shape.d must be a positive integer")
    if len(p) != n or any(x < 0 for x in p):
        raise InputError("shape.p must list one nonnegative rank per variable")
    _check_bounds(d, p)
    ops = shape.get("gauge_ops", 4)
    deg = shape.get("gauge_degree", 2)
    for name, value, bound in (("gauge_ops", ops, MAX_GAUGE_OPS),
                               ("gauge_degree", deg, MAX_GAUGE_DEGREE)):
        if not _is_int(value) or not 0 <= value <= bound:
            raise InputError(f"shape.{name} must be an integer from 0 to "
                             f"the bound {bound}, got {value!r}")
    ramified = bool(shape.get("ramified"))
    if ramified and (d < 2 or p[0] < 1):
        raise InputError("a ramified plant needs d >= 2 and p_1 >= 1")

    tower = QQ
    Q = [[dict() for _ in range(d)] for _ in range(n)]
    s_true = [1] * n
    lam = [[rng.choice(_RESIDUE_POOL) for _ in range(d)] for _ in range(n)]
    A = []

    for i in range(n):
        rows = [[Series.zero(n, tower) for _ in range(d)] for _ in range(d)]
        # slots 0 and 1 of a ramified plant carry a coupled block in the
        # first variable and must share their data everywhere else, or
        # the commutators would not close
        if ramified and i == 0:
            slots = list(range(2, d))
        elif ramified:
            slots = [0] + list(range(2, d))
        else:
            slots = list(range(d))
        force = slots[0] if slots else None
        for j in slots:
            # q_{ij} = sum_{k=1..p_i} c_k x_i^{-k} turns into the matrix
            # entry x^{p+1} d/dx (q_ij + lam log x)
            #      = sum_k (-k c_k) x^{p-k} + lam x^p;
            # the forced slot keeps c_p nonzero so p_i is the true rank
            terms = {}
            for k in range(1, p[i] + 1):
                c = rng.choice(_COEFF_POOL) if (k == p[i] and j == force) \
                    else rng.choice(_COEFF_POOL + [Fraction(0)] * 3)
                if c:
                    Q[i][j][Fraction(-k)] = tower.scalar(c)
                    terms[tuple(p[i] - k if t == i else 0
                                for t in range(n))] = tower.scalar(-c * k)
            e_p = tuple(p[i] if t == i else 0 for t in range(n))
            cur = terms.get(e_p, tower.zero())
            terms[e_p] = cur + tower.scalar(lam[i][j])
            terms = {e: c for e, c in terms.items() if not c.is_zero()}
            rows[j][j] = Series(n, terms, tower)
            if ramified and i > 0 and j == 0:
                rows[1][1] = Series(n, dict(terms), tower)
                Q[i][1] = dict(Q[i][0])
        A.append(SeriesMatrix(rows, n, tower))

    omega = [max((Fraction(-e) for q in Q[i] for e in q), default=Fraction(0))
             for i in range(n)]

    if ramified:
        # slots 0,1 of the first variable get [[0,1],[g^2 x,0]] with
        # rank p: eigenvalues +-g x^{1/2}, hence s_1 = 2, growth order
        # p - 1/2 and q = -+ 2g/(2p-1) x^{-(2p-1)/2}
        g = rng.choice([Fraction(1), Fraction(2), Fraction(3)])
        pi = p[0]
        e_one = tuple(1 if t == 0 else 0 for t in range(n))
        A[0].rows[0][1] = Series.constant(n, 1, tower)
        A[0].rows[1][0] = Series(n, {e_one: tower.scalar(g * g)}, tower)
        s_true[0] = 2
        co = Fraction(2 * g, 2 * pi - 1)
        exp = Fraction(-(2 * pi - 1), 2)
        Q[0][0] = {exp: tower.scalar(co)}
        Q[0][1] = {exp: tower.scalar(-co)}
        omega[0] = max(omega[0], -exp)

    S = PfaffianSystem([f"x{i + 1}" for i in range(n)], p, A, tower)

    gauge = GaugeTransformation.identity(d, n, tower)
    for _ in range(ops):
        r = rng.randrange(d)
        c = rng.randrange(d)
        if r == c:
            continue
        nterms = rng.randrange(1, 3)
        poly = Series.zero(n, tower)
        for _ in range(nterms):
            e = tuple(rng.randrange(deg + 1) for _ in range(n))
            poly = poly + Series(n, {e: tower.scalar(
                rng.choice(_COEFF_POOL))}, tower)
        N = SeriesMatrix.zeros(d, d, n, tower)
        N.rows[r][c] = poly
        gauge = gauge.compose(GaugeTransformation.unipotent(N))
    out = apply_gauge(S, gauge)

    planted = {
        "Q": Q,
        "s": s_true,
        "omega": omega,
        "p_true": [max(0, -(-w.numerator // w.denominator)) for w in omega],
        "gauge": gauge,
        "diagonal": S,
    }
    return out, planted

