"""Sparse truncated multivariate (Laurent) series over exact scalars.

A Series stores a dict mapping exponent tuples to nonzero scalars plus a
per-variable validity window [lo_i, hi_i).  Coefficients of monomials
with every exponent below hi are exactly as stored; lo_i is a hard
support floor (no terms exist below it, which is what makes elements of
the monomial localization representable).  A series known exactly (a
polynomial, closed under all arithmetic performed on it) carries an
infinite window; a series that merely prints as zero while hi is finite
is a truncation-limited zero, not a proven one.  A sum or product lives
in the join of its operands' fields (scalars.common_tower), a Scalar
operand counting by its own field.  A coefficient's field is not part
of a series' value: a coefficient may sit in any field that holds it,
and nothing reads which one.  A product with a scalar c is the product
with the constant series c, window included: it keeps the top and
takes the effective floor; a rational 1 shares the terms as they are.
The module offers ring arithmetic, window handling and the systems'
operator x_i^{p+1} d/dx_i (euler); it has no series division, only the
exact division of forms (divide_form) that the column reduction uses.

Stored-term invariant: every stored coefficient is nonzero and every
stored exponent lies in [lo, hi).  The public constructor Series(...)
establishes it for any input: it raises DimensionError on a term below
the floor and drops zero coefficients and terms at or above the top.
Results whose invariant holds by construction skip those checks through
the module-private Series._trusted; only constant and monomial take
the public constructor.  Sums, products and clipped drop what cancels
and what a narrower top cuts off themselves.

sum_of_products(start, pairs, tower) is the one kernel for products of
series: start + s_1 M_1 N_1 + s_2 M_2 N_2 + ... over grids of series, as
the fold acc = acc + s_k a b from each start entry gives it; given a
fold such as fold_buckets, it returns what the fold makes of each
entry's buckets in place of the Series.  It reads each operand entry's
coordinates, effective floor, top and field once per call, skips a pair
with an exact-zero factor and folds each entry once.  A start entry of
None starts from nothing.  Series times Series is its one-entry case
from None.  One rule holds on every path: a product with an exact-zero
factor (a zero scalar, or a series that is zero on an infinite window)
is Series.zero in the join of the fields.  The kernel's pieces are
public for the graded Riccati solver (reduction.solve_graded):
term_coordinates splits terms into integer coordinates, product_window
is the window of one product, add_products adds term pairs below a top
into integer buckets keyed by exponent, degree in a and denominator,
fold_buckets sums each exponent's buckets in integers, fold_scalars
makes one Scalar per exponent, in Q when it is rational, and
coordinate_grid and grid_product apply them to matrices.  grid_product
starts each entry from a start grid of coordinate lists, or from
nothing for None: the solver's start is its derivative term.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import (
    DimensionError,
    NotUnitError,
    TruncationInsufficient,
)
from .scalars import (QQ, FieldTower, Scalar, common_tower, fraction_sum,
                      join_scalar)

INF = math.inf


def _norm_window(nvars, lo, hi):
    if lo is None:
        lo = (0,) * nvars
    if hi is None:
        hi = (INF,) * nvars
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != nvars or len(hi) != nvars:
        raise DimensionError("window length does not match variable count")
    return lo, hi


def term_coordinates(terms, sign):
    """(exponent, degree in a, numerator times sign, denominator) of each
    nonzero coordinate of each term of the terms dict."""
    out = []
    for exp, c in terms.items():
        cs = c.coeffs
        if len(cs) == 1:
            q = cs[0]
            out.append((exp, 0, sign * q.numerator, q.denominator))
        else:
            for g, q in enumerate(cs):
                if q:
                    out.append((exp, g, sign * q.numerator, q.denominator))
    return out


def product_window(fa, ha, fb, hb, lo, hi):
    """[lo, hi) widened and narrowed to hold a product of series with
    effective floors fa, fb and tops ha, hb: the floor min(lo, fa + fb)
    and the top min(hi, ha + fb, hb + fa); a product of exact series
    leaves the top as it is."""
    add = operator.add
    lo = tuple(map(min, lo, map(add, fa, fb)))
    if ha != hb or min(ha) != INF:
        hi = tuple(map(min, hi, map(add, ha, fb), map(add, hb, fa)))
    return lo, hi


def add_products(start, factors, hi):
    """Integer buckets {(exponent, degree in a, denominator): numerator}
    of the terms below the top hi of start plus the products of the
    factors: start a term_coordinates list, and factors pairs of them,
    each term pair of a pair making one product."""
    add = operator.add
    cut = [(k, h) for k, h in enumerate(hi) if h != INF]
    buckets: dict = {}
    get = buckets.get
    for exp, g, num, den in start:
        for k, h in cut:
            if exp[k] >= h:
                break
        else:
            key = exp, g, den
            buckets[key] = get(key, 0) + num
    for ca, cb in factors:
        for e1, g1, n1, d1 in ca:
            for e2, g2, n2, d2 in cb:
                exp = tuple(map(add, e1, e2))
                for k, h in cut:
                    if exp[k] >= h:
                        break
                else:
                    key = exp, g1 + g2, d1 * d2
                    buckets[key] = get(key, 0) + n1 * n2
    return buckets


def fold_buckets(buckets, minpoly):
    """{exponent: (n0, d0, n1, d1)}, integers, for each exponent whose
    buckets add up to the nonzero n0/d0 + (n1/d1) a.  Each degree in a
    adds up by scalars.fraction_sum, and a^2 = -m1 a - m0 for the
    minimal polynomial minpoly (None over Q, where every degree is 0)."""
    out = {}
    sums: dict = {}
    if minpoly is None:
        for (exp, _, den), num in buckets.items():
            if num:
                f = sums.get(exp)
                if f is None:
                    sums[exp] = [(num, den)]
                else:
                    f.append((num, den))
        for exp, parts in sums.items():
            num, den = fraction_sum(parts)
            if num:
                out[exp] = num, den, 0, 1
        return out
    for (exp, g, den), num in buckets.items():
        if num:
            f = sums.get(exp)
            if f is None:
                f = sums[exp] = [], [], []
            f[g].append((num, den))
    m0, m1 = minpoly.coeffs[:2]
    for exp, f in sums.items():
        (v0, d0), (v1, d1), (v2, d2) = map(fraction_sum, f)
        if v2:      # v_k / d_k - m_k v2 / d2
            v0, d0 = (v0 * d2 * m0.denominator - m0.numerator * v2 * d0,
                      d0 * d2 * m0.denominator)
            if m1:
                v1, d1 = (v1 * d2 * m1.denominator - m1.numerator * v2 * d1,
                          d1 * d2 * m1.denominator)
        if v0 or v1:
            out[exp] = v0, d0, v1, d1
    return out


def coordinate_grid(M, sign):
    """term_coordinates of each entry of the matrix M, times sign."""
    return [[term_coordinates(e.terms, sign) for e in row] for row in M.rows]


def grid_product(start, A, B, hi, fold, tower):
    """fold(buckets, tower) per entry of start plus the product of the
    coordinate grids A and B, the buckets holding its terms and term
    pairs below hi; start is a grid of coordinate lists, or None."""
    cols = list(zip(*B))
    if start is None:
        start = [[()] * len(cols)] * len(A)
    return [[fold(add_products(s, f, hi) if (
        f := list(filter(all, zip(r, c)))) or s else {}, tower)
        for c, s in zip(cols, srow)] for r, srow in zip(A, start)]


def fold_coordinates(buckets, tower):
    """term_coordinates of the terms fold_buckets adds up in tower, with
    no Scalar made."""
    out = []
    for e, (n0, d0, n1, d1) in fold_buckets(buckets, tower.minpoly).items():
        if n0:
            out.append((e, 0, n0, d0))
        if n1:
            out.append((e, 1, n1, d1))
    return out


def fold_scalars(buckets, tower):
    """{exponent: Scalar} of fold_buckets(buckets, tower.minpoly): one
    Scalar per exponent, in Q when it is rational, else in tower."""
    return {exp: Scalar((Fraction(n0, d0), Fraction(n1, d1)), tower)
            if n1 else Scalar((Fraction(n0, d0),), QQ)
            for exp, (n0, d0, n1, d1)
            in fold_buckets(buckets, tower.minpoly).items()}


def sum_of_products(start, pairs, tower, fold=None):
    """start + s_1 M_1 N_1 + ... for (s_k, M_k, N_k) in pairs, signs +-1
    and grids (lists of rows) of series: a new grid, each entry what the
    fold acc = acc + s_k a b from its start entry gives, in the join of
    tower and the fields met, a pair with an exact-zero factor skipped.
    A start entry of None starts from nothing: the entry holds its
    products alone, window included, and is Series.zero when every pair
    is skipped.  With fold given, an entry is fold(buckets, minpoly) of
    its integer buckets and its field's minimal polynomial instead of a
    Series."""
    read = {}

    def entries(M, sign):
        got = read.get((id(M), sign))
        if got is None:
            got = read[id(M), sign] = [[None if not e.terms and e.exact else (
                term_coordinates(e.terms, sign), e.effective_floor(), e.hi,
                e.tower) for e in row] for row in M]
        return got

    grids = [(entries(M, sign), list(zip(*entries(N, 1))))
             for sign, M, N in pairs]
    out = []
    for r, srow in enumerate(start):
        row = []
        for c, s in enumerate(srow):
            if s is None:       # nothing yet: no terms, floor or top
                n, tw, sc = pairs[0][1][0][0].nvars, tower, ()
                lo = hi = (INF,) * n
            else:
                n, lo, hi = s.nvars, s.lo, s.hi
                tw = common_tower(s.tower, tower)
                sc = term_coordinates(s.terms, 1) if s.terms else ()
            factors = []
            for rows, cols in grids:
                for a, b in zip(rows[r], cols[c]):
                    if a and b:
                        (ca, fa, ha, ta), (cb, fb, hb, tb) = a, b
                        lo, hi = product_window(fa, ha, fb, hb, lo, hi)
                        if ta is not tw or tb is not tw:
                            tw = common_tower(tw, ta, tb)
                        factors.append((ca, cb))
            if s is None and not factors:
                lo = (0,) * n           # every pair skipped: Series.zero
            buckets = add_products(sc, factors, hi)
            row.append(fold(buckets, tw.minpoly) if fold else Series._trusted(
                n, fold_scalars(buckets, tw), tw, lo, hi))
        out.append(row)
    return out


def divide_form(F: dict, Dk: dict, slots):
    """The form c, supported on the slot variables, with Dk c = F, or
    None when there is none; F and Dk are homogeneous {exponent: scalar}.

    Each step divides the lex-leading term of what is left of F by that
    of Dk.  Dk alone is a Groebner basis of the ideal it generates, so
    this finds c whenever it exists, and otherwise meets a term it
    cannot divide; c is unique, since multiplying by Dk is injective.
    """
    lead = max(Dk)
    inv = Dk[lead].inverse()
    F, c = dict(F), {}
    while F:
        m = max(F)
        q = tuple(a - b for a, b in zip(m, lead))
        if min(q) < 0 or sum(q[j] for j in slots) < sum(q):
            return None
        cq = c[q] = F[m] * inv
        for e, a in Dk.items():
            t = tuple(x + y for x, y in zip(e, q))
            v = F.pop(t, None)
            v = -a * cq if v is None else v - a * cq
            if not v.is_zero():
                F[t] = v
    return c


def grlex_key(exp):
    # graded, then x1-major within a grade
    return (sum(exp), tuple(-e for e in exp))


class Series:
    __slots__ = ("nvars", "terms", "lo", "hi", "tower")

    def __init__(self, nvars: int, terms: dict, tower: FieldTower, lo=None, hi=None):
        self.nvars = nvars
        self.tower = tower
        self.lo, self.hi = _norm_window(nvars, lo, hi)
        clean = {}
        for exp, c in terms.items():
            if c.is_zero():
                continue
            if any(e < l for e, l in zip(exp, self.lo)):
                raise DimensionError("term below the support floor")
            if any(e >= h for e, h in zip(exp, self.hi)):
                continue  # do not store terms in the unknown region
            clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, nvars, terms, tower, lo, hi):
        """A series on terms that already keep the stored-term invariant,
        with lo and hi already tuples: nothing is checked or copied."""
        s = object.__new__(cls)
        s.nvars, s.terms, s.tower, s.lo, s.hi = nvars, terms, tower, lo, hi
        return s

    @classmethod
    def zero(cls, nvars, tower, lo=None, hi=None):
        return cls._trusted(nvars, {}, tower, *_norm_window(nvars, lo, hi))

    @classmethod
    def constant(cls, nvars, value, tower):
        c, tower = join_scalar(value, tower)
        return cls(nvars, {(0,) * nvars: c}, tower)

    @classmethod
    def monomial(cls, nvars, exp, value, tower):
        c, tower = join_scalar(value, tower)
        lo = tuple(min(0, e) for e in exp)
        return cls(nvars, {tuple(exp): c}, tower, lo=lo)

    # -- basic predicates --------------------------------------------------

    @property
    def exact(self) -> bool:
        return min(self.hi) == INF

    def is_zero(self) -> bool:
        """Zero within the window.  Combine with .exact for a proof."""
        return not self.terms

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * self.nvars)

    def coefficient(self, exp) -> Scalar:
        exp = tuple(exp)
        if any(e >= h for e, h in zip(exp, self.hi)):
            raise TruncationInsufficient("coefficient beyond truncation")
        c = self.terms.get(exp)
        return self.tower.zero() if c is None else c

    def form(self, g):
        """{exponent: coefficient} of the terms of total degree g."""
        return {e: c for e, c in self.terms.items() if sum(e) == g}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def support_min(self):
        """Componentwise minimum exponent of the support (None when zero)."""
        if not self.terms:
            return None
        cols = zip(*self.terms.keys())
        return tuple(min(c) for c in cols)

    def effective_floor(self):
        """Best provable support floor: the actual one for exact series."""
        if self.exact and self.terms:
            return self.support_min()
        return self.lo

    def valuation(self, i: int):
        """(valuation in x_i, truncation_limited).  inf for windowed zero."""
        if not self.terms:
            return INF, not self.exact
        return min(e[i] for e in self.terms), False

    def total_valuation(self):
        if not self.terms:
            return INF
        return min(sum(e) for e in self.terms)

    # -- window helpers ----------------------------------------------------

    def clipped(self, hi):
        """Explicitly forget terms at or above hi."""
        hi = tuple(map(min, self.hi, hi))
        terms = {e: c for e, c in self.terms.items()
                 if all(map(operator.lt, e, hi))}
        return Series._trusted(self.nvars, terms, self.tower, self.lo, hi)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Series.constant(self.nvars, other, self.tower)
        if not isinstance(other, Series):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionError("variable counts differ")
        lo = tuple(map(min, self.lo, other.lo))
        hi = tuple(map(min, self.hi, other.hi))
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            t = terms.get(exp)
            if t is None:
                terms[exp] = c
                continue
            t = t + c
            if t.is_zero():
                del terms[exp]
            else:
                terms[exp] = t
        if hi != self.hi or hi != other.hi:
            terms = {e: c for e, c in terms.items()
                     if all(map(operator.lt, e, hi))}
        return Series._trusted(self.nvars, terms,
                               common_tower(self.tower, other.tower), lo, hi)

    __radd__ = __add__

    def __neg__(self):
        return Series._trusted(self.nvars,
                               {e: -c for e, c in self.terms.items()},
                               self.tower, self.lo, self.hi)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Series.constant(self.nvars, other, self.tower)
        if not isinstance(other, Series):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c, tower = join_scalar(other, self.tower)
            if c.is_zero() or not self.terms and self.exact:
                return Series.zero(self.nvars, tower)
            lo = self.effective_floor()
            if c.tower.degree == 1 and c.coeffs[0] == 1:
                # a rational 1 shares the terms as they are
                return Series._trusted(self.nvars, self.terms, tower, lo,
                                       self.hi)
            return Series._trusted(self.nvars,
                                   {e: v * c for e, v in self.terms.items()},
                                   tower, lo, self.hi)
        if not isinstance(other, Series):
            return NotImplemented
        if other.nvars != self.nvars:
            raise DimensionError("variable counts differ")
        return sum_of_products([[None]], [(1, [[self]], [[other]])],
                               common_tower(self.tower, other.tower))[0][0]

    __rmul__ = __mul__

    def mul_monomial(self, exp):
        """Multiply by x^exp (exp may be negative); shifts the window."""
        exp = tuple(exp)
        lo = tuple(l + e for l, e in zip(self.lo, exp))
        hi = tuple(h + e for h, e in zip(self.hi, exp))
        terms = {tuple(map(operator.add, t, exp)): v
                 for t, v in self.terms.items()}
        return Series._trusted(self.nvars, terms, self.tower, lo, hi)

    def euler(self, i: int, p: int):
        """x_i^{p+1} d/dx_i: the term at e moves to e + p e_i with
        coefficient e_i c, and the window [lo, hi) moves by p in slot i."""
        terms = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                terms[exp[:i] + (k + p,) + exp[i + 1:]] = c if k == 1 else (
                    Scalar(tuple(x * k for x in c.coeffs), c.tower))
        lo = self.lo[:i] + (self.lo[i] + p,) + self.lo[i + 1:]
        hi = self.hi[:i] + (self.hi[i] + p,) + self.hi[i + 1:]
        return Series._trusted(self.nvars, terms, self.tower, lo, hi)

    def restrict(self, zero_vars):
        """Set the listed variables to 0."""
        zero_vars = set(zero_vars)
        for i in zero_vars:
            if self.hi[i] <= 0:
                raise TruncationInsufficient("restriction outside validity window")
            if self.lo[i] < 0 and any(e[i] < 0 for e in self.terms):
                raise NotUnitError("restricting a pole to the origin")
        terms = {e: c for e, c in self.terms.items()
                 if all(e[i] == 0 for i in zero_vars)}
        lo = tuple(0 if i in zero_vars else l for i, l in enumerate(self.lo))
        hi = tuple(INF if i in zero_vars else h for i, h in enumerate(self.hi))
        return Series._trusted(self.nvars, terms, self.tower, lo, hi)

    def coeff_in_xi(self, i: int, k: int):
        """The x_i^k coefficient, as a series in the remaining variables."""
        if k >= self.hi[i]:
            raise TruncationInsufficient("coefficient beyond truncation")
        terms = {e[:i] + (0,) + e[i + 1:]: c
                 for e, c in self.terms.items() if e[i] == k}
        lo = tuple(0 if j == i else l for j, l in enumerate(self.lo))
        hi = tuple(INF if j == i else h for j, h in enumerate(self.hi))
        return Series._trusted(self.nvars, terms, self.tower, lo, hi)

    def ramify(self, i: int, m: int):
        """Substitute x_i -> t^m (exponent scaling in slot i)."""
        if m < 1:
            raise ValueError("ramification index must be positive")
        if m == 1:
            return self
        terms = {e[:i] + (e[i] * m,) + e[i + 1:]: c for e, c in self.terms.items()}
        scale = lambda v: v * m if v not in (INF, -INF) else v
        lo = self.lo[:i] + (scale(self.lo[i]),) + self.lo[i + 1:]
        hi = self.hi[:i] + (scale(self.hi[i]),) + self.hi[i + 1:]
        return Series._trusted(self.nvars, terms, self.tower, lo, hi)

    def project_to_var(self, i: int):
        """Restrict all other variables to 0 and reindex to one variable."""
        r = self.restrict([j for j in range(self.nvars) if j != i])
        terms = {(e[i],): c for e, c in r.terms.items()}
        return Series._trusted(1, terms, self.tower, (r.lo[i],), (r.hi[i],))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        """Equality of stored content on the common validity window."""
        if isinstance(other, (int, Fraction, Scalar)):
            other = Series.constant(self.nvars, other, self.tower)
        elif not isinstance(other, Series):
            return NotImplemented
        if self.nvars != other.nvars:
            raise DimensionError("variable counts differ")
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        inside = lambda e: all(x < h for x, h in zip(e, hi))
        for e, c in self.terms.items():
            if inside(e) and other.terms.get(e, c - c) != c:
                return False
        for e, c in other.terms.items():
            if inside(e) and self.terms.get(e, c - c) != c:
                return False
        return True

    __hash__ = None  # window-relative equality is not hash-compatible

    # -- io ----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(exp) if e != 0)
            cs = str(c)
            if mono:
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    cs = f"({cs})" if "+" in cs or " " in cs else cs
                    parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})" if " " in cs else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Series({self})"

