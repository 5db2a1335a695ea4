"""Exact scalars: rationals and one optional quadratic extension.

Every scalar lives in a `FieldTower`, which is either plain Q or
Q(alpha) for a monic irreducible quadratic minimal polynomial.  Scalars
store their coordinate vector with respect to the basis (1, alpha, ...).

The field of a result is the join of its operands' fields
(`common_tower`): Q joins any tower, a tower joins itself, and two
distinct extensions have no join in this package (FieldExtensionError).
Scalar arithmetic applies the rule itself, ints and Fractions counting
as Q, and so do the series and matrix layers above, so no caller ever
lifts a value into a larger field by hand.

Scalars are immutable: nothing assigns coeffs or tower after
construction.  So when both operands are in the same FieldTower object,
arithmetic uses them as they are (Scalar._coerce returns the pair,
FieldTower.embed returns its argument) instead of copying them into
the join; operations over Q work on the single coordinate directly.
Each field builds its 0 and 1 once, and zero() and one() share them.

roots_of_charpoly is one case split for both fields: the root 0 from
the valuation, degree 1 directly, degree 2 from the discriminant; only
a remainder of degree >= 3 is searched for rational roots (Hensel),
each tested and divided out by Horner passes.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import FieldExtensionError, InputError, ReductionError

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def rational_str(q: Fraction) -> str:
    """str(q); a numerator or denominator past the interpreter's limit on
    printing integers is an InputError: the input's literals were too
    long for the result to be printed."""
    try:
        return str(q)
    except ValueError:
        raise InputError(
            f"a coefficient passes the {sys.get_int_max_str_digits()}-digit "
            f"limit on printing integers") from None


def fraction_sum(parts):
    """(num, den), not in lowest terms, with num/den the sum of the
    fractions n/d of the (n, d) integer pairs in the list parts; (0, 1)
    when it is empty.

    Neighbours add in pairs, then pairs of pairs, with no gcd: equal
    denominators add their numerators, others multiply out.  Large
    distinct denominators then meet ones of their own size, where a
    running lcm would take one gcd per part against an ever larger one.
    """
    while len(parts) > 1:
        merged = []
        for k in range(1, len(parts), 2):
            (n1, d1), (n2, d2) = parts[k - 1], parts[k]
            merged.append((n1 + n2, d1) if d1 == d2
                          else (n1 * d2 + n2 * d1, d1 * d2))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0] if parts else (0, 1)


def fraction_sqrt(q: Fraction):
    """Exact square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class MinimalPolynomial:
    """Monic univariate polynomial over Q, stored low to high degree."""

    def __init__(self, coeffs):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise FieldExtensionError("minimal polynomial must be monic of degree >= 1")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_irreducible_quadratic(self) -> bool:
        if self.degree != 2:
            return False
        c0, c1, _ = self.coeffs
        return fraction_sqrt(c1 * c1 - 4 * c0) is None

    def __eq__(self, other):
        return isinstance(other, MinimalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"MinimalPolynomial({list(self.coeffs)})"


class FieldTower:
    """Shared extension context.  Degree 1 means plain Q."""

    def __init__(self, minpoly: MinimalPolynomial | None = None):
        if minpoly is not None and not minpoly.is_irreducible_quadratic():
            raise FieldExtensionError(
                "unsupported field tower: only irreducible quadratics may be adjoined"
            )
        self.minpoly = minpoly
        # Scalars are immutable, so each field shares its own 0 and 1
        pad = (Fraction(0),) * (self.degree - 1)
        self._zero = Scalar((Fraction(0),) + pad, self)
        self._one = Scalar((Fraction(1),) + pad, self)

    @property
    def degree(self) -> int:
        return 1 if self.minpoly is None else self.minpoly.degree

    def adjoin(self, minpoly) -> "FieldTower":
        if not isinstance(minpoly, MinimalPolynomial):
            minpoly = MinimalPolynomial(minpoly)
        if self.minpoly is not None:
            raise FieldExtensionError("unsupported field tower: already extended")
        return FieldTower(minpoly)

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            return self.embed(value)
        v = _as_fraction(value)
        return Scalar((v,) + (Fraction(0),) * (self.degree - 1), self)

    def from_coeffs(self, coeffs) -> "Scalar":
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != self.degree:
            raise FieldExtensionError("coordinate vector has wrong length for tower")
        return Scalar(coeffs, self)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def generator(self) -> "Scalar":
        if self.degree == 1:
            raise FieldExtensionError("plain Q has no generator")
        return Scalar((Fraction(0), Fraction(1)), self)

    def embed(self, s: "Scalar") -> "Scalar":
        if s.tower is self:
            return s
        if s.tower.minpoly == self.minpoly:
            return Scalar(s.coeffs, self)
        if s.tower.degree == 1:
            return self.scalar(s.coeffs[0])
        if self.degree == 1 and s.is_rational():
            return self.scalar(s.coeffs[0])
        raise FieldExtensionError("mismatched extension contexts")

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "FieldTower(Q)" if self.minpoly is None else f"FieldTower(Q[a]/{self.minpoly!r})"


def common_tower(first: FieldTower, *rest: FieldTower) -> FieldTower:
    """The join of the given fields: the one extension among them, or Q."""
    out = first
    for t in rest:
        if t is out or t == out or t.degree == 1:
            continue
        if out.degree != 1:
            raise FieldExtensionError("mismatched extension contexts")
        out = t
    return out


def join_scalar(value, tower: FieldTower):
    """(value as a Scalar, the join of its field and tower).

    A Scalar keeps its own field; an int or Fraction takes tower's."""
    if isinstance(value, Scalar):
        return value, common_tower(tower, value.tower)
    return tower.scalar(value), tower


class Scalar:
    """Element of the tower's field, coordinates over (1, alpha)."""

    __slots__ = ("coeffs", "tower")

    def __init__(self, coeffs, tower: FieldTower):
        self.coeffs = coeffs
        self.tower = tower

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.tower is self.tower:
                return self, other
            t = common_tower(self.tower, other.tower)
            return t.embed(self), t.embed(other)
        if isinstance(other, (int, Fraction)):
            return self, self.tower.scalar(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldExtensionError("scalar is not rational")
        return self.coeffs[0]

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.tower.minpoly is None:
            return Scalar((a.coeffs[0] + b.coeffs[0],), a.tower)
        return Scalar(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.tower)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(tuple(-x for x in self.coeffs), self.tower)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a.tower.minpoly is None:
            return Scalar((a.coeffs[0] - b.coeffs[0],), a.tower)
        return Scalar(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)), a.tower)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        t = a.tower
        if t.minpoly is None:
            return Scalar((a.coeffs[0] * b.coeffs[0],), t)
        # quadratic: alpha^2 = -m1*alpha - m0
        m0, m1, _ = t.minpoly.coeffs
        a0, a1 = a.coeffs
        b0, b1 = b.coeffs
        hi = a1 * b1
        return Scalar((a0 * b0 - hi * m0, a0 * b1 + a1 * b0 - hi * m1), t)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        t = self.tower
        if t.degree == 1:
            return Scalar((1 / self.coeffs[0],), t)
        m0, m1, _ = t.minpoly.coeffs
        a0, a1 = self.coeffs
        # conjugate of a0 + a1*alpha is (a0 - a1*m1) - a1*alpha; norm is rational
        norm = a0 * a0 - a0 * a1 * m1 + a1 * a1 * m0
        return Scalar(((a0 - a1 * m1) / norm, -a1 / norm), t)

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "Scalar":
        t = self.tower
        if t.degree == 1:
            return self
        m1 = t.minpoly.coeffs[1]
        a0, a1 = self.coeffs
        return Scalar((a0 - a1 * m1, -a1), t)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Scalar):
            try:
                a, b = self._coerce(other)
            except FieldExtensionError:
                return False
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def sort_key(self):
        """Total order used for canonical eigenvalue ordering."""
        if self.is_rational():
            return (0, self.coeffs[0], Fraction(0))
        a0, a1 = self.coeffs
        return (1, -a1, a0)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.is_rational():
            return rational_str(self.coeffs[0])
        a0, a1 = self.coeffs
        parts = []
        if a0 != 0:
            parts.append(rational_str(a0))
        if a1 != 0:
            parts.append(f"{rational_str(a1)}*a" if a1 != 1 else "a")
        return " + ".join(parts) if parts else "0"


QQ = FieldTower()


# ---------------------------------------------------------------------------
# univariate polynomials over Scalar, low-to-high coefficient lists


def poly_trim(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return list(p)


def poly_scale(p, c):
    return poly_trim([x * c for x in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    t = p[0].tower
    out = [t.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(p, q):
    """Exact division over the field; q must be nonzero."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = poly_trim(p)
    t = q[-1].tower
    inv_lead = q[-1].inverse()
    quot = [t.zero()] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and rem:
        c = rem[-1] * inv_lead
        k = len(rem) - len(q)
        quot[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
        rem = poly_trim(rem)
    return poly_trim(quot), rem


def poly_deriv(p):
    return poly_trim([c * k for k, c in enumerate(p)][1:])


def poly_monic(p):
    p = poly_trim(p)
    if not p or p[-1] == 1:
        return p
    return poly_scale(p, p[-1].inverse())


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    return poly_monic(p)


def squarefree_part(p):
    d = poly_deriv(p)
    if not d:
        return poly_monic(p)
    g = poly_gcd(p, d)
    if len(g) == 1:
        return poly_monic(p)
    quot, rem = poly_divmod(p, g)
    if rem:
        raise ReductionError("gcd does not divide the polynomial")
    return poly_monic(quot)


def _eval_int(g, x):
    """Integer polynomial g (low to high) at the integer x."""
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return acc


def _rational_reconstruction(u, m, N, D):
    """r/s = u mod m with |r| <= N and 0 < |s| <= D, or None (needs m > 2ND)."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > N:
        t = r0 // r1
        r0, r1 = r1, r0 - t * r1
        s0, s1 = s1, s0 - t * s1
    if s1 == 0 or abs(s1) > D:
        return None
    return Fraction(r1, s1)


def _rational_root_candidates(p):
    """Candidate rational roots of a Q-coefficient polynomial of degree
    >= 1 with a nonzero constant term, sorted.

    Every rational root is among them; callers confirm each by exact
    division.  The squarefree part g, cleared to a primitive integer
    polynomial, is read modulo the smallest prime q that divides neither
    its leading coefficient nor g'(u) at any root u of g mod q (which
    holds once g stays squarefree mod q).  A rational root r/s then has
    s invertible mod q, so it reduces to a simple root u mod q; Newton's
    iteration (Hensel's lemma) lifts u to a modulus above 2|g_0||g_n|,
    from which rational reconstruction recovers r/s, since r | g_0 and
    s | g_n.  The cost is polynomial in the bit length; trial division
    of g_0 and g_n would be exponential in it.
    """
    sq = [c.to_fraction() for c in squarefree_part(
        [QQ.scalar(c.to_fraction()) for c in p])]
    lcm = math.lcm(*(f.denominator for f in sq))
    g = [int(f * lcm) for f in sq]
    content = math.gcd(*g)
    g = [c // content for c in g]
    dg = [k * c for k, c in enumerate(g)][1:]
    q = 1
    while True:
        q += 1
        if g[-1] % q == 0 or any(q % k == 0
                                 for k in range(2, math.isqrt(q) + 1)):
            continue
        roots = [u for u in range(q) if _eval_int(g, u) % q == 0]
        if all(_eval_int(dg, u) % q for u in roots):
            break
    N, D = abs(g[0]), abs(g[-1])
    cands = set()
    for u in roots:
        m = q
        while m <= 2 * N * D:
            m *= m
            u = (u - _eval_int(g, u) * pow(_eval_int(dg, u), -1, m)) % m
        r = _rational_reconstruction(u, m, N, D)
        if r is not None:
            cands.add(r)
    return sorted(cands)


def _deflate(p, root: Scalar):
    """(p / (t - root)^m, m) for the largest such m: each division by
    t - root is one Horner pass, which also yields the remainder p(root)."""
    m = 0
    while len(p) > 1:
        acc, quot = p[-1], []
        for c in reversed(p[:-1]):
            quot.append(acc)
            acc = c + acc * root
        if not acc.is_zero():
            break
        p, m = quot[::-1], m + 1
    return p, m


def _sqrt_in_tower(D: Scalar, t: FieldTower):
    """Square root of D inside the quadratic tower t, or None."""
    m0, m1, _ = t.minpoly.coeffs
    D0, D1 = t.embed(D).coeffs
    # (a + b*alpha)^2 = (a^2 - b^2*m0) + (2ab - b^2*m1) alpha
    if D1 == 0:
        r = fraction_sqrt(D0)
        if r is not None:
            return t.scalar(r)
    # b != 0: substitute a = (D1 + b^2*m1)/(2b); let s = b^2:
    # s^2*(m1^2 - 4*m0) + s*(2*D1*m1 - 4*D0) + D1^2 = 0
    A = m1 * m1 - 4 * m0
    B = 2 * D1 * m1 - 4 * D0
    C = D1 * D1
    disc = B * B - 4 * A * C
    rd = fraction_sqrt(disc)
    if rd is None:
        return None
    for s in ((-B + rd) / (2 * A), (-B - rd) / (2 * A)):
        if s <= 0:
            continue
        b = fraction_sqrt(s)
        if b is None:
            continue
        a = (D1 + s * m1) / (2 * b)
        cand = t.from_coeffs((a, b))
        if cand * cand == D:
            return cand
    return None


def _quadratic_roots(q, tower: FieldTower):
    """The distinct roots of the monic quadratic q = [c0, c1, 1] over
    tower, from its discriminant: over Q rational ones or a generator of
    Q[a]/(q) and its conjugate, over Q(a) by _sqrt_in_tower."""
    c0, c1, _ = q
    D = c1 * c1 - 4 * c0
    if D.is_zero():
        return [-c1 / 2]
    if tower.degree == 1:
        rd = fraction_sqrt(D.coeffs[0])
        if rd is None:
            alpha = tower.adjoin([c0.coeffs[0], c1.coeffs[0], 1]).generator()
            return [alpha, -c1 - alpha]
    else:
        rd = _sqrt_in_tower(D, tower)
        if rd is None:
            raise FieldExtensionError("eigenvalue field unsupported")
    return [(-c1 + rd) / 2, (-c1 - rd) / 2]


def roots_of_charpoly(p):
    """All roots of a polynomial over the join of its coefficients' fields.

    Returns a list of (Scalar, multiplicity) in canonical order; a
    rational root lives in Q, any other in the field it needs, the
    coefficients' extension or a new quadratic one.  Raises
    FieldExtensionError when the splitting field is out of policy.

    The cases, on the monic polynomial: the root 0 is read off the
    valuation.  A remainder of degree >= 3 sheds rational roots, each
    candidate (of p times its conjugate over Q(a)) divided out by
    _deflate, until degree 2 is left.  Degree 1 is solved directly,
    degree 2 by _quadratic_roots.  A remainder still of degree >= 3 has
    a squarefree part that must be linear, or quadratic with roots
    counted by _deflate.  Degree <= 2 and t^k make no poly_divmod call.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no well-defined roots")
    tower = common_tower(*(c.tower for c in p))
    p = poly_monic(p)
    low = next(k for k, c in enumerate(p) if not c.is_zero())
    roots = [(QQ.zero(), low)] if low else []
    p = p[low:]
    if len(p) > 3:
        rational = p if all(c.is_rational() for c in p) else poly_mul(
            p, [c.conjugate() for c in p])
        for cand in _rational_root_candidates(rational):
            if len(p) < 4:
                break
            r = QQ.scalar(cand)
            p, m = _deflate(p, r)
            if m:
                roots.append((r, m))
    k = len(p) - 1
    if k == 1:
        roots.append((-p[0], 1))
    elif k == 2:
        found = _quadratic_roots(p, tower)
        roots += [(r, 2 // len(found)) for r in found]   # double, or simple
    elif k > 2:
        s = squarefree_part(p)
        if len(s) == 2:
            roots.append((-s[0], k))
        elif len(s) == 3:
            r1, r2 = _quadratic_roots(s, tower)
            m = _deflate(p, r1)[1]
            roots += [(r1, m), (r2, k - m)]
        else:
            raise FieldExtensionError("eigenvalue field unsupported")
    roots = [(QQ.scalar(r.coeffs[0]) if r.tower.degree > 1 and r.is_rational()
              else r, m) for r, m in roots]
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots
