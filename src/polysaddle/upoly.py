"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zeros.  The zero polynomial is the empty tuple.  This layer backs
rational root finding, square-free decomposition and the
content/primitive-part splitting used by the bivariate ring.
Past its exits gcd is bipoly's modular gcd; Euclid is left in xgcd.

One coefficient rule holds in both rings, here and in bipoly: a
coefficient is an int where its value is an integer and a Fraction only
where it is not, never a float, since int arithmetic is far cheaper than
Fraction arithmetic.  make normalizes every coefficient through _coeff, and every
true division goes through _div, so an int / int never yields a float.
An int and Fraction(n, 1) are equal, hash alike and print alike, so no
result depends on which of the two a coefficient is.  Rational roots
are returned as Fractions.

Rational roots are found without factoring any coefficient: the real roots
of the squarefree integer part are isolated by Sturm bisection in integer
arithmetic (Sturm's theorem; Collins & Akritas, SYMSAC 1976, for exact
real-root isolation), so the cost is polynomial in the bit size of the
input.  The Sturm helpers work on lists of Python ints.  Images mod a
prime, and the coprimality proofs they give, are modp's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

# coefficients are int or Fraction, never float (module docstring)
UPoly = tuple[int | Fraction, ...]

ZERO: UPoly = ()
ONE: UPoly = (1,)


def _coeff(c: Fraction | int) -> int | Fraction:
    """c as a coefficient: an int when c is an integer, else a Fraction
    (a float is converted exactly)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b, b nonzero: an int when the quotient is one, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def make(coeffs: Iterable[Fraction | int]) -> UPoly:
    """Normalize a coefficient sequence (lowest degree first) to a UPoly."""
    cs = [_coeff(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(f: UPoly) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(f) - 1


def is_zero(f: UPoly) -> bool:
    return not f


def is_const(f: UPoly) -> bool:
    return len(f) <= 1


def add(f: UPoly, g: UPoly) -> UPoly:
    n = max(len(f), len(g))
    return make([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def neg(f: UPoly) -> UPoly:
    return tuple(-c for c in f)


def sub(f: UPoly, g: UPoly) -> UPoly:
    return add(f, neg(g))


def mul(f: UPoly, g: UPoly) -> UPoly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return make(out)

def scale(f: UPoly, c: Fraction | int) -> UPoly:
    if c == 0:
        return ZERO
    return make(a * c for a in f)


def divmod_exact_field(f: UPoly, g: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder in Q[t]; g must be nonzero.  As f is a
    trimmed tuple, f shorter than g is its own remainder."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(f) < len(g):
        return ZERO, f
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    glc = g[-1]
    dg = len(g) - 1
    while len(r) >= len(g):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = _div(r[-1], glc)
        k = len(r) - 1 - dg
        q[k] = c
        for j, b in enumerate(g):
            r[k + j] -= c * b
        r.pop()
    return make(q), make(r)


def rem(f: UPoly, g: UPoly) -> UPoly:
    return divmod_exact_field(f, g)[1]


def deriv(f: UPoly) -> UPoly:
    return make([f[i] * i for i in range(1, len(f))])


def evaluate(f: UPoly, t: Fraction | int) -> Fraction | int:
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
    return acc


def monic(f: UPoly) -> UPoly:
    if not f:
        return ZERO
    return scale(f, _div(1, f[-1]))


def gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd in Q[t]; gcd(0, 0) = 0.  Zero and constant operands end
    the call, and so does a + b t: it divides g iff g(-a/b) = 0.  Other
    pairs go to bipoly.gcd in y alone, which asks this gcd only about
    their y-coefficients, constants, so the calls nest two deep."""
    if len(f) > len(g):
        f, g = g, f
    if not f:
        return monic(g)
    if len(f) == 1:
        return ONE
    if len(f) == 2:  # b^n g(-a/b) for f = a + b t and n = deg g, in ints for ints
        v = sum(c * (-f[0]) ** i * f[1] ** (len(g) - 1 - i) for i, c in enumerate(g))
        return ONE if v else monic(f)
    from . import bipoly
    h = bipoly.gcd(bipoly.from_upoly_y(f), bipoly.from_upoly_y(g))
    if h == bipoly.ONE:
        return ONE
    return monic(make([h.get((0, j), 0) for j in range(bipoly.deg_y(h) + 1)]))


def xgcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    """(g, s) with s*a = g mod b, g monic (or zero); b's cofactor is not
    kept.  When deg a < deg b, deg s < deg b - deg g, so for g = 1 s is
    already the reduced inverse of a mod b."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    while r1:
        q, r = divmod_exact_field(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
    if r0:
        c = _div(1, r0[-1])
        r0, s0 = scale(r0, c), scale(s0, c)
    return r0, s0


def gcd_many(polys: Iterable[UPoly]) -> UPoly:
    acc: UPoly = ZERO
    for p in polys:
        acc = gcd(acc, p) if acc else p  # not made monic: gcd's exits keep ints
        if len(acc) == 1:
            return ONE
    return monic(acc)


def content_int(f: UPoly) -> Fraction:
    """Positive rational c with f/c integer-coprime; 0 for the zero polynomial."""
    if not f:
        return Fraction(0)
    num = 0
    den = 1
    for c in f:
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def primitive(f: UPoly) -> UPoly:
    """Integer-coprime coefficients, positive leading coefficient."""
    if not f:
        return ZERO
    c = content_int(f)
    if f[-1] < 0:
        c = -c
    return scale(f, _div(1, c))


def squarefree_part(f: UPoly) -> UPoly:
    """Product of the distinct irreducible factors of f, monic."""
    if is_const(f):
        return monic(f)
    g = gcd(f, deriv(f))
    return monic(divmod_exact_field(f, g)[0])


def squarefree_decomposition(f: UPoly) -> list[tuple[UPoly, int]]:
    """Yun's algorithm: [(g_i, i)] with f = lc * prod g_i^i, g_i squarefree, monic."""
    if is_const(f):
        return []
    f = monic(f)
    out: list[tuple[UPoly, int]] = []
    df = deriv(f)
    a = gcd(f, df)
    b = divmod_exact_field(f, a)[0]
    c = divmod_exact_field(df, a)[0]
    d = sub(c, deriv(b))
    i = 1
    while not is_const(b):
        g = gcd(b, d)
        if degree(g) > 0:
            out.append((monic(g), i))
        b2 = divmod_exact_field(b, g)[0]
        c2 = divmod_exact_field(d, g)[0]
        d = sub(c2, deriv(b2))
        b = b2
        i += 1
    return out


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """-(|lc b|^j a mod b) over its positive content, for integer coefficient
    lists (lowest degree first); [] when b divides a.  Only positive factors
    touch the remainder, so its signs are those of -rem(a, b)."""
    r = list(a)
    s, sign, db = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b) - 1
    while len(r) > db:
        c, k = sign * r[-1], len(r) - 1 - db
        r = [s * x for x in r]
        for j, y in enumerate(b):
            r[k + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    g = math.gcd(*r)
    return [-x // g for x in r]


def _sturm(p: list[int]) -> list[list[int]]:
    """p, p' and negated pseudo-remainders down to gcd(p, p'), up to positive
    factors: a Sturm sequence of p when the last entry is a constant."""
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        r = _neg_prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def _value(p: list[int], x: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _sign_changes(seq: list[list[int]], x: int) -> int:
    """Sign changes of the sequence evaluated at x, zeros skipped."""
    count, last = 0, 0
    for p in seq:
        v = _value(p, x)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _integer_roots(seq: list[list[int]]) -> list[int]:
    """Integer roots of k = seq[0], given a Sturm sequence seq of k.

    k must be squarefree of degree n >= 1, with integer coefficients and a
    positive leading coefficient a that divides the others.  Sturm's
    theorem counts the distinct real roots in (lo, hi] as V(lo) - V(hi).
    Integer intervals that hold a root are bisected down to width 1, where
    hi is the only candidate.  Fujiwara's bound 2 max |k_(n-i)/a|^(1/i)
    puts every root inside (-B, B).
    """
    k = seq[0]
    n, a = len(k) - 1, k[-1]
    B = 1 << (2 + max(-(-(k[n - i] // a).bit_length() // i) for i in range(1, n + 1)))
    roots = []
    stack = [(-B, B, _sign_changes(seq, -B), _sign_changes(seq, B))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _value(k, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = _sign_changes(seq, mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return roots


def rational_roots(f: UPoly) -> list[Fraction]:
    """The distinct rational roots of f, sorted.

    With the root 0 divided out, let p be the squarefree part of f with
    coprime integer coefficients and leading coefficient a > 0.  By the
    rational-root theorem every rational root of p is m/a for an integer
    m, a root of the monic k(s) = a^(n-1) p(s/a) in Z[s].  A Sturm sequence
    of p, built from integer pseudo-remainders, is rescaled to one of k,
    and k's integer roots are isolated by bisection (`_integer_roots`).
    That keeps an m only where k(m) = 0 in exact integer arithmetic, so
    p(m/a) = 0 and every m/a returned is a root of f: none is divided out
    to confirm it.  The cost is polynomial in the bit size of f: no
    coefficient is factored.
    """
    if not f:
        raise ValueError("rational_roots of the zero polynomial")
    v = next(i for i, c in enumerate(f) if c)  # strip the root at 0
    roots = [Fraction(0)] if v else []
    f = f[v:]
    if is_const(f):
        return roots
    p = [int(c) for c in primitive(f)]
    seq = _sturm(p)
    if len(seq[-1]) > 1:
        # seq[-1] is gcd(p, p'); the quotient is the squarefree part
        p = [int(c) for c in primitive(divmod_exact_field(make(p), make(seq[-1]))[0])]
        seq = _sturm(p)
    a = p[-1]
    roots += (Fraction(m, a) for m in _integer_roots(
        [[c * a ** (len(q) - 1 - j) for j, c in enumerate(q)] for q in seq]))
    return sorted(roots)


def to_string(f: UPoly, var: str = "t") -> str:
    if not f:
        return "0"
    parts: list[str] = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
