"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of Fraction coefficients, lowest degree first,
with no trailing zeros.  The zero polynomial is the empty tuple.  This
layer backs rational root finding, square-free decomposition and the
content/primitive-part splitting used by the bivariate ring.

Rational roots are found without factoring any coefficient: the real roots
of the squarefree integer part are isolated by Sturm bisection in integer
arithmetic (Sturm's theorem; Collins & Akritas, SYMSAC 1976, for exact
real-root isolation), so the cost is polynomial in the bit size of the
input.  The Sturm helpers work on lists of Python ints.

Coprimality is proved, when it can be, from one image mod 2^61 - 1
(`coprime_image`); the modular Euclid behind it is the one bipoly's
bivariate coprimality test runs on its specializations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

UPoly = tuple[Fraction, ...]

ZERO: UPoly = ()
ONE: UPoly = (Fraction(1),)


def make(coeffs: Iterable[Fraction | int]) -> UPoly:
    """Normalize a coefficient sequence (lowest degree first) to a UPoly."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def const(c: Fraction | int) -> UPoly:
    return make([c])


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
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return make(out)

def scale(f: UPoly, c: Fraction) -> UPoly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in f)


def divmod_exact_field(f: UPoly, g: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder in Q[t]; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    glc = g[-1]
    dg = len(g) - 1
    while len(r) >= len(g):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1] / glc
        k = len(r) - 1 - dg
        q[k] = c
        for j, b in enumerate(g):
            r[k + j] -= c * b
        r.pop()
    return make(q), make(r)


def rem(f: UPoly, g: UPoly) -> UPoly:
    return divmod_exact_field(f, g)[1]


def divides(g: UPoly, f: UPoly) -> bool:
    """True iff g divides f (g nonzero)."""
    if not g:
        return not f
    return is_zero(rem(f, g))


def deriv(f: UPoly) -> UPoly:
    return make([f[i] * i for i in range(1, len(f))])


def evaluate(f: UPoly, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * t + c
    return acc


def monic(f: UPoly) -> UPoly:
    if not f:
        return ZERO
    return scale(f, 1 / f[-1])


def gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd in Q[t]; gcd(0, 0) = 0."""
    a, b = f, g
    while b:
        a, b = b, rem(a, b)
    return monic(a)


def xgcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """Extended gcd: (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = divmod_exact_field(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
        t0, t1 = t1, sub(t0, mul(q, t1))
    if r0:
        c = 1 / r0[-1]
        r0, s0, t0 = scale(r0, c), scale(s0, c), scale(t0, c)
    return r0, s0, t0


def invert_mod(a: UPoly, f: UPoly) -> UPoly:
    """Inverse of a modulo f; requires gcd(a, f) = 1."""
    g, s, _ = xgcd(a, f)
    if degree(g) != 0:
        raise ArithmeticError("not invertible: arguments share a factor")
    return rem(s, f)


def gcd_many(polys: Sequence[UPoly]) -> UPoly:
    acc: UPoly = ZERO
    for p in polys:
        acc = gcd(acc, p)
        if is_const(acc) and acc:
            return ONE
    return acc


# ---------------------------------------------------------------------------
# Coprimality from one image mod a prime (Brown, J. ACM 18, 1971).

_PRIME = (1 << 61) - 1  # a Mersenne prime


def _trim(a: list[int]) -> list[int]:
    """a without its leading zeros; a itself when it has none."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:] if k else a


def _gcd_degree_mod_p(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over Z/_PRIME, by Euclid; a and b are lists of
    residues in [0, _PRIME), highest degree first, not both zero.

    A nonzero constant divisor ends the loop with degree 0, and two
    polynomials of degree 1 share their root exactly when the 2x2
    determinant of their coefficients is 0 mod _PRIME.  Otherwise a is
    reduced by b without an inverse: row k takes lc(b) r - q x^j b, so the
    remainder is lc(b)^m times that of a by b, with the same gcd with b.
    A row touches only the n - 1 entries under b's tail; an entry further
    right is instead multiplied in advance by lc(b) to the power of the
    rows that pass before it is first touched.
    """
    a, b = _trim(a), _trim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        n = len(b)
        if n == 1:
            return 0
        if len(a) == 2:  # and so n == 2
            return 0 if (a[0] * b[1] - a[1] * b[0]) % _PRIME else 1
        lead, tail = b[0], b[1:]
        r = list(a)
        m = len(r) - n + 1
        s = 1
        for i in range(n, len(r)):
            s = s * lead % _PRIME
            r[i] = r[i] * s % _PRIME
        for k in range(m):
            q = r[k]
            r[k + 1:k + n] = [(lead * c - q * t) % _PRIME
                              for c, t in zip(r[k + 1:k + n], tail)]
        a, b = b, _trim(r[m:])
    return len(a) - 1


def _image(f: UPoly) -> list[int]:
    """The integer multiple den(f) * f mod _PRIME, highest degree first."""
    den = math.lcm(*(c.denominator for c in f))
    return [c.numerator * (den // c.denominator) % _PRIME for c in reversed(f)]


def coprime_image(f: UPoly, g: UPoly) -> bool:
    """True when one image mod _PRIME proves that gcd(f, g) is constant;
    False means "not proved".

    Let D be a gcd of the integer multiples of f and g, primitive in Z[t].
    By Gauss's lemma lc(D) divides both leading coefficients, so when
    _PRIME does not divide one of them, D keeps its degree mod _PRIME and
    divides both images: a constant gcd of the images proves D constant.
    When neither leading coefficient survives, the images prove nothing.
    """
    if not (f and g):
        return False
    a, b = _image(f), _image(g)
    return bool(a[0] or b[0]) and _gcd_degree_mod_p(a, b) == 0


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
    return scale(f, 1 / c)


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


def rational_roots(f: UPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, sorted, each confirmed by
    exact deflation.

    With the root 0 divided out, let p be the squarefree part of f with
    coprime integer coefficients and leading coefficient a > 0.  By the
    rational-root theorem every rational root of p is m/a for an integer
    m, a root of the monic k(s) = a^(n-1) p(s/a) in Z[s].  A Sturm sequence
    of p, built from integer pseudo-remainders, is rescaled to one of k,
    and k's integer roots are isolated by bisection (`_integer_roots`).
    The cost is polynomial in the bit size of f: no coefficient is factored.
    """
    if not f:
        raise ValueError("rational_roots of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # strip the root at 0
    v = 0
    while v < len(f) and f[v] == 0:
        v += 1
    if v:
        roots.append((Fraction(0), v))
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
    for m in _integer_roots([[c * a ** (len(q) - 1 - j) for j, c in enumerate(q)]
                             for q in seq]):
        r = Fraction(m, a)
        lin = make([-r, 1])
        mult = 0
        while True:
            q, rest = divmod_exact_field(f, lin)
            if rest:
                break
            mult += 1
            f = q
        roots.append((r, mult))
    roots.sort(key=lambda t: t[0])
    return roots


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
