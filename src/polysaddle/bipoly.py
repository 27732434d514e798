"""Sparse exact bivariate polynomial ring Q[x,y].

A polynomial is a dict mapping exponent pairs (i, j) to nonzero
coefficients and represents sum c_ij x^i y^j; the zero polynomial is the
empty dict.  Callers must treat values as immutable.  The monomial order
used for leading terms and canonical printing is graded lex with x > y:
compare total degree first, then the x exponent.

A coefficient is an int or a Fraction, never a float; integers stay ints,
since int arithmetic is two orders of magnitude cheaper than Fraction
arithmetic.  The constants ONE, X and Y, const, scalar_mul, the parser,
mul's unpacking, normalize and GCDHEU's candidate yield an int for every
integer value, and the two true divisions (in divmod_lt and in the
antiderivatives of field_ops) go through _div, which returns an int when
the quotient is one.  A Fraction is left for a value that is not an
integer, for the integer-valued result of arithmetic on Fractions
(1/2 + 1/2, or a product of operands with denominators), and for a value
taken over from upoly, whose coefficients are Fractions.  An int and
Fraction(n, 1) are equal, hash alike and print alike, so no result or
report depends on which of the two a coefficient is.

Products use Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic
Comput. 44, 2009): denominators are cleared, each operand is packed into
one Python integer with a digit per monomial wide enough for any product
coefficient and its sign, the two integers are multiplied once, and the
signed digits are unpacked in linear time.  A single-term operand is
shifted and scaled instead, and a sparse high-degree pair, whose packed
span far exceeds its number of term pairs, keeps the schoolbook loop.

A gcd with a nonzero constant operand is 1 at once.  Otherwise the
monomial content x^a y^b of each operand is split off first, and the gcd
is x^min y^min times the gcd of what is left, which x and y do not
divide.  That gcd first tries to prove coprimality: if for some integer
t the images f(t, y) and g(t, y) mod p = 2^61 - 1 have a constant gcd,
where lc_y(f) or lc_y(g) does not vanish at t mod p, then f and g share
no factor of positive y-degree, and the same test at y = t rules out
positive x-degree.  Up to three small t are tried per direction, then
three large ones; at t = 0 the image is read off the terms free of the
variable set to t, and two images of degree 1 are decided by one 2x2
determinant mod p.  Otherwise (a common factor, or a leading coefficient
that vanishes at every t tried) the heuristic gcd (GCDHEU: Char, Geddes
& Gonnet, J. Symbolic Comput. 7, 1989) runs on the Kronecker images that
mul packs:
one integer gcd gives a candidate, which is kept only once an exact
divisibility proof in Z[x, y] shows it divides both primitive parts, and
is then the gcd.  If no candidate passes at three bases, a subresultant
polynomial remainder sequence over Q[x][y] after content/primitive
splitting decides; a content of 1 is not divided out.  Resultants with
respect to y come from the same remainder sequence: its last, y-free
remainder is the resultant up to a power of the last scale factor (Brown
& Traub, J. ACM 18, 1971).  Every intermediate value stays exact.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import upoly
from .upoly import _PRIME, UPoly, _gcd_degree_mod_p

# coefficients are int or Fraction, never float (module docstring)
BiPoly = dict[tuple[int, int], int | Fraction]

ZERO: BiPoly = {}
ONE: BiPoly = {(0, 0): 1}
X: BiPoly = {(1, 0): 1}
Y: BiPoly = {(0, 1): 1}


def _coeff(c: Fraction | int) -> int | Fraction:
    """c as a coefficient: an int when c is an integer, else a Fraction
    (a float is converted exactly)."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b, b nonzero: an int when the quotient is one, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def const(c: Fraction | int) -> BiPoly:
    c = _coeff(c)
    return {(0, 0): c} if c else {}


def is_zero(f: BiPoly) -> bool:
    return not f


def is_const(f: BiPoly) -> bool:
    return not f or (len(f) == 1 and (0, 0) in f)


def total_degree(f: BiPoly) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((i + j for i, j in f), default=-1)


def deg_x(f: BiPoly) -> int:
    return max((i for i, _ in f), default=-1)


def deg_y(f: BiPoly) -> int:
    return max((j for _, j in f), default=-1)


def add(f: BiPoly, g: BiPoly) -> BiPoly:
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(f: BiPoly) -> BiPoly:
    return {e: -c for e, c in f.items()}


def sub(f: BiPoly, g: BiPoly) -> BiPoly:
    return add(f, neg(g))


def _mul_schoolbook(f: BiPoly, g: BiPoly) -> BiPoly:
    out: BiPoly = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return {e: c for e, c in out.items() if c}


# struct codes for the digit widths (in bytes) that fit a machine word
_DIGIT_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _numerators(f: BiPoly) -> tuple[list[int], int]:
    """Integer coefficients of den*f, in f's iteration order, and den."""
    den = 1
    for c in f.values():
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [c.numerator for c in f.values()], 1
    return [c.numerator * (den // c.denominator) for c in f.values()], den


def _to_digits(digits: list[int], nb: int) -> int:
    """The integer whose little-endian base-2^(8*nb) digits are `digits`
    (each in [0, 2^(8*nb)))."""
    fmt = _DIGIT_FMT.get(nb)
    if fmt:
        buf = struct.pack(f"<{len(digits)}{fmt}", *digits)
    else:
        buf = b"".join(d.to_bytes(nb, "little") for d in digits)
    return int.from_bytes(buf, "little")


def _from_digits(n: int, nb: int, count: int) -> Sequence[int]:
    """The first `count` base-2^(8*nb) digits of n >= 0, lowest first."""
    buf = n.to_bytes(count * nb, "little")
    fmt = _DIGIT_FMT.get(nb)
    if fmt:
        return struct.unpack(f"<{count}{fmt}", buf)
    mv = memoryview(buf)
    return [int.from_bytes(mv[k:k + nb], "little") for k in range(0, count * nb, nb)]


def mul(f: BiPoly, g: BiPoly) -> BiPoly:
    """Product by Kronecker substitution.

    After the lowest exponents are split off, x^i y^j maps to the digit
    position i*w + j, where w exceeds the y-degree of the product, so the
    product's terms never collide.  Each coefficient of den(f)*den(g)*f*g
    is a sum of at most min(#f, #g) products, bounded by
    M = max|f|*max|g|*min(#f, #g); a digit of 8*nb > log2(M) + 1 bits
    holds it with its sign.  Both operands are packed with every digit
    offset by half the digit range, so packing and unpacking are single
    linear-time byte conversions and one big-integer product does the
    work.  Single-term operands are shifted and scaled; a pair whose
    packed span exceeds 4*#f*#g (sparse, high degree) would pay more per
    empty digit than the schoolbook loop pays per term pair, and takes
    that loop.
    """
    if not f or not g:
        return {}
    if len(f) == 1 or len(g) == 1:
        if len(g) != 1:
            f, g = g, f
        ((a, b), c), = g.items()
        return {(i + a, j + b): d * c for (i, j), d in f.items()}
    fi, fj = zip(*f)
    gi, gj = zip(*g)
    fi0, fj0, gi0, gj0 = min(fi), min(fj), min(gi), min(gj)
    w = max(fj) - fj0 + max(gj) - gj0 + 1
    fsize, gsize = (max(fi) - fi0 + 1) * w, (max(gi) - gi0 + 1) * w
    span = fsize + gsize - w
    if span > 4 * len(f) * len(g):
        return _mul_schoolbook(f, g)
    fv, fden = _numerators(f)
    gv, gden = _numerators(g)
    bound = max(map(abs, fv)) * max(map(abs, gv)) * min(len(f), len(g))
    nb = bound.bit_length() // 8 + 1
    if nb <= 8:  # round up to a width struct packs in one call
        nb = 1 << (nb - 1).bit_length()
    prod = (_pack(zip(f, fv), fi0, fj0, w, fsize, nb)
            * _pack(zip(g, gv), gi0, gj0, w, gsize, nb))
    i0, j0, den = fi0 + gi0, fj0 + gj0, fden * gden
    if den == 1:
        return {(i + i0, j + j0): d for (i, j), d in _unpack(prod, w, nb)}
    return {(i + i0, j + j0): Fraction(d, den) for (i, j), d in _unpack(prod, w, nb)}


def _pack(terms, i0: int, j0: int, w: int, size: int, nb: int) -> int:
    """The integer sum v * B^((i - i0)*w + j - j0) over the terms
    ((i, j), v), B = 2^(8*nb), each |v| < B/2, every position below
    size."""
    half = 1 << (8 * nb - 1)
    digits = [half] * size
    for (i, j), v in terms:
        digits[(i - i0) * w + j - j0] = v + half
    return _to_digits(digits, nb) - _to_digits([half] * size, nb)


def _unpack(n: int, w: int, nb: int) -> list[tuple[tuple[int, int], int]]:
    """The inverse of _pack at i0 = j0 = 0: the terms ((i, j), v), v != 0,
    of the balanced base-B digits v in [-B/2, B/2) of n."""
    half = 1 << (8 * nb - 1)
    count = abs(n).bit_length() // (8 * nb) + 2  # |n| < B^(count - 1)
    digits = _from_digits(n + _to_digits([half] * count, nb), nb, count)
    return [(divmod(k, w), d - half) for k, d in enumerate(digits) if d != half]


def scalar_mul(c: Fraction | int, f: BiPoly) -> BiPoly:
    c = _coeff(c)
    if not c:
        return {}
    return {e: c * a for e, a in f.items()}


def power(f: BiPoly, n: int) -> BiPoly:
    if n < 0:
        raise ValueError("exponent must be a natural number")
    out = ONE
    base = f
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return out


def partial(f: BiPoly, var: str) -> BiPoly:
    """Formal partial derivative with respect to "x" or "y"."""
    if var == "x":
        return {(i - 1, j): c * i for (i, j), c in f.items() if i}
    if var == "y":
        return {(i, j - 1): c * j for (i, j), c in f.items() if j}
    raise ValueError(f"unknown variable {var!r}")


def evaluate(f: BiPoly, x0: Fraction, y0: Fraction) -> Fraction:
    if not f:
        return Fraction(0)
    xp = [Fraction(1)] * (deg_x(f) + 1)
    for i in range(1, len(xp)):
        xp[i] = xp[i - 1] * x0
    yp = [Fraction(1)] * (deg_y(f) + 1)
    for j in range(1, len(yp)):
        yp[j] = yp[j - 1] * y0
    return sum((c * xp[i] * yp[j] for (i, j), c in f.items()), Fraction(0))


def swap_vars(f: BiPoly) -> BiPoly:
    return {(j, i): c for (i, j), c in f.items()}


# graded lex with x > y: higher total degree wins, then higher x exponent
def _ordkey(e: tuple[int, int]) -> tuple[int, int]:
    return (e[0] + e[1], e[0])


def leading_term(f: BiPoly) -> tuple[tuple[int, int], int | Fraction]:
    if not f:
        raise ValueError("zero polynomial has no leading term")
    e = max(f, key=_ordkey)
    return e, f[e]


def leading_form(f: BiPoly) -> BiPoly:
    """Homogeneous part of top total degree."""
    if not f:
        raise ValueError("leading_form of the zero polynomial")
    d = total_degree(f)
    return {e: c for e, c in f.items() if e[0] + e[1] == d}


class ExactDivisionError(ArithmeticError):
    """Raised when exact_div is applied to a non-multiple; carries the
    nonzero remainder as the witness."""

    def __init__(self, remainder: BiPoly):
        self.remainder = remainder
        super().__init__(f"not divisible; remainder {to_string(remainder)}")


def divmod_lt(f: BiPoly, g: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Single-divisor division by leading terms under graded lex.

    Returns (q, r) with f = q*g + r and no term of r divisible by the
    leading term of g; r = 0 exactly when g divides f.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    (gi, gj), gc = leading_term(g)
    q: BiPoly = {}
    r: BiPoly = {}
    work = dict(f)
    while work:
        e = max(work, key=_ordkey)
        c = work[e]
        i, j = e
        if i >= gi and j >= gj:
            me = (i - gi, j - gj)
            mc = _div(c, gc)
            q[me] = q.get(me, 0) + mc
            for (bi, bj), bc in g.items():
                te = (bi + me[0], bj + me[1])
                s = work.get(te, 0) - mc * bc
                if s:
                    work[te] = s
                else:
                    work.pop(te, None)
        else:
            r[e] = c
            del work[e]
    return {e: c for e, c in q.items() if c}, r


def exact_div(f: BiPoly, g: BiPoly) -> BiPoly:
    """Quotient f/g when g divides f; otherwise ExactDivisionError with the
    remainder witness."""
    q, r = divmod_lt(f, g)
    if r:
        raise ExactDivisionError(r)
    return q


def divides(g: BiPoly, f: BiPoly) -> bool:
    if not g:
        return not f
    return not divmod_lt(f, g)[1]


# ---------------------------------------------------------------------------
# Content/primitive machinery over Q[x][y] and the subresultant gcd.

def coeffs_wrt_y(f: BiPoly) -> list[UPoly]:
    """Coefficients of y^0, y^1, ... as univariate polynomials in x."""
    if not f:
        return []
    out: list[list[Fraction]] = [[] for _ in range(deg_y(f) + 1)]
    for (i, j), c in f.items():
        row = out[j]
        if len(row) <= i:
            row.extend([Fraction(0)] * (i + 1 - len(row)))
        row[i] = c
    return [upoly.make(row) for row in out]


def from_coeffs_y(coeffs: list[UPoly]) -> BiPoly:
    out: BiPoly = {}
    for j, p in enumerate(coeffs):
        for i, c in enumerate(p):
            if c:
                out[(i, j)] = c
    return out


def from_upoly_x(p: UPoly) -> BiPoly:
    return {(i, 0): c for i, c in enumerate(p) if c}


def from_upoly_y(p: UPoly) -> BiPoly:
    return {(0, j): c for j, c in enumerate(p) if c}


def content_y(f: BiPoly) -> UPoly:
    """Monic gcd in Q[x] of the y-coefficients; zero polynomial for f = 0."""
    return upoly.gcd_many(coeffs_wrt_y(f))


def _div_by_xpoly(f: BiPoly, d: UPoly) -> BiPoly:
    if d == upoly.ONE:
        return f
    return from_coeffs_y([upoly.divmod_exact_field(p, d)[0] for p in coeffs_wrt_y(f)])


def normalize(f: BiPoly) -> BiPoly:
    """Primitive representative: coprime integer coefficients and positive
    leading coefficient under graded lex.  With den the lcm of the
    denominators and num the gcd of the numerators, a/b becomes the
    integer a * (den / b) / num, up to the sign."""
    if not f:
        return {}
    num = 0
    den = 1
    for c in f.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    if leading_term(f)[1] < 0:
        den = -den
    return {e: c.numerator * (den // c.denominator) // num for e, c in f.items()}


def _lc_y(f: BiPoly) -> BiPoly:
    d = deg_y(f)
    return {(i, 0): c for (i, j), c in f.items() if j == d}


def _ypow(n: int) -> BiPoly:
    return {(0, n): 1}


def _prem_y(a: BiPoly, b: BiPoly) -> BiPoly:
    """Pseudo-remainder of a by b with respect to y: lc_y(b)^(da-db+1) * a
    reduced by b, computed fraction-free."""
    da, db = deg_y(a), deg_y(b)
    lb = _lc_y(b)
    e = da - db + 1
    r = a
    while r and deg_y(r) >= db:
        lr = _lc_y(r)
        r = sub(mul(lb, r), mul(mul(lr, _ypow(deg_y(r) - db)), b))
        e -= 1
    if e > 0:
        r = mul(power(lb, e), r)
    return r


def _subresultant_prs(a: BiPoly, b: BiPoly) -> tuple[BiPoly, BiPoly, BiPoly, int]:
    """Subresultant PRS of a and b over Q[x][y] (Brown & Traub, J. ACM 18,
    1971), both of y-degree >= 1, run until a remainder has y-degree <= 0.

    Returns (s, r, h, sign): s is the last entry of positive y-degree, r
    the y-free (possibly zero) remainder after it, h the last scale
    factor and sign the sign Res_y(a, b) picks up from exchanging
    operands of odd y-degree.
    r = 0 exactly when a and b share a factor of positive y-degree, and
    then s is that gcd up to a factor in Q[x]; otherwise
    Res_y(a, b) = sign * r^n / h^(n-1) with n = deg_y(s).
    """
    sign = 1
    if deg_y(a) < deg_y(b):
        a, b = b, a
        if deg_y(a) % 2 and deg_y(b) % 2:
            sign = -1
    g = h = ONE
    while True:
        da, db = deg_y(a), deg_y(b)
        if da % 2 and db % 2:
            sign = -sign
        d = da - db
        r = _prem_y(a, b)
        if r:
            r = exact_div(r, mul(g, power(h, d)))
        a, b = b, r
        g = _lc_y(a)
        if d == 1:
            h = g
        elif d > 1:
            h = exact_div(power(g, d), power(h, d - 1))
        if deg_y(r) <= 0:
            return a, r, h, sign


# ---------------------------------------------------------------------------
# Coprimality from images mod a prime (Brown, J. ACM 18, 1971) and the gcd.

_POINTS = 3  # good specialization points tried per direction and batch
_FAR = 982451653  # first point of the second batch, a prime

_Residues = list[tuple[int, int, int]]


def _residues(f: BiPoly) -> _Residues:
    """Terms (i, j, c mod _PRIME) of the integer multiple den(f) * f."""
    vals, _ = _numerators(f)
    return [(i, j, v % _PRIME) for (i, j), v in zip(f, vals)]


def _coprime_images(fs: _Residues, gs: _Residues, swap: bool = False) -> bool:
    """True when images at x = t prove that f and g share no factor of
    positive y-degree; fs, gs are their _residues.  With swap, the roles
    of x and y are exchanged: images at y = t, and factors of positive
    x-degree.

    Let G be such a factor, primitive in Z[x, y].  By Gauss's lemma it
    divides the integer multiples F and F' of f and g in Z[x, y], so
    lc_y(G) divides lc_y(F) and lc_y(F').  At a t where either does not
    vanish mod _PRIME, G(t, y) keeps its y-degree and divides F(t, y) and
    F'(t, y) mod _PRIME, so their gcd is not constant.  A constant gcd at
    any such t is the proof.  Up to _POINTS such t are tried, the first
    in 0, 1, 2, ...; two forms like ax + by and cx + dy share the image
    root y = 0 at t = 0 only.  Curves with small integer coefficients
    can meet on every small line x = t, so when those fail, up to
    _POINTS more t are tried from _FAR on.  The image at t = 0 is read
    off the x-free terms.  False means "not proved".
    """
    s, r = (1, 0) if swap else (0, 1)  # t replaces the exponent s; r is kept
    dx = 0
    degs = []
    for terms in (fs, gs):
        d = 0
        for e in terms:
            if e[r] > d:
                d = e[r]
            if e[s] > dx:
                dx = e[s]
        degs.append(d)
    for start in (0, _FAR):
        tried = 0
        # a leading coefficient that is nonzero mod _PRIME has at most dx roots
        for t in range(start, start + dx + _POINTS):
            images = []
            if t:
                tp = [1] * (dx + 1)
                for i in range(1, dx + 1):
                    tp[i] = tp[i - 1] * t % _PRIME
                for terms, d in zip((fs, gs), degs):
                    img = [0] * (d + 1)
                    for e in terms:
                        img[d - e[r]] += e[2] * tp[e[s]]
                    images.append([c % _PRIME for c in img])
            else:
                for terms, d in zip((fs, gs), degs):
                    img = [0] * (d + 1)
                    for e in terms:
                        if not e[s]:
                            img[d - e[r]] = e[2]
                    images.append(img)
            if not (images[0][0] or images[1][0]):
                continue  # lc_y(F) and lc_y(F') both vanish at t
            if _gcd_degree_mod_p(*images) == 0:
                return True
            tried += 1
            if tried == _POINTS:
                break
    return False


def _split_monomial(f: BiPoly) -> tuple[tuple[int, int], BiPoly]:
    """((a, b), f') with f = x^a y^b f' and f' divisible by neither x nor y."""
    if (0, 0) in f:
        return (0, 0), f
    a = min(i for i, _ in f)
    b = min(j for _, j in f)
    if a or b:
        f = {(i - a, j - b): c for (i, j), c in f.items()}
    return (a, b), f


def gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """A gcd in Q[x,y], primitive with positive graded-lex leading
    coefficient.  gcd(f, 0) = normalize(f); gcd(0, 0) is an error.

    A nonzero constant operand gives 1 at once.  Otherwise the monomial
    content is split off first: gcd(x^a y^b f', x^c y^d g') =
    x^min(a, c) y^min(b, d) gcd(f', g') when neither f' nor g' is
    divisible by x or y, and the shifted gcd stays normalized, since
    graded lex is a monomial order and keeps its leading term.  A
    single-term operand leaves a constant, so its gcd is that monomial.
    Then coprimality is proved from images mod _PRIME: when the images
    at x = t rule out a common factor of positive y-degree and those at
    y = t one of positive x-degree, gcd(f', g') is 1 (see
    _coprime_images).  If only the first holds, it is the gcd of the
    y-contents.  Otherwise (a common factor, or no good point) the
    heuristic gcd on the Kronecker images decides when a candidate passes
    its divisibility proof (_gcd_heuristic), and the subresultant PRS
    (_gcd_prs) when none does.
    """
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    if not f:
        return normalize(g)
    if not g:
        return normalize(f)
    return _gcd(f, g)


def _gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd(f, g) for nonzero f and g, as gcd describes it."""
    if is_const(f) or is_const(g):
        return ONE
    (a, b), f = _split_monomial(f)
    (c, d), g = _split_monomial(g)
    a, b = min(a, c), min(b, d)
    h = ONE if is_const(f) or is_const(g) else _gcd_no_monomial(f, g)
    if a or b:
        return {(i + a, j + b): v for (i, j), v in h.items()}
    return h


def _gcd_no_monomial(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd(f, g) for nonconstant f and g that x and y do not divide."""
    fs, gs = _residues(f), _residues(g)
    if _coprime_images(fs, gs):
        if _coprime_images(fs, gs, swap=True):
            return ONE
        return normalize(from_upoly_x(upoly.gcd(content_y(f), content_y(g))))
    return _gcd_heuristic(f, g) or _gcd_prs(f, g)


# ---------------------------------------------------------------------------
# Heuristic gcd on the Kronecker image (Char, Geddes & Gonnet, J. Symbolic
# Comput. 7, 1989).

_HEU_BASES = 3  # bases tried by _gcd_heuristic, each digit twice as wide


def _primitive_terms(f: BiPoly) -> list[tuple[tuple[int, int], int]]:
    """The terms of f's primitive part in Z[x, y]."""
    vals, _ = _numerators(f)
    c = math.gcd(*vals)
    return [(e, v // c) for e, v in zip(f, vals)]


def _gcd_heuristic(f: BiPoly, g: BiPoly) -> BiPoly | None:
    """gcd(f, g) for nonzero f, g from one integer gcd, or None.

    F and G, the primitive parts of f and g in Z[x, y], are packed as
    mul packs them: x^i y^j goes to B^(i*w + j), B = 2^(8*nb), with w
    above both y-degrees and B > 2*max(|F|, |G|) + 2 in the max norm.
    The packing is a ring homomorphism, the value at z = B of the
    Kronecker image (x -> z^w, y -> z), and it is one to one on
    polynomials of y-degree below w with coefficients in (-B/2, B/2).

    The balanced base-B digits of gamma = gcd(F(B), G(B)) give a
    polynomial h; its primitive part C is the candidate, accepted once it
    is shown to divide F and G (_divides_packed).  Then C is the gcd D:
    C divides D = C*E, and D(B) divides gamma = cont(h)*C(B), so E(B)
    divides cont(h) <= B/2.  The image of a nonconstant E would divide
    that of F, so its roots lie inside Cauchy's bound |z| < 1 + |F| <= B/2
    and |E(B)| > B/2.  Hence E = +-1.  A candidate that fails is retried
    with digits twice as wide, _HEU_BASES times in all; None means that
    no candidate passed.
    """
    F, G = _primitive_terms(f), _primitive_terms(g)
    w = max(deg_y(f), deg_y(g)) + 1
    norm = max(abs(v) for _, v in F + G)
    nb = (2 * norm + 2).bit_length() // 8 + 1
    if nb <= 8:  # round up to a width struct packs in one call
        nb = 1 << (nb - 1).bit_length()
    fsize, gsize = (deg_x(f) + 1) * w, (deg_x(g) + 1) * w
    for _ in range(_HEU_BASES):
        a, b = _pack(F, 0, 0, w, fsize, nb), _pack(G, 0, 0, w, gsize, nb)
        gamma = math.gcd(a, b)
        h = _unpack(gamma, w, nb)
        cont = math.gcd(*(v for _, v in h))
        C = [(e, v // cont) for e, v in h]
        c = gamma // cont
        if _divides_packed(C, c, a, w, nb) and _divides_packed(C, c, b, w, nb):
            return normalize(dict(C))
        nb *= 2
    return None


def _divides_packed(C: list[tuple[tuple[int, int], int]], c: int, n: int, w: int,
                    nb: int) -> bool:
    """True when C divides the P in Z[x, y], of y-degree below w and with
    |P| < B/2, that packs to n; c is C packed.

    If c divides n, the quotient unpacks to q with C(B)*q(B) = n.  When
    deg_y C + deg_y q < w and |C|*|q|*min(#C, #q) < B/2, C*q lies where
    the packing is one to one, as P does, and both pack to n; so P = C*q.
    """
    if n % c:
        return False
    m = n // c
    q = _unpack(m, w, nb)
    return (max(j for (_, j), _ in C) + max(j for (_, j), _ in q) < w
            and max(abs(v) for _, v in C) * max(abs(v) for _, v in q) * min(len(C), len(q))
            < 1 << (8 * nb - 1))


def _gcd_prs(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd(f, g) for nonzero f, g: the gcd of the y-contents times the
    subresultant PRS gcd of the primitive parts."""
    cf, cg = content_y(f), content_y(g)
    cont = upoly.gcd(cf, cg)
    fp, gp = _div_by_xpoly(f, cf), _div_by_xpoly(g, cg)
    pp = ONE
    if deg_y(fp) > 0 and deg_y(gp) > 0:
        s, r, _, _ = _subresultant_prs(fp, gp)
        if not r:
            pp = _div_by_xpoly(s, content_y(s))
    return normalize(mul(from_upoly_x(cont), pp))


def gcd_many(polys: list[BiPoly]) -> BiPoly:
    nz = [p for p in polys if p]
    if not nz:
        raise ValueError("gcd of all-zero list is undefined")
    acc = nz[0]
    for p in nz[1:]:
        acc = gcd(acc, p)
        if is_const(acc):
            break
    return normalize(acc)


# ---------------------------------------------------------------------------
# Resultants from the subresultant PRS.

def resultant(f: BiPoly, g: BiPoly) -> BiPoly:
    """Res_y(f, g), the Sylvester determinant with f's coefficients in the
    top rows; a polynomial in x.

    Vanishes identically exactly when f and g share a factor of positive
    y-degree.  Both inputs must have positive y-degree; callers handle
    degenerate degree-0 operands directly.  The value is read off the last
    remainder of the subresultant PRS (see _subresultant_prs).
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    if deg_y(f) < 1 or deg_y(g) < 1:
        raise ValueError("resultant requires positive degree in the eliminated variable")
    s, r, h, sign = _subresultant_prs(f, g)
    n = deg_y(s)
    if r and n > 1:
        r = exact_div(power(r, n), power(h, n - 1))
    return neg(r) if sign < 0 else r


def det_bareiss(mat: list[list[BiPoly]]) -> BiPoly:
    """Determinant of a square matrix of polynomials, fraction-free.

    Every division in the Bareiss recurrence is exact (entries stay minors
    of the input, up to the sign tracked across row swaps).  No resultant
    uses it: it is the reference that the tests and
    scripts/bench_layers.py check resultant against, on Sylvester
    matrices they build themselves.
    """
    n = len(mat)
    if n == 0:
        return ONE
    m = [row[:] for row in mat]
    sign = 1
    prev: BiPoly = ONE
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return {}
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j]))
                m[i][j] = exact_div(num, prev)
            m[i][k] = {}
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return neg(d) if sign < 0 else d


def is_squarefree(f: BiPoly) -> bool:
    """True iff f has no repeated factor over C.

    Criterion: gcd(f, f_x, f_y) is constant.  In characteristic zero a
    repeated factor divides both partials, and conversely a nonconstant
    common divisor of f and its gradient forces a repeated factor; working
    over Q decides the question over C since gcds are field-stable.
    """
    if not f:
        raise ValueError("is_squarefree of the zero polynomial")
    if is_const(f):
        return True
    fx = partial(f, "x")
    fy = partial(f, "y")
    g = f
    if fx:
        g = gcd(g, fx)
    if fy:
        g = gcd(g, fy)
    return is_const(g)


# ---------------------------------------------------------------------------
# Parsing and printing.

# Largest exponent and total degree the parser builds, and the largest
# total degree sum k_i * deg u_i a problem's integral may have; inputs
# over it are refused before anything is expanded.
MAX_TOTAL_DEGREE = 200


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, msg: str, pos: int):
        self.pos = pos
        super().__init__(f"{msg} (column {pos})")


# Deepest nesting of parentheses and unary minus signs the parser takes;
# each level is a few Python frames, so deeper input is refused with a
# ParseError instead of running out of stack.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.depth = 0  # parentheses and unary minus signs now open

    def _ws(self) -> None:
        while self.i < len(self.src) and self.src[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self._ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def fail(self, msg: str) -> None:
        raise ParseError(msg, self.i + 1)

    def _enter(self) -> None:
        """Open one nesting level at the current character."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail("nesting too deep")

    def _nat(self) -> int:
        self._ws()
        start = self.i
        while self.i < len(self.src) and self.src[self.i].isdecimal():
            self.i += 1
        if self.i == start:
            self.fail("expected a natural number")
        return int(self.src[start:self.i])

    def _rational(self) -> int | Fraction:
        num = self._nat()
        if self.peek() == "/":
            self.i += 1
            pos = self.i
            den = self._nat()
            if den == 0:
                raise ParseError("zero denominator", pos + 1)
            return _div(num, den)
        return num

    def expr(self) -> BiPoly:
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.i += 1
                acc = add(acc, self.term())
            elif ch == "-":
                self.i += 1
                acc = sub(acc, self.term())
            else:
                return acc

    def term(self) -> BiPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.i += 1
            pos = self.i
            f = self.factor()
            if total_degree(acc) + total_degree(f) > MAX_TOTAL_DEGREE:
                raise ParseError(
                    f"product exceeds the total-degree budget of {MAX_TOTAL_DEGREE}", pos + 1)
            acc = mul(acc, f)
        return acc

    def factor(self) -> BiPoly:
        # unary minus binds looser than ^, so -x^2 means -(x^2)
        if self.peek() == "-":
            self._enter()
            self.i += 1
            out = neg(self.factor())
            self.depth -= 1
            return out
        b = self.base()
        if self.peek() == "^":
            self.i += 1
            if not self.peek().isdecimal():
                self.fail("exponent must be a natural number")
            pos = self.i
            n = self._nat()
            if n > MAX_TOTAL_DEGREE or total_degree(b) * n > MAX_TOTAL_DEGREE:
                raise ParseError(
                    f"power ^{n} exceeds the total-degree budget of {MAX_TOTAL_DEGREE}", pos + 1)
            return power(b, n)
        return b

    def base(self) -> BiPoly:
        ch = self.peek()
        if ch == "(":
            self._enter()
            self.i += 1
            inner = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.i += 1
            self.depth -= 1
            return inner
        if ch == "x":
            self.i += 1
            return dict(X)
        if ch == "y":
            self.i += 1
            return dict(Y)
        if ch.isdecimal():
            return const(self._rational())
        if ch.isalpha():
            self.fail(f"unknown variable {ch!r}")
        if ch == "":
            self.fail("unexpected end of input")
        self.fail(f"unexpected character {ch!r}")
        raise AssertionError  # fail always raises


def parse(src: str) -> BiPoly:
    """Parse the expression grammar: +, -, explicit *, ^ with natural
    exponents, rationals p/q, variables x and y, parentheses.  A power or
    product over MAX_TOTAL_DEGREE is a ParseError, raised before it is
    expanded, and so is nesting of parentheses and unary minus signs
    deeper than _MAX_NESTING."""
    p = _Parser(src)
    out = p.expr()
    p._ws()
    if p.i != len(p.src):
        raise ParseError(f"unexpected character {p.src[p.i]!r}", p.i + 1)
    return out


def _mono_str(i: int, j: int, xname: str, yname: str) -> str:
    parts = []
    if i:
        parts.append(xname if i == 1 else f"{xname}^{i}")
    if j:
        parts.append(yname if j == 1 else f"{yname}^{j}")
    return "*".join(parts)


def to_string(f: BiPoly, xname: str = "x", yname: str = "y") -> str:
    """Canonical form: terms in descending graded lex order."""
    if not f:
        return "0"
    parts: list[str] = []
    for e in sorted(f, key=_ordkey, reverse=True):
        c = f[e]
        mono = _mono_str(e[0], e[1], xname, yname)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Check results.

@dataclass(frozen=True)
class CheckResult:
    """Outcome of a decidable check.

    status is "Holds", "Fails" or "Inconclusive".  A Fails always carries a
    witness (a point, common factor, or certificate text); an Inconclusive
    always carries a reason.
    """

    status: str
    witness: object | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status not in ("Holds", "Fails", "Inconclusive"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "Fails" and self.witness is None:
            raise ValueError("Fails requires a witness or certificate")
        if self.status == "Inconclusive" and not self.reason:
            raise ValueError("Inconclusive requires a reason")

    @property
    def ok(self) -> bool:
        return self.status == "Holds"


def holds(reason: str = "") -> CheckResult:
    return CheckResult("Holds", None, reason)


def fails(witness: object, reason: str = "") -> CheckResult:
    return CheckResult("Fails", witness, reason)


def inconclusive(reason: str) -> CheckResult:
    return CheckResult("Inconclusive", None, reason)
