"""Sparse exact bivariate polynomial ring Q[x,y].

A polynomial is a dict mapping exponent pairs (i, j) to nonzero
coefficients and represents sum c_ij x^i y^j; the zero polynomial is the
empty dict.  Callers must treat values as immutable.  The monomial order
used for leading terms and canonical printing is graded lex with x > y:
compare total degree first, then the x exponent.

Coefficients follow the rule stated in upoly for both rings: an int
where the value is an integer, a Fraction only where it is not, never a
float.  The constants ONE, X and Y, const, scalar_mul, the parser, mul's
unpacking, normalize and every value taken over from upoly yield an int
for every integer value, and the two true divisions (in divmod_lt and in
the antiderivatives of field_ops) go through upoly's _div, which returns
an int when the quotient is one.  A Fraction is left for a value that is
not an integer and for the integer-valued result of arithmetic on
Fractions (1/2 + 1/2, or a product of operands with denominators).

Products use Kronecker substitution (Kronecker 1882; Harvey, J. Symbolic
Comput. 44, 2009): denominators are cleared, each operand is packed into
one Python integer with a digit per monomial wide enough for any product
coefficient and its sign, the two integers are multiplied once, and the
signed digits are unpacked in linear time.  A single-term operand is
shifted and scaled instead.  A small pair, of at most _SCHOOLBOOK_PAIRS
term pairs, and a sparse high-degree pair, whose packed span far exceeds
its number of term pairs, take the schoolbook loop, run on the same
cleared numerators.

A gcd with a nonzero constant operand is 1 at once.  Otherwise the
monomial content of each operand is split off; two operands free of y
then take upoly.gcd in x, and any other pair goes to Brown's modular
gcd (J. ACM 18, 1971) on modp's kernel: images at x = t mod primes
below 2^61, Newton interpolation in x, the CRT across primes, and exact
trial division, which proves the result.  An image gcd of y-degree 0
proves at once that no common factor has positive y-degree, so a
coprime pair most often ends at its first image mod 2^61 - 1, and then
at the gcd in Q[x] of its y-coefficients unless one is constant;
upoly.gcd runs this routine too.  Two images of degree 1 are decided by
one 2x2 determinant.  A failed trial division at unlucky points keeps
its prime and takes further points there.

A resultant with respect to y against an operand linear in y, b1 y + b0,
is the closed form sum_k f_k b0^k (-b1)^(m-k) over the other operand's
y-coefficients f_k, by Horner.  When both y-degrees are at least 2 it
is lifted by the CRT from its images modp.resultant_image mod primes
below 2^61, until their product exceeds twice Hadamard's bound on its
coefficients (Collins, J. ACM 18, 1971): the kernel of the image proofs
gives the exact value too.  The parser reads tokens off one regular
expression, sums in place, and multiplies and raises monomials without
mul.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import itemgetter

from . import modp, upoly
from .upoly import UPoly, _coeff, _div

# coefficients are int or Fraction, never float (module docstring)
BiPoly = dict[tuple[int, int], int | Fraction]

ZERO: BiPoly = {}
ONE: BiPoly = {(0, 0): 1}
X: BiPoly = {(1, 0): 1}
Y: BiPoly = {(0, 1): 1}


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


# mul takes the schoolbook loop up to this many term pairs #f * #g, where
# packing costs more than the loop (scripts/bench_layers.py, BENCH_20.json)
_SCHOOLBOOK_PAIRS = 100

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


def _mul_schoolbook(f: BiPoly, g: BiPoly) -> BiPoly:
    """Product by the double loop over term pairs, on the integer
    numerators of den(f)*f and den(g)*g, divided by den(f)*den(g) once."""
    fv, fden = _numerators(f)
    gv, gden = _numerators(g)
    gterms = list(zip(g, gv))
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in zip(f, fv):
        for (i2, j2), c2 in gterms:
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    den = fden * gden
    if den == 1:
        return {e: c for e, c in out.items() if c}
    return {e: Fraction(c, den) for e, c in out.items() if c}


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
    work.  Single-term operands are shifted and scaled.  Packing costs
    about as much as the loop over 100 term pairs, so a pair with no
    more pairs than that takes the loop, and so does a pair whose packed
    span exceeds 4*#f*#g (sparse, high degree), which would pay more per
    empty digit than the loop pays per term pair.
    """
    if not f or not g:
        return {}
    if len(f) == 1 or len(g) == 1:
        if len(g) != 1:
            f, g = g, f
        ((a, b), c), = g.items()
        return {(i + a, j + b): d * c for (i, j), d in f.items()}
    if len(f) * len(g) <= _SCHOOLBOOK_PAIRS:
        return _mul_schoolbook(f, g)
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

    def __str__(self) -> str:  # formatted only when shown: printing can fail
        return f"not divisible; remainder {to_string(self.remainder)}"


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
# Content/primitive machinery over Q[x][y].

def coeffs_wrt_y(f: BiPoly) -> list[UPoly]:
    """Coefficients of y^0, y^1, ... as univariate polynomials in x."""
    if not f:
        return []
    out: list[list[int | Fraction]] = [[] for _ in range(deg_y(f) + 1)]
    for (i, j), c in f.items():
        row = out[j]
        if len(row) <= i:
            row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    return [upoly.make(row) for row in out]


def from_upoly_x(p: UPoly) -> BiPoly:
    return {(i, 0): c for i, c in enumerate(p) if c}


def to_upoly_x(f: BiPoly) -> UPoly:
    """f, free of y, as a polynomial in x."""
    return upoly.make([f.get((i, 0), 0) for i in range(deg_x(f) + 1)])


def from_upoly_y(p: UPoly) -> BiPoly:
    return {(0, j): c for j, c in enumerate(p) if c}


def content_y(f: BiPoly) -> UPoly:
    """Monic gcd in Q[x] of the y-coefficients, the leading one first, so
    that a constant one ends it at once; zero polynomial for f = 0."""
    return upoly.gcd_many(coeffs_wrt_y(f)[::-1])


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


def first_regular_x(f: BiPoly) -> int:
    """The least natural x0 at which lc_y(f) does not vanish, so that
    f(x0, y) keeps the y-degree of f; f must be nonzero."""
    d, x0 = deg_y(f), 0
    while not sum(c * x0 ** i for (i, j), c in f.items() if j == d):
        x0 += 1
    return x0


# ---------------------------------------------------------------------------
# The modular gcd (Brown, J. ACM 18, 1971), whose first image is most
# often the proof that the gcd is 1.

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
    Two operands free of y take upoly.gcd in x; the modular gcd decides
    every other gcd(f', g') (_gcd_modular), and on a coprime pair its
    first image is most often the whole proof.
    """
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    if not f:
        return normalize(g)
    if not g:
        return normalize(f)
    if is_const(f) or is_const(g):
        return ONE
    (a, b), f = _split_monomial(f)
    (c, d), g = _split_monomial(g)
    a, b = min(a, c), min(b, d)
    if is_const(f) or is_const(g):
        h = ONE
    elif not any(map(itemgetter(1), f)) and not any(map(itemgetter(1), g)):  # free of y
        h = normalize(from_upoly_x(upoly.gcd(to_upoly_x(f), to_upoly_x(g))))
    else:
        h = _gcd_modular(f, g)
    if a or b:
        return {(i + a, j + b): v for (i, j), v in h.items()}
    return h


def _unit_content_y(f: BiPoly) -> bool:
    """Whether a coefficient of f in Q[x][y] is a nonzero constant, so
    that content_y(f) = 1: some power of y has no term with x."""
    return len({j for i, j in f if i}) < len({j for _, j in f})


def _gcd_modular(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd(f, g) for nonconstant f and g, by Brown's modular algorithm.

    F and G are the primitive integer multiples of f and g, D their gcd
    made primitive in y.  The images are those of den(f) f and den(g) g,
    integer multiples of F and G, at x = t mod primes p below 2^61.  t
    starts at 0, or at 1 when neither f nor g has a constant term, as both
    images at 0 then have the root y = 0, and only moves forward, across
    primes too, so no (p, t) is taken twice.  A point is bad when the
    leading y-coefficients of both vanish at t mod p; more than
    max(deg_x f, deg_x g) bad points mean that p divides both, and the
    next prime is taken.

    At any other t, D(t, y) keeps its y-degree, since lc_y D divides both
    leading coefficients by Gauss's lemma, and it divides both images, so
    their gcd has at least that degree.  A constant image gcd thus proves
    D = 1, and what remains is the gcd in Q[x] of all the y-coefficients
    of both, 1 when one is a nonzero constant (_unit_content_y).

    Otherwise the images go on to the interpolation.  With gamma =
    k gcd(lc_y F, lc_y G) in Z[x], k the gcd of the integer contents of
    the two, lc_y D divides gamma, so H = (gamma / lc_y D) D lies in
    Z[x, y], and deg_x H < n = deg gamma + 1 + min(deg_x F, deg_x G).  A
    prime that divides lc gamma, or every coefficient of den(f) f or of
    den(g) g, is passed over.  An image gcd of exactly D's y-degree, made
    monic and scaled by gamma(t), is H(t, y) mod p.  The images of least
    y-degree at p are kept; n give H mod p by Newton interpolation in x.
    Only the primes of the least such degree are kept.  The CRT with a
    symmetric lift combines the primes; the lift's primitive part C in y
    is tried on the first prime and whenever a prime leaves the lift as
    it was.  A C that divides F and G has the images' y-degree, at least
    deg_y D, and divides D, so C = D; the gcd is D times the gcd of the
    y-contents.  A lift that a prime left as it was and that still fails
    was most often taken at unlucky points, values of t where the images
    share more than D(t, y): roots of a subresultant coefficient of F/D
    and G/D, of x-degree at most deg_y f deg_x g + deg_y g deg_x f.  That
    prime is then kept, and further points are taken at it for an image
    of y-degree below the lift's; when more points than that bound give
    none, the prime divides the coefficient or the lift's degree is D's,
    and the next prime is taken.
    """
    fx = fy = gx = gy = 0  # the degrees, in one pass each: this path is hot
    for i, j in f:
        if i > fx:
            fx = i
        if j > fy:
            fy = j
    for i, j in g:
        if i > gx:
            gx = i
        if j > gy:
            gy = j
    dx = fx if fx > gx else gx
    unlucky = fy * gx + gy * fx  # bounds the points where a good prime's images mislead
    t = -1 if (0, 0) in f or (0, 0) in g else 0  # the point before the first
    gamma, n = None, math.inf  # n: the points needed at each prime
    primes, stay = map(modp.prime, count()), False
    while True:
        if stay:  # a stable lift failed at p: only an image below e can help
            ts, vals, d, skips = [], [], e - 1, 0
        else:
            p = next(primes)
            polys = [(modp.residue_terms(f, p), fy), (modp.residue_terms(g, p), gy)]
            ts, vals, d, bad = [], [], min(fy, gy), 0  # d: the least degree at p
        while len(ts) < n:
            t += 1
            a, b = modp.images(polys, t, dx, p)
            if not (a[0] or b[0]):  # a bad point
                bad += 1
                if bad > dx:
                    break  # p divides both leading coefficients
                continue
            h = modp.gcd(a, b, p)
            if len(h) == 1:  # D = 1
                if _unit_content_y(f) or _unit_content_y(g):
                    return ONE
                return normalize(from_upoly_x(upoly.gcd_many(coeffs_wrt_y(f) + coeffs_wrt_y(g))))
            if gamma is None:
                F, G = normalize(f), normalize(g)
                cf, cg = coeffs_wrt_y(F), coeffs_wrt_y(G)
                lc = upoly.gcd(cf[-1], cg[-1])
                k = math.gcd(*(c.numerator for c in cf[-1] + cg[-1]))
                gamma = scalar_mul(k, normalize(from_upoly_x(lc)))
                cont = upoly.gcd_many([lc, *cf, *cg])
                n = len(lc) + min(fx, gx)
                H, m, e, last = {}, 1, fy + 1, None  # e: H's y-degree, none yet
            if not ts and not (leading_term(gamma)[1] % p
                               and all(any(r[2] for r in terms) for terms, _ in polys)):
                break  # p divides lc gamma, or f or g vanishes mod p
            if len(h) - 1 > d:
                if stay:
                    skips += 1
                    if skips > unlucky:
                        break  # p divides a subresultant, or e is D's degree
                continue
            if len(h) - 1 < d:
                ts, vals, d = [], [], len(h) - 1
            s = sum(c * pow(t, i, p) for (i, _), c in gamma.items()) * pow(h[0], -1, p) % p
            ts.append(t)
            vals.append([c * s % p for c in h])
        if len(ts) < n or d > e:
            stay = False
            continue  # p passed over, or it divides a subresultant
        if d < e:
            H, m, e = {}, 1, d
        u = pow(m, -1, p)
        for j, coeffs in enumerate(modp.interpolate(ts, vals, p)):
            for i, c in enumerate(coeffs):
                r = H.get((i, e - j), 0)
                H[i, e - j] = r + m * ((c - r) * u % p)
        m *= p
        C = {key: v if 2 * v <= m else v - m for key, v in H.items() if v}
        stay = False
        if m == p or C == last:
            cc = content_y(C)
            D = normalize(C if cc == upoly.ONE else exact_div(C, from_upoly_x(cc)))
            if divides(D, F) and divides(D, G):
                return normalize(mul(from_upoly_x(cont), D))
            stay = C == last
        last = C


# ---------------------------------------------------------------------------
# Resultants: a closed form against an operand linear in y, else the
# CRT lift of modp's images.

def _resultant_linear(f: BiPoly, g: BiPoly) -> BiPoly:
    """Res_y(f, g) for g = b1 y + b0 of y-degree 1 and f = sum_k f_k y^k
    of y-degree m >= 1: (-1)^m sum_k f_k (-b0)^k b1^(m-k), that is
    sum_k f_k b0^k (-b1)^(m-k), by Horner in the pair (b0, -b1)."""
    fs: list[BiPoly] = [{} for _ in range(deg_y(f) + 1)]
    for (i, j), c in f.items():
        fs[j][i, 0] = c
    b0: BiPoly = {}
    nb1: BiPoly = {}
    for (i, j), c in g.items():
        if j:
            nb1[i, 0] = -c
        else:
            b0[i, 0] = c
    acc, w = fs[-1], ONE  # w = (-b1)^(m-k)
    for fk in reversed(fs[:-1]):
        w = mul(w, nb1)
        acc = add(mul(acc, b0), mul(fk, w))
    return acc


def resultant(f: BiPoly, g: BiPoly) -> BiPoly:
    """Res_y(f, g), the Sylvester determinant with f's coefficients in the
    top rows; a polynomial in x.

    Vanishes identically exactly when f and g share a factor of positive
    y-degree.  Both inputs must have positive y-degree; callers handle
    degenerate degree-0 operands directly.  When an operand is linear in
    y, the value is the closed form of _resultant_linear, with
    Res_y(f, g) = (-1)^(deg_y g) Res_y(g, f) when f is the linear one.

    Otherwise, with df = deg_y f and dg = deg_y g, F = den_f f and
    G = den_g g have integer coefficients and Res_y(F, G) =
    den_f^dg den_g^df Res_y(f, g), lifted from images mod primes (Collins,
    J. ACM 18, 1971).  At a point x = t where neither lc_y vanishes mod
    p, F and G keep their y-degrees, so Res_y(F, G) mod p specializes to
    the univariate resultant of their images; its x-degree bound + 1 such
    points give Res_y(F, G) mod p (modp.resultant_image).  A prime that
    divides every coefficient of an lc_y has no such points and is
    skipped.  A coefficient of Res_y(F, G) is at most its maximum on
    |x| = 1, where |F_k(x)| <= ||F_k||_1, so Hadamard's bound on the
    Sylvester matrix bounds it by B = (sum_k ||F_k||_1^2)^(dg/2)
    (sum_k ||G_k||_1^2)^(df/2).  Once the product m of the primes exceeds
    2B, the symmetric lift of the images into (-m/2, m/2] is exact.
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    df, dg = deg_y(f), deg_y(g)
    if df < 1 or dg < 1:
        raise ValueError("resultant requires positive degree in the eliminated variable")
    if dg == 1:
        return _resultant_linear(f, g)
    if df == 1:
        r = _resultant_linear(g, f)
        return neg(r) if dg % 2 else r
    fv, fden = _numerators(f)
    gv, gden = _numerators(g)
    F, G = dict(zip(f, fv)), dict(zip(g, gv))
    sf, sg = (sum(sum(map(abs, c)) ** 2 for c in coeffs_wrt_y(P)) for P in (F, G))
    bound = math.isqrt(sf ** dg * sg ** df) + 1
    lift: list[int] = []
    m = 1
    for p in map(modp.prime, count()):
        img = modp.resultant_image(F, G, p)
        if not img:
            continue
        u = pow(m, -1, p)
        lift = [r + m * ((c - r) * u % p) for r, c in zip(lift or [0] * len(img), img)]
        m *= p
        if m > 2 * bound:
            break
    den = fden ** dg * gden ** df
    return {(i, 0): _div(c if 2 * c <= m else c - m, den)
            for i, c in enumerate(reversed(lift)) if c}


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

# the parser's tokens; \d and \s match what str.isdecimal and str.isspace do
_TOKEN = re.compile(r"\d+|\S")


class _Parser:
    """Recursive descent over the tokens: runs of decimal digits, single
    other characters that are not white space, and "" at the end.  Two
    single-term factors, or one and its power, are formed without mul."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _TOKEN.findall(src) + [""]
        self.k = 0  # index of the next token
        self.depth = 0  # parentheses and unary minus signs now open

    def fail(self, msg: str, k: int | None = None, after: bool = False) -> None:
        """Raise at the column of token k (the next one by default), or of
        the character just after it; only here are columns recovered."""
        k = self.k if k is None else k
        if k == len(self.toks) - 1:
            raise ParseError(msg, len(self.src) + 1)
        m = list(_TOKEN.finditer(self.src))[k]
        raise ParseError(msg, (m.end() if after else m.start()) + 1)

    def _enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail("nesting too deep")

    def _nat(self, msg: str = "expected a natural number") -> int:
        tok = self.toks[self.k]
        if not tok.isdecimal():
            self.fail(msg)
        try:
            n = int(tok)
        except ValueError:  # past the interpreter's int-string limit
            self.fail(f"number longer than {sys.get_int_max_str_digits()} digits")
        self.k += 1
        return n

    def _rational(self) -> int | Fraction:
        num = self._nat()
        if self.toks[self.k] == "/":
            self.k += 1
            den = self._nat()
            if den == 0:
                self.fail("zero denominator", self.k - 2, after=True)  # just after the "/"
            return _div(num, den)
        return num

    def expr(self) -> BiPoly:
        acc = dict(self.term())  # summed in place, so never a shared constant such as ONE
        while (tok := self.toks[self.k]) in ("+", "-"):
            self.k += 1
            for e, c in self.term().items():  # in the order add and sub leave
                acc[e] = acc.get(e, 0) + (c if tok == "+" else -c)
                if not acc[e]:
                    del acc[e]
        return acc

    def term(self) -> BiPoly:
        acc = self.factor()
        while self.toks[self.k] == "*":
            star = self.k
            self.k += 1
            f = self.factor()
            if len(acc) == 1 and len(f) == 1:  # two monomials
                ((i, j), c), = acc.items()
                ((a, b), d), = f.items()
                if i + j + a + b <= MAX_TOTAL_DEGREE:
                    acc = {(i + a, j + b): c * d}
                    continue
            elif total_degree(acc) + total_degree(f) <= MAX_TOTAL_DEGREE:
                acc = mul(acc, f)
                continue
            self.fail(f"product exceeds the total-degree budget of {MAX_TOTAL_DEGREE}",
                      star, after=True)
        return acc

    def factor(self) -> BiPoly:
        # unary minus binds looser than ^, so -x^2 means -(x^2)
        if self.toks[self.k] == "-":
            self._enter()
            self.k += 1
            out = neg(self.factor())
            self.depth -= 1
            return out
        b = self.base()
        if self.toks[self.k] == "^":
            self.k += 1
            n = self._nat("exponent must be a natural number")
            if n > MAX_TOTAL_DEGREE or total_degree(b) * n > MAX_TOTAL_DEGREE:
                self.fail(f"power ^{n} exceeds the total-degree budget of {MAX_TOTAL_DEGREE}",
                          self.k - 1)
            if len(b) == 1 and n:
                ((i, j), c), = b.items()
                return {(i * n, j * n): c**n}
            return power(b, n)
        return b

    def base(self) -> BiPoly:
        tok = self.toks[self.k]
        if tok == "(":
            self._enter()
            self.k += 1
            inner = self.expr()
            if self.toks[self.k] != ")":
                self.fail("expected ')'")
            self.k += 1
            self.depth -= 1
            return inner
        if tok == "x" or tok == "y":
            self.k += 1
            return dict(X if tok == "x" else Y)
        if tok.isdecimal():
            return const(self._rational())
        if tok.isalpha():
            self.fail(f"unknown variable {tok!r}")
        if tok == "":
            self.fail("unexpected end of input")
        self.fail(f"unexpected character {tok!r}")
        raise AssertionError  # fail always raises


def parse(src: str) -> BiPoly:
    """Parse the expression grammar: +, -, explicit *, ^ with natural
    exponents, rationals p/q, variables x and y, parentheses.  A power or
    product over MAX_TOTAL_DEGREE is a ParseError, raised before it is
    expanded, and so is nesting of parentheses and unary minus signs
    deeper than _MAX_NESTING."""
    p = _Parser(src)
    out = p.expr()
    if tok := p.toks[p.k]:
        p.fail(f"unexpected character {tok[0]!r}")
    return out


def _mono_str(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def to_string(f: BiPoly) -> str:
    """Canonical form: terms in descending graded lex order."""
    if not f:
        return "0"
    parts: list[str] = []
    for e in sorted(f, key=_ordkey, reverse=True):
        c = f[e]
        mono = _mono_str(*e)
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


def holds(reason: str = "") -> CheckResult:
    return CheckResult("Holds", None, reason)


def fails(witness: object, reason: str = "") -> CheckResult:
    return CheckResult("Fails", witness, reason)


def inconclusive(reason: str) -> CheckResult:
    return CheckResult("Inconclusive", None, reason)
