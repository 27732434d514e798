"""Polynomial arithmetic modulo a prime: the kernel under every image proof.

It works on plain ints, coefficient sequences and term dicts.  A
univariate image is a list of residues in [0, p), highest degree first;
a bivariate one, a list of residue terms (i, j, c) for c x^i y^j.  One
image mod PRIME most often proves two polynomials coprime (coprime_images;
Brown, J. ACM 18, 1971); bipoly's modular gcd runs on the same Euclid
(gcd), images and Newton interpolation, and resultant_image takes Res_y
by one univariate resultant per point (Collins, J. ACM 18, 1971).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Collection, Mapping
from fractions import Fraction

PRIME = (1 << 61) - 1  # a Mersenne prime

# a term dict {(i, j): c} for sum c x^i y^j, and its residue terms
TermDict = Mapping[tuple[int, int], int | Fraction]
Terms = list[tuple[int, int, int]]


def is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with the primes up to 37 as bases, exact
    below 3.18e23 (Sorenson & Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if math.gcd(n, math.prod(bases)) > 1:
        return False
    d, k = n - 1, 0
    while not d & 1:
        d, k = d >> 1, k + 1
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(k))
               for a in bases)


@functools.lru_cache(maxsize=None)
def prime(k: int) -> int:
    """The k-th prime below 2^61, from 2^61 - 1 = prime(0) down.  Each
    is searched for once per process, as a search runs some fifty
    Miller-Rabin powers of 61 bits."""
    if not k:
        return PRIME
    p = prime(k - 1) - 2
    while not is_prime(p):
        p -= 2
    return p


def trim(a: list[int]) -> list[int]:
    """a without its leading zeros; a itself when it has none."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:] if k else a


def gcd(a: list[int], b: list[int], p: int = PRIME) -> list[int]:
    """A gcd of a and b over Z/p, p prime, by Euclid: a nonzero multiple of
    the monic gcd; a and b are images, not both zero.

    A nonzero constant divisor ends the loop with [1], and two polynomials
    of degree 1 share their root exactly when the 2x2 determinant of their
    coefficients is 0 mod p.  Otherwise a is reduced by b without an
    inverse: row k takes lc(b) r - q x^j b, so the remainder is lc(b)^m
    times that of a by b, with the same gcd with b.  A row touches only
    the n - 1 entries under b's tail; an entry further right is instead
    multiplied in advance by lc(b) to the power of the rows that pass
    before it is first touched.
    """
    a, b = trim(a), trim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        n = len(b)
        if n == 1:
            return [1]
        if len(a) == 2:  # and so n == 2
            return [1] if (a[0] * b[1] - a[1] * b[0]) % p else b
        lead, tail = b[0], b[1:]
        r = list(a)
        m = len(r) - n + 1
        s = 1
        for i in range(n, len(r)):
            s = s * lead % p
            r[i] = r[i] * s % p
        for k in range(m):
            q = r[k]
            r[k + 1:k + n] = [(lead * c - q * t) % p
                              for c, t in zip(r[k + 1:k + n], tail)]
        a, b = b, trim(r[m:])
    return a


def resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p, p prime, of images with nonzero leading entries,
    by Euclid: with r = a mod b of degree k, Res(a, b) = (-1)^(mn)
    lc(b)^(m - k) Res(b, r), m = deg a >= n = deg b, and Res(a, c) = c^m
    for a constant c."""
    res = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = p - 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        lead = b[0]
        if not n:
            return res * pow(lead, m, p) % p
        inv, tail = pow(lead, -1, p), b[1:]
        r = list(a)
        for k in range(m - n + 1):
            q = r[k] * inv % p
            if q:
                r[k + 1:k + n + 1] = [(c - q * t) % p for c, t in zip(r[k + 1:k + n + 1], tail)]
        r = trim(r[m - n + 1:])
        if not r:
            return 0
        if m * n % 2:
            res = p - res
        res = res * pow(lead, m - len(r) + 1, p) % p
        a, b = b, r


def image(coeffs: Collection[int | Fraction], p: int = PRIME) -> list[int]:
    """den * c mod p for each coefficient c, in order, den the lcm of their
    denominators: most often 1, and then no division is made."""
    den = 1
    for c in coeffs:
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return [c.numerator % p for c in coeffs]
    return [c.numerator * (den // c.denominator) % p for c in coeffs]


def residue_terms(f: TermDict, p: int) -> Terms:
    """The terms (i, j, c mod p) of den(f) * f."""
    return [(i, j, c) for (i, j), c in zip(f, image(f.values(), p))]


def images(polys: list[tuple[Terms, int]], t: int, dx: int, p: int) -> list[list[int]]:
    """Images mod p at x = t of the (residue terms, y-degree d): d + 1
    residues each, highest degree first.  dx bounds the x-exponents.  At
    t = 0, the terms free of x."""
    out = []
    if not t:
        for terms, d in polys:
            img = [0] * (d + 1)
            for i, j, c in terms:
                if not i:
                    img[d - j] = c
            out.append(img)
        return out
    tp = [1] * (dx + 1)
    for i in range(1, dx + 1):
        tp[i] = tp[i - 1] * t % p
    for terms, d in polys:
        img = [0] * (d + 1)
        for i, j, c in terms:
            img[d - j] += c * tp[i]
        out.append([c % p for c in img])
    return out


def interpolate(ts: list[int], vals: list[list[int]], p: int) -> list[list[int]]:
    """For each j, the coefficients mod p, lowest first, of the polynomial
    of degree below len(ts) with value vals[k][j] at ts[k], the ts distinct
    mod p: Newton's divided differences, one column j at a time, then
    Horner.  The ts run 0, 1, 2, ... with few gaps, so their differences
    repeat: each one is inverted once."""
    n = len(ts)
    cols = [list(col) for col in zip(*vals)]
    inverse: dict[int, int] = {}
    for k in range(1, n):
        # level k: c[i] = (c[i] - c[i-1]) / (ts[i] - ts[i-k]) for i >= k
        ds = [b - a for a, b in zip(ts, ts[k:])]
        for d in set(ds).difference(inverse):
            inverse[d] = pow(d, -1, p)
        ws = [inverse[d] for d in ds]
        for c in cols:
            c[k:] = [(a - b) * w % p for a, b, w in zip(c[k:], c[k - 1:], ws)]
    out = []
    for c in cols:
        poly = [c[-1]]
        for i in range(n - 2, -1, -1):  # poly = (x - ts[i]) poly + c[i]
            t = ts[i]
            poly = [(a - t * b) % p for a, b in zip([c[i]] + poly, poly + [0])]
        out.append(poly)
    return out


def coprime_images(a: list[int], b: list[int]) -> bool:
    """True when the images a and b mod PRIME of integer multiples of f and
    g in Z[t] prove that gcd(f, g) is constant; False means "not proved".

    Let D be a gcd of the integer multiples, primitive in Z[t].  By Gauss's
    lemma lc(D) divides both leading coefficients, so when PRIME does not
    divide one of them, D keeps its degree mod PRIME and divides both
    images: a constant gcd of the images proves D constant.  When neither
    leading coefficient survives, the images prove nothing.
    """
    return bool(a and b and (a[0] or b[0])) and len(gcd(a, b)) == 1


def resultant_image(f: TermDict, g: TermDict) -> list[int]:
    """Res_y(den(f) f, den(g) g) mod PRIME, f and g of y-degree >= 1, as
    bound + 1 residues, highest degree first, bound = min(deg f deg g,
    deg_y f deg_x g + deg_y g deg_x f), which bounds its x-degree (Bezout;
    the Sylvester matrix); [] when an lc_y of them vanishes mod PRIME.

    At x = t where neither lc_y vanishes mod PRIME, both keep their
    y-degrees, so Res_y specializes to the univariate resultant of the
    images; bound + 1 such points give the image by Newton interpolation.
    Its first entry is nonzero exactly when the image reaches the bound,
    and then PRIME does not divide the leading coefficient, as
    coprime_images requires."""
    fx, fy = max(i for i, _ in f), max(j for _, j in f)
    gx, gy = max(i for i, _ in g), max(j for _, j in g)
    bound = min(max(map(sum, f)) * max(map(sum, g)), fy * gx + gy * fx)
    polys = [(residue_terms(f, PRIME), fy), (residue_terms(g, PRIME), gy)]
    ts, vals, t, bad = [], [], 0, 0
    while len(ts) <= bound:
        a, b = images(polys, t, max(fx, gx), PRIME)
        if a[0] and b[0]:
            ts.append(t)
            vals.append([resultant(a, b, PRIME)])
        else:
            bad += 1
            if bad > fx + gx:  # more roots than lc_y(f) lc_y(g) can have
                return []
        t += 1
    return interpolate(ts, vals, PRIME)[0][::-1]
