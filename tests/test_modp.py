"""The modular kernel on its own: resultants, interpolation and primality."""

import math
import random
from fractions import Fraction

from polysaddle import modp

P = modp.PRIME


def _sylvester_det(a, b, p):
    """The Sylvester determinant of a and b (a's rows on top), images
    highest degree first with nonzero leading entries, computed exactly
    in Q and reduced mod p."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * k + a + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + b + [0] * (m - 1 - k) for k in range(m)]
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(m + n):
        piv = next((i for i in range(k, m + n) if mat[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det *= mat[k][k]
        for i in range(k + 1, m + n):
            c = mat[i][k] / mat[k][k]
            mat[i] = [u - c * v for u, v in zip(mat[i], mat[k])]
    assert det.denominator == 1
    return int(det) % p


def _mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def test_resultant_is_the_sylvester_determinant_mod_p():
    rng = random.Random("resultant-mod-p")

    def draw(d):
        return [rng.randrange(1, P)] + [rng.choice((0, 1, P - 1, rng.randrange(P)))
                                        for _ in range(d)]

    pairs = []
    for _ in range(300):
        a, b = draw(rng.randint(0, 6)), draw(rng.randint(0, 6))
        if rng.random() < 0.3:  # a planted common factor: the resultant is 0
            c = draw(rng.randint(1, 2))
            a, b = _mul_mod(a, c, P), _mul_mod(b, c, P)
        pairs.append((a, b))
    # degree-0 operands, and operands of odd degrees, which swap with a sign
    pairs += [([5], [7]), ([5], [1, 2, 3]), ([1, 2, 3], [5]), ([3], [P - 1, 0, 0, 1]),
              ([1, 0, 2], [1, 4, 0, 9]), ([1, 4, 0, 9], [1, 0, 2]),
              ([2, 1], [1, 3, 3, 1]), ([1, 3, 3, 1], [2, 1])]
    zeros = odd = 0
    for a, b in pairs:
        want = _sylvester_det(a, b, P)
        assert modp.resultant(a, b, P) == want, (a, b)
        zeros += not want
        odd += len(a) < len(b) and (len(a) - 1) * (len(b) - 1) % 2
    assert zeros >= 50 and odd >= 15


def _lagrange(ts, ys, x, p):
    """The value at x of the polynomial through the points (ts[k], ys[k])
    mod p, by Lagrange's formula."""
    total = 0
    for k, (tk, yk) in enumerate(zip(ts, ys)):
        num = den = 1
        for i, ti in enumerate(ts):
            if i != k:
                num, den = num * (x - ti) % p, den * (tk - ti) % p
        total += yk * num * pow(den, -1, p)
    return total % p


def _horner(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def test_interpolate_matches_lagrange():
    rng = random.Random("interpolate-mod-p")
    p = modp.prime(1)
    for n in range(1, 25):
        gaps = sorted(rng.sample(range(3 * n), n))  # distinct, with gaps
        large = rng.sample(range(p), n)  # distinct, anywhere below p
        for ts, q in ((gaps, P), (large, p)):
            vals = [[rng.randrange(q) for _ in range(3)] for _ in ts]
            polys = modp.interpolate(ts, vals, q)
            assert len(polys) == 3 and all(len(c) == n for c in polys)
            for j, coeffs in enumerate(polys):
                ys = [v[j] for v in vals]
                assert [_horner(coeffs, t, q) for t in ts] == ys
                for x in [rng.randrange(q) for _ in range(3)] + [3 * n + 1]:
                    assert _horner(coeffs, x, q) == _lagrange(ts, ys, x, q)


def test_is_prime_matches_a_sieve():
    n = 10**5
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytearray(len(range(k * k, n, k)))
    assert [m for m in range(39, n, 2) if modp.is_prime(m)] == \
        [m for m in range(39, n, 2) if sieve[m]]
    # strong pseudoprimes to every prime base up to 7, 13, 19 and 31
    # (OEIS A014233), which only the further bases expose
    for factors in ((151, 751, 28351), (1303, 16927, 157543), (10670053, 32010157),
                    (149491, 747451, 34233211)):
        assert not modp.is_prime(math.prod(factors))
