"""Univariate exact-arithmetic engine."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysaddle import upoly as up

from conftest import reference_gcd_degree_mod_p

rats = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def upolys(max_deg=5):
    return st.lists(rats, min_size=0, max_size=max_deg + 1).map(lambda c: up.make(c))


def test_make_strips_trailing_zeros():
    assert up.make([Fraction(1), Fraction(0), Fraction(0)]) == (Fraction(1),)
    assert up.make([]) == ()
    assert up.degree(()) == -1
    assert up.degree(up.make([0, 0, 3])) == 2


def test_arithmetic_oracles():
    f = up.make([1, 2, 1])        # (x+1)^2
    g = up.make([-1, 1])          # x - 1
    assert up.mul(g, g) == up.make([1, -2, 1])
    assert up.add(f, up.neg(f)) == ()
    assert up.evaluate(f, Fraction(2)) == 9
    assert up.deriv(f) == up.make([2, 2])


def test_divmod_exact():
    f = up.make([-1, 0, 1])       # x^2 - 1
    g = up.make([1, 1])           # x + 1
    q, r = up.divmod_exact_field(f, g)
    assert q == up.make([-1, 1]) and r == ()
    q, r = up.divmod_exact_field(up.make([1, 0, 1]), g)
    assert r == up.make([2])
    with pytest.raises(ZeroDivisionError):
        up.divmod_exact_field(f, ())


def test_gcd_oracle():
    f = up.mul(up.make([1, 1]), up.make([-2, 1]))
    g = up.mul(up.make([1, 1]), up.make([3, 1]))
    assert up.gcd(f, g) == up.make([1, 1])
    assert up.gcd(f, ()) == up.monic(f)
    assert up.gcd((), ()) == ()


@given(upolys(4), upolys(4), upolys(3))
@settings(max_examples=120)
def test_gcd_common_factor_property(a, b, c):
    g = up.gcd(up.mul(a, c), up.mul(b, c))
    if not up.is_zero(c) and not (up.is_zero(a) and up.is_zero(b)):
        # gcd(ac, bc) is divisible by c
        assert up.divides(c, g)


@given(upolys(4), upolys(4), upolys(2))
@settings(max_examples=200)
def test_coprime_image_is_a_proof(a, b, c):
    for f, g in ((a, b), (up.mul(a, c), up.mul(b, c))):
        if up.coprime_image(f, g):
            assert up.degree(up.gcd(f, g)) == 0


def test_coprime_image_traps():
    P = up._PRIME
    D = up.make([1, P])  # P*t + 1 reduces to the constant 1 mod P
    # both leading coefficients vanish mod P and the images t + 1, t + 2
    # are coprime, but D divides both: the image proves nothing
    f, g = up.mul(D, up.make([1, 1])), up.mul(D, up.make([2, 1]))
    assert not up.coprime_image(f, g) and up.gcd(f, g) == up.monic(D)
    f, g = up.make([Fraction(1, 3), P]), up.make([Fraction(2, 3), 2 * P])
    assert not up.coprime_image(f, g) and up.degree(up.gcd(f, g)) == 1
    # t and t + P share the image t, so only the exact gcd shows them coprime
    for f in (up.make([0, 1]), up.make([0, Fraction(1, 7)])):
        g = up.make([P, 1])
        assert not up.coprime_image(f, g) and up.gcd(f, g) == up.ONE
    # one surviving leading coefficient is enough for a constant image
    assert up.coprime_image(up.make([1, 1]), up.make([1, P]))
    assert up.coprime_image(up.make([Fraction(1, 2), Fraction(1, 3)]), up.make([2, 1]))
    assert not up.coprime_image(up.make([1, 1]), up.make([1, 1]))
    assert not up.coprime_image((), up.ONE) and not up.coprime_image((), ())


def _mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def test_gcd_degree_mod_p_matches_euclid():
    # the kernel, with its degree-1 determinant and deferred reductions,
    # against the plain Euclid loop it replaced
    P = up._PRIME
    rng = random.Random("gcd-degree-mod-p")

    def draw(n):
        return [rng.choice((0, 1, P - 1, rng.randrange(P), rng.randrange(4))) for _ in range(n)]

    pairs = []
    for _ in range(3000):
        shape = rng.randrange(4)
        if shape == 0:  # any lengths, leading zeros and constants included
            a, b = draw(rng.randint(1, 7)), draw(rng.randint(1, 7))
        elif shape == 1:  # degree-1 pairs, a shared root planted in half
            a, b = [rng.randrange(1, P), rng.randrange(P)], [rng.randrange(1, P), rng.randrange(P)]
            if rng.random() < 0.5:
                r = rng.randrange(P)
                a[1], b[1] = (-a[0] * r) % P, (-b[0] * r) % P
        else:  # a planted common factor of degree 0 to 3, with leading zeros
            c = [rng.randrange(1, P)] + [rng.randrange(P) for _ in range(rng.randint(0, 3))]
            a = _mul_mod(c, [rng.randrange(1, P)] + draw(rng.randint(0, 4)), P)
            b = _mul_mod(c, [rng.randrange(1, P)] + draw(rng.randint(0, 4)), P)
            a, b = [0] * rng.randint(0, 2) + a, [0] * rng.randint(0, 2) + b
        if any(a) or any(b):
            pairs.append((a, b))
    # the trap: the determinant of y + 2 and (P + 1)/2*y + 1 is -P, a
    # nonzero integer, but (P + 1)/2 is 1/2 mod P and the two share y = -2
    trap = [1, 2], [(P + 1) // 2, 1]
    assert 1 * 1 - 2 * ((P + 1) // 2) == -P
    pairs += [trap, trap[::-1], ([0] + trap[0], trap[1]), ([5], [0, 0]), ([0, 0, 3], [7])]
    degrees = set()
    for a, b in pairs:
        want = reference_gcd_degree_mod_p(a, b, P)
        assert up._gcd_degree_mod_p(a, b) == up._gcd_degree_mod_p(b, a) == want, (a, b)
        degrees.add(want)
    assert up._gcd_degree_mod_p(*trap) == 1
    assert {0, 1, 2, 3} <= degrees


@given(upolys(4), upolys(4))
@settings(max_examples=120)
def test_xgcd_identity(a, b):
    g, s, t = up.xgcd(a, b)
    assert up.add(up.mul(s, a), up.mul(t, b)) == g
    assert g == up.gcd(a, b)


def test_invert_mod():
    m = up.make([1, 0, 1])        # x^2 + 1
    a = up.make([1, 1])           # x + 1
    inv = up.invert_mod(a, m)
    assert up.rem(up.mul(a, inv), m) == up.make([1])
    with pytest.raises(ArithmeticError):
        up.invert_mod(up.make([1, 0, 1]), m)  # not a unit mod itself


def test_squarefree_decomposition_yun():
    # f = (x-1)(x+2)^2 (x)^3
    f = up.mul(up.make([-1, 1]), up.mul(up.mul(up.make([2, 1]), up.make([2, 1])),
                                        up.make([0, 0, 0, 1])))
    parts = up.squarefree_decomposition(f)
    by_mult = {m: p for p, m in parts}
    assert up.monic(by_mult[1]) == up.make([-1, 1])
    assert up.monic(by_mult[2]) == up.make([2, 1])
    assert up.monic(by_mult[3]) == up.make([0, 1])


@given(upolys(3), upolys(2))
@settings(max_examples=80)
def test_squarefree_part_divides(a, b):
    f = up.mul(up.mul(a, a), b)
    if up.is_zero(f) or up.degree(f) < 1:
        return
    sf = up.squarefree_part(f)
    assert up.divides(sf, f)
    assert up.degree(up.gcd(sf, up.deriv(sf))) == 0


def test_rational_roots_oracle():
    # roots 1/2 (double), -3, 0
    f = up.mul(up.make([0, 1]),
               up.mul(up.mul(up.make([-1, 2]), up.make([-1, 2])), up.make([3, 1])))
    roots = up.rational_roots(f)
    assert sorted(roots) == [(Fraction(-3), 1), (Fraction(0), 1), (Fraction(1, 2), 2)]
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    assert dict(up.rational_roots(up.make([-3, 5, 2]))) == {Fraction(1, 2): 1, Fraction(-3): 1}
    with pytest.raises(ValueError, match="zero polynomial"):
        up.rational_roots(up.make([]))


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_division_roots(f):
    """Reference: every candidate p/q of the rational-root theorem, p | a0 and
    q | an, tested by exact evaluation.  Exponential in the bit size of a0."""
    roots = []
    v = 0
    while f[v] == 0:
        v += 1
    if v:
        roots.append((Fraction(0), v))
        f = f[v:]
    den = math.lcm(*(c.denominator for c in f))
    a0, an = int(f[0] * den), int(f[-1] * den)
    for cand in {Fraction(sgn * p, q) for p in _divisors(a0) for q in _divisors(an)
                 for sgn in (1, -1)}:
        if up.evaluate(f, cand) == 0:
            m, g, lin = 0, f, up.make([-cand, 1])
            while True:
                q2, r2 = up.divmod_exact_field(g, lin)
                if r2:
                    break
                m, g = m + 1, q2
            roots.append((cand, m))
    return sorted(roots)


def planted(roots, cofactor=(1,)):
    f = up.make(cofactor)
    for r, m in roots:
        for _ in range(m):
            f = up.mul(f, up.make([-r, 1]))
    return f


small_roots = st.lists(st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                                 st.integers(min_value=1, max_value=2)), max_size=2)


@given(small_roots, st.lists(st.integers(min_value=-9, max_value=9), max_size=2),
       st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(lambda c: c != 0))
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_trial_division(roots, cofactor, scale):
    # |a0|, |an| <= 2^16 once denominators are cleared, so the reference
    # stays fast
    f = up.scale(planted(roots, cofactor + [1]), scale)
    den = math.lcm(*(c.denominator for c in f))
    a0 = next(c for c in f if c) * den
    assume(abs(a0) <= 2**16 and abs(f[-1] * den) <= 2**16)
    assert up.rational_roots(f) == trial_division_roots(f)


def test_rational_roots_planted_large():
    # 60-bit numerators over 30-bit denominators, multiplicities up to 3,
    # times an irreducible quadratic: far beyond trial division
    rng = random.Random(5)
    for _ in range(6):
        want, count = {}, rng.randint(1, 3)
        while len(want) < count:
            want[Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 2**30))] = rng.randint(1, 3)
        while True:
            b, c = rng.randint(-2**40, 2**40), rng.randint(-2**40, 2**40)
            disc = b * b - 4 * c
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                break
        f = planted(want.items(), (c, b, 1))
        assert up.rational_roots(f) == sorted(want.items())


def test_rational_roots_large_constant():
    # t^2 - (2^22 + 7)^2: a 45-bit constant term
    n = 2**22 + 7
    t0 = time.perf_counter()
    assert up.rational_roots(up.make([-n * n, 0, 1])) == [(Fraction(-n), 1), (Fraction(n), 1)]
    assert time.perf_counter() - t0 < 1.0


def test_rational_roots_none():
    assert up.rational_roots(up.make([1, 0, 1])) == []
    assert up.rational_roots(up.make([-2, 0, 1])) == []  # sqrt(2) irrational


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=80)
def test_rational_roots_recovers_planted(roots, extra_deg):
    f = up.make([1])
    for r in roots:
        f = up.mul(f, up.make([-r, 1]))
    # multiply by an irreducible-over-Q quadratic to add noise
    for _ in range(extra_deg):
        f = up.mul(f, up.make([1, 0, 1]))
    found = dict(up.rational_roots(f))
    for r in roots:
        assert found.get(r, 0) >= 1


def test_to_string():
    assert up.to_string(up.make([Fraction(-1, 2), 0, 1]), "c") == "c^2 - 1/2"
    assert up.to_string((), "t") == "0"
