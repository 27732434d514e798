"""Univariate exact-arithmetic engine."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysaddle import arith, modp
from polysaddle import upoly as up

from conftest import euclid_gcd, reference_gcd_mod_p, upoly_divides

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


def test_rem_returns_a_shorter_dividend_itself():
    # a UPoly is trimmed, so a dividend shorter than the divisor is its own
    # remainder and is handed back without a copy
    f = up.make([Fraction(1, 2), 3])
    g = up.make([-1, 0, 1])
    assert up.rem(f, g) is f
    assert up.divmod_exact_field(f, g) == (up.ZERO, f)


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
        assert upoly_divides(c, g)


big = st.integers(min_value=-2**100, max_value=2**100)


def big_upolys(max_deg):
    return st.lists(big, max_size=max_deg + 1).map(up.make)


@given(st.one_of(upolys(4), big_upolys(3)), st.one_of(upolys(4), big_upolys(3)),
       st.one_of(upolys(3), big_upolys(2)), st.integers(0, 2), st.integers(0, 2))
@example((), (), (), 0, 0)
@example((), (3,), (), 0, 0)
@example((Fraction(1, 2),), (0, 1), (1,), 0, 0)
@settings(max_examples=200, deadline=None)
def test_gcd_matches_euclid(a, b, c, m, n):
    # c is a planted common factor when nonconstant; t^m and t^n make
    # operands divisible by t; zero and constant operands are included
    f = up.mul((0,) * m + (1,), up.mul(a, c))
    g = up.mul((0,) * n + (1,), up.mul(b, c))
    assert up.gcd(f, g) == up.gcd(g, f) == euclid_gcd(f, g)


lines = st.tuples(st.one_of(rats, big), st.one_of(rats, big).filter(bool)).map(up.make)


@given(lines, st.one_of(upolys(5), big_upolys(4)), st.booleans())
@settings(max_examples=200, deadline=None)
def test_gcd_of_a_degree_1_operand(line, b, share):
    # a + b t divides the other operand exactly when that vanishes at
    # -a/b; shared roots are planted, and random ones most often differ
    g = up.mul(line, b) if share else b
    assert up.gcd(line, g) == up.gcd(g, line) == euclid_gcd(line, g)


P61 = modp.PRIME


@pytest.mark.parametrize("f,g", [
    # the images mod 2^61 - 1 share t^2, which the pair does not
    ((P61 * 2, P61, 2, 1), (0, 0, 3, 1)),
    # 2^61 - 1 divides both leading coefficients
    ((1, 1, 0, P61), (0, 2, 0, P61)),
    # a true gcd t - 1 below the images' (t - 1) t^2
    ((-P61, P61, -1, 1), (-2 * P61, 2 * P61, -1, 1)),
])
def test_gcd_past_an_unlucky_prime(f, g):
    assert up.gcd(f, g) == up.gcd(g, f) == euclid_gcd(f, g)


def coprime_image(f, g):
    """Whether one image mod modp.PRIME proves gcd(f, g) constant."""
    return modp.coprime_images(modp.image(f[::-1]), modp.image(g[::-1]))


@given(upolys(4), upolys(4), upolys(2))
@settings(max_examples=200)
def test_coprime_image_is_a_proof(a, b, c):
    for f, g in ((a, b), (up.mul(a, c), up.mul(b, c))):
        if coprime_image(f, g):
            assert up.degree(up.gcd(f, g)) == 0


def test_coprime_image_traps():
    P = modp.PRIME
    D = up.make([1, P])  # P*t + 1 reduces to the constant 1 mod P
    # both leading coefficients vanish mod P and the images t + 1, t + 2
    # are coprime, but D divides both: the image proves nothing
    f, g = up.mul(D, up.make([1, 1])), up.mul(D, up.make([2, 1]))
    assert not coprime_image(f, g) and up.gcd(f, g) == up.monic(D)
    f, g = up.make([Fraction(1, 3), P]), up.make([Fraction(2, 3), 2 * P])
    assert not coprime_image(f, g) and up.degree(up.gcd(f, g)) == 1
    # t and t + P share the image t, so only the exact gcd shows them coprime
    for f in (up.make([0, 1]), up.make([0, Fraction(1, 7)])):
        g = up.make([P, 1])
        assert not coprime_image(f, g) and up.gcd(f, g) == up.ONE
    # one surviving leading coefficient is enough for a constant image
    assert coprime_image(up.make([1, 1]), up.make([1, P]))
    assert coprime_image(up.make([Fraction(1, 2), Fraction(1, 3)]), up.make([2, 1]))
    assert not coprime_image(up.make([1, 1]), up.make([1, 1]))
    assert not coprime_image((), up.ONE) and not coprime_image((), ())


def _mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def test_gcd_mod_p_matches_euclid():
    # the kernel, with its degree-1 determinant and deferred reductions,
    # against the plain Euclid loop it replaced: the same gcd up to a
    # nonzero scalar
    P = modp.PRIME
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
    def monic(c):
        inv = pow(c[0], -1, P)
        return [v * inv % P for v in c]

    degrees = set()
    for a, b in pairs:
        want = reference_gcd_mod_p(a, b, P)
        assert monic(modp.gcd(a, b)) == monic(modp.gcd(b, a)) == want, (a, b)
        degrees.add(len(want) - 1)
    assert monic(modp.gcd(*trap)) == [1, 2]
    assert {0, 1, 2, 3} <= degrees


@given(upolys(4), upolys(4))
@example(up.make([1, 1]), up.make([1, 0, 1]))  # x + 1 is a unit mod x^2 + 1
@example(up.make([1, 0, 1]), up.make([1, 0, 1]))  # x^2 + 1 is not a unit mod itself
@settings(max_examples=120)
def test_xgcd_identity(a, b):
    g, s = up.xgcd(a, b)
    assert g == up.gcd(a, b)
    diff = up.sub(up.mul(s, a), g)
    assert up.is_zero(up.rem(diff, b) if b else diff)
    if g == up.ONE and up.degree(a) < up.degree(b):
        # s a = 1 mod b, and s is already reduced: the inverse _fiber_gcd uses
        assert up.degree(s) < up.degree(b)


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
    assert upoly_divides(sf, f)
    assert up.degree(up.gcd(sf, up.deriv(sf))) == 0


def test_rational_roots_oracle():
    # roots 1/2 (double), -3, 0
    f = up.mul(up.make([0, 1]),
               up.mul(up.mul(up.make([-1, 2]), up.make([-1, 2])), up.make([3, 1])))
    assert up.rational_roots(f) == [Fraction(-3), Fraction(0), Fraction(1, 2)]
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    assert up.rational_roots(up.make([-3, 5, 2])) == [Fraction(-3), Fraction(1, 2)]
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
        roots.append(Fraction(0))
        f = f[v:]
    den = math.lcm(*(c.denominator for c in f))
    a0, an = int(f[0] * den), int(f[-1] * den)
    cands = {Fraction(sgn * p, q) for p in _divisors(a0) for q in _divisors(an)
             for sgn in (1, -1)}
    roots += [c for c in cands if up.evaluate(f, c) == 0]
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
        assert up.rational_roots(f) == sorted(want)


def test_rational_roots_large_constant():
    # t^2 - (2^22 + 7)^2: a 45-bit constant term
    n = 2**22 + 7
    t0 = time.perf_counter()
    assert up.rational_roots(up.make([-n * n, 0, 1])) == [Fraction(-n), Fraction(n)]
    assert time.perf_counter() - t0 < 1.0


def test_rational_roots_none():
    assert up.rational_roots(up.make([1, 0, 1])) == []
    assert up.rational_roots(up.make([-2, 0, 1])) == []  # sqrt(2) irrational


@given(st.lists(st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                          st.integers(min_value=1, max_value=3)), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=80)
def test_rational_roots_recovers_planted(roots, extra_deg):
    # roots of multiplicity up to 3 (and a root drawn twice) appear once
    f = planted(roots)
    # multiply by an irreducible-over-Q quadratic to add noise
    for _ in range(extra_deg):
        f = up.mul(f, up.make([1, 0, 1]))
    assert up.rational_roots(f) == sorted({r for r, _ in roots})


def test_to_string():
    assert up.to_string(up.make([Fraction(-1, 2), 0, 1]), "c") == "c^2 - 1/2"
    assert up.to_string((), "t") == "0"


# The coefficient invariant, shared with bipoly: an int where the value is
# an integer, a Fraction only where it is not, never a float.

small_ints = st.integers(min_value=-20, max_value=20)


def int_upolys(max_deg=5):
    return st.lists(small_ints, max_size=max_deg + 1).map(up.make)


def _typed(f):
    """f, after checking that each coefficient is an int, or a Fraction
    whose value is not an integer."""
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in f), f
    return f


def _number(v, integral):
    """v, after checking that it is no float, and an int when integral."""
    assert type(v) in ((int,) if integral else (int, Fraction)), v
    return v


@given(st.one_of(int_upolys(), upolys()), st.one_of(int_upolys(), upolys()),
       st.one_of(small_ints, rats))
@example((1, 1), (1, 2), 2)  # quotient 1/2 by an integer division
@example((0, 2), (1, 0, 1), Fraction(1, 2))  # leading coefficient 2
@settings(max_examples=150, deadline=None)
def test_coefficients_are_int_or_fraction(f, g, c):
    integral = all(type(a) is int for a in f + g)
    _typed(up.make(list(f) + [Fraction(4, 2), 0.5]))
    for h in (up.add(f, g), up.sub(f, g), up.mul(f, g), up.scale(f, c), up.monic(f),
              up.deriv(f), up.primitive(f), up.squarefree_part(f)):
        _typed(h)
    _number(up.evaluate(f, 3), integral)
    _number(up.evaluate(f, c), integral and type(c) is int)
    if integral:
        assert all(type(a) is int for a in up.mul(f, g) + up.primitive(f))
    if g:
        q, r = map(_typed, up.divmod_exact_field(f, g))
        assert up.add(up.mul(q, g), r) == f
    h, s = map(_typed, up.xgcd(f, g))
    assert _typed(up.gcd(f, g)) == h
    for part, _ in up.squarefree_decomposition(f):
        _typed(part)
    if up.degree(f) in (1, 2, 3):
        for box in arith.isolate_complex_roots(list(f)):
            _typed(box.poly)
            # box corners stay Fractions: CBox.midpoint divides them by 2
            assert all(type(v) is Fraction
                       for v in (box.re_lo, box.re_hi, box.im_lo, box.im_hi)), box


def test_integer_division_sites_keep_fractions():
    # every true division an int pair reaches gives a Fraction, not a float
    # nor a floored int; make converts a float exactly, so only a divisor
    # that is not a power of 2 shows a float quotient by its value
    for d in (2, 3):
        q, r = up.divmod_exact_field((1, 1), (1, d))
        assert q == (Fraction(1, d),) and r == (1 - Fraction(1, d),)
        assert type(q[0]) is type(r[0]) is Fraction
        assert up.monic((1, d)) == (Fraction(1, d), 1)
        g, s = up.xgcd((d,), (1, 1))
        assert g == up.ONE and s == (Fraction(1, d),) and type(s[0]) is Fraction
    assert up.monic((0, 2)) == (0, 1) and all(type(c) is int for c in up.monic((0, 2)))
    assert up.primitive((Fraction(1, 2), Fraction(-3, 2))) == (-1, 3)
    assert up.ONE == (1,) and type(up.ONE[0]) is int
    assert all(type(r) is Fraction for r in up.rational_roots((0, -6, 1, 1)))

