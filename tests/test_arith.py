"""Certified complex root isolation."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysaddle import arith

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _covers(boxes, re, im):
    """Some box contains the exact complex number re + im*i."""
    return any(b.re_lo <= re <= b.re_hi and b.im_lo <= im <= b.im_hi for b in boxes)


def test_isolate_pure_imaginary_pair():
    boxes = arith.isolate_complex_roots([Fraction(1), Fraction(0), Fraction(1)])
    assert len(boxes) == 2
    assert sum(b.multiplicity for b in boxes) == 2
    # both roots have zero real part, imaginary part within the boxes
    for b in boxes:
        assert b.re_lo <= 0 <= b.re_hi
    ims = sorted((b.im_lo + b.im_hi) / 2 for b in boxes)
    assert abs(ims[0] + 1) < Fraction(1, 100) and abs(ims[1] - 1) < Fraction(1, 100)


def test_isolate_61_bit_constant():
    # t^2 + (2^61 - 1): rational roots are ruled out without factoring the
    # constant term, so this takes milliseconds
    n = 2**61 - 1
    t0 = time.perf_counter()
    boxes = arith.isolate_complex_roots([Fraction(n), Fraction(0), Fraction(1)])
    assert time.perf_counter() - t0 < 1.0
    assert len(boxes) == 2 and all(b.multiplicity == 1 for b in boxes)
    assert all(b.re_lo <= 0 <= b.re_hi for b in boxes)
    lower, upper = sorted(boxes, key=lambda b: b.im_lo)
    assert lower.im_hi < 0 < upper.im_lo
    assert upper.im_lo ** 2 <= n <= upper.im_hi ** 2
    assert lower.im_hi ** 2 <= n <= lower.im_lo ** 2


def test_isolate_rational_roots_are_points():
    # (x - 1)^2 (x + 2)
    boxes = arith.isolate_complex_roots([Fraction(2), Fraction(-3), Fraction(0), Fraction(1)])
    assert sum(b.multiplicity for b in boxes) == 3
    pts = {(b.re_lo, b.im_lo): b.multiplicity for b in boxes if b.is_point()}
    assert pts == {(Fraction(1), Fraction(0)): 2, (Fraction(-2), Fraction(0)): 1}


def test_isolate_mixed_cluster():
    # (x^2 + 1)(x - 3)(x + 1/2): two complex, two rational
    f = [Fraction(1)]
    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    f = mul([Fraction(1), Fraction(0), Fraction(1)], [Fraction(-3), Fraction(1)])
    f = mul(f, [Fraction(1, 2), Fraction(1)])
    boxes = arith.isolate_complex_roots(f)
    assert sum(b.multiplicity for b in boxes) == 4
    assert _covers(boxes, Fraction(3), Fraction(0))
    assert _covers(boxes, Fraction(-1, 2), Fraction(0))
    # disjointness of the certified boxes
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert boxes[i].box().disjoint(boxes[j].box())


def test_isolate_errors():
    with pytest.raises(ValueError):
        arith.isolate_complex_roots([])
    with pytest.raises(ValueError):
        arith.isolate_complex_roots([Fraction(3)])  # constant: no roots to isolate


def test_double_rational_root_is_point():
    boxes = arith.isolate_complex_roots([Fraction(1), Fraction(-2), Fraction(1)])
    assert len(boxes) == 1 and boxes[0].multiplicity == 2
    assert boxes[0].is_point() and boxes[0].re_lo == 1
    assert boxes[0].describe()


def test_isolate_quartet_needing_narrow_start():
    # x^4 - x^2 + 4: simple roots +-sqrt(5)/2 +- i*sqrt(3)/2; the naive
    # separation-based starting box is too wide for interval Newton and
    # certification must retry with a narrower one
    boxes = arith.isolate_complex_roots(
        [Fraction(4), Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
    assert len(boxes) == 4
    assert all(b.multiplicity == 1 for b in boxes)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert a.box().disjoint(b.box())


# quadratic factors are solved in closed form; each box is checked here by
# squaring its bounds, with no routine of the program

def _is_rational_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _holds(a, b, c, box, sign) -> bool:
    """Whether the closed box holds (-b + sign sqrt(D)) / 2a, D = b^2 - 4ac:
    t = 2a z + b must be sign sqrt(D), real for D > 0 and imaginary for
    D < 0, and lo <= s sqrt(n) <= hi is decided by comparing squares."""
    d = b * b - 4 * a * c
    re = (2 * a * box.re_lo + b, 2 * a * box.re_hi + b)
    im = (2 * a * box.im_lo, 2 * a * box.im_hi)
    on_axis, off_axis = (re, im) if d > 0 else (im, re)
    lo, hi = on_axis if sign > 0 else (-on_axis[1], -on_axis[0])
    return (off_axis[0] <= 0 <= off_axis[1]
            and (lo <= 0 or lo * lo <= abs(d)) and hi >= 0 and hi * hi >= abs(d))


BIG = 10**40
coeff = st.one_of(st.integers(-BIG, BIG),
                  st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG))


@st.composite
def quadratics(draw):
    """(a, b, c) of a x^2 + b x + c without rational roots: x^2 - a,
    x^2 + b, a general one, or (N x - p)^2 - d with N up to 10^40, whose
    roots lie 2 sqrt|d| / N apart (below 10^-30 for large N)."""
    kind = draw(st.sampled_from(["minus", "plus", "general", "close"]))
    if kind == "minus":
        a, b, c = Fraction(1), Fraction(0), -abs(draw(coeff))
    elif kind == "plus":
        a, b, c = Fraction(1), Fraction(0), abs(draw(coeff))
    elif kind == "general":
        a, b, c = (Fraction(draw(coeff)) for _ in range(3))
    else:
        n = draw(st.integers(1, BIG) | st.integers(BIG // 2, BIG))
        p, d = draw(st.integers(-BIG, BIG)), draw(st.integers(-50, 50))
        a, b, c = Fraction(n * n), Fraction(-2 * n * p), Fraction(p * p - d)
    assume(a != 0 and not _is_rational_square(b * b - 4 * a * c))
    return a, b, c


@given(quadratics(), st.none() | st.fractions(max_denominator=1000))
@settings(max_examples=300, deadline=None)
@example((Fraction(BIG * BIG), Fraction(-2 * BIG), Fraction(1 - 2)), None)  # roots 2.8e-40 apart
@example((Fraction(1), Fraction(0), Fraction(1)), Fraction(0))  # -D a square: exact points
def test_quadratic_boxes_hold_one_root_each(abc, r):
    a, b, c = abc
    f = [c, b, a]
    if r is not None:  # times x - r, split off as a rational root first
        f = [-r * c, c - r * b, b - r * a, a]
    boxes = arith.isolate_complex_roots(f)
    if r is not None:
        (point,) = [x for x in boxes if x.is_point() and (x.re_lo, x.im_lo) == (r, 0)]
        boxes.remove(point)
    if a < 0:  # the roots are those of the primitive form with a > 0
        a, b, c = -a, -b, -c
    low, high = boxes
    assert low.multiplicity == high.multiplicity == 1
    assert _holds(a, b, c, low, -1) and not _holds(a, b, c, low, 1)
    assert _holds(a, b, c, high, 1) and not _holds(a, b, c, high, -1)
    assert low.box().disjoint(high.box())


def test_quadratic_isolation_leaves_mpmath_unloaded():
    code = ("import sys; from fractions import Fraction as F; from polysaddle import arith\n"
            f"for f in ([-2, 0, 1], [3, 0, 1], [F(1, 3), 5, F(-7, 2)], [1 - 2, -2 * {BIG}, {BIG}**2],"
            " [-1, 1, -1, 1]):\n"
            "    arith.isolate_complex_roots(f)\n"
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


# degree 3 and up: mpmath seeds, interval Newton certifies

def test_no_convergence_is_a_failed_certification(monkeypatch):
    import mpmath

    def diverge(coeffs, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge")

    monkeypatch.setattr(mpmath, "polyroots", diverge)
    with pytest.raises(arith.CertificationError):
        arith.isolate_complex_roots([-2, 0, 0, 1])


def test_mpmath_seeds_from_the_exact_coefficients(monkeypatch):
    # 68 bits: mpmath's default 53-bit precision would round it
    import mpmath

    n = 272342213843155470591
    seen, real = [], mpmath.polyroots

    def spy(coeffs, **kwargs):
        seen.append(coeffs[-1])
        return real(coeffs, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", spy)
    boxes = arith.isolate_complex_roots([-n, 0, 0, 1])
    assert len(boxes) == 3
    assert seen and all(c == -n for c in seen)
