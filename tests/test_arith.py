"""Certified complex root isolation."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import arith


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
