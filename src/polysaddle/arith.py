"""Rational arithmetic and certified complex root isolation.

Coefficients live in Q throughout (the constructions we implement never
leave the rationals).  Root isolation works in two stages: mpmath supplies
root approximations, then an exact interval Newton step over rational
complex rectangles certifies that each box holds exactly one simple root
of the square-free part.  Everything the certificates assert is checked
in exact arithmetic; floating point is only used to find starting boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from . import upoly
from .upoly import UPoly

Rat = Fraction

# interval = (lo, hi) with lo <= hi, exact rational endpoints
Ival = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# Exact interval arithmetic on rational complex rectangles.

def _imul(a: Ival, b: Ival) -> Ival:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _iadd(a: Ival, b: Ival) -> Ival:
    return (a[0] + b[0], a[1] + b[1])


def _isub(a: Ival, b: Ival) -> Ival:
    return (a[0] - b[1], a[1] - b[0])


def _isq(a: Ival) -> Ival:
    lo, hi = a[0] * a[0], a[1] * a[1]
    if a[0] <= 0 <= a[1]:
        return (Fraction(0), max(lo, hi))
    return (min(lo, hi), max(lo, hi))


def _round_out(a: Ival, bits: int) -> Ival:
    # outward dyadic rounding keeps denominators from exploding
    scale = 1 << bits
    lo = Fraction((a[0] * scale).__floor__(), scale)
    hi = Fraction(-((-a[1] * scale)).__floor__(), scale)
    return (lo, hi)


@dataclass(frozen=True)
class CBox:
    """Rectangle in C with exact rational corners."""

    re: Ival
    im: Ival

    def round_out(self, bits: int) -> "CBox":
        return CBox(_round_out(self.re, bits), _round_out(self.im, bits))

    def midpoint(self) -> tuple[Fraction, Fraction]:
        return ((self.re[0] + self.re[1]) / 2, (self.im[0] + self.im[1]) / 2)

    def contains_interior(self, other: "CBox") -> bool:
        return (self.re[0] < other.re[0] and other.re[1] < self.re[1]
                and self.im[0] < other.im[0] and other.im[1] < self.im[1])

    def intersect(self, other: "CBox") -> "CBox | None":
        re = (max(self.re[0], other.re[0]), min(self.re[1], other.re[1]))
        im = (max(self.im[0], other.im[0]), min(self.im[1], other.im[1]))
        if re[0] > re[1] or im[0] > im[1]:
            return None
        return CBox(re, im)

    def disjoint(self, other: "CBox") -> bool:
        return (self.re[1] < other.re[0] or other.re[1] < self.re[0]
                or self.im[1] < other.im[0] or other.im[1] < self.im[0])


def _cbox_point(re: Fraction, im: Fraction) -> CBox:
    return CBox((re, re), (im, im))


def _cadd(a: CBox, b: CBox) -> CBox:
    return CBox(_iadd(a.re, b.re), _iadd(a.im, b.im))


def _cmul(a: CBox, b: CBox) -> CBox:
    return CBox(_isub(_imul(a.re, b.re), _imul(a.im, b.im)),
                _iadd(_imul(a.re, b.im), _imul(a.im, b.re)))


def _cdiv(a: CBox, b: CBox) -> CBox | None:
    """a / b, or None when 0 may lie in b."""
    den = _iadd(_isq(b.re), _isq(b.im))
    if den[0] <= 0:
        return None
    conj = CBox(b.re, (-b.im[1], -b.im[0]))
    num = _cmul(a, conj)
    inv: Ival = (1 / den[1], 1 / den[0])
    return CBox(_imul(num.re, inv), _imul(num.im, inv))


_WORK_BITS = 512


def _ceval_box(f: UPoly, z: CBox) -> CBox:
    """Interval evaluation of f over the rectangle z (Horner)."""
    acc = _cbox_point(Fraction(0), Fraction(0))
    for c in reversed(f):
        acc = _cadd(_cmul(acc, z), _cbox_point(c, Fraction(0)))
        acc = acc.round_out(_WORK_BITS)
    return acc


def _ceval_exact(f: UPoly, re: Fraction, im: Fraction) -> tuple[Fraction, Fraction]:
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(f):
        ar, ai = ar * re - ai * im + c, ar * im + ai * re
    return ar, ai


def _newton_image(f: UPoly, df: UPoly, box: CBox) -> CBox | None:
    """One interval Newton step N(box) = mid - f(mid)/df(box)."""
    dval = _ceval_box(df, box)
    mr, mi = box.midpoint()
    fr, fi = _ceval_exact(f, mr, mi)
    quot = _cdiv(_cbox_point(fr, fi), dval)
    if quot is None:
        return None
    img = _cadd(_cbox_point(mr, mi), CBox((-quot.re[1], -quot.re[0]), (-quot.im[1], -quot.im[0])))
    return img.round_out(_WORK_BITS)


@dataclass(frozen=True)
class RootBox:
    """Certified isolating rectangle for a root of a polynomial.

    The certificate: `poly` (a square-free cofactor of the input) has
    exactly one root in the closed box, established by an interval Newton
    contraction, and the input carries it with the stated multiplicity.
    """

    re_lo: Rat
    re_hi: Rat
    im_lo: Rat
    im_hi: Rat
    multiplicity: int
    poly: UPoly  # square-free witness polynomial, exact

    def box(self) -> CBox:
        return CBox((self.re_lo, self.re_hi), (self.im_lo, self.im_hi))

    def is_point(self) -> bool:
        return self.re_hi == self.re_lo and self.im_hi == self.im_lo

    def describe(self) -> str:
        if self.is_point():
            return f"({self.re_lo}{'+' if self.im_lo >= 0 else ''}{self.im_lo}i)"
        return (f"re in [{float(self.re_lo):.6g}, {float(self.re_hi):.6g}], "
                f"im in [{float(self.im_lo):.6g}, {float(self.im_hi):.6g}]")


def _certify(g: UPoly, approx: complex, radius: Fraction) -> CBox | None:
    """Try to certify a unique simple root of square-free g near approx."""
    df = upoly.deriv(g)
    mr = Fraction(approx.real).limit_denominator(1 << 80)
    mi = Fraction(approx.imag).limit_denominator(1 << 80)
    box = CBox((mr - radius, mr + radius), (mi - radius, mi + radius))
    for _ in range(4):
        img = _newton_image(g, df, box)
        if img is None:
            return None
        if box.contains_interior(img):
            out = img.intersect(box)
            return out if out is not None else img
        shrunk = img.intersect(box)
        if shrunk is None:
            return None
        box = shrunk
    return None


def isolate_complex_roots(coeffs: Sequence[Rat]) -> list[RootBox]:
    """Certified isolating boxes for all complex roots, with multiplicities.

    Square-free decomposition splits off multiplicities exactly; each
    square-free factor is handled by approximation plus interval Newton
    certification.  Boxes are pairwise disjoint and the multiplicities sum
    to the degree.
    """
    f = upoly.make(coeffs)
    if upoly.is_zero(f):
        raise ValueError("isolate_complex_roots: zero polynomial")
    if upoly.degree(f) < 1:
        raise ValueError("isolate_complex_roots: constant polynomial has no roots")
    out: list[RootBox] = []
    for g, mult in upoly.squarefree_decomposition(f):
        # exact rational roots of this factor come out as point boxes
        for r, _ in upoly.rational_roots(g):
            out.append(RootBox(r, r, Fraction(0), Fraction(0), mult, g))
            g = upoly.divmod_exact_field(g, upoly.make([-r, 1]))[0]
        if upoly.degree(g) < 1:
            continue
        gp = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(g)]
        for attempt, prec in enumerate((120, 240, 480, 960)):
            with mpmath.workprec(prec):
                approx = [complex(z) for z in mpmath.polyroots(gp, maxsteps=200, extraprec=prec)]
            sep = min((abs(a - b) for i, a in enumerate(approx) for b in approx[i + 1:]),
                      default=1.0)
            # a wide box can defeat interval Newton even on simple roots, so
            # each retry shrinks the initial guess as well as adding precision
            radius = Fraction(max(sep / 4, 2.0 ** (-prec // 2))).limit_denominator(1 << 90)
            radius /= 16 ** attempt
            if radius == 0:
                radius = Fraction(1, 1 << (prec // 2))
            boxes = []
            for z in approx:
                cert = _certify(g, z, radius)
                if cert is None:
                    break
                boxes.append(cert)
            else:
                if all(a.disjoint(b) for i, a in enumerate(boxes) for b in boxes[i + 1:]):
                    out.extend(RootBox(b.re[0], b.re[1], b.im[0], b.im[1], mult, g)
                               for b in boxes)
                    break
        else:
            raise ArithmeticError("root certification failed at maximum precision")
    total = sum(rb.multiplicity for rb in out)
    if total != upoly.degree(f):
        raise ArithmeticError(f"isolation lost roots: certified {total} of {upoly.degree(f)}")
    return out
