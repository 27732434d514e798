"""Rational arithmetic and certified complex root isolation.

Coefficients live in Q throughout (the constructions we implement never
leave the rationals).  Rational roots come out exactly, as point boxes.
What is left of each square-free factor is isolated in one of two ways:

- A quadratic, irreducible over Q, is solved in closed form: its roots are
  (-b +- sqrt(D)) / 2a, and an integer square root of the discriminant
  brackets sqrt|D| between consecutive dyadic rationals, so each box is
  proved by squaring its bounds.  No floating point enters.
- A factor of degree 3 or more is approximated by mpmath, and an exact
  interval Newton step over rational complex rectangles certifies that
  each box holds exactly one simple root.  Floating point only finds the
  starting boxes; everything the certificates assert is checked in exact
  arithmetic.

mpmath is imported by isolate_complex_roots itself, and only once a
factor of degree 3 or more without rational roots is left to approximate:
it is the largest part of the package's import time, and only a CZ
witness over such a fiber needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    exactly one root in the closed box, and the input carries it with the
    stated multiplicity.  A box of a quadratic `poly` is proved in closed
    form (`_quadratic_boxes`), any other by an interval Newton contraction
    (`_certify`); a point box is an exact root.
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


class CertificationError(ArithmeticError):
    """No isolating boxes could be certified at the highest precision."""


_ZERO: Ival = (Fraction(0), Fraction(0))


def _quadratic_boxes(g: UPoly) -> list[CBox]:
    """Boxes for the two roots of a quadratic g without rational roots.

    Scaled to a primitive a x^2 + b x + c with a > 0, g has the roots
    (-b +- sqrt(D)) / 2a, where D = b^2 - 4ac is neither 0 nor, when
    positive, a square.  With m = isqrt(|D| 4^k), m <= 2^k sqrt|D| < m + 1,
    with equality only when -D is a square.  So for D > 0 the real boxes
    (-b 2^k -+ [m, m + 1]) / (2a 2^k) hold the roots in ascending order;
    for D < 0 the real part is exactly -b/2a and the imaginary parts lie
    in -+[m, m + 1] / (2a 2^k), the negative one first (exact points when
    -D is a square).  The roots are sqrt|D|/a apart and each box is at
    most 1/(a 2^k) wide, so for k >= 1 the boxes are disjoint and each
    holds exactly one root.  k exceeds every coefficient's bit length by
    96.
    """
    c, b, a = (int(v) for v in upoly.primitive(g))
    disc = b * b - 4 * a * c
    k = 96 + max(abs(v).bit_length() for v in (a, b, c))
    m = math.isqrt(abs(disc) << 2 * k)
    den = a << k + 1
    if disc > 0:
        mid = -b << k
        return [CBox((Fraction(mid - m - 1, den), Fraction(mid - m, den)), _ZERO),
                CBox((Fraction(mid + m, den), Fraction(mid + m + 1, den)), _ZERO)]
    top = m if m * m == -disc << 2 * k else m + 1
    re = (Fraction(-b, 2 * a),) * 2
    return [CBox(re, (Fraction(-top, den), Fraction(-m, den))),
            CBox(re, (Fraction(m, den), Fraction(top, den)))]


def _newton_boxes(g: UPoly) -> list[CBox]:
    """Boxes for the roots of a square-free g of degree 3 or more, seeded by
    mpmath and certified by interval Newton, with precision raised until
    every box is certified and the boxes are disjoint."""
    import mpmath  # loaded on first use (module docstring)

    for attempt, prec in enumerate((120, 240, 480, 960)):
        with mpmath.workprec(prec):
            # rounded at this precision, not at mpmath's default 53 bits
            gp = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(g)]
            try:
                approx = [complex(z) for z in mpmath.polyroots(gp, maxsteps=200, extraprec=prec)]
            except mpmath.libmp.NoConvergence:
                continue  # as a failed certification: more precision
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
                return boxes
    raise CertificationError("root certification failed at maximum precision")


def isolate_complex_roots(coeffs: Sequence[Rat]) -> list[RootBox]:
    """Certified isolating boxes for all complex roots, with multiplicities.

    Square-free decomposition splits off multiplicities exactly, and
    rational roots come out as point boxes; what is left of each
    square-free factor is a quadratic, solved in closed form, or is
    approximated and certified by interval Newton.  Boxes are pairwise
    disjoint and the multiplicities sum to the degree.  Raises
    CertificationError when interval Newton fails at every precision.
    """
    f = upoly.make(coeffs)
    if upoly.is_zero(f):
        raise ValueError("isolate_complex_roots: zero polynomial")
    if upoly.degree(f) < 1:
        raise ValueError("isolate_complex_roots: constant polynomial has no roots")
    out: list[RootBox] = []
    for g, mult in upoly.squarefree_decomposition(f):
        # exact rational roots of this factor come out as point boxes
        for r in upoly.rational_roots(g):
            out.append(RootBox(r, r, Fraction(0), Fraction(0), mult, g))
            g = upoly.divmod_exact_field(g, upoly.make([-r, 1]))[0]
        if upoly.degree(g) < 1:
            continue
        boxes = _quadratic_boxes(g) if upoly.degree(g) == 2 else _newton_boxes(g)
        out.extend(RootBox(b.re[0], b.re[1], b.im[0], b.im[1], mult, g) for b in boxes)
    total = sum(rb.multiplicity for rb in out)
    if total != upoly.degree(f):
        raise ArithmeticError(f"isolation lost roots: certified {total} of {upoly.degree(f)}")
    return out
