"""Exact decision of whether bivariate polynomials share a zero in C^2.

The procedure is purely algebraic; no floating point enters the verdict.
Outline:

- Projections first.  Res_y(a, b) lies in the ideal of its pair (Cox,
  Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3), so every
  common zero projects to one of its roots, whether or not a and b share
  a factor (then it is 0).  Two projections, or a projection and the gcd
  G of the polynomials in x alone, that one image mod 2^61 - 1 proves
  coprime leave no common zero, and the call Holds before anything exact
  runs: with some polynomials free of y, G against Res_y of the two
  others of least y-degree; otherwise, with three or more, Res_y(p, q)
  against each Res_y(p, r), p and q of least y-degree.  Against an
  operand linear in y the projection is an exact closed form.  Otherwise
  its image is taken by evaluation and interpolation
  (modp.resultant_image); such an image proves only when it reaches its
  Bezout bound, or the other image keeps its degree.
- The exact route decides the rest, so every Fails, witness and
  Inconclusive comes from it.  Polynomials in x alone pin x to the
  squarefree part F(x) of G, a "fiber"; everything else is treated as a
  polynomial in y with coefficients in Q[x] reduced mod F.  On a fiber,
  a pair of polynomials is collapsed to their gcd by a Euclidean
  remainder sequence that splits the fiber whenever a leading
  coefficient fails to be invertible (gcd with F), so each branch
  behaves like computation over a field.  A single surviving polynomial
  with positive y-degree on some part of the fiber always has a root
  there (C is algebraically closed), which decides the branch.  Without
  a fiber, p and q are split by their gcd if they share a factor: the
  variety is the factor's zero set together with the cofactors'.  A
  coprime pair is projected exactly, reusing the closed forms above; the
  roots of the gcd of Res_y(p, q) and every Res_y(p, r) are a complete
  candidate set for the x-coordinates of common zeros; the squarefree
  part of that gcd is the fiber.  No image is taken before the gcds in
  Q[x]: the first image of their modular gcd most often is the proof.

Witnesses are exact rational points whenever the relevant fibers have
rational roots, and otherwise certified isolating boxes from
`arith.isolate_complex_roots` (closed form on quadratic fibers), or a
textual certificate naming the fiber and the specialized polynomial.
When no boxes can be certified (roots closer than the approximations
resolve), the certificate says so; the verdict is exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import arith, bipoly as bp, modp, upoly
from .bipoly import BiPoly, CheckResult
from .upoly import UPoly

# polynomial in y with UPoly-in-x coefficients, lowest power first,
# trimmed so the top coefficient is nonzero; () is the zero polynomial
YPoly = tuple[UPoly, ...]


def _to_ypoly(f: BiPoly) -> YPoly:
    return tuple(bp.coeffs_wrt_y(f))


def _trim(cs: list[UPoly]) -> YPoly:
    while cs and upoly.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def _reduce(p: YPoly, F: UPoly) -> YPoly:
    return _trim([upoly.rem(c, F) for c in p])


@dataclass(frozen=True)
class Locus:
    """Nonempty piece of the common zero set, in solved form: every root a
    of the squarefree F(x) extends to a solution (a, b); `poly` is the
    y-polynomial whose specialization at a supplies b (guaranteed
    nonconstant there), or None when any y works.
    """

    F: UPoly
    poly: YPoly | None


def _ymod(a: YPoly, b: YPoly, F: UPoly, inv_lc: UPoly) -> YPoly:
    """Remainder of a by b in (Q[x]/F)[y]; lc(b) invertible with the given
    inverse."""
    db = len(b) - 1
    r = list(a)
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        factor = upoly.rem(upoly.mul(r[-1], inv_lc), F)
        for i, bc in enumerate(b):
            r[shift + i] = upoly.rem(upoly.sub(r[shift + i], upoly.mul(factor, bc)), F)
        while r and upoly.is_zero(r[-1]):
            r.pop()
    return tuple(r)


def _fiber_gcd(F: UPoly, a: YPoly, b: YPoly) -> list[tuple[UPoly, YPoly]]:
    """Dynamic-evaluation gcd over the squarefree fiber F of a and b, both
    already reduced mod F.

    Returns subfibers covering all roots of F, each paired with a
    polynomial whose roots over that subfiber are exactly the common roots
    of a and b there; () means both vanish identically (no constraint),
    and a y-free polynomial has a root exactly where it vanishes on the
    subfiber.

    A step runs one Euclid, xgcd(lc(b), F).  A nonconstant gcd h splits F
    into h, where b loses its top coefficient, and F/h, nonconstant since
    h divides lc(b), of lower degree than F; only what moves onto a smaller
    fiber is reduced again.  Otherwise the cofactor inverts lc(b).
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return [(F, a)]
    h, inv = upoly.xgcd(b[-1], F)
    if upoly.degree(h) >= 1:
        rest = upoly.divmod_exact_field(F, h)[0]
        return (_fiber_gcd(h, _reduce(a, h), _reduce(b[:-1], h))
                + _fiber_gcd(rest, _reduce(a, rest), _reduce(b, rest)))
    return _fiber_gcd(F, b, _ymod(a, b, F, inv))


def _decide_fiber(F: UPoly, polys: list[YPoly], depth: int) -> Locus | None:
    """Solutions (a, b) with F(a) = 0 and all polys vanishing, or None."""
    if depth > 300:
        raise RecursionError("variety decision exceeded depth guard")
    while True:
        if upoly.degree(F) < 1:
            return None
        reduced = [q for q in (_reduce(p, F) for p in polys) if q]
        if not reduced:
            return Locus(F, None)
        yfree = [p[0] for p in reduced if len(p) == 1]
        if yfree:
            G = upoly.gcd_many([F] + yfree)
            if upoly.degree(G) < 1:
                return None
            F = G
            polys = [p for p in reduced if len(p) > 1]
            continue
        polys = reduced
        break
    if len(polys) == 1:
        p = polys[0]
        bad = F
        for c in p[1:]:
            bad = upoly.gcd(bad, c)
        good = upoly.divmod_exact_field(F, bad)[0] if upoly.degree(bad) >= 1 else F
        # p is trimmed mod F, so its top coefficient cannot vanish on all of F
        return Locus(good, p)
    polys.sort(key=len)  # reduced mod F, as _fiber_gcd requires
    a, b = polys[1], polys[0]
    others = polys[2:]
    for Fi, g in _fiber_gcd(F, a, b):
        sub = _decide_fiber(Fi, [g] + others, depth + 1)
        if sub is not None:
            return sub
    return None


def _projection(p: BiPoly, r: BiPoly) -> tuple[UPoly | None, list[int]]:
    """Res_y(p, r), both of positive y-degree, and an image of it mod
    modp.PRIME that modp.coprime_images accepts: the exact closed form
    and its image when an operand is linear in y, else None and
    modp.resultant_image."""
    if bp.deg_y(p) == 1 or bp.deg_y(r) == 1:
        R = bp.to_upoly_x(bp.resultant(p, r))
        return R, modp.image(R[::-1])
    return None, modp.resultant_image(p, r)


def _decide_plane(polys: list[BiPoly], depth: int) -> Locus | None:
    if depth > 300:
        raise RecursionError("variety decision exceeded depth guard")
    if any(bp.is_const(p) for p in polys):
        return None
    yfree = [p for p in polys if bp.deg_y(p) == 0]
    if yfree:
        G = upoly.gcd_many([bp.to_upoly_x(p) for p in yfree])
        if upoly.degree(G) < 1:
            return None
        rest = [p for p in polys if bp.deg_y(p) > 0]
        if len(rest) > 1:  # Res_y(a, b) lies in the ideal (a, b)
            a, b = sorted(rest, key=bp.deg_y)[:2]
            if modp.coprime_images(modp.image(G[::-1]), _projection(a, b)[1]):
                return None
        return _decide_fiber(upoly.squarefree_part(G), [_to_ypoly(p) for p in rest], depth + 1)
    if len(polys) == 1:
        x0 = bp.first_regular_x(polys[0])
        return _decide_fiber(upoly.make([-x0, 1]), [_to_ypoly(polys[0])], depth + 1)
    polys = sorted(polys, key=bp.deg_y)
    p, q = polys[0], polys[1]
    others = polys[2:]
    # Res_y(p, q) and every Res_y(p, r) lie in the ideal of their pair, so
    # two of them coprime leave no common zero, whether or not p and q
    # share a factor (which makes Res_y(p, q) and its image zero); a lone
    # pair takes no image, as one projection proves nothing
    projs = [_projection(p, r) for r in polys[1:]] if others else [(None, [])]
    if any(modp.coprime_images(projs[0][1], img) for _, img in projs[1:]):
        return None
    h = bp.gcd(p, q)
    if not bp.is_const(h):
        sub = _decide_plane([h] + others, depth + 1)
        if sub is not None:
            return sub
        return _decide_plane([bp.exact_div(p, h), bp.exact_div(q, h)] + others, depth + 1)
    # every common zero projects to a root of the gcd G of the resultants
    # (the first is not zero: p and q are coprime; a zero one leaves G);
    # gcd_many stops at a constant G, before another exact resultant
    G = upoly.gcd_many(R if R is not None else bp.to_upoly_x(bp.resultant(p, r))
                       for r, (R, _) in zip(polys[1:], projs))
    if upoly.degree(G) < 1:
        return None
    return _decide_fiber(upoly.squarefree_part(G), [_to_ypoly(t) for t in polys], depth + 1)


def _specialize(p: YPoly, x0: Fraction) -> UPoly:
    return upoly.make([upoly.evaluate(c, x0) for c in p])


def _describe_witness(loc: Locus) -> object:
    """Exact rational point when available, else a certificate.  A point
    is a common zero by the contract of Locus, so it is not re-evaluated.
    When no boxes can be certified, the certificate names the fiber and
    the polynomial whose specialization supplies y, and says so."""
    try:
        return _boxed_witness(loc)
    except arith.CertificationError:
        return _fiber_certificate(loc, "no boxes could be certified")


def _fiber_certificate(loc: Locus, xdesc: str) -> str:
    fiber = f"every root x* of {upoly.to_string(loc.F, 'x')} = 0 ({xdesc})"
    if loc.poly is None:
        return f"{fiber} gives a solution for every y"
    ys = " + ".join(f"({upoly.to_string(c, 'x')})*y^{j}" for j, c in enumerate(loc.poly) if c)
    return f"{fiber} extends by a root y* of the nonconstant specialization of {ys}"


def _boxed_witness(loc: Locus) -> object:
    for x0 in upoly.rational_roots(loc.F):
        if loc.poly is None:
            return (x0, Fraction(0))
        spec = _specialize(loc.poly, x0)
        rr = upoly.rational_roots(spec) if not upoly.is_zero(spec) else [Fraction(0)]
        if rr:
            return (x0, rr[0])
        box = arith.isolate_complex_roots(list(spec))[0]
        return f"x = {x0}, y in certified box {box.describe()}"
    xboxes = arith.isolate_complex_roots(list(loc.F))
    xdesc = "; ".join(b.describe() for b in xboxes)
    if loc.poly is not None and all(upoly.degree(c) <= 0 for c in loc.poly):
        spec = upoly.make([c[0] if c else 0 for c in loc.poly])
        rr = upoly.rational_roots(spec)
        if rr:
            return (f"x in certified boxes {xdesc} (roots of "
                    f"{upoly.to_string(loc.F, 'x')}), y = {rr[0]}")
        ybox = arith.isolate_complex_roots(list(spec))[0]
        return (f"x in certified boxes {xdesc}, y in certified box {ybox.describe()}")
    return _fiber_certificate(loc, f"certified boxes: {xdesc}")


def variety_empty(polys: list[BiPoly]) -> CheckResult:
    """Holds iff the polynomials have no common zero in C^2.

    A Fails carries an exact rational witness point whenever one exists on
    the deciding fiber, otherwise certified root boxes / a certificate.
    """
    if len(polys) < 2:
        raise ValueError("variety_empty needs at least two polynomials")
    if any(bp.is_zero(p) for p in polys):
        raise ValueError("variety_empty arguments must be nonzero")
    try:
        loc = _decide_plane(list(polys), 0)
    except RecursionError:
        return bp.inconclusive("decision recursion exceeded the safety depth")
    if loc is None:
        return bp.holds("no common zero in C^2")
    return bp.fails(_describe_witness(loc), "common zero exists")
