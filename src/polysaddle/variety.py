"""Exact decision of whether bivariate polynomials share a zero in C^2.

The procedure is purely algebraic; no floating point enters the verdict.
Outline: polynomials in x alone pin x to a squarefree "fiber" polynomial
F(x); everything else is treated as a polynomial in y with coefficients in
Q[x] reduced mod F.  On a fiber, a pair of polynomials is collapsed to
their gcd by a Euclidean remainder sequence that splits the fiber whenever
a leading coefficient fails to be invertible (gcd with F), so each branch
behaves like computation over a field.  A single surviving polynomial with
positive y-degree on some part of the fiber always has a root there (C is
algebraically closed), which decides the branch.  Without a fiber, the
polynomial p of least y-degree and the next one, q, are split by their gcd
if they share a factor: the variety is the factor's zero set together
with the cofactors'.  A coprime pair is projected to the x-axis by
Res_y(p, q), and each other polynomial r by Res_y(p, r).  Each resultant
lies in the ideal of its pair (Cox, Little & O'Shea, Ideals, Varieties,
and Algorithms, ch. 3), so the roots of their gcd are a complete candidate
set for the x-coordinates of common zeros.  One image mod 2^61 - 1
usually proves that gcd constant, and then there is no common zero;
otherwise its squarefree part is the fiber.

Witnesses are exact rational points whenever the relevant fibers have
rational roots, and otherwise certified isolating boxes (or a textual
certificate naming the fiber and the specialized polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import arith, bipoly as bp, upoly
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
    """Dynamic-evaluation gcd of a and b over the squarefree fiber F.

    Returns subfibers covering all roots of F, each paired with a
    polynomial whose roots over that subfiber are exactly the common roots
    of a and b there; () means both vanish identically (no constraint),
    and a y-free polynomial has a root exactly where it vanishes on the
    subfiber.
    """
    a, b = _reduce(a, F), _reduce(b, F)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return [(F, a)]
    lc = b[-1]
    h = upoly.gcd(F, lc)
    if upoly.degree(h) >= 1:
        out = _fiber_gcd(h, a, _trim(list(b[:-1])))
        rest = upoly.divmod_exact_field(F, h)[0]
        if upoly.degree(rest) >= 1:
            out = out + _fiber_gcd(rest, a, b)
        return out
    inv = upoly.invert_mod(lc, F)
    r = _ymod(a, b, F, inv)
    return _fiber_gcd(F, b, r)


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
    polys.sort(key=len)
    a, b = polys[1], polys[0]
    others = polys[2:]
    for Fi, g in _fiber_gcd(F, a, b):
        sub = _decide_fiber(Fi, [g] + others, depth + 1)
        if sub is not None:
            return sub
    return None


def _to_upoly_x(f: BiPoly) -> UPoly:
    if bp.deg_y(f) > 0:
        raise ValueError("not y-free")
    return upoly.make([f.get((i, 0), Fraction(0)) for i in range(bp.deg_x(f) + 1)])


def _decide_plane(polys: list[BiPoly], depth: int) -> Locus | None:
    if depth > 300:
        raise RecursionError("variety decision exceeded depth guard")
    if any(bp.is_const(p) for p in polys):
        return None
    yfree = [p for p in polys if bp.deg_y(p) == 0]
    if yfree:
        G = upoly.gcd_many([_to_upoly_x(p) for p in yfree])
        if upoly.degree(G) < 1:
            return None
        F = upoly.squarefree_part(G)
        rest = [_to_ypoly(p) for p in polys if bp.deg_y(p) > 0]
        return _decide_fiber(F, rest, depth + 1)
    if len(polys) == 1:
        p = polys[0]
        lc = bp.coeffs_wrt_y(p)[-1]
        k = 0
        while upoly.evaluate(lc, Fraction(k)) == 0:
            k += 1
        return _decide_fiber(upoly.make([-k, 1]), [_to_ypoly(p)], depth + 1)
    polys = sorted(polys, key=bp.deg_y)
    p, q = polys[0], polys[1]
    others = polys[2:]
    h = bp.gcd(p, q)
    if not bp.is_const(h):
        sub = _decide_plane([h] + others, depth + 1)
        if sub is not None:
            return sub
        return _decide_plane([bp.exact_div(p, h), bp.exact_div(q, h)] + others, depth + 1)
    R = bp.resultant(p, q)
    if bp.is_zero(R):
        raise ArithmeticError("resultant of a coprime pair vanished")
    if bp.is_const(R):
        return None
    # Res_y(p, r) lies in the ideal (p, r), so every common zero projects to
    # a root of the gcd G of the resultants; a zero one (r shares a factor
    # with p) leaves G as it is, since gcd(G, 0) = G
    G = _to_upoly_x(R)
    for r in others:
        Rr = _to_upoly_x(bp.resultant(p, r))
        if upoly.coprime_image(G, Rr):
            return None
        G = upoly.gcd(G, Rr)
    return _decide_fiber(upoly.squarefree_part(G), [_to_ypoly(t) for t in polys], depth + 1)


def _specialize(p: YPoly, x0: Fraction) -> UPoly:
    return upoly.make([upoly.evaluate(c, x0) for c in p])


def _verify_point(originals: list[BiPoly], x0: Fraction, y0: Fraction) -> None:
    for f in originals:
        if bp.evaluate(f, x0, y0) != 0:
            raise AssertionError("witness failed exact re-evaluation")


def _describe_witness(loc: Locus, originals: list[BiPoly]) -> object:
    """Exact rational point when available, else a certificate."""
    for x0, _ in upoly.rational_roots(loc.F):
        if loc.poly is None:
            _verify_point(originals, x0, Fraction(0))
            return (x0, Fraction(0))
        spec = _specialize(loc.poly, x0)
        rr = upoly.rational_roots(spec) if not upoly.is_zero(spec) else [(Fraction(0), 1)]
        if rr:
            y0 = rr[0][0]
            _verify_point(originals, x0, y0)
            return (x0, y0)
        box = arith.isolate_complex_roots(list(spec))[0]
        return f"x = {x0}, y in certified box {box.describe()}"
    xboxes = arith.isolate_complex_roots(list(loc.F))
    xdesc = "; ".join(b.describe() for b in xboxes)
    if loc.poly is None:
        return (f"every root x* of {upoly.to_string(loc.F, 'x')} = 0 "
                f"(certified boxes: {xdesc}) gives a solution for every y")
    if all(upoly.degree(c) <= 0 for c in loc.poly):
        spec = upoly.make([c[0] if c else Fraction(0) for c in loc.poly])
        rr = upoly.rational_roots(spec)
        if rr:
            return (f"x in certified boxes {xdesc} (roots of "
                    f"{upoly.to_string(loc.F, 'x')}), y = {rr[0][0]}")
        ybox = arith.isolate_complex_roots(list(spec))[0]
        return (f"x in certified boxes {xdesc}, y in certified box {ybox.describe()}")
    ys = " + ".join(f"({upoly.to_string(c, 'x')})*y^{j}" for j, c in enumerate(loc.poly) if c)
    return (f"every root x* of {upoly.to_string(loc.F, 'x')} = 0 "
            f"(certified boxes: {xdesc}) extends by a root y* of the "
            f"nonconstant specialization of {ys}")


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
    return bp.fails(_describe_witness(loc, list(polys)), "common zero exists")
