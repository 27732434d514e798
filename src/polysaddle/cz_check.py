"""Genericity conditions on a family of invariant algebraic curves.

The four classical conditions (Christopher-Zoladek) for a curve family:
(i) every curve is nonsingular, (ii) every leading form is squarefree,
(iii) intersections are pairwise transversal and no three curves meet,
(iv) leading forms are pairwise coprime.  All conditions are decided over
C^2: zero sets and tangencies live in the complex plane, and squarefree
or coprimality questions are settled by exact gcds, so no factorization
over C is ever needed.  Pairwise coprimality is proved once, when the
FactoredIntegral is built; condition (iii) takes no gcd of its own.

No three curves meet when, for each triple, two of its pairs project to
the x-axis (Res_y, or the curve free of y) as coprime polynomials: each
pair is projected once, and one image mod 2^61 - 1 most often proves a
triple empty, so an exact `variety_empty` runs only on the triples that
this cannot clear (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, ch. 3: the resultant lies in the ideal of its pair); three
curves go to `variety_empty` at once.  Likewise two leading forms whose
images at y = 1 are proved coprime, and not both divisible by y, need no
gcd for condition (iv).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import bipoly as bp, modp, upoly
from .bipoly import BiPoly, CheckResult, to_upoly_x
from .field_ops import FactoredIntegral
from .upoly import UPoly
from .variety import variety_empty


def _nonzero(polys: list[BiPoly]) -> list[BiPoly]:
    return [p for p in polys if not bp.is_zero(p)]


def check_nonsingular(u: BiPoly) -> CheckResult:
    """Holds iff u, u_x, u_y have no common zero (the curve u = 0 is
    smooth everywhere in C^2)."""
    if bp.is_zero(u) or bp.is_const(u):
        raise ValueError("nonsingularity check requires a nonconstant curve")
    polys = _nonzero([u, bp.partial(u, "x"), bp.partial(u, "y")])
    return variety_empty(polys)


def check_leading_squarefree(u: BiPoly) -> CheckResult:
    """Holds iff the top-degree homogeneous part of u has no repeated
    factor over C."""
    if bp.is_zero(u) or bp.is_const(u):
        raise ValueError("leading-form check requires a nonconstant curve")
    L = bp.leading_form(u)
    # Euler's identity x L_x + y L_y = deg(L) L: gcd(L_x, L_y) divides L, so
    # it is gcd(L, L_x, L_y); L is nonconstant, so not both partials are 0
    g = bp.gcd(bp.partial(L, "x"), bp.partial(L, "y"))
    if bp.is_const(g):
        return bp.holds("leading form is squarefree")
    return bp.fails(bp.to_string(g), "leading form has a repeated factor")


def check_pair_transversal(u: BiPoly, v: BiPoly) -> CheckResult:
    """Holds iff u and v never meet with parallel gradients: the system
    u = v = (u_x v_y - u_y v_x) = 0 has no solution.  A shared component
    h needs no gcd to refuse it: with u = h a and v = h b, on h = 0 we get
    u = v = 0 and u_x v_y - u_y v_x = a b (h_x h_y - h_y h_x) = 0, so the
    pair Fails with a witness on h = 0."""
    for w in (u, v):
        if bp.is_zero(w) or bp.is_const(w):
            raise ValueError("transversality check requires nonconstant curves")
    jac = bp.sub(bp.mul(bp.partial(u, "x"), bp.partial(v, "y")),
                 bp.mul(bp.partial(u, "y"), bp.partial(v, "x")))
    return variety_empty(_nonzero([u, v, jac]))


def _projection(u: BiPoly, v: BiPoly) -> UPoly:
    """A polynomial in x in the ideal (u, v), so that its roots hold the
    x-coordinates of every common zero of u and v: Res_y(u, v) when both
    have positive y-degree (zero when they share such a factor), else
    the one free of y."""
    if bp.deg_y(u) < 1:
        return to_upoly_x(u)
    if bp.deg_y(v) < 1:
        return to_upoly_x(v)
    return to_upoly_x(bp.resultant(u, v))


def _open_triples(curves: list[BiPoly]):
    """The triples (i, j, k), in combinations order, that the images of
    their pair projections do not clear.

    Each R_ij (_projection) is taken once, when a triple first asks for
    it, and kept as its image mod 2^61 - 1.  A triple is cleared when
    those images prove two of its three projections coprime
    (modp.coprime_images); (R_ij, R_ik) is tried first, and the other two
    choices only when it fails."""
    n = len(curves)
    images: dict[tuple[int, int], list[int]] = {}

    def R(i: int, j: int) -> list[int]:
        r = images.get((i, j))
        if r is None:
            r = images[i, j] = modp.image(_projection(curves[i], curves[j])[::-1])
        return r

    coprime = modp.coprime_images
    for i in range(n):  # i < j < k runs in combinations order
        for j in range(i + 1, n):
            rij = R(i, j)
            for k in range(j + 1, n):
                rik = R(i, k)
                if not (coprime(rij, rik) or coprime(rij, R(j, k)) or coprime(rik, R(j, k))):
                    yield i, j, k


def check_no_triple_points(curves: list[BiPoly]) -> CheckResult:
    """Holds iff no point lies on three of the curves.  The curves need not
    be coprime.

    A common zero of three curves lies on each pair of them, so its
    x-coordinate is a root of each pair's projection R_ij (Res_y, or the
    curve free of y).  With four curves or more, the images of the
    projections clear most triples (_open_triples).  The triples left are
    decided exactly by `variety_empty`, in `combinations` order, so the
    first failing triple, its witness and the Inconclusive outcome are
    those of deciding every triple exactly.  Three curves make one
    triple, and one `variety_empty` call, which takes the same
    projections itself."""
    if len(curves) < 3:
        return bp.holds("fewer than three curves")
    worst: CheckResult | None = None
    for i, j, k in [(0, 1, 2)] if len(curves) == 3 else _open_triples(curves):
        r = variety_empty([curves[i], curves[j], curves[k]])
        if r.status == "Fails":
            return bp.fails(r.witness, f"curves {i + 1},{j + 1},{k + 1} meet")
        if r.status == "Inconclusive":
            worst = r
    if worst is not None:
        return worst
    return bp.holds("all triples have empty intersection")


def _at_y1(L: BiPoly) -> UPoly:
    """The form L at y = 1, as a polynomial in x."""
    d = bp.total_degree(L)
    return upoly.make([L.get((i, d - i), 0) for i in range(d + 1)])


def check_pairwise_leading_coprime(curves: list[BiPoly]) -> CheckResult:
    """Holds iff the leading forms share no nonconstant factor, pair by
    pair (no common points at infinity).

    A common factor of two forms is a form y^a h with y not dividing h.
    When h is not constant, h(x, 1) has degree deg h and divides both
    forms at y = 1, so images mod 2^61 - 1 of those that
    modp.coprime_images proves coprime leave only a power of y, which
    divides both forms.  Each form's image at y = 1 and whether y divides
    it are taken once; a pair that these do not clear takes `bp.gcd`, in
    `combinations` order, so the first failing pair and its witness are
    those of a gcd on every pair."""
    if len(curves) < 2:
        raise ValueError("pairwise check requires at least two curves")
    for i, u in enumerate(curves):
        if bp.is_zero(u) or bp.is_const(u):
            raise ValueError(f"curve {i + 1} is constant")
    forms = [bp.leading_form(u) for u in curves]
    by_y = [all(j for _, j in L) for L in forms]
    images = [modp.image(_at_y1(L)[::-1]) for L in forms]
    for i, j in combinations(range(len(curves)), 2):
        if not (by_y[i] and by_y[j]) and modp.coprime_images(images[i], images[j]):
            continue
        g = bp.gcd(forms[i], forms[j])
        if not bp.is_const(g):
            return bp.fails(bp.to_string(g),
                            f"leading forms of curves {i + 1} and {j + 1} share a factor")
    return bp.holds("leading forms pairwise coprime")


@dataclass(frozen=True)
class CZReport:
    """Per-condition verdicts plus the aggregate."""

    condition_i: CheckResult
    condition_ii: CheckResult
    condition_iii: CheckResult
    condition_iv: CheckResult
    overall: CheckResult


def _combine(parts: list[tuple[str, CheckResult]]) -> CheckResult:
    for label, r in parts:
        if r.status == "Fails":
            return bp.fails(r.witness, f"{label}: {r.reason}" if r.reason else label)
    for label, r in parts:
        if r.status == "Inconclusive":
            return bp.inconclusive(f"{label}: {r.reason}")
    return bp.holds("; ".join(label for label, _ in parts) or "vacuous")


def cz_report(F: FactoredIntegral) -> CZReport:
    """Evaluate all four conditions on the factors of F."""
    curves = [u for u, _ in F.factors]
    ci = _combine([(f"curve {i + 1} nonsingular", check_nonsingular(u))
                   for i, u in enumerate(curves)])
    cii = _combine([(f"curve {i + 1} leading form squarefree", check_leading_squarefree(u))
                    for i, u in enumerate(curves)])
    parts_iii = [(f"curves {i + 1},{j + 1} transversal",
                  check_pair_transversal(curves[i], curves[j]))
                 for i, j in combinations(range(len(curves)), 2)]
    parts_iii.append(("no triple points", check_no_triple_points(curves)))
    ciii = _combine(parts_iii)
    if len(curves) >= 2:
        civ = check_pairwise_leading_coprime(curves)
    else:
        civ = bp.holds("single curve: vacuous")
    overall = _combine([("(i)", ci), ("(ii)", cii), ("(iii)", ciii), ("(iv)", civ)])
    return CZReport(ci, cii, ciii, civ, overall)
