"""Genericity conditions on a family of invariant algebraic curves.

The four classical conditions (Christopher-Zoladek) for a curve family:
(i) every curve is nonsingular, (ii) every leading form is squarefree,
(iii) intersections are pairwise transversal and no three curves meet,
(iv) leading forms are pairwise coprime.  All conditions are decided over
C^2: zero sets and tangencies live in the complex plane, and squarefree
or coprimality questions are settled by exact gcds, so no factorization
over C is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import bipoly as bp
from .bipoly import BiPoly, CheckResult
from .field_ops import FactoredIntegral
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
    g = L
    for var in ("x", "y"):
        d = bp.partial(L, var)
        if d:
            g = bp.gcd(g, d)
    if bp.is_const(g):
        return bp.holds("leading form is squarefree")
    return bp.fails(bp.to_string(g), "leading form has a repeated factor")


def check_pair_transversal(u: BiPoly, v: BiPoly) -> CheckResult:
    """Holds iff u and v never meet with parallel gradients: the system
    u = v = (u_x v_y - u_y v_x) = 0 has no solution."""
    for w in (u, v):
        if bp.is_zero(w) or bp.is_const(w):
            raise ValueError("transversality check requires nonconstant curves")
    if not bp.is_const(bp.gcd(u, v)):
        raise ValueError("transversality check requires coprime curves")
    jac = bp.sub(bp.mul(bp.partial(u, "x"), bp.partial(v, "y")),
                 bp.mul(bp.partial(u, "y"), bp.partial(v, "x")))
    return variety_empty(_nonzero([u, v, jac]))


def check_no_triple_points(curves: list[BiPoly]) -> CheckResult:
    """Holds iff no point lies on three of the curves.  The curves need not
    be coprime: `variety_empty` decides each triple exactly."""
    if len(curves) < 3:
        return bp.holds("fewer than three curves")
    worst: CheckResult | None = None
    for i, j, k in combinations(range(len(curves)), 3):
        r = variety_empty([curves[i], curves[j], curves[k]])
        if r.status == "Fails":
            return bp.fails(r.witness, f"curves {i + 1},{j + 1},{k + 1} meet")
        if r.status == "Inconclusive":
            worst = r
    if worst is not None:
        return worst
    return bp.holds("all triples have empty intersection")


def check_pairwise_leading_coprime(curves: list[BiPoly]) -> CheckResult:
    """Holds iff the leading forms share no nonconstant factor, pair by
    pair (no common points at infinity)."""
    if len(curves) < 2:
        raise ValueError("pairwise check requires at least two curves")
    for i, u in enumerate(curves):
        if bp.is_zero(u) or bp.is_const(u):
            raise ValueError(f"curve {i + 1} is constant")
    for i, j in combinations(range(len(curves)), 2):
        g = bp.gcd(bp.leading_form(curves[i]), bp.leading_form(curves[j]))
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
