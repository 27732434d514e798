"""Integrating factors and critical level values of a polynomial integral.

For H = prod u_i^{k_i}, the products R = prod u_i^{k_i-1} (an integrating
factor of the constructed field) and V = prod u_i (an inverse integrating
factor) control the degree bookkeeping implemented here.  V is read off
the product-rule recurrence of `field_ops`, F.product_field = (P0, Q0, V),
and R is F.R, built on first use; H = R V.

A level value c is *critical* when H + c acquires a repeated factor, that
is when gcd(H+c, H_x, H_y) is nonconstant.  Such a factor divides the
gradient gcd G = gcd(H_x, H_y), so the critical values are read off the
curve G = 0: each of its complex components is irreducible, hence
connected, and dH vanishes on it, so H is constant there; c is critical
exactly when H + c vanishes on one of these components.  The levels of
the components with positive y-degree are the roots of a univariate
resultant Res_y(G(x0, y), H(x0, y) + c) on one vertical line x = x0 that
meets them all; the vertical components, the roots of content_y(G), are
handled by Res_x(content_y(G), H(x, 0) + c).  Every root of their
product is therefore a level -H(x0, t_k) at a point where G(x0, t_k) = 0,
or -H(a, 0) on a vertical line x = a inside G = 0: the value of -H on a
component of G = 0.  Such a component is the zero set of an irreducible
factor g of G, H + c vanishes on it, so g divides H + c (Hilbert's
Nullstellensatz) as well as H_x and H_y, and c is critical.  So every
rational root is a critical value with no confirming gcd, and the
nonrational ones are reported as a univariate residual polynomial in c
rather than dropped.  The tests recheck each value by that gcd.

For a factored integral no gradient gcd is taken: H_y = R*P0 and
H_x = -R*Q0 for (P0, Q0) = F.field, so gcd(H_x, H_y) = R*g with
g = gcd(P0, Q0), F.field's cached common factor.  Every component of
R = 0 lies on some u_i = 0 with k_i > 1, where H = 0, and the others are
those of g = 0; so analyze() runs critical_levels on g alone and adds
the level 0 when R is nonconstant.  critical_remarkable_values(H) still
computes the gradient gcd itself for a bare H.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from . import bipoly as bp
from . import upoly
from .bipoly import BiPoly, CheckResult
from .field_ops import FactoredIntegral, VectorField, is_coprime, _divergence
from .upoly import UPoly


def integrating_factor(F: FactoredIntegral) -> BiPoly:
    """R = prod u_i^{k_i - 1}: F.R."""
    return F.R


def inverse_integrating_factor(F: FactoredIntegral) -> BiPoly:
    """V = prod u_i, read off F.product_field."""
    return F.product_field[2]


def _at(f: BiPoly, x0: int) -> UPoly:
    """f(x0, y) as a univariate polynomial in y."""
    return upoly.make([upoly.evaluate(p, x0) for p in bp.coeffs_wrt_y(f)])


def _level_product(f: UPoly, h: UPoly) -> UPoly:
    """A polynomial in c whose roots are the -h(t_k), t_k the roots of f
    (positive degree): Res_t(f*, (h mod f*) + c) for the squarefree part
    f* of f, which has those roots and keeps the Sylvester matrix small.
    c rides in the x slot, so every y-coefficient is a polynomial in c."""
    f = upoly.squarefree_part(f)
    h = upoly.rem(h, f)
    if upoly.is_const(h):
        return upoly.make([h[0] if h else 0, 1])
    hc = bp.add(bp.from_upoly_y(h), bp.X)
    return bp.coeffs_wrt_y(bp.resultant(bp.from_upoly_y(f), hc))[0]


def critical_remarkable_values(H: BiPoly) -> tuple[list[Fraction], UPoly | None]:
    """All rational critical values of H, plus a residual for the rest.

    Returns (values, residual): `values` are the rational c with
    gcd(H+c, H_x, H_y) nonconstant, in increasing order; `residual` is the
    squarefree monic univariate polynomial in c whose roots are the
    remaining (nonrational) critical values, or None.  Each value is the
    level of H on a component of G = 0, G = gcd(H_x, H_y), which makes it
    critical (module docstring), so no gcd confirms it.
    """
    if bp.is_zero(H) or bp.is_const(H):
        raise ValueError("degenerate integral: H is constant")
    return critical_levels(H, bp.gcd(bp.partial(H, "x"), bp.partial(H, "y")))


def critical_levels(H: BiPoly, G: BiPoly) -> tuple[list[Fraction], UPoly | None]:
    """The levels of a nonconstant H on the components of G = 0, split as
    critical_remarkable_values splits them, for a normalized G dividing
    gcd(H_x, H_y); with G = gcd(H_x, H_y) they are all its critical values."""
    N = upoly.ONE
    if bp.deg_y(G) >= 1:
        # the line x = x0 meets every component of positive y-degree
        x0 = bp.first_regular_x(G)
        N = _level_product(_at(G, x0), _at(H, x0))
    cont = bp.content_y(G)
    if upoly.degree(cont) >= 1:
        # vertical components x = a, on which H(a, y) = H(a, 0)
        N = upoly.mul(N, _level_product(cont, _at(bp.swap_vars(H), 0)))
    if upoly.is_const(N):
        return [], None
    residual = upoly.squarefree_part(N)
    values = upoly.rational_roots(residual)
    for c0 in values:
        residual = upoly.divmod_exact_field(residual, upoly.make([-c0, 1]))[0]
    return values, (None if upoly.is_const(residual) else residual)


@dataclass(frozen=True)
class RemarkableAnalysis:
    """Bundle of the level-structure data for one factored integral."""

    critical_values: tuple[Fraction, ...]
    residual: UPoly | None  # univariate in c, or None
    R: BiPoly  # integrating factor
    V: BiPoly  # inverse integrating factor
    s: int  # number of rational critical values
    d: int  # degree of R


def analyze(F: FactoredIntegral) -> RemarkableAnalysis:
    """Full level-structure analysis of H = F.H.

    R is F.R, V is read off F.product_field, and F.H = R * V.  The levels are
    those on g = gcd(P0, Q0), read off the constructed field F.field, plus
    0 when R is nonconstant (see the module docstring).
    """
    R = integrating_factor(F)
    V = inverse_integrating_factor(F)
    values, residual = critical_levels(F.H, F.field.common_factor)
    if not bp.is_const(R) and Fraction(0) not in values:
        insort(values, Fraction(0))
    return RemarkableAnalysis(tuple(values), residual, R, V,
                              len(values), bp.total_degree(R))


def single_critical_value_criterion(F: FactoredIntegral, X: VectorField,
                                    analysis: RemarkableAnalysis | None = None) -> CheckResult:
    """Equivalence check for integrals with a repeated factor: the factor
    degrees sum to deg(X) + 1 exactly when the integral has exactly one
    critical value.  Both directions are evaluated.  The critical values
    come from `analysis`, which must be analyze(F), computed here when not
    passed.  That a coprime X annihilates H is tested as X being a
    constant multiple of F.field.reduced[0], which is equivalent
    (field_ops._lie_of_integral) and needs no quotient."""
    if not any(k > 1 for _, k in F.factors):
        raise ValueError("criterion requires some exponent k_i > 1")
    if not is_coprime(X):
        raise ValueError("criterion requires a coprime field")
    Xr, _ = F.field.reduced
    A, B = (X.P, Xr.P) if X.P else (X.Q, Xr.Q)
    c = Fraction(bp.leading_term(A)[1]) / bp.leading_term(B)[1] if B else 0
    if not c or X != VectorField(bp.scalar_mul(c, Xr.P), bp.scalar_mul(c, Xr.Q)):
        raise ValueError("X does not annihilate the factored integral")
    sum_deg = sum(bp.total_degree(u) for u, _ in F.factors)
    degree_side = sum_deg == X.degree + 1
    if analysis is None:
        analysis = analyze(F)
    values, residual = analysis.critical_values, analysis.residual
    if residual is not None and len(values) < 2:
        return bp.inconclusive(
            "nonrational candidate critical values remain "
            f"(residual {upoly.to_string(residual, 'c')}); cannot count exactly")
    value_side = len(values) == 1
    if degree_side == value_side:
        return bp.holds(
            f"sum deg u_i = {sum_deg}, m+1 = {X.degree + 1}, "
            f"critical values {[str(v) for v in values]}")
    return bp.fails(
        f"sum deg u_i = {sum_deg} vs m+1 = {X.degree + 1}; "
        f"critical values {[str(v) for v in values]}",
        "degree side and critical-value side disagree")


def inverse_factor_degree_check(analysis: RemarkableAnalysis, m: int) -> CheckResult:
    """deg V = (s-1)d + (m+1)s, with s the critical-value count and
    d = deg R."""
    if analysis.s < 1:
        raise ValueError("no critical values: the degree formula does not apply")
    expected = (analysis.s - 1) * analysis.d + (m + 1) * analysis.s
    actual = bp.total_degree(analysis.V)
    if actual == expected:
        return bp.holds(f"deg V = {actual} = ({analysis.s}-1)*{analysis.d}"
                        f" + ({m}+1)*{analysis.s}")
    return bp.fails(f"deg V = {actual}", f"expected {expected}")


def integral_degree_check(F: FactoredIntegral, X: VectorField) -> CheckResult:
    """deg H = m + 1 + deg R for a coprime non-Hamiltonian field with a
    repeated-factor integral.  Total degree adds over products, so
    deg H = sum k_i deg u_i and deg R = sum (k_i - 1) deg u_i exactly."""
    if not any(k > 1 for _, k in F.factors):
        raise ValueError("degree relation requires some exponent k_i > 1")
    if not is_coprime(X):
        raise ValueError("degree relation requires a coprime field")
    if bp.is_zero(_divergence(X)):
        raise ValueError("degree relation is stated for non-Hamiltonian fields")
    degH = sum(k * bp.total_degree(u) for u, k in F.factors)
    degR = sum((k - 1) * bp.total_degree(u) for u, k in F.factors)
    expected = X.degree + 1 + degR
    if degH == expected:
        return bp.holds(f"deg H = {degH} = {X.degree}+1+{degR}")
    return bp.fails(f"deg H = {degH}", f"expected {expected}")
