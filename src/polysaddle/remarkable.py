"""Integrating factors and critical level values of a polynomial integral.

For H = prod u_i^{k_i}, the products R = prod u_i^{k_i-1} (an integrating
factor of the constructed field) and V = prod u_i (an inverse integrating
factor) control the degree bookkeeping implemented here.  Both are read
off the product-rule recurrence of `field_ops`: F.product_field is
(P0, Q0, V, R), and H = R V.

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

For a factored integral G needs no gcd of the expanded H: H_y = R*P0 and
H_x = -R*Q0 for the constructed field (P0, Q0) = F.field, so
G = R*gcd(P0, Q0), and analyze() reads gcd(P0, Q0) off that field's
cached common factor.  critical_remarkable_values(H) still computes G
itself for a bare H.  The same two identities let the single-critical-value
criterion test that a coprime field annihilates H by one exact division of
F.field, with no Lie derivative of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bipoly as bp
from . import upoly
from .bipoly import BiPoly, CheckResult
from .field_ops import FactoredIntegral, VectorField, is_coprime, _divergence, _multiplier
from .upoly import UPoly


def integrating_factor(F: FactoredIntegral) -> BiPoly:
    """R = prod u_i^{k_i - 1}, read off F.product_field."""
    return F.product_field[3]


def inverse_integrating_factor(F: FactoredIntegral) -> BiPoly:
    """V = prod u_i, read off F.product_field."""
    return F.product_field[2]


def _at(f: BiPoly, x0: int) -> UPoly:
    """f(x0, y) as a univariate polynomial in y."""
    return upoly.make([upoly.evaluate(p, Fraction(x0)) for p in bp.coeffs_wrt_y(f)])


def _level_product(f: UPoly, h: UPoly) -> UPoly:
    """A polynomial in c whose roots are the -h(t_k), t_k the roots of f
    (positive degree): Res_t(f*, (h mod f*) + c) for the squarefree part
    f* of f, which has those roots and keeps the remainder sequence short.
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
    """critical_remarkable_values(H), given its gradient gcd
    G = gcd(H_x, H_y), normalized, for a nonconstant H."""
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

    R and V are read off F.product_field, and F.H = R * V.  The gradient
    gcd is R * gcd(P0, Q0), read off the constructed field F.field (see the
    module docstring).
    """
    R = integrating_factor(F)
    V = inverse_integrating_factor(F)
    values, residual = critical_levels(F.H, bp.normalize(bp.mul(R, F.field.common_factor)))
    return RemarkableAnalysis(tuple(values), residual, R, V,
                              len(values), bp.total_degree(R))


def single_critical_value_criterion(F: FactoredIntegral, X: VectorField,
                                    analysis: RemarkableAnalysis | None = None,
                                    multiplier: BiPoly | None = None) -> CheckResult:
    """Equivalence check for integrals with a repeated factor: the factor
    degrees sum to deg(X) + 1 exactly when the integral has exactly one
    critical value.  Both directions are evaluated.  The critical values
    come from `analysis`, which must be analyze(F), and `multiplier` is
    the outcome of quotient_multiplier(F.field, X) as linearize takes it
    (the zero polynomial when there is no quotient); each is computed
    here when not passed.

    That X annihilates H is tested as F.field = G X for a polynomial G,
    which for a coprime X = (P, Q) is equivalent and costs no Lie
    derivative of H.  With (P0, Q0) = F.field, H_y = R P0 and
    H_x = -R Q0, so X(H) = R (Q P0 - P Q0).  If F.field = G X this is
    zero.  Conversely, X(H) = 0 gives Q P0 = P Q0; as gcd(P, Q) = 1,
    P divides P0 (and when P = 0, Q is a nonzero constant and P0 = 0), so
    P0 = G P, and then Q0 = G Q."""
    if not any(k > 1 for _, k in F.factors):
        raise ValueError("criterion requires some exponent k_i > 1")
    if not is_coprime(X):
        raise ValueError("criterion requires a coprime field")
    if multiplier is None:
        multiplier = _multiplier(F, X)
    if not multiplier:
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
