"""Exact change-of-variables certificates onto the linear saddle.

For H = u_1^{k_1} ... u_p^{k_p} annihilated by a coprime field (P, Q), the
variables u = prod_{i<p} u_i^{k_i} and v = u_p^{k_p} satisfy, after a
rational time rescale, the linear saddle equations u' = u, v' = -v.  The
checkable content is a set of polynomial identities built from the
half-gradients of the split:

    K1 = sum_{i<p} k_i (u_i)_x prod_{j<p, j!=i} u_j      (so u_x = R~ K1)
    K2 = the same with d/dy
    K3 = k_p (u_p)_x,   K4 = k_p (u_p)_y                  (so v_x = u_p^{k_p-1} K3)

The product-rule triple of the head factors u_1, ..., u_{p-1} is
F.head_field = (K2, -K1, W) with W = prod_{i<p} u_i; with
R~ = prod_{i<p} u_i^{k_i-1} (field_ops.multiplicity_product, built only
here) u = W R~ is one product, and the last step of the recurrence in
`field_ops` turns the triple into the constructed field of F:
F.field = (K4 W + K2 u_p, -K1 u_p - K3 W).  The certificate records the
K's, the determinant D = K1 K4 - K2 K3 and the common multiplier G defined
by G (P, Q) = F.field; the time rescale d(tau) = (D/G) dt is recorded
symbolically and is valid off the zero sets of D and G.

Two things are checked at run time: D is not identically zero, and the
exact quotient G exists (for F.field.reduced[0], reduce_field's exact
divisions found it).  The rest is algebra.  With G (P, Q) = F.field,

    G (K1 P + K2 Q) = K1 (K4 W + K2 u_p) - K2 (K1 u_p + K3 W) =  D W,
    G (K3 P + K4 Q) = K3 (K4 W + K2 u_p) - K4 (K1 u_p + K3 W) = -D u_p,

and multiplying the first by R~ (u = R~ W, u_x = R~ K1, u_y = R~ K2) and
the second by u_p^{k_p-1} gives the saddle pullbacks G X(u) = D u and
G X(v) = -D v.  G (P, Q) = F.field also proves that (P, Q) annihilates
H = F.H, since F.field does, so a verified run never expands H; a field
with no quotient gets its witness X(H) off the factors, so no run does.
The tests recheck both pullbacks from the certificate's own polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bipoly as bp
from .bipoly import BiPoly
from .field_ops import (FactoredIntegral, VectorField, is_coprime, multiplicity_product,
                        quotient_multiplier, _divergence, _lie_of_integral)


class SplitError(ValueError):
    """An input no split can be made of: a pivot out of range, fewer than
    two factors, or a field whose components share a factor."""


def factor_split(F: FactoredIntegral, pivot: int) -> FactoredIntegral:
    """Reorder so the 1-based pivot factor comes last (it becomes the
    v-variable of the split).  Neither the product H, nor the triple
    (P, Q, V) of all the factors, nor R depends on the order, so the
    reordered integral shares F's product_field and field, and F's H and R
    when they have been built; the head factors' triple does depend on
    which factor is last and is not shared.  What FactoredIntegral proves
    of the factors does not depend on their order, so it is not proved
    again."""
    if not 1 <= pivot <= F.p:
        raise SplitError(f"pivot {pivot} out of range 1..{F.p}")
    fs = list(F.factors)
    fs.append(fs.pop(pivot - 1))
    out = object.__new__(FactoredIntegral)
    vars(out).update(factors=tuple(fs), field=F.field, product_field=F.product_field)
    vars(out).update({name: vars(F)[name] for name in ("H", "R") if name in vars(F)})
    return out


def k_matrix(F: FactoredIntegral) -> tuple[BiPoly, BiPoly, BiPoly, BiPoly]:
    """The four half-gradient combinations (K1, K2, K3, K4) of the split
    that keeps the last factor apart; needs at least two factors."""
    if F.p < 2:
        raise ValueError("k_matrix needs at least two factors")
    K2, neg_K1, _ = F.head_field
    up, kp = F.factors[-1]
    K3 = bp.scalar_mul(kp, bp.partial(up, "x"))
    K4 = bp.scalar_mul(kp, bp.partial(up, "y"))
    return bp.neg(neg_K1), K2, K3, K4


@dataclass(frozen=True)
class LinearizationCertificate:
    """Verified data of one linearizing change of variables.

    Only linearize() builds one, after it has checked exactly that the
    determinant D = K1 K4 - K2 K3 is not identically zero and that the
    multiplier identity G (P, Q) = F.field holds on both components, where
    F.field = (K4 W + K2 u_p, -K1 u_p - K3 W) and W = prod_{i<p} u_i.
    These two imply the saddle pullbacks G (u_x P + u_y Q) = D u and
    G (v_x P + v_y Q) = -D v (derivation in the module docstring), so
    those are not computed; each identity can be rechecked from the
    recorded polynomials and the field.  hamiltonian_input records that
    the field was Hamiltonian, which is outside the stated hypotheses of
    the construction; the certificate is still valid when the identities
    hold."""

    u_expr: BiPoly
    v_expr: BiPoly
    K1: BiPoly
    K2: BiPoly
    K3: BiPoly
    K4: BiPoly
    D: BiPoly
    G: BiPoly
    hamiltonian_input: bool
    time_change: str


def linearize(F: FactoredIntegral, X: VectorField) -> LinearizationCertificate:
    """Build and exactly verify the saddle certificate for (F, X).

    The multiplier G is the exact quotient with G X = F.field, the
    constructed field of F, cross-checked on both components; with
    D != 0 it makes the certificate (module docstring).

    Errors: fewer than two factors or a non-coprime field raise
    SplitError; a field that does not actually annihilate F.H raises
    ExactDivisionError whose `remainder` attribute is the nonzero Lie
    derivative X(F.H), read off the factors by field_ops._lie_of_integral
    once the quotient has failed, so F.H is never expanded (for a coprime
    X that failure is equivalent to X(F.H) != 0; proof in the docstring of
    _lie_of_integral); an annihilating field with a zero determinant D
    (degenerate split) raises ArithmeticError.
    """
    if F.p < 2:
        raise SplitError("linearize needs at least two factors")
    Xr, G = vars(F.field).get("reduced", (None, None))  # built if X came from it
    if X is not Xr:  # else reduce_field's exact divisions proved F.field = G X
        if not is_coprime(X):
            raise SplitError("linearize requires a coprime field")
        try:
            G = quotient_multiplier(F.field, X)
        except bp.ExactDivisionError:
            raise bp.ExactDivisionError(_lie_of_integral(F, X)) from None
    K1, K2, K3, K4 = k_matrix(F)
    D = bp.sub(bp.mul(K1, K4), bp.mul(K2, K3))
    if bp.is_zero(D):
        raise ArithmeticError("degenerate split: the determinant D vanishes identically")
    u = bp.mul(F.head_field[2], multiplicity_product(F.factors[:-1]))  # W R~
    up, kp = F.factors[-1]
    return LinearizationCertificate(
        u_expr=u, v_expr=bp.power(up, kp), K1=K1, K2=K2, K3=K3, K4=K4, D=D, G=G,
        hamiltonian_input=bp.is_zero(_divergence(X)),
        time_change=f"dtau = ({bp.to_string(D)}) / ({bp.to_string(G)}) dt")
