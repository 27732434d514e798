"""Exact change-of-variables certificates onto the linear saddle.

For H = u_1^{k_1} ... u_p^{k_p} annihilated by a coprime field (P, Q), the
variables u = prod_{i<p} u_i^{k_i} and v = u_p^{k_p} satisfy, after a
rational time rescale, the linear saddle equations u' = u, v' = -v.  The
checkable content is a set of polynomial identities built from the
half-gradients of the split:

    K1 = sum_{i<p} k_i (u_i)_x prod_{j<p, j!=i} u_j      (so u_x = R~ K1)
    K2 = the same with d/dy
    K3 = k_p (u_p)_x,   K4 = k_p (u_p)_y                  (so v_x = u_p^{k_p-1} K3)

(K2, -K1) is the constructed field of the head factors u_1, ..., u_{p-1},
F.head_field, and the last step of the product-rule recurrence in
`field_ops` turns it into the constructed field of F:
F.field = (K4 W + K2 u_p, -K1 u_p - K3 W) with W = prod_{i<p} u_i.  The
certificate records the K's, the determinant D = K1 K4 - K2 K3 and the
common multiplier G defined by G (P, Q) = F.field.  It is only returned
once the identities have been verified exactly; the time rescale
d(tau) = (D/G) dt is recorded symbolically and is valid off the zero sets
of D and G.

The identity G (P, Q) = F.field already proves that (P, Q) annihilates
H = F.H, since F.field does, so a successful run never expands H.  The
Lie derivative of H is computed only after some identity has failed: when
it is nonzero it is the witness, as it would be had it been checked
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bipoly as bp
from .bipoly import BiPoly
from .field_ops import (FactoredIntegral, VectorField, is_coprime, is_hamiltonian,
                        lie_derivative, quotient_multiplier)


def factor_split(F: FactoredIntegral, pivot: int) -> FactoredIntegral:
    """Reorder so the 1-based pivot factor comes last (it becomes the
    v-variable of the split).  Neither the product H nor the constructed
    field depends on the order, so the reordered integral shares F's field,
    and F's H when that has been expanded; the head factors' field does
    depend on which factor is last and is not shared."""
    if not 1 <= pivot <= F.p:
        raise ValueError(f"pivot {pivot} out of range 1..{F.p}")
    fs = list(F.factors)
    fs.append(fs.pop(pivot - 1))
    out = FactoredIntegral(tuple(fs))
    if "H" in vars(F):
        vars(out)["H"] = F.H
    vars(out)["field"] = F.field
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

    Only linearize() builds one, after it has verified exactly: the
    determinant D = K1 K4 - K2 K3; the multiplier identity G (P, Q) =
    F.field on both components, where F.field = (K4 W + K2 u_p,
    -K1 u_p - K3 W) and W = prod_{i<p} u_i; the saddle pullbacks
    G (u_x P + u_y Q) = D u  and  G (v_x P + v_y Q) = -D v.  Each can be
    rechecked from the recorded polynomials and the field.
    hamiltonian_input records that the field was Hamiltonian, which is
    outside the stated hypotheses of the construction; the certificate is
    still valid when the identities verify."""

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
    constructed field of F, cross-checked on both components.

    Errors: fewer than two factors or a non-coprime field raise
    ValueError; a field that does not actually annihilate F.H raises
    ExactDivisionError whose `remainder` attribute is the nonzero Lie
    derivative X(F.H), computed only once an identity below has failed;
    mis-specified factors raise ExactDivisionError with the nonzero
    residual of the failing identity; a zero determinant D (degenerate
    split) raises ArithmeticError.
    """
    if F.p < 2:
        raise ValueError("linearize needs at least two factors")
    if not is_coprime(X):
        raise ValueError("linearize requires a coprime field")
    try:
        K1, K2, K3, K4 = k_matrix(F)
        D = bp.sub(bp.mul(K1, K4), bp.mul(K2, K3))
        if bp.is_zero(D):
            raise ArithmeticError("degenerate split: the determinant D vanishes identically")
        G = quotient_multiplier(F.field, X)
        up, kp = F.factors[-1]
        u_expr = bp.ONE
        for u, k in F.factors[:-1]:
            u_expr = bp.mul(u_expr, bp.power(u, k))
        v_expr = bp.power(up, kp)
        resid_u = bp.sub(bp.mul(G, lie_derivative(X, u_expr)), bp.mul(D, u_expr))
        if resid_u:
            raise bp.ExactDivisionError(resid_u)
        resid_v = bp.add(bp.mul(G, lie_derivative(X, v_expr)), bp.mul(D, v_expr))
        if resid_v:
            raise bp.ExactDivisionError(resid_v)
    except ArithmeticError:
        lie = lie_derivative(X, F.H)
        if not bp.is_zero(lie):
            raise bp.ExactDivisionError(lie) from None
        raise
    return LinearizationCertificate(
        u_expr=u_expr, v_expr=v_expr, K1=K1, K2=K2, K3=K3, K4=K4, D=D, G=G,
        hamiltonian_input=is_hamiltonian(X) is not None,
        time_change=f"dtau = ({bp.to_string(D)}) / ({bp.to_string(G)}) dt")
