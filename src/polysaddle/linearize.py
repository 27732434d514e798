"""Exact change-of-variables certificates onto the linear saddle.

For H = u_1^{k_1} ... u_p^{k_p} annihilated by a coprime field (P, Q), the
variables u = prod_{i<p} u_i^{k_i} and v = u_p^{k_p} satisfy, after a
rational time rescale, the linear saddle equations u' = u, v' = -v.  The
checkable content is a set of polynomial identities built from the
half-gradients of the split:

    K1 = sum_{i<p} k_i (u_i)_x prod_{j<p, j!=i} u_j      (so u_x = R~ K1)
    K2 = the same with d/dy
    K3 = k_p (u_p)_x,   K4 = k_p (u_p)_y                  (so v_x = u_p^{k_p-1} K3)

with determinant D = K1 K4 - K2 K3 and a common multiplier G defined by
G P = K4 W + K2 u_p and G Q = -K1 u_p - K3 W, where W = prod_{i<p} u_i.
The certificate records all of these and is only returned once the
identities have been verified exactly; the time rescale
d(tau) = (D/G) dt is recorded symbolically and is valid off the zero sets
of D and G.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bipoly as bp
from .bipoly import BiPoly
from .field_ops import (FactoredIntegral, VectorField, is_coprime, is_hamiltonian,
                        lie_derivative, quotient_multiplier)


def factor_split(F: FactoredIntegral, pivot: int) -> FactoredIntegral:
    """Reorder so the 1-based pivot factor comes last (it becomes the
    v-variable of the split).  The product H does not depend on the
    order, so the reordered integral shares F's expansion."""
    if not 1 <= pivot <= F.p:
        raise ValueError(f"pivot {pivot} out of range 1..{F.p}")
    fs = list(F.factors)
    fs.append(fs.pop(pivot - 1))
    out = FactoredIntegral(tuple(fs))
    vars(out)["H"] = F.H
    return out


def k_matrix(F: FactoredIntegral) -> tuple[BiPoly, BiPoly, BiPoly, BiPoly]:
    """The four half-gradient combinations (K1, K2, K3, K4) of the split
    that keeps the last factor apart; needs at least two factors."""
    if F.p < 2:
        raise ValueError("k_matrix needs at least two factors")
    head = F.factors[:-1]
    up, kp = F.factors[-1]
    K1: BiPoly = {}
    K2: BiPoly = {}
    for i, (u, k) in enumerate(head):
        others = bp.ONE
        for j, (w, _) in enumerate(head):
            if j != i:
                others = bp.mul(others, w)
        K1 = bp.add(K1, bp.scalar_mul(k, bp.mul(bp.partial(u, "x"), others)))
        K2 = bp.add(K2, bp.scalar_mul(k, bp.mul(bp.partial(u, "y"), others)))
    K3 = bp.scalar_mul(kp, bp.partial(up, "x"))
    K4 = bp.scalar_mul(kp, bp.partial(up, "y"))
    return K1, K2, K3, K4


@dataclass(frozen=True)
class LinearizationCertificate:
    """Verified data of one linearizing change of variables.

    Only linearize() builds one, after it has verified exactly: the
    determinant D = K1 K4 - K2 K3; the two multiplier identities
    G P = K4 W + K2 u_p and G Q = -K1 u_p - K3 W; the saddle pullbacks
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

    Errors: fewer than two factors or a non-coprime field raise
    ValueError; a field that does not actually annihilate F.H, or
    mis-specified factors, raise ExactDivisionError whose `remainder`
    attribute is the nonzero residual polynomial; a zero determinant D
    (degenerate split) raises ArithmeticError.
    """
    if F.p < 2:
        raise ValueError("linearize needs at least two factors")
    if not is_coprime(X):
        raise ValueError("linearize requires a coprime field")
    lie = lie_derivative(X, F.H)
    if not bp.is_zero(lie):
        raise bp.ExactDivisionError(lie)
    K1, K2, K3, K4 = k_matrix(F)
    D = bp.sub(bp.mul(K1, K4), bp.mul(K2, K3))
    if bp.is_zero(D):
        raise ArithmeticError("degenerate split: the determinant D vanishes identically")
    head = F.factors[:-1]
    up, kp = F.factors[-1]
    W = bp.ONE
    for u, _ in head:
        W = bp.mul(W, u)
    # (N1, N2) is not zero: (W, u_p) -> (N1, N2) has determinant -D
    N1 = bp.add(bp.mul(K4, W), bp.mul(K2, up))
    N2 = bp.neg(bp.add(bp.mul(K1, up), bp.mul(K3, W)))
    G = quotient_multiplier(VectorField(N1, N2), X)
    u_expr = bp.ONE
    for u, k in head:
        u_expr = bp.mul(u_expr, bp.power(u, k))
    v_expr = bp.power(up, kp)
    resid_u = bp.sub(bp.mul(G, lie_derivative(X, u_expr)), bp.mul(D, u_expr))
    if resid_u:
        raise bp.ExactDivisionError(resid_u)
    resid_v = bp.add(bp.mul(G, lie_derivative(X, v_expr)), bp.mul(D, v_expr))
    if resid_v:
        raise bp.ExactDivisionError(resid_v)
    return LinearizationCertificate(
        u_expr=u_expr, v_expr=v_expr, K1=K1, K2=K2, K3=K3, K4=K4, D=D, G=G,
        hamiltonian_input=is_hamiltonian(X) is not None,
        time_change=f"dtau = ({bp.to_string(D)}) / ({bp.to_string(G)}) dt")
