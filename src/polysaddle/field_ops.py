"""Planar polynomial vector fields and factored first integrals.

The central construction: given H = u_1^{k_1} * ... * u_p^{k_p}, the field

    P = sum_l k_l (prod_{i != l} u_i) * d(u_l)/dy
    Q = - sum_l k_l (prod_{i != l} u_i) * d(u_l)/dx

annihilates H exactly (its Lie derivative of H is zero), which is the
identity everything else in the package leans on.  It is built by the
product rule, one factor at a time: starting from (P, Q, W, R) =
(0, 0, 1, 1), appending u^k turns (P, Q, W, R) into

    (u P + k W u_y,  u Q - k W u_x,  W u,  R u^{k-1}),

so W = prod u_i and R = prod u_i^{k_i-1} throughout, p factors cost O(p)
products, and H = R W.  The integral keeps the quadruple of its head
factors u_1, ..., u_{p-1}, off which `linearize` reads its split; one more
step gives its own (P, Q, V, R): its field, V = prod u_i and R.  This
module also covers the supporting cast: coprimality and common-factor
reduction, the exact quotient of proportional fields, Hamiltonian
detection by divergence, and cofactors of invariant curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import bipoly as bp
from .bipoly import BiPoly, CheckResult


@dataclass(frozen=True)
class VectorField:
    """Polynomial field (P, Q), not both zero.

    The common factor gcd(P, Q) is computed on first use and kept on the
    instance, so is_coprime, reduce_field and minimal_degree_check pay for
    one bivariate gcd per field however often they are asked.
    """

    P: BiPoly
    Q: BiPoly

    def __post_init__(self):
        if bp.is_zero(self.P) and bp.is_zero(self.Q):
            raise ValueError("vector field must not be identically zero")

    @property
    def degree(self) -> int:
        return max(bp.total_degree(self.P), bp.total_degree(self.Q))

    @cached_property
    def common_factor(self) -> BiPoly:
        """gcd(P, Q), normalized."""
        return bp.gcd(self.P, self.Q)

    def __str__(self) -> str:
        return f"({bp.to_string(self.P)}, {bp.to_string(self.Q)})"


def _is_primitive(u: BiPoly) -> bool:
    n = bp.normalize(u)
    return u == n or u == bp.neg(n)


@dataclass(frozen=True)
class FactoredIntegral:
    """First integral in factored form: ordered (u_i, k_i) pairs.

    Enforced at construction: every u_i nonconstant and primitive (integer
    coefficients with no common divisor, up to overall sign; the sign the
    caller chose is kept), every k_i a positive integer, and no two factors
    share a nonconstant divisor.  Irreducibility of the u_i is asserted by
    the caller, not verified; see README.

    The expanded integral H, the constructed field and the product-rule
    quadruples of the head factors and of all the factors depend on the
    factors alone; each is built on first use and kept on the instance.
    """

    factors: tuple[tuple[BiPoly, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((u, int(k)) for u, k in self.factors))
        if not self.factors:
            raise ValueError("at least one factor is required")
        for idx, (u, k) in enumerate(self.factors):
            if bp.is_zero(u) or bp.is_const(u):
                raise ValueError(f"factor {idx + 1} is constant")
            if k < 1:
                raise ValueError(f"exponent of factor {idx + 1} must be positive")
            if not _is_primitive(u):
                raise ValueError(
                    f"factor {idx + 1} ({bp.to_string(u)}) is not primitive; "
                    "clear the rational content first")
        for i in range(len(self.factors)):
            for j in range(i + 1, len(self.factors)):
                g = bp.gcd(self.factors[i][0], self.factors[j][0])
                if not bp.is_const(g):
                    raise ValueError(
                        f"factors {i + 1} and {j + 1} share the divisor {bp.to_string(g)}")

    @property
    def p(self) -> int:
        return len(self.factors)

    @cached_property
    def H(self) -> BiPoly:
        """expand(self)."""
        return expand(self)

    @cached_property
    def head_field(self) -> _Quad:
        """(P, Q, W, R) of the module docstring for every factor but the last."""
        return _product_field(self.factors[:-1])

    @cached_property
    def product_field(self) -> _Quad:
        """(P, Q, V, R) of the module docstring: one step on head_field."""
        return _extend(self.head_field, *self.factors[-1])

    @cached_property
    def field(self) -> VectorField:
        """construct_field(self)."""
        return construct_field(self)

    def __str__(self) -> str:
        return " * ".join(f"({bp.to_string(u)})^{k}" if k > 1 else f"({bp.to_string(u)})"
                          for u, k in self.factors)


def expand(F: FactoredIntegral) -> BiPoly:
    """The integral itself: prod u_i^{k_i} = R V."""
    _, _, V, R = F.product_field
    return bp.mul(R, V)


_Quad = tuple[BiPoly, BiPoly, BiPoly, BiPoly]


def _extend(field: _Quad, u: BiPoly, k: int) -> _Quad:
    """One product-rule step: (P, Q, W, R) with u^k appended."""
    P, Q, W, R = field
    kW = bp.scalar_mul(k, W)
    return (bp.add(bp.mul(u, P), bp.mul(kW, bp.partial(u, "y"))),
            bp.sub(bp.mul(u, Q), bp.mul(kW, bp.partial(u, "x"))),
            bp.mul(W, u),
            bp.mul(R, bp.power(u, k - 1)) if k > 1 else R)


def _product_field(factors: tuple[tuple[BiPoly, int], ...]) -> _Quad:
    """(P, Q, W, R) of the module docstring for the given (u, k) pairs."""
    out: _Quad = ({}, {}, bp.ONE, bp.ONE)
    for u, k in factors:
        out = _extend(out, u, k)
    return out


def construct_field(F: FactoredIntegral) -> VectorField:
    """Field annihilating expand(F); see the module docstring for the formula.
    It is read off F.product_field.

    With a single factor the empty products are 1 and the result is
    k_1-times the Hamiltonian field of u_1; the degree-minimality facts
    proved for p > 1 are not asserted here in that case.
    """
    P, Q, _, _ = F.product_field
    return VectorField(P, Q)


def lie_derivative(X: VectorField, H: BiPoly) -> BiPoly:
    """H_x P + H_y Q."""
    return bp.add(bp.mul(bp.partial(H, "x"), X.P), bp.mul(bp.partial(H, "y"), X.Q))


def is_first_integral(X: VectorField, H: BiPoly) -> bool:
    return bp.is_zero(lie_derivative(X, H))


def is_coprime(X: VectorField) -> bool:
    return bp.is_const(X.common_factor)


def reduce_field(X: VectorField) -> tuple[VectorField, BiPoly]:
    """Split off the common factor: returns (X', g) with X = g * X' and X'
    coprime; g is the normalized gcd of the components."""
    g = X.common_factor
    if bp.is_const(g):
        return X, bp.ONE
    return VectorField(bp.exact_div(X.P, g), bp.exact_div(X.Q, g)), g


def quotient_multiplier(X2: VectorField, X1: VectorField) -> BiPoly:
    """The polynomial G with X2 = G * X1, when it exists.

    X1 must have coprime components.  Both components are cross-checked;
    a failure raises ExactDivisionError carrying the nonzero remainder.
    """
    if not is_coprime(X1):
        raise ValueError("reference field must have coprime components")
    if bp.is_zero(X1.P):
        G = bp.exact_div(X2.Q, X1.Q)
    else:
        G = bp.exact_div(X2.P, X1.P)
    resid_p = bp.sub(X2.P, bp.mul(G, X1.P))
    resid_q = bp.sub(X2.Q, bp.mul(G, X1.Q))
    if resid_p or resid_q:
        raise bp.ExactDivisionError(resid_p if resid_p else resid_q)
    return G


def _multiplier(F: FactoredIntegral, X: VectorField) -> BiPoly:
    """quotient_multiplier(F.field, X) for a coprime X, or the zero
    polynomial when there is none (F.field is never zero)."""
    try:
        return quotient_multiplier(F.field, X)
    except bp.ExactDivisionError:
        return bp.ZERO


def _antider_y(f: BiPoly) -> BiPoly:
    return {(i, j + 1): bp._div(c, j + 1) for (i, j), c in f.items()}


def _antider_x(f: BiPoly) -> BiPoly:
    return {(i + 1, j): bp._div(c, i + 1) for (i, j), c in f.items()}


def _potential(P: BiPoly, Q: BiPoly) -> BiPoly | None:
    """H with H_y = P and H_x = -Q, when the pair is divergence-free.

    H = base + f(x) with base = int P dy (no y-free terms), and f the
    x-antiderivative of rest = -Q - base_x.  As rest_y = -(P_x + Q_y),
    rest is y-free exactly when the pair is divergence-free; otherwise no
    such H exists and the result is None.  When it is, H needs no
    recheck: H_y = base_y = P, since f is y-free, and H_x = base_x + rest
    = -Q.  The constant term is 0.
    """
    base = _antider_y(P)
    rest = bp.sub(bp.neg(Q), bp.partial(base, "x"))
    if bp.deg_y(rest) > 0:
        return None
    return bp.add(base, _antider_x(rest))


def _divergence(X: VectorField) -> BiPoly:
    """P_x + Q_y, zero exactly when X is Hamiltonian (see _potential)."""
    return bp.add(bp.partial(X.P, "x"), bp.partial(X.Q, "y"))


def is_hamiltonian(X: VectorField) -> BiPoly | None:
    """If div X = 0, the Hamiltonian H with P = H_y, Q = -H_x (constant
    term 0); otherwise None."""
    if not bp.is_zero(_divergence(X)):
        return None
    return _potential(X.P, X.Q)


def cofactor(f: BiPoly, X: VectorField) -> BiPoly | None:
    """K with f_x P + f_y Q = K f, or None when f = 0 is not invariant."""
    if bp.is_const(f):
        raise ValueError("cofactor requires a nonconstant curve")
    L = lie_derivative(X, f)
    q, r = bp.divmod_lt(L, f)
    return q if not r else None


def minimal_degree_check(F: FactoredIntegral) -> CheckResult:
    """Degree bookkeeping for the constructed field X = F.field of a
    multi-factor integral: Holds iff deg X = sum deg u_i - 1 and X is
    coprime."""
    if F.p <= 1:
        raise ValueError("degree check needs at least two factors")
    X = F.field
    expected = sum(bp.total_degree(u) for u, _ in F.factors) - 1
    g = X.common_factor
    if not bp.is_const(g):
        return bp.fails(bp.to_string(g), "constructed field has a common factor")
    if X.degree != expected:
        return bp.fails(f"deg={X.degree}", f"expected degree {expected}")
    return bp.holds(f"degree {X.degree} = {expected}, components coprime")
