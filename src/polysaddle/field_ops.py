"""Planar polynomial vector fields and factored first integrals.

The central construction: given H = u_1^{k_1} * ... * u_p^{k_p}, the field

    P = sum_l k_l (prod_{i != l} u_i) * d(u_l)/dy
    Q = - sum_l k_l (prod_{i != l} u_i) * d(u_l)/dx

annihilates H exactly (its Lie derivative of H is zero), which is the
identity everything else in the package leans on.  It is built by the
product rule, one factor at a time: starting from (P, Q, W) = (0, 0, 1),
appending u^k turns (P, Q, W) into

    (u P + k W u_y,  u Q - k W u_x,  W u),

so W = prod u_i throughout and p factors cost O(p) products.  The
integral keeps the triple of its head factors u_1, ..., u_{p-1}, off
which `linearize` reads its split; one more step gives its own
(P, Q, V): its field and V = prod u_i.  The integrating factor
R = prod u_i^{k_i-1}, with H = R V, is no part of the recurrence: the
field never needs it, and F.R builds it on first use for the commands
that print or multiply by it: `analyze`, `expand` and the witness of
_lie_of_integral.  This module also covers the supporting cast:
coprimality and common-factor reduction, the exact quotient of
proportional fields, Hamiltonian detection by divergence, and cofactors
of invariant curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import bipoly as bp
from .bipoly import BiPoly, CheckResult


@dataclass(frozen=True)
class VectorField:
    """Polynomial field (P, Q), not both zero.

    gcd(P, Q) and the reduction are computed on first use and kept on the
    instance (common_factor, reduced), so is_coprime, reduce_field and
    minimal_degree_check pay for one bivariate gcd per field.
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

    @cached_property
    def reduced(self) -> tuple[VectorField, BiPoly]:
        """reduce_field(self)."""
        return reduce_field(self)

    def __str__(self) -> str:
        return f"({bp.to_string(self.P)}, {bp.to_string(self.Q)})"


def _is_primitive(u: BiPoly) -> bool:
    """Integer coefficients (Fraction(n, 1) among them) with gcd 1."""
    g = 0
    for c in u.values():
        if c.denominator != 1:
            return False
        g = math.gcd(g, c.numerator)
    return g == 1


@dataclass(frozen=True)
class FactoredIntegral:
    """First integral in factored form: ordered (u_i, k_i) pairs.

    Enforced at construction: every u_i nonconstant and primitive (integer
    coefficients with no common divisor, up to overall sign; the sign the
    caller chose is kept), every k_i a positive integer, and no two factors
    share a nonconstant divisor.  Irreducibility of the u_i is asserted by
    the caller, not verified; see README.

    The expanded integral H, the constructed field, the product-rule
    triples of the head factors and of all the factors, and the
    integrating factor R depend on the factors alone; each is built on
    first use and kept on the instance.
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
        for (i, (u, _)), (j, (v, _)) in combinations(enumerate(self.factors, 1), 2):
            g = bp.gcd(u, v)
            if not bp.is_const(g):
                raise ValueError(f"factors {i} and {j} share the divisor {bp.to_string(g)}")

    @property
    def p(self) -> int:
        return len(self.factors)

    @cached_property
    def H(self) -> BiPoly:
        """expand(self)."""
        return expand(self)

    @cached_property
    def head_field(self) -> _Triple:
        """(P, Q, W) of the module docstring for every factor but the last."""
        return _product_field(self.factors[:-1])

    @cached_property
    def product_field(self) -> _Triple:
        """(P, Q, V) of the module docstring: one step on head_field."""
        return _extend(self.head_field, *self.factors[-1])

    @cached_property
    def R(self) -> BiPoly:
        """The integrating factor prod u_i^{k_i-1}: multiplicity_product."""
        return multiplicity_product(self.factors)

    @cached_property
    def field(self) -> VectorField:
        """construct_field(self)."""
        return construct_field(self)

    def __str__(self) -> str:
        return " * ".join(f"({bp.to_string(u)})^{k}" if k > 1 else f"({bp.to_string(u)})"
                          for u, k in self.factors)


def expand(F: FactoredIntegral) -> BiPoly:
    """The integral itself: prod u_i^{k_i} = R V."""
    return bp.mul(F.R, F.product_field[2])


_Triple = tuple[BiPoly, BiPoly, BiPoly]


def _extend(field: _Triple, u: BiPoly, k: int) -> _Triple:
    """One product-rule step: (P, Q, W) with u^k appended."""
    P, Q, W = field
    kW = bp.scalar_mul(k, W)
    return (bp.add(bp.mul(u, P), bp.mul(kW, bp.partial(u, "y"))),
            bp.sub(bp.mul(u, Q), bp.mul(kW, bp.partial(u, "x"))),
            bp.mul(W, u))


def _product_field(factors: tuple[tuple[BiPoly, int], ...]) -> _Triple:
    """(P, Q, W) of the module docstring for the given (u, k) pairs."""
    out: _Triple = ({}, {}, bp.ONE)
    for u, k in factors:
        out = _extend(out, u, k)
    return out


def multiplicity_product(factors: tuple[tuple[BiPoly, int], ...]) -> BiPoly:
    """prod u_i^{k_i-1} over the given (u, k) pairs: F.R for all the
    factors of F, and the R~ of `linearize` for its head factors."""
    R = bp.ONE
    for u, k in factors:
        if k > 1:
            R = bp.mul(R, bp.power(u, k - 1))
    return R


def construct_field(F: FactoredIntegral) -> VectorField:
    """Field annihilating expand(F); see the module docstring for the formula.
    It is read off F.product_field.

    With a single factor the empty products are 1 and the result is
    k_1-times the Hamiltonian field of u_1; the degree-minimality facts
    proved for p > 1 are not asserted here in that case.
    """
    P, Q, _ = F.product_field
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


def _divide_field(X2: VectorField, X1: VectorField) -> tuple[BiPoly, BiPoly]:
    """(G, r) for a coprime X1 (not checked): X2 = G * X1 exactly when
    r = 0.  G is the quotient by leading terms of one component, X2.Q by
    X1.Q when X1.P = 0 and X2.P by X1.P otherwise; r is that division's
    remainder when it is nonzero, else the residual of the other
    component (X2.P, or X2.Q - G X1.Q).

    With X1 = F.field.reduced[0], r = 0 exactly when X2 annihilates F.H,
    for any X2: X2(H) = 0 says P0 Q2 = Q0 P2 (_lie_of_integral), that is
    P1 Q2 = Q1 P2, and with gcd(P1, Q1) = 1 this makes P1 divide P2 when
    P1 != 0 (and P2 = 0, Q1 constant, when P1 = 0), so X2 = G X1.
    """
    if bp.is_zero(X1.P):
        G, r = bp.divmod_lt(X2.Q, X1.Q)
        return G, r or X2.P
    G, r = bp.divmod_lt(X2.P, X1.P)
    return G, r or bp.sub(X2.Q, bp.mul(G, X1.Q))


def quotient_multiplier(X2: VectorField, X1: VectorField) -> BiPoly:
    """The polynomial G with X2 = G * X1, when it exists.

    X1 must have coprime components.  A field that is no multiple raises
    ExactDivisionError carrying the nonzero remainder r of _divide_field.
    """
    if not is_coprime(X1):
        raise ValueError("reference field must have coprime components")
    G, r = _divide_field(X2, X1)
    if r:
        raise bp.ExactDivisionError(r)
    return G


def _lie_of_integral(F: FactoredIntegral, X: VectorField) -> BiPoly:
    """X(H) for H = F.H, without expanding H.  With (P0, Q0, V) =
    F.product_field and R = F.R, H_y = R P0 and H_x = -R Q0, so for
    X = (P, Q) X(H) = R (P0 Q - Q0 P); R is not even built when the
    bracket is zero.  For a coprime X this vanishes exactly when
    F.field = G X for a polynomial G: that makes the bracket
    G (P Q - Q P) = 0, and conversely P0 Q = Q0 P with gcd(P, Q) = 1
    makes P divide P0 (when P = 0, Q is a nonzero constant and P0 = 0),
    so P0 = G P and Q0 = G Q.  Then G is gcd(P0, Q0) up to a constant,
    so X is a constant multiple of F.field.reduced[0].  Both tests cost far less than the bracket, which
    is for the witness."""
    P0, Q0, _ = F.product_field
    bracket = bp.sub(bp.mul(P0, X.Q), bp.mul(Q0, X.P))
    return bp.mul(F.R, bracket) if bracket else bracket


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
