"""Shared deterministic generators for the randomized test families.

Everything here uses seeded random.Random so failures replay exactly.
The acceptance tests import these; hypothesis strategies for the
algebraic property tests live in the individual test modules.
"""

from __future__ import annotations

import random
from fractions import Fraction

from polysaddle import bipoly as bp
from polysaddle.field_ops import (FactoredIntegral, VectorField, construct_field,
                                  lie_derivative, reduce_field)

# one line per acceptance criterion, filled by the decorator in
# test_acceptance.py and echoed after the run (capture-proof)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_rat(rng: random.Random, max_abs: int = 9) -> Fraction:
    num = rng.randint(-max_abs, max_abs)
    den = rng.randint(1, max_abs)
    return Fraction(num, den)


def random_factor(rng: random.Random, max_deg: int = 3) -> bp.BiPoly:
    """Random primitive nonconstant factor, small support."""
    while True:
        deg = rng.randint(1, max_deg)
        f: bp.BiPoly = {}
        for _ in range(rng.randint(2, 4)):
            i = rng.randint(0, deg)
            j = rng.randint(0, deg - i)
            c = random_rat(rng)
            if c:
                f[(i, j)] = f.get((i, j), Fraction(0)) + c
        f = {e: c for e, c in f.items() if c}
        if f and bp.total_degree(f) >= 1:
            return bp.normalize(f)


def random_integral(rng: random.Random, max_p: int = 3, max_deg: int = 3,
                    max_k: int = 3, all_k_one: bool = False) -> FactoredIntegral:
    """Random factored integral: pairwise coprime primitive factors."""
    while True:
        p = rng.randint(1, max_p)
        factors: list[tuple[bp.BiPoly, int]] = []
        for _ in range(p):
            for _attempt in range(40):
                u = random_factor(rng, max_deg)
                if all(bp.total_degree(bp.gcd(u, v)) == 0 and u != v
                       for v, _ in factors):
                    k = 1 if all_k_one else rng.randint(1, max_k)
                    factors.append((u, k))
                    break
            else:
                break
        if len(factors) != p:
            continue
        try:
            return FactoredIntegral(tuple(factors))
        except ValueError:
            continue


def random_line(rng: random.Random) -> bp.BiPoly:
    while True:
        a, b, c = random_rat(rng), random_rat(rng), random_rat(rng)
        if a or b:
            f = {}
            if a:
                f[(1, 0)] = a
            if b:
                f[(0, 1)] = b
            if c:
                f[(0, 0)] = c
            return bp.normalize(f)


def _parallel(l1: bp.BiPoly, l2: bp.BiPoly) -> bool:
    a1, b1 = l1.get((1, 0), Fraction(0)), l1.get((0, 1), Fraction(0))
    a2, b2 = l2.get((1, 0), Fraction(0)), l2.get((0, 1), Fraction(0))
    return a1 * b2 - a2 * b1 == 0


def _concurrent(lines: list[bp.BiPoly]) -> bool:
    """True when all lines pass through one common point (needs the first
    two to be nonparallel)."""
    a1, b1, c1 = (lines[0].get(e, Fraction(0)) for e in ((1, 0), (0, 1), (0, 0)))
    a2, b2, c2 = (lines[1].get(e, Fraction(0)) for e in ((1, 0), (0, 1), (0, 0)))
    det = a1 * b2 - a2 * b1
    x = (-c1 * b2 + c2 * b1) / det
    y = (-a1 * c2 + a2 * c1) / det
    return all(bp.evaluate(l, x, y) == 0 for l in lines[2:])


def random_line_family(rng: random.Random, max_p: int = 3) -> FactoredIntegral:
    """Distinct pairwise-nonparallel lines, no common point, exactly one
    exponent >= 2: the model family where all genericity conditions hold."""
    while True:
        p = rng.randint(2, max_p)
        lines: list[bp.BiPoly] = []
        for _ in range(p):
            for _attempt in range(40):
                l = random_line(rng)
                if all(not _parallel(l, m) and l != m for m in lines):
                    lines.append(l)
                    break
            else:
                break
        if len(lines) != p:
            continue
        if p >= 3 and _concurrent(lines):
            continue
        ks = [1] * p
        ks[rng.randrange(p)] = rng.randint(2, 3)
        try:
            return FactoredIntegral(tuple(zip(lines, ks)))
        except ValueError:
            continue


def sylvester_from_coeffs(fc: list[bp.BiPoly], gc: list[bp.BiPoly]) -> list[list[bp.BiPoly]]:
    """Sylvester matrix of f = sum fc[k] t^k and g = sum gc[k] t^k, whose
    coefficients lie in the ring bipoly represents; f's fill the top rows,
    so its determinant is Res_t(f, g)."""
    m, n = len(fc) - 1, len(gc) - 1
    frow = [fc[m - k] for k in range(m + 1)]
    grow = [gc[n - k] for k in range(n + 1)]
    size = m + n
    mat = []
    for i in range(n):
        mat.append([{}] * i + frow + [{}] * (size - m - 1 - i))
    for i in range(m):
        mat.append([{}] * i + grow + [{}] * (size - n - 1 - i))
    return mat


def sylvester_y(f: bp.BiPoly, g: bp.BiPoly) -> list[list[bp.BiPoly]]:
    """Sylvester matrix of f and g with respect to y, entries in Q[x]."""
    return sylvester_from_coeffs([bp.from_upoly_x(c) for c in bp.coeffs_wrt_y(f)],
                                 [bp.from_upoly_x(c) for c in bp.coeffs_wrt_y(g)])


def random_coprime_field(rng: random.Random, max_deg: int = 3) -> VectorField:
    """Random field with coprime components (for the multiplier round-trip)."""
    while True:
        P = random_factor(rng, max_deg)
        Q = random_factor(rng, max_deg)
        if bp.total_degree(bp.gcd(P, Q)) == 0:
            return VectorField(P, Q)


def naive_product(pairs) -> bp.BiPoly:
    """prod f^k over the (f, k) pairs by a plain chain, one multiplication
    per copy of f: the oracle for the products that the package reads off
    the product-rule quadruples."""
    out = bp.ONE
    for f, k in pairs:
        for _ in range(k):
            out = bp.mul(out, f)
    return out


def reference_gcd_degree_mod_p(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over Z/p by the plain Euclid loop, every entry
    reduced after each step; a and b are residue lists, highest degree
    first, not both zero.  The oracle for upoly._gcd_degree_mod_p."""
    def trim(c):
        return c[next((k for k, v in enumerate(c) if v), len(c)):]

    a, b = trim(a), trim(b)
    while b:
        n = len(b)
        inv = pow(b[0], -1, p)
        r = list(a)
        for k in range(len(r) - n + 1):
            q = r[k] * inv % p
            if q:
                for m in range(1, n):
                    r[k + m] = (r[k + m] - q * b[m]) % p
        a, b = b, trim(r[max(len(r) - n + 1, 0):])
    return len(a) - 1


def reduced_constructed_field(F: FactoredIntegral) -> VectorField:
    X, _ = reduce_field(construct_field(F))
    return X


def assert_certificate(cert, X: VectorField) -> None:
    """Recheck a linearization certificate for the field X from its own
    polynomials: D = K1 K4 - K2 K3, G X(u) = D u and G X(v) = -D v."""
    assert cert.D == bp.sub(bp.mul(cert.K1, cert.K4), bp.mul(cert.K2, cert.K3))
    assert bp.mul(cert.G, lie_derivative(X, cert.u_expr)) == bp.mul(cert.D, cert.u_expr)
    assert bp.mul(cert.G, lie_derivative(X, cert.v_expr)) == bp.neg(
        bp.mul(cert.D, cert.v_expr))
