"""Shared deterministic generators for the randomized test families.

Everything here uses seeded random.Random so failures replay exactly.
The acceptance tests import these; hypothesis strategies for the
algebraic property tests live in the individual test modules.
"""

from __future__ import annotations

import random
from fractions import Fraction

from polysaddle import bipoly as bp
from polysaddle import upoly as up
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


# Exact helpers that only the tests use.

def evaluate(f: bp.BiPoly, x0: Fraction, y0: Fraction) -> Fraction:
    """f(x0, y0), exactly."""
    if not f:
        return Fraction(0)
    xp = [Fraction(1)] * (bp.deg_x(f) + 1)
    for i in range(1, len(xp)):
        xp[i] = xp[i - 1] * x0
    yp = [Fraction(1)] * (bp.deg_y(f) + 1)
    for j in range(1, len(yp)):
        yp[j] = yp[j - 1] * y0
    return sum((c * xp[i] * yp[j] for (i, j), c in f.items()), Fraction(0))


def gcd_many(polys: list[bp.BiPoly]) -> bp.BiPoly:
    """bipoly.gcd of the nonzero polys, normalized."""
    nz = [p for p in polys if p]
    if not nz:
        raise ValueError("gcd of all-zero list is undefined")
    acc = nz[0]
    for p in nz[1:]:
        acc = bp.gcd(acc, p)
        if bp.is_const(acc):
            break
    return bp.normalize(acc)


def upoly_divides(g: up.UPoly, f: up.UPoly) -> bool:
    """True iff g divides f in Q[t]."""
    if not g:
        return not f
    return not up.rem(f, g)


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
    return all(evaluate(l, x, y) == 0 for l in lines[2:])


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


def reference_gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b over Z/p by the plain Euclid loop, every entry
    reduced after each step; a and b are residue lists, highest degree
    first, not both zero.  The oracle for modp.gcd."""
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
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def euclid_gcd(f: up.UPoly, g: up.UPoly) -> up.UPoly:
    """Monic gcd in Q[t] by Euclid's remainder loop over Q; gcd(0, 0) = 0.
    The route that upoly.gcd took before it ran bipoly's modular gcd, kept
    as the oracle for it, and for prs_gcd's y-contents, so that neither
    oracle runs the gcd it checks."""
    while g:
        f, g = g, up.rem(f, g)
    return up.monic(f)


def _euclid_content_y(f: bp.BiPoly) -> up.UPoly:
    """bipoly.content_y by euclid_gcd."""
    acc = up.ZERO
    for c in bp.coeffs_wrt_y(f):
        acc = euclid_gcd(acc, c)
    return acc


def _lc_y(f: bp.BiPoly) -> bp.BiPoly:
    d = bp.deg_y(f)
    return {(i, 0): c for (i, j), c in f.items() if j == d}


def _ypow(n: int) -> bp.BiPoly:
    return {(0, n): 1}


def _prem_y(a: bp.BiPoly, b: bp.BiPoly) -> bp.BiPoly:
    """Pseudo-remainder of a by b with respect to y: lc_y(b)^(da-db+1) * a
    reduced by b, computed fraction-free."""
    da, db = bp.deg_y(a), bp.deg_y(b)
    lb = _lc_y(b)
    e = da - db + 1
    r = a
    while r and bp.deg_y(r) >= db:
        lr = _lc_y(r)
        r = bp.sub(bp.mul(lb, r), bp.mul(bp.mul(lr, _ypow(bp.deg_y(r) - db)), b))
        e -= 1
    if e > 0:
        r = bp.mul(bp.power(lb, e), r)
    return r


def _subresultant_prs(a: bp.BiPoly, b: bp.BiPoly
                      ) -> tuple[bp.BiPoly, bp.BiPoly, bp.BiPoly, int]:
    """Subresultant PRS of a and b over Q[x][y] (Brown & Traub, J. ACM 18,
    1971), both of y-degree >= 1, run until a remainder has y-degree <= 0.

    Returns (s, r, h, sign): s is the last entry of positive y-degree, r
    the y-free (possibly zero) remainder after it, h the last scale
    factor and sign the sign Res_y(a, b) picks up from exchanging
    operands of odd y-degree.
    r = 0 exactly when a and b share a factor of positive y-degree, and
    then s is that gcd up to a factor in Q[x]; otherwise
    Res_y(a, b) = sign * r^n / h^(n-1) with n = deg_y(s).
    """
    sign = 1
    if bp.deg_y(a) < bp.deg_y(b):
        a, b = b, a
        if bp.deg_y(a) % 2 and bp.deg_y(b) % 2:
            sign = -1
    g = h = bp.ONE
    while True:
        da, db = bp.deg_y(a), bp.deg_y(b)
        if da % 2 and db % 2:
            sign = -sign
        d = da - db
        r = _prem_y(a, b)
        if r:
            r = bp.exact_div(r, bp.mul(g, bp.power(h, d)))
        a, b = b, r
        g = _lc_y(a)
        if d == 1:
            h = g
        elif d > 1:
            h = bp.exact_div(bp.power(g, d), bp.power(h, d - 1))
        if bp.deg_y(r) <= 0:
            return a, r, h, sign


def prs_gcd(f: bp.BiPoly, g: bp.BiPoly) -> bp.BiPoly:
    """gcd(f, g) for nonzero f, g: the gcd of the y-contents times the
    subresultant PRS gcd (_subresultant_prs) of the primitive parts.
    The route that decided every gcd before the modular one, kept as the
    oracle for bipoly.gcd together with its PRS, which also took every
    exact resultant of two y-degrees of at least 2 before bipoly lifted
    them from images mod primes; it takes 16-30 s on the pairs of degree
    16-17 that scripts/bench_layers.py builds from 16 lines.  Its gcds in
    Q[x] are euclid_gcd's, since upoly.gcd runs the modular gcd too."""
    cf, cg = _euclid_content_y(f), _euclid_content_y(g)
    cont = euclid_gcd(cf, cg)
    fp = f if cf == up.ONE else bp.exact_div(f, bp.from_upoly_x(cf))
    gp = g if cg == up.ONE else bp.exact_div(g, bp.from_upoly_x(cg))
    pp = bp.ONE
    if bp.deg_y(fp) > 0 and bp.deg_y(gp) > 0:
        s, r, _, _ = _subresultant_prs(fp, gp)
        if not r:
            cs = _euclid_content_y(s)
            pp = s if cs == up.ONE else bp.exact_div(s, bp.from_upoly_x(cs))
    return bp.normalize(bp.mul(bp.from_upoly_x(cont), pp))


class _ReferenceParser:
    """The character-scanning parser that bipoly.parse used before its
    token parser, kept as the oracle for it: the same terms in the same
    insertion order, or the same ParseError text.  It reads the source one
    character at a time, skipping white space before each lookahead, and
    multiplies every factor of a product with bipoly.mul."""

    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.depth = 0  # parentheses and unary minus signs now open

    def _ws(self) -> None:
        while self.i < len(self.src) and self.src[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self._ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def fail(self, msg: str) -> None:
        raise bp.ParseError(msg, self.i + 1)

    def _enter(self) -> None:
        """Open one nesting level at the current character."""
        self.depth += 1
        if self.depth > bp._MAX_NESTING:
            self.fail("nesting too deep")

    def _nat(self) -> int:
        self._ws()
        start = self.i
        while self.i < len(self.src) and self.src[self.i].isdecimal():
            self.i += 1
        if self.i == start:
            self.fail("expected a natural number")
        return int(self.src[start:self.i])

    def _rational(self) -> int | Fraction:
        num = self._nat()
        if self.peek() == "/":
            self.i += 1
            pos = self.i
            den = self._nat()
            if den == 0:
                raise bp.ParseError("zero denominator", pos + 1)
            return bp._div(num, den)
        return num

    def expr(self) -> bp.BiPoly:
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.i += 1
                acc = bp.add(acc, self.term())
            elif ch == "-":
                self.i += 1
                acc = bp.sub(acc, self.term())
            else:
                return acc

    def term(self) -> bp.BiPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.i += 1
            pos = self.i
            f = self.factor()
            if bp.total_degree(acc) + bp.total_degree(f) > bp.MAX_TOTAL_DEGREE:
                raise bp.ParseError(
                    f"product exceeds the total-degree budget of {bp.MAX_TOTAL_DEGREE}",
                    pos + 1)
            acc = bp.mul(acc, f)
        return acc

    def factor(self) -> bp.BiPoly:
        # unary minus binds looser than ^, so -x^2 means -(x^2)
        if self.peek() == "-":
            self._enter()
            self.i += 1
            out = bp.neg(self.factor())
            self.depth -= 1
            return out
        b = self.base()
        if self.peek() == "^":
            self.i += 1
            if not self.peek().isdecimal():
                self.fail("exponent must be a natural number")
            pos = self.i
            n = self._nat()
            if n > bp.MAX_TOTAL_DEGREE or bp.total_degree(b) * n > bp.MAX_TOTAL_DEGREE:
                raise bp.ParseError(
                    f"power ^{n} exceeds the total-degree budget of {bp.MAX_TOTAL_DEGREE}",
                    pos + 1)
            return bp.power(b, n)
        return b

    def base(self) -> bp.BiPoly:
        ch = self.peek()
        if ch == "(":
            self._enter()
            self.i += 1
            inner = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.i += 1
            self.depth -= 1
            return inner
        if ch == "x":
            self.i += 1
            return dict(bp.X)
        if ch == "y":
            self.i += 1
            return dict(bp.Y)
        if ch.isdecimal():
            return bp.const(self._rational())
        if ch.isalpha():
            self.fail(f"unknown variable {ch!r}")
        if ch == "":
            self.fail("unexpected end of input")
        self.fail(f"unexpected character {ch!r}")
        raise AssertionError  # fail always raises


def reference_parse(src: str) -> bp.BiPoly:
    """bipoly.parse by the character-scanning _ReferenceParser."""
    p = _ReferenceParser(src)
    out = p.expr()
    p._ws()
    if p.i != len(p.src):
        raise bp.ParseError(f"unexpected character {p.src[p.i]!r}", p.i + 1)
    return out


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
