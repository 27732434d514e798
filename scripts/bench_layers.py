"""Layer microbenchmark: the program's layers, each call checked, on a
fixed operand ladder.

The operands are drawn from fixed seeds by cases() and the builders it
calls, and a coefficient is an int where it is an integer, as the program
holds it.  The cases, by name, and what each must give; every reference
runs outside the timed calls:

- mul-: bipoly.mul on dense, rational, 200-bit, single-term and sparse
  high-degree operands, timed beside reference_mul ("reference"), which
  every product must equal.
- gcd-, coprime-: bipoly.gcd on pairs with a planted common factor and
  on coprime pairs; gcd_ok proves every gcd with no gcd routine of the
  program.
- roots-: upoly.rational_roots on planted rational roots; the distinct
  planted roots.
- field-lines-: field_ops.construct_field and linearize.linearize
  ("linearize") on integrals of 8 to 20 lines, each from an integral with
  nothing cached but its factors; the construction formula written out
  (literal_field), and certificates that certificate_holds rechecks.
- resultant-: bipoly.resultant on dense curves, Jacobians, the level
  shape and operands linear in y; det_bareiss of sylvester_y.
- variety-: variety_empty on lines, transversality systems, the 44-bit
  triple-point fibers of the cz-witness workload, and systems with a
  polynomial free of y that hold (variety-fiber-holds-, with the dense
  transversality system of degree 8); the status and witness of
  reference_variety_empty, which computes every resultant exactly.
- triples-wide-lines-: cz_check.check_no_triple_points on 20 and 40 wide
  lines; what reference_triples gives.
- orbit-: ORBIT_STEPS RK4 steps and the drift of H, warm and cold
  ("cold": the float kernel caches cleared first); bit for bit what
  reference_orbit gives.
- startup, startup-<command>: a fresh interpreter that imports
  polysaddle.cli or runs cli.main on STARTUP_PROBLEM, beside one that
  runs `pass` ("baseline"); its command's exit code.  The in-process cases
  cannot see import cost nor which modules a command loads.  The
  interpreter inherits the worker's environment, so
  PYTHONDONTWRITEBYTECODE decides whether it may use bytecode caches.
- cli-<command>: cli.main on STARTUP_PROBLEM with --format json, in the
  worker's process, standard output captured: the per-call cost that
  start-up does not include (argparse, loading, the command, the
  report); the exit code its startup- case expects, and a report that
  parses as JSON and names the command.
- parse-, load-: bipoly.parse and cli.load_problem; the terms, in order,
  of reference_parse in tests/conftest.py.
- upoly-: upoly.gcd, squarefree_part, rem, xgcd and rational_roots; the
  results of the Fraction-list references kept here.
- isolate-: arith.isolate_complex_roots; boxes that real_roots_ok proves.

    PYTHONPATH=src python3 scripts/bench_layers.py --out layers.json
    python3 scripts/bench_layers.py --out BENCH.json --rounds 10 \\
        --src parent=../old/src --src change=src
    python3 scripts/bench_layers.py --out gcd.json --only '^gcd-|^coprime-'

--only PATTERN runs just the cases whose names match the regular
expression (Python's re.search).

Each --src tree (default: the `src` next to this script) is imported by
one long-lived worker process, which builds every case and checks it
once.  In each of --rounds rounds every case is timed on every tree
twice, in the order A B B A (B A A B in odd rounds), so that a drift in
host speed that is linear over the four visits hits the trees alike.  A
visit times each of the case's calls as the median of five batches of at
least BATCH_S; a check or visit that runs past CAP_S seconds ends the
case on that tree as a timeout.  A tree's sample in a round is the mean
of its two visits.  The JSON holds, per tree and case, "ok" and the
median and quartiles of the samples, in microseconds per call, and under
"ratios", for each later tree, the median and quartiles over the rounds
of its sample divided by the first tree's: 1.05 means 5% slower than
the first tree in the typical round.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import random
import re
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from statistics import median, quantiles
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH_S = 0.02  # minimum length of one timed batch
CAP_S = 10.0  # a case that runs longer in one round is recorded as a timeout
# each command's start-up case runs it on this problem, relative to the
# repository root, and expects this exit code
STARTUP_PROBLEM = "problems/three_lines.json"
STARTUP_EXITS = {"construct": 0, "analyze": 0, "cz": 1, "linearize": 0, "simulate": 0, "all": 1}


def reference_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _image(f: dict, t: int, swap: bool) -> list:
    """f(t, y), or f(x, t) with swap, as Fraction coefficients, lowest
    degree first, the leading one last even when it is zero."""
    if swap:
        f = {(j, i): c for (i, j), c in f.items()}
    out = [Fraction(0)] * (max(j for _, j in f) + 1)
    for (i, j), c in f.items():
        out[j] += c * t**i
    return out


def _utrim(a: list) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _usub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _utrim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _udivmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder in Q[t] of coefficient lists, lowest degree
    first, by schoolbook division; b nonzero."""
    r, b = _utrim(a), _utrim(b)
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, k = Fraction(r[-1]) / b[-1], len(r) - len(b)
        q[k] = c
        for i, v in enumerate(b):
            r[k + i] -= c * v
        r = _utrim(r)
    return _utrim(q), r


def reference_xgcd(a: list, b: list) -> tuple[list, list]:
    """(g, s) with g the monic gcd of a and b and s a = g mod b, by the
    textbook extended Euclid; a and b not both zero."""
    r0, r1, s0, s1 = _utrim(a), _utrim(b), [Fraction(1)], []
    while r1:
        q, r = _udivmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _usub(s0, _upoly_mul(q, s1))
    c = 1 / Fraction(r0[-1])
    return [v * c for v in r0], [v * c for v in s0]


def _gcd_degree(a: list, b: list) -> int:
    """Degree of gcd(a, b) in Q[y]; a, b are Fraction lists, lowest degree
    first, not both zero."""
    return len(reference_xgcd(a, b)[0]) - 1


def reference_coprime(f: dict, g: dict) -> bool:
    """True when nonzero f and g are proved to share no nonconstant factor
    over Q.  A common factor of positive y-degree keeps that degree at any
    x = t where lc_y(f) does not vanish and divides f(t, y) and g(t, y), so
    a constant gcd of those images at such a t rules it out; images at
    y = t rule out one of positive x-degree.  t runs over 0..7."""
    for swap in (False, True):
        for t in range(8):
            a, b = _image(f, t, swap), _image(g, t, swap)
            if a[-1] and _gcd_degree(a, b) == 0:
                break
        else:
            return False
    return True


def gcd_ok(op: str, f: dict, g: dict, planted) -> bool:
    """Whether bipoly.gcd(f, g) is the gcd, checked with no gcd routine of
    the program: it is normalized, it divides f and g, and
    reference_coprime proves the cofactors coprime.  A "gcd" case's
    planted factor must divide it, and a "coprime" case's gcd must be 1."""
    from polysaddle import bipoly as bp
    got = bp.gcd(f, g)
    (a, ra), (b, rb) = bp.divmod_lt(f, got), bp.divmod_lt(g, got)
    return (got == bp.normalize(got) and not ra and not rb and reference_coprime(a, b)
            and (bp.divides(bp.normalize(planted), got) if op == "gcd" else got == bp.ONE))


def _coeff(v: Fraction) -> int | Fraction:
    """v as the program holds a coefficient: an int when it is an integer."""
    return v.numerator if v.denominator == 1 else v


def _dense(rng: random.Random, d: int, bits: int = 5, den: int = 1) -> dict:
    out = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            out[(i, j)] = _coeff(Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**bits),
                                          rng.randint(1, den)))
    return out


def _sparse(rng: random.Random, terms: int, deg: int) -> dict:
    return {(rng.randint(0, deg), rng.randint(0, deg)): rng.randint(1, 31)
            for _ in range(terms)}


def _upoly_mul(f: list, g: list) -> list:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _planted_roots(roots: dict, cofactor: list) -> list:
    """Coefficients (lowest degree first) of cofactor * prod (t - r)^m."""
    f = [Fraction(c) for c in cofactor]
    for r, m in roots.items():
        for _ in range(m):
            f = _upoly_mul(f, [-r, Fraction(1)])
    return f


def _root_cases(rng: random.Random) -> list:
    half = Fraction(1, 2)
    out = [("roots-small", "roots",
            _planted_roots({half: 2, Fraction(-3): 1, Fraction(0): 1}, [1, 0, 1]), None,
            [Fraction(-3), Fraction(0), half])]
    for bits in (20, 32, 44):
        # (t - a)(t + b)(t^2 - 2): a constant term of `bits` bits
        a, b = (rng.randint(2 ** (bits // 2 - 1), 2 ** (bits // 2)) for _ in range(2))
        roots = {Fraction(a): 1, Fraction(-b): 1}
        out.append((f"roots-{bits}bit", "roots", _planted_roots(roots, [-2, 0, 1]), None,
                    sorted(roots)))
    # the level polynomial of tests/fixtures/slow_levels.json: c times a cubic
    # that is irreducible over Q; cleared of denominators and of the root 0,
    # its constant term has 60 bits
    level = [Fraction(0), Fraction(9514750990801, 3779136),
             Fraction(5625898018778653, 4897760256), Fraction(5533511094683, 143327232),
             Fraction(1)]
    out.append(("roots-slow-levels", "roots", level, None, [Fraction(0)]))
    return out


# a*x + b*y + c for the lines of tests/fixtures/many_lines_16.json; the
# last one has exponent 2
MANY_LINES = ((7, -12, -5), (2, 0, -7), (25, -40, -18), (16, 7, 28), (2, 3, -9),
              (27, 49, -252), (48, -75, -40), (5, -105, -42), (64, 81, 252), (15, 3, -2),
              (18, 16, -3), (14, 10, -63), (14, 7, 1), (1, -14, -3), (9, 72, 10), (2, -7, -4))


def _as_line(a: int, b: int, c: int) -> dict:
    return {e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}


def _partial(f: dict, var: str) -> dict:
    if var == "x":
        return {(i - 1, j): i * c for (i, j), c in f.items() if i}
    return {(i, j - 1): j * c for (i, j), c in f.items() if j}


def _combine(*terms) -> dict:
    """sum of sign * f over (sign, f) pairs."""
    out: dict = {}
    for sign, f in terms:
        for e, c in f.items():
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def certificate_holds(cert, P: dict, Q: dict) -> bool:
    """D = K1 K4 - K2 K3 and the saddle pullbacks G X(u) = D u and
    G X(v) = -D v for X = (P, Q), with schoolbook products."""
    def lie(f):
        return _combine((1, reference_mul(_partial(f, "x"), P)),
                        (1, reference_mul(_partial(f, "y"), Q)))

    D = _combine((1, reference_mul(cert.K1, cert.K4)), (-1, reference_mul(cert.K2, cert.K3)))
    return (cert.D == D
            and reference_mul(cert.G, lie(cert.u_expr)) == reference_mul(D, cert.u_expr)
            and reference_mul(cert.G, lie(cert.v_expr))
            == _combine((-1, reference_mul(D, cert.v_expr))))


def literal_field(factors: list) -> tuple[dict, dict]:
    """The construction formula written out for (u, k) pairs:
    P = sum_l k_l prod_{i != l} u_i (u_l)_y and Q = -sum_l k_l prod_{i != l} u_i (u_l)_x."""
    P: dict = {}
    Q: dict = {}
    for l, (u, k) in enumerate(factors):
        others = {(0, 0): 1}
        for i, (v, _) in enumerate(factors):
            if i != l:
                others = reference_mul(others, v)
        for e, c in reference_mul(others, _partial(u, "y")).items():
            P[e] = P.get(e, 0) + k * c
        for e, c in reference_mul(others, _partial(u, "x")).items():
            Q[e] = Q.get(e, 0) - k * c
    return ({e: c for e, c in P.items() if c}, {e: c for e, c in Q.items() if c})


def _line_factors(lines) -> list:
    """(u, k) pairs for lines (a, b, c); the last line is squared."""
    return [(_as_line(*abc), 2 if n == len(lines) - 1 else 1) for n, abc in enumerate(lines)]


def _random_lines(rng: random.Random, p: int) -> list:
    """p lines (a, b, c), pairwise nonparallel, drawn as random_line in
    tests/conftest.py draws them: a, b, c = n/d with |n|, d <= 9, cleared to
    coprime integers."""
    out: list = []
    while len(out) < p:
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        a, b, c = (int(v * den) for v in (a, b, c))
        g = math.gcd(a, b, c)
        if (a or b) and all(a * b2 != a2 * b for a2, b2, _ in out):
            out.append((a // g, b // g, c // g))
    return out


def _wide_lines(rng: random.Random, p: int) -> list:
    """p lines (a, b, c), pairwise nonparallel, with integers a, b, c
    uniform in +-10^6, each line divided by gcd(a, b, c)."""
    out: list = []
    while len(out) < p:
        a, b, c = (rng.randint(-10**6, 10**6) for _ in range(3))
        g = math.gcd(a, b, c)
        if (a or b) and all(a * b2 != a2 * b for a2, b2, _ in out):
            out.append((a // g, b // g, c // g))
    return out


def _homogeneous(rng: random.Random, d: int) -> dict:
    return {(i, d - i): rng.choice((-1, 1)) * rng.randint(1, 32) for i in range(d + 1)}


def _coprime_cases(rng: random.Random) -> list:
    P0, Q0 = literal_field(_line_factors(MANY_LINES))
    return [("coprime-many-lines-16", "coprime", P0, Q0, None),
            ("coprime-homogeneous-d6", "coprime", _homogeneous(rng, 6), _homogeneous(rng, 6),
             None),
            ("coprime-factors-d3", "coprime", _dense(rng, 3), _dense(rng, 3), None)]


def _x_free_case(rng: random.Random) -> tuple:
    """A gcd pair whose common factor is free of x, so that only the
    y = t images could pass."""
    c = {(0, 2): 3, (0, 1): -5, (0, 0): 7}
    return ("gcd-x-free-common-d2", "gcd", reference_mul(_dense(rng, 3), c),
            reference_mul(_dense(rng, 3), c), c)


def sylvester_y(f: dict, g: dict) -> list[list[dict]]:
    """Sylvester matrix of f, g with respect to y, entries in Q[x]; f's
    coefficients fill the top rows."""
    rows = []
    for p in (f, g):
        d = max(j for _, j in p)
        coeffs = [{} for _ in range(d + 1)]
        for (i, j), c in p.items():
            coeffs[d - j][(i, 0)] = c
        rows.append(coeffs)
    m, n = len(rows[0]) - 1, len(rows[1]) - 1
    return ([[{}] * k + rows[0] + [{}] * (n - 1 - k) for k in range(n)]
            + [[{}] * k + rows[1] + [{}] * (m - 1 - k) for k in range(m)])


def _curve(rng: random.Random, d: int) -> dict:
    """Total degree d, coefficients uniform in -5..5 on every monomial."""
    out = {(i, j): rng.randint(-5, 5) for i in range(d + 1) for j in range(d + 1 - i)}
    return {e: c for e, c in out.items() if c}


def _jacobian(u: dict, v: dict) -> dict:
    """u_x v_y - u_y v_x, with schoolbook products."""
    return _combine((1, reference_mul(_partial(u, "x"), _partial(v, "y"))),
                    (-1, reference_mul(_partial(v, "x"), _partial(u, "y"))))


def _resultant_cases(rng: random.Random) -> list:
    out = []
    for d in range(3, 7):
        u, v = _curve(rng, d), _curve(rng, d)
        out += [(f"resultant-uv-d{d}", "resultant", u, v, None),
                (f"resultant-ujac-d{d}", "resultant", u, _jacobian(u, v), None)]
    # Res_t(f, h + c) with c in the x slot: f of degree 8, h reduced below it
    f = {(0, j): rng.choice((-1, 1)) * rng.randint(1, 32) for j in range(9)}
    h = {(0, j): rng.choice((-1, 1)) * rng.randint(1, 32) for j in range(8)}
    out.append(("resultant-level-d8", "resultant", f, {**h, (1, 0): 1}, None))
    return out


def _variety_cases(rng: random.Random) -> list:
    """variety_empty on three lines in general position (none of them
    y-free, so the projections decide) and three through (3, -2), and on
    the transversality system u = v = u_x v_y - u_y v_x = 0
    of dense curves of degree 3, 4 and 5 (as the resultant cases draw them),
    with the status each must get."""
    out = [("variety-lines-general", "variety", [_as_line(*abc) for abc in MANY_LINES[2:5]],
            None, "Holds"),
           ("variety-lines-concurrent", "variety",
            [_as_line(1, 1, -1), _as_line(2, -1, -8), _as_line(5, 3, -9)], None, "Fails")]
    for d in (3, 4, 5):
        u, v = _curve(rng, d), _curve(rng, d)
        out.append((f"variety-transversal-d{d}", "variety", [u, v, _jacobian(u, v)], None,
                    "Holds"))
    return out


def _coprime_primitive_prs(a: list, b: list) -> bool:
    """Whether a and b, rational coefficient lists lowest degree first, a
    nonconstant, share no root, by the primitive PRS over Z (Collins,
    J. ACM 14, 1967), whose coefficients stay small where Euclid in Q[x]
    grows them: each remainder is lc(b)^k a reduced by b, made primitive."""
    def ints(u):
        den = math.lcm(*(Fraction(c).denominator for c in u))
        return [int(c * den) for c in u]

    a, b = ints(a), ints(b)
    while len(b) > 1:
        r = a
        while len(r) >= len(b):  # r = lc(b) r - lc(r) x^k b loses its top term
            c, k = r[-1], len(r) - len(b)
            r = [b[-1] * v for v in r]
            for i, v in enumerate(b):
                r[k + i] -= c * v
            r = _utrim(r)
        if not r:
            return False
        g = math.gcd(*r)
        a, b = b, [v // g for v in r]
    return bool(b)  # b a nonzero constant, or zero from the start


def reference_variety_empty(polys: list) -> tuple:
    """(status, witness) of variety_empty by the exact routes alone, with
    every resultant computed exactly.  Polynomials free of y pin x to the
    squarefree part of their gcd, a fiber, and the others are taken onto
    it by dynamic evaluation.  Otherwise, with p and q coprime, the exact
    Res_y(p, q) and each Res_y(p, r) are computed, and one pair of them
    that _coprime_primitive_prs finds coprime gives Holds; else the fiber is the
    squarefree part of Res_y(p, q) for the first coprime pair alone, and
    every other polynomial is taken onto it."""
    from polysaddle import bipoly as bp
    from polysaddle import upoly as up
    from polysaddle import variety

    def in_x(f):  # f, free of y, as a polynomial in x
        return up.make([f.get((i, 0), 0) for i in range(max((i for i, _ in f), default=-1) + 1)])

    def plane(polys, depth):
        if any(bp.is_const(p) for p in polys):
            return None
        yfree = [p for p in polys if bp.deg_y(p) == 0]
        if yfree:
            G = up.gcd_many([in_x(p) for p in yfree])
            if up.degree(G) < 1:
                return None
            rest = [variety._to_ypoly(p) for p in polys if bp.deg_y(p) > 0]
            return variety._decide_fiber(up.squarefree_part(G), rest, depth + 1)
        if len(polys) == 1:
            x0 = bp.first_regular_x(polys[0])
            return variety._decide_fiber(up.make([-x0, 1]), [variety._to_ypoly(polys[0])],
                                         depth + 1)
        p, q, *others = sorted(polys, key=bp.deg_y)
        h = bp.gcd(p, q)
        if not bp.is_const(h):
            return (plane([h] + others, depth + 1)
                    or plane([bp.exact_div(p, h), bp.exact_div(q, h)] + others, depth + 1))
        R = in_x(bp.resultant(p, q))
        if up.degree(R) < 1 or any(
                _coprime_primitive_prs(R, in_x(bp.resultant(p, r))) for r in others):
            return None
        return variety._decide_fiber(up.squarefree_part(R),
                                     [variety._to_ypoly(t) for t in [p, q] + others], depth + 1)

    loc = plane(list(polys), 0)
    if loc is None:
        return "Holds", None
    return "Fails", variety._describe_witness(loc)


def _fiber_holds_cases() -> list:
    """variety_empty on systems that hold, each with a polynomial free of
    y whose gcd the projection of the other two decides: the
    nonsingularity system u, u_x, u_y of a conic a x^2 + b x + c y^2 +
    d y + e, whose u_x = 2 a x + b; the transversality system of u =
    A(x) + W(y - m x), A and W cubics, and the line v = y - m x - k,
    whose Jacobian u_x v_y - u_y v_x is A'(x); and, with no polynomial
    free of y, the transversality system of dense curves of degree 8 (as
    _curve draws them), which the images of its projections decide."""
    rng = random.Random("variety-fiber-holds")
    while True:
        a, b, c, d, e = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(5))
        if 4 * a * c * e != c * b * b + a * d * d:  # u is 0 at no critical point
            break
    u = {(2, 0): a, (1, 0): b, (0, 2): c, (0, 1): d, (0, 0): e}
    out = [("variety-fiber-holds-conic", "variety", [u, _partial(u, "x"), _partial(u, "y")],
            None, "Holds")]
    m, k = rng.randint(2, 9), rng.randint(1, 9)
    w, wj = {(1, 0): -m, (0, 1): 1}, {(0, 0): 1}  # y - m x and its powers
    u = {(i, 0): rng.randint(1, 9) for i in range(4)}  # A(x)
    for _ in range(3):
        wj = reference_mul(wj, w)
        u = _combine((1, u), (rng.randint(1, 9), wj))
    v = {(0, 1): 1, (1, 0): -m, (0, 0): -k}
    out.append(("variety-fiber-holds-cubic-line", "variety", [u, v, _jacobian(u, v)], None,
                "Holds"))
    u, v = _curve(rng, 8), _curve(rng, 8)
    out.append(("variety-fiber-holds-transversal-d8", "variety", [u, v, _jacobian(u, v)],
                None, "Holds"))
    return out


ORBIT_STEPS = 1000  # RK4 steps per orbit case, as perfbench/run.py takes


def _orbit_cases(rng: random.Random) -> list:
    """Fields of degree 1, 3 and 5 built from d + 1 random lines, each with
    its integral H (the product of the lines), a start and a step that
    keeps the orbit short of the lines' blow-ups."""
    out = []
    for d in (1, 3, 5):
        lines = [_as_line(*abc) for abc in _random_lines(rng, d + 1)]
        P, Q = literal_field([(u, 1) for u in lines])
        H = functools.reduce(reference_mul, lines)
        x0, y0 = 0.1, 0.2
        speed = abs(reference_eval(P)(x0, y0)) + abs(reference_eval(Q)(x0, y0))
        out.append((f"orbit-d{d}", "orbit", P, Q, (H, x0, y0, 1e-4 / max(1.0, speed))))
    return out


def reference_eval(f: dict):
    """Float evaluator of f as a Horner form in y over Horner forms in x,
    with plain loops: the operations numcheck performs, in its order."""
    rows: list = [[] for _ in range(max((j for _, j in f), default=-1) + 1)]
    for (i, j), c in f.items():
        rows[j] += [0.0] * (i + 1 - len(rows[j]))
        rows[j][i] = float(c)

    def ev(x, y):
        acc = None
        for row in reversed(rows):
            r = row[-1] if row else 0.0
            for c in reversed(row[:-1]):
                r = r * x + c
            acc = r if acc is None else acc * y + r
        return 0.0 if acc is None else acc

    return ev


def reference_orbit(P: dict, Q: dict, H: dict, x: float, y: float, h: float, n: int):
    """(points, drift) of classical RK4 and the drift of H along it, as
    numcheck.integrate_orbit and conservation_drift define them."""
    fp, fq, fh = reference_eval(P), reference_eval(Q), reference_eval(H)
    pts = [(x, y)]
    for _ in range(n):
        k1x, k1y = fp(x, y), fq(x, y)
        x2, y2 = x + 0.5 * h * k1x, y + 0.5 * h * k1y
        k2x, k2y = fp(x2, y2), fq(x2, y2)
        x3, y3 = x + 0.5 * h * k2x, y + 0.5 * h * k2y
        k3x, k3y = fp(x3, y3), fq(x3, y3)
        x4, y4 = x + h * k3x, y + h * k3y
        k4x, k4y = fp(x4, y4), fq(x4, y4)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not (math.isfinite(x) and math.isfinite(y)) or abs(x) > 1e12 or abs(y) > 1e12:
            break
        pts.append((x, y))
    h0 = fh(*pts[0])
    gaps = [abs(fh(a, b) - h0) for a, b in pts]
    drift = max(gaps) / max(1.0, abs(h0))
    return pts, (drift if math.isfinite(drift) and not math.isnan(sum(gaps)) else None)


def _linear_cases() -> list:
    """Resultants against an operand linear in y, which bipoly takes in
    closed form: two wide lines, and dense curves of degree 3 and 6 (as
    _curve draws them) each against a wide line; and the triple check of
    condition (iii) on 20 and 40 wide lines (Random("wide:<p>"), as
    scripts/scale_ladder.py draws them), which must Hold."""
    rng = random.Random("resultant-linear")
    (l1, l2, l3, l4) = _wide_lines(rng, 4)
    out = [("resultant-linear-lines", "resultant", _as_line(*l1), _as_line(*l2), None),
           ("resultant-linear-d3", "resultant", _curve(rng, 3), _as_line(*l3), None),
           ("resultant-linear-d6", "resultant", _curve(rng, 6), _as_line(*l4), None)]
    for p in (20, 40):
        curves = [_as_line(*abc) for abc in _wide_lines(random.Random(f"wide:{p}"), p)]
        out.append((f"triples-wide-lines-{p}", "triples", curves, None, "Holds"))
    return out


def reference_triples(curves: list) -> tuple:
    """(status, witness, reason) of the triple check by an exact
    variety_empty on every triple, in combinations order."""
    from polysaddle.variety import variety_empty

    for i, j, k in combinations(range(len(curves)), 3):
        r = variety_empty([curves[i], curves[j], curves[k]])
        if r.status == "Fails":
            return "Fails", r.witness, f"curves {i + 1},{j + 1},{k + 1} meet"
    return "Holds", None, "all triples have empty intersection"


def _gcd_path_cases(rng: random.Random) -> list:
    """The pairs bipoly.gcd gets most often: two coprime lines, the
    homogeneous leading forms ax + by of two lines, and two dense conics
    times the monomials x^2 y and x y^3, which share x y."""
    (l1, l2), (f1, f2) = _random_lines(rng, 2), _random_lines(rng, 2)
    a, b = _dense(rng, 2), _dense(rng, 2)
    return [("gcd-lines-coprime", "coprime", _as_line(*l1), _as_line(*l2), None),
            ("gcd-leading-forms-d1", "coprime", _as_line(*f1[:2], 0), _as_line(*f2[:2], 0),
             None),
            ("gcd-monomial-content", "gcd", reference_mul({(2, 1): 1}, a),
             reference_mul({(1, 3): 1}, b), {(1, 1): 1})]


def _gcd_modular_cases() -> list:
    """Pairs with a common factor, so that no image proves them coprime
    and the modular gcd interpolates: one on which every base of the
    heuristic gcd on Kronecker images failed, and the 16-line field times
    x - y and x - 1, on which the subresultant PRS took about 30 s."""
    c = _as_line(1, 1, 2)
    P0, Q0 = literal_field(_line_factors(MANY_LINES))
    P, Q = reference_mul(P0, _as_line(1, -1, 0)), reference_mul(Q0, _as_line(1, 0, -1))
    return [("gcd-heu-fails", "gcd", reference_mul({(1, 0): 1, (0, 2): -1}, c),
             reference_mul(_as_line(0, 1, -1), c), c),
            ("gcd-many-lines-16-common", "gcd", reference_mul(P, c), reference_mul(Q, c), c)]


def _int_upoly(rng: random.Random, d: int) -> list:
    """Degree d, nonzero integer coefficients of up to 5 bits."""
    return [rng.choice((-1, 1)) * rng.randint(1, 32) for _ in range(d + 1)]


def _upoly_cases(rng: random.Random) -> list:
    """upoly on integer operands of degree 4 to 10, each with the result
    of the reference routines above: gcd of two degree-8 products sharing
    a planted cubic, squarefree_part of a b^2 (degrees 4 and 3), rem of
    degree 10 by degree 6, xgcd of degree 6 against degree 8 (the inverse
    variety._fiber_gcd takes), and rational_roots of four planted linear
    factors p t - q times t^6 + k, k > 0, which has no real root; and
    variety_empty on the triple-point fibers of the cz-witness workload
    (perfbench/corpus.py): x^2 - N, y and y - x^2 + N meet at
    (+-sqrt N, 0), for N of 44 bits that is a square (a rational witness)
    and one that is not (certified boxes)."""
    c = _int_upoly(rng, 3)
    a, b = _upoly_mul(_int_upoly(rng, 5), c), _upoly_mul(_int_upoly(rng, 5), c)
    sq, base = _int_upoly(rng, 3), _int_upoly(rng, 4)
    f = _upoly_mul(base, _upoly_mul(sq, sq))
    fprime = [i * v for i, v in enumerate(f)][1:]
    sqf = _udivmod(f, reference_xgcd(f, fprime)[0])[0]
    num, den = _int_upoly(rng, 10), _int_upoly(rng, 6)
    u, v = _int_upoly(rng, 6), _int_upoly(rng, 8)
    lines = [(rng.randint(1, 4), rng.randint(-9, 9)) for _ in range(4)]  # p t - q
    level = [rng.randint(1, 32)] + [0] * 5 + [1]
    for p, q in lines:
        level = _upoly_mul(level, [-q, p])
    out = [("upoly-gcd-d8-common-d3", "upoly", ("gcd", [a, b]),
            None, tuple(reference_xgcd(a, b)[0])),
           ("upoly-squarefree-d10", "upoly", ("squarefree_part", [f]), None,
            tuple(Fraction(x) / sqf[-1] for x in sqf)),
           ("upoly-rem-d10-d6", "upoly", ("rem", [num, den]), None,
            tuple(_udivmod(num, den)[1])),
           ("upoly-xgcd-d6-d8", "upoly", ("xgcd", [u, v]), None,
            tuple(map(tuple, reference_xgcd(u, v)))),
           ("upoly-roots-d10", "upoly", ("rational_roots", [level]), None,
            sorted({Fraction(q, p) for p, q in lines}))]
    lo = math.isqrt(1 << 43) + 1
    r = rng.randrange(lo, lo + (lo >> 6))
    while True:
        n = rng.randrange(1 << 43, (1 << 43) + (1 << 38))
        if math.isqrt(n) ** 2 != n:
            break
    for kind, N in (("rational", r * r), ("irrational", n)):
        curves = [{(2, 0): 1, (0, 0): -N}, {(0, 1): 1}, {(0, 1): 1, (2, 0): -1, (0, 0): N}]
        out.append((f"variety-fiber-triple-44bit-{kind}", "variety", curves, None, "Fails"))
    return out


def _isolate_cases(rng: random.Random) -> list:
    """arith.isolate_complex_roots on t^2 - n for a 44-bit n that is not a
    square (the fiber of the cz-witness triple points, solved in closed
    form) and on t^3 - m t + 1 for a 20-bit m, three irrational real roots
    (seeded by mpmath, certified by interval Newton)."""
    while True:
        n = rng.randrange(1 << 43, 1 << 44)
        if math.isqrt(n) ** 2 != n:
            break
    m = rng.randrange(1 << 19, 1 << 20)
    return [("isolate-quadratic-44bit", "isolate", [-n, 0, 1], None, None),
            ("isolate-cubic", "isolate", [1, -m, 0, 1], None, None)]


def real_roots_ok(f: list, boxes) -> bool:
    """Every root of the integer polynomial f (lowest degree first) is
    real, irrational and simple: the boxes are one per root when there are
    deg f of them, pairwise disjoint, each straddling the real axis with a
    sign change of f between the ends of its real interval."""
    def value(t):
        return sum(c * t**i for i, c in enumerate(f))

    return (len(boxes) == len(f) - 1
            and all(b.im_lo <= 0 <= b.im_hi and value(b.re_lo) * value(b.re_hi) < 0
                    for b in boxes)
            and all(a.box().disjoint(b.box()) for i, a in enumerate(boxes)
                    for b in boxes[i + 1:]))


def _load_cases() -> list:
    """A line and a conic for bipoly.parse, and a problem of four lines of
    tests/fixtures/many_lines_16.json, the last one squared, for
    cli.load_problem."""
    lines = ("7*x - 12*y - 5", "2*x - 7", "25*x - 40*y - 18", "16*x + 7*y + 28")
    doc = {"name": "lines-4",
           "factors": [{"poly": u, "exponent": 2 if n == 3 else 1} for n, u in enumerate(lines)]}
    return [("parse-line", "parse", "7*x + 8*y - 4", None, None),
            ("parse-conic", "parse", "3*x^2 - 2*x*y + 5*y^2 + 4*x - 7*y + 1", None, None),
            ("load-lines-4", "load", doc, None, None)]


def cases(only: str = "") -> list[tuple[str, str, object, object, object]]:
    """(name, op, f, g, planted factor or roots), the same every run, for
    the cases whose names match the regular expression `only`."""
    rng = random.Random(20091)
    one = 1
    out = [(f"mul-dense-d{d}", "mul", _dense(rng, d), _dense(rng, d), None)
           for d in range(11)]
    out += [
        ("mul-dense-d6-rational", "mul", _dense(rng, 6, den=9), _dense(rng, 6, den=9), None),
        ("mul-dense-d3-200bit", "mul", _dense(rng, 3, bits=200), _dense(rng, 3, bits=200), None),
        ("mul-single-term", "mul", {(3, 2): Fraction(-7, 3)}, _dense(rng, 8), None),
        ("mul-sparse-x2000", "mul", {(2000, 0): one, (0, 0): one},
         {(2000, 0): one, (0, 0): -one}, None),
        ("mul-sparse-x200y200", "mul", {(200, 200): one, (0, 0): one},
         {(200, 200): one, (0, 0): one}, None),
        ("mul-sparse-8x8-deg60", "mul", _sparse(rng, 8, 60), _sparse(rng, 8, 60), None),
    ]
    for da, dc in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
        a, b, c = _dense(rng, da), _dense(rng, da), _dense(rng, dc)
        out.append((f"gcd-d{da}-common-d{dc}", "gcd", reference_mul(a, c),
                    reference_mul(b, c), c))
    out += _root_cases(rng)
    out += _coprime_cases(rng)
    for p in (8, 12, 16, 20):
        factors = _line_factors(_random_lines(rng, p))
        out.append((f"field-lines-{p}", "field", factors, None, literal_field(factors)))
    out += _resultant_cases(rng)
    out.append(_x_free_case(rng))  # drawn after the cases above, which keep their operands
    out += _variety_cases(rng)
    out += _orbit_cases(rng)
    out += _gcd_path_cases(rng)  # drawn last, so no earlier operand changes
    out += _gcd_modular_cases()
    out.append(("startup", "startup", "import polysaddle.cli", "pass", 0))
    out += [(f"startup-{cmd}", "startup",
             "import sys; from polysaddle import cli; "
             f"sys.exit(cli.main([{cmd!r}, {STARTUP_PROBLEM!r}, '--format', 'json']))",
             "pass", code) for cmd, code in STARTUP_EXITS.items()]
    out += [(f"cli-{cmd}", "cli", cmd, None, code) for cmd, code in STARTUP_EXITS.items()]
    out += _load_cases()
    out += _upoly_cases(rng)  # drawn after every case above, which keep their operands
    out += _isolate_cases(rng)  # drawn last, likewise
    out += _linear_cases()  # from seeds of their own
    out += _fiber_holds_cases()  # likewise
    return [case for case in out if re.search(only, case[0])]


def _time(call) -> float:
    """Per-call microseconds of call(): the median of five batches of at
    least BATCH_S."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            call()
        if perf_counter() - t0 >= BATCH_S:
            break
        n *= 2
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(n):
            call()
        times.append((perf_counter() - t0) / n * 1e6)
    return median(times)


def _interpreter(code: str) -> int:
    """Exit code of a fresh interpreter that runs `code` in the repository
    root; its output is dropped, since the worker's own standard output
    carries its result."""
    return subprocess.run([sys.executable, "-c", code], cwd=os.path.join(HERE, ".."),
                          stdout=subprocess.DEVNULL).returncode


def _timeout(signum, frame):
    raise TimeoutError


def _capped(thunk):
    """thunk(), or None when it runs past CAP_S seconds."""
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        return thunk()
    except TimeoutError:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def prepare(only: str, tmp: str) -> dict:
    """{case: (ok, timers)} for the cases whose names match the regular
    expression `only`.  ok is whether the case's result checks, or None
    when the check ran past CAP_S seconds; timers maps each timing key
    ("us", "reference_us" (mul), "linearize_us" (field), "cold_us" (orbit),
    "baseline_us" (startup)) to the call it times.  A load case writes its
    problem file under the directory tmp."""
    from polysaddle import arith
    from polysaddle import bipoly as bp
    from polysaddle import cli, numcheck
    from polysaddle import upoly as up
    from polysaddle.cz_check import check_no_triple_points
    from polysaddle.field_ops import FactoredIntegral, VectorField, construct_field, reduce_field
    from polysaddle.linearize import linearize
    from polysaddle.variety import variety_empty

    sys.path.insert(0, os.path.join(HERE, "..", "tests"))
    from conftest import reference_parse

    def cold(F):
        """F with every cached attribute but its factors cleared."""
        for name in [n for n in vars(F) if n != "factors"]:
            del vars(F)[name]
        return F

    def orbit(X, start):
        H, x0, y0, step = start
        orb = numcheck.integrate_orbit(X, x0, y0, step, ORBIT_STEPS)
        return orb.points, numcheck.conservation_drift(H, orb)

    def orbit_cold(X, start):
        numcheck._rk4_kernel.cache_clear()
        numcheck._value_kernel.cache_clear()
        return orbit(X, start)

    def hexes(run):
        pts, drift = run
        return [(a.hex(), b.hex()) for a, b in pts], None if drift is None else drift.hex()

    def terms(src):
        return list(reference_parse(src).items())

    def cli_main(argv):
        """The exit code and standard output of cli.main(argv)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(name, op, f, g, planted, reference) -> tuple:
        """(ok, timers) of one case."""
        if op == "mul":
            return (bp.mul(f, g) == reference_mul(f, g) == bp.mul(g, f),
                    {"us": lambda: bp.mul(f, g), "reference_us": lambda: reference_mul(f, g)})
        if op in ("gcd", "coprime"):
            return gcd_ok(op, f, g, planted), {"us": lambda: bp.gcd(f, g)}
        if op == "resultant":
            return (bp.resultant(f, g) == bp.det_bareiss(sylvester_y(f, g)),
                    {"us": lambda: bp.resultant(f, g)})
        if op == "upoly":
            fn, args = getattr(up, f[0]), tuple(up.make(a) for a in f[1])
            return fn(*args) == planted, {"us": lambda: fn(*args)}
        if op == "isolate":
            return (real_roots_ok(f, arith.isolate_complex_roots(f)),
                    {"us": lambda: arith.isolate_complex_roots(f)})
        if op == "triples":
            got = check_no_triple_points(f)
            return ((got.status, got.witness, got.reason) == reference and got.status == planted,
                    {"us": lambda: check_no_triple_points(f)})
        if op == "variety":
            got = variety_empty(f)
            return ((got.status, got.witness) == reference and got.status == planted,
                    {"us": lambda: variety_empty(f)})
        if op == "field":
            F = FactoredIntegral(tuple(f))
            X, _ = reduce_field(F.field)
            field = construct_field(cold(F))
            cert = linearize(cold(F), X)
            return (((field.P, field.Q) == planted == (bp.mul(cert.G, X.P), bp.mul(cert.G, X.Q))
                     and certificate_holds(cert, X.P, X.Q)),
                    {"us": lambda: construct_field(cold(F)),
                     "linearize_us": lambda: linearize(cold(F), X)})
        if op == "startup":
            return (_interpreter(f) == planted and _interpreter(g) == 0,
                    {"us": lambda: _interpreter(f), "baseline_us": lambda: _interpreter(g)})
        if op == "cli":
            argv = [f, os.path.join(HERE, "..", STARTUP_PROBLEM), "--format", "json"]
            code, report = cli_main(argv)
            return (code == planted and json.loads(report)["command"] == f,
                    {"us": lambda: cli_main(argv)})
        if op == "parse":
            return list(bp.parse(f).items()) == terms(f), {"us": lambda: bp.parse(f)}
        if op == "load":
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(f, fh)
            spec = cli.load_problem(path)
            return ([(list(u.items()), k) for u, k in spec.integral.factors]
                    == [(terms(u["poly"]), u["exponent"]) for u in f["factors"]],
                    {"us": lambda: cli.load_problem(path)})
        if op == "orbit":
            X = VectorField(f, g)
            H, x0, y0, step = planted
            return (hexes(orbit_cold(X, planted)) == hexes(orbit(X, planted))
                    == hexes(reference_orbit(f, g, H, x0, y0, step, ORBIT_STEPS)),
                    {"us": lambda: orbit(X, planted), "cold_us": lambda: orbit_cold(X, planted)})
        f = up.make(f)
        return up.rational_roots(f) == planted, {"us": lambda: up.rational_roots(f)}

    out = {}
    signal.signal(signal.SIGALRM, _timeout)
    for name, op, f, g, planted in cases(only):
        # uncapped: the reference takes exact resultants of degree up to 112
        reference = (reference_variety_empty(f) if op == "variety"
                     else reference_triples(f) if op == "triples" else None)
        out[name] = _capped(lambda: check(name, op, f, g, planted, reference)) or (None, {})
    return out


def _visit(ok, timers: dict) -> dict:
    """One timing of a prepared case: {key: per-call microseconds} for
    each of its timers, or {"timeout": true} when its check or these calls
    ran past CAP_S seconds."""
    got = None if ok is None else _capped(lambda: {k: _time(t) for k, t in timers.items()})
    return {"timeout": True} if got is None else got


def worker(only: str = "") -> dict:
    """One round in this process over the cases whose names match the
    regular expression `only`: {case: {"us", "reference_us" (mul),
    "linearize_us" (field), "baseline_us" (startup), "ok"}}, or
    {case: {"timeout": true}} when the case ran past CAP_S seconds."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (ok, timers) in prepare(only, tmp).items():
            row = _visit(ok, timers)
            out[name] = row if "timeout" in row else {**row, "ok": ok}
    return out


def serve(only: str) -> None:
    """The long-lived worker of one tree: prints {case: ok} (null for a
    check that ran past CAP_S seconds) as one JSON line, then answers each
    case name read from standard input with one JSON line, its _visit."""
    with tempfile.TemporaryDirectory() as tmp:
        prepared = prepare(only, tmp)
        print(json.dumps({name: ok for name, (ok, _) in prepared.items()}), flush=True)
        for line in sys.stdin:
            print(json.dumps(_visit(*prepared[line.strip()])), flush=True)


def _answer(proc, name: str | None = None) -> dict:
    """The worker's next line, after sending it `name` if one is given."""
    if name is not None:
        proc.stdin.write(name + "\n")
        proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a worker exited with code {proc.wait()}")
    return json.loads(line)


def visits(labels: list, r: int) -> list:
    """The order in which round r times one case: every tree twice, A B B A
    in even rounds and B A A B in odd ones, so that a drift in host speed
    that is linear over the four visits adds the same to both trees."""
    order = labels if r % 2 == 0 else labels[::-1]
    return order + order[::-1]


def src_trees(ap: argparse.ArgumentParser, specs: list) -> dict:
    """{label: directory} of the --src LABEL=DIR values, in order, or
    {"change": the src next to this script}; ap.error (exit 2) on a value
    that is not LABEL=DIR and on a label given twice."""
    trees: dict = {}
    for spec in specs:
        label, sep, src = spec.partition("=")
        if not (sep and label and src):
            ap.error(f"--src wants LABEL=DIR, not {spec!r}")
        if label in trees:
            ap.error(f"--src label {label!r} given twice")
        trees[label] = src
    return trees or {"change": os.path.join(HERE, "..", "src")}


def _summary(xs: list[float], unit: str = "_us", digits: int = 2) -> dict:
    q = quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {f"median{unit}": round(median(xs), digits), f"q1{unit}": round(q[0], digits),
            f"q3{unit}": round(q[2], digits)}


def _describe(op: str, f, g) -> dict:
    """What the JSON records of a case's operands."""
    if op == "startup":
        return {"op": op, "code": f}
    if op == "cli":
        return {"op": op, "command": f}
    if op == "parse":
        return {"op": op, "source": f}
    if op == "load":
        return {"op": op, "factors": [u["poly"] for u in f["factors"]]}
    if op == "upoly":
        return {"op": op, "function": f[0], "degrees": [len(a) - 1 for a in f[1]]}
    if op == "isolate":
        return {"op": op, "coefficients": f}
    if op == "triples":
        return {"op": op, "curves": len(f)}
    return {"op": op, "terms": [len(f)] + ([len(g)] if g is not None else [])}


def _per_round(rows: list, key: str) -> list[float]:
    """The mean of each round's two visits of one tree to one case."""
    return [(a[key] + b[key]) / 2 for a, b in zip(rows[::2], rows[1::2])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                    help="a tree to measure (repeatable); default change=<repo>/src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--only", default="", metavar="PATTERN",
                    help="run only the cases whose names match this regular expression")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        serve(args.only)
        return 0
    trees = src_trees(ap, args.src)
    if not cases(args.only):
        ap.error(f"no case matches --only {args.only!r}")
    if not args.out:
        ap.error("--out is required")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    labels, names = list(trees), [name for name, *_ in cases(args.only)]
    procs = {label: subprocess.Popen([sys.executable, __file__, "--worker", "--only", args.only],
                                     env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for label, src in trees.items()}
    try:
        checks = {label: _answer(proc) for label, proc in procs.items()}
        # a tree stops timing a case once its check or a visit times out
        dropped = {label: {name for name, ok in checks[label].items() if ok is None}
                   for label in labels}
        samples: dict = {label: {name: [] for name in names} for label in labels}
        for r in range(args.rounds):
            for name in names:
                for label in visits(labels, r):
                    if name not in dropped[label]:
                        row = _answer(procs[label], name)
                        if "timeout" in row:
                            dropped[label].add(name)
                        samples[label][name].append(row)
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    results: dict = {label: {} for label in labels}
    for label in labels:
        for name in names:
            rows = samples[label][name]
            results[label][name] = {"timeout_s": CAP_S} if name in dropped[label] else {
                "ok": checks[label][name], **_summary(_per_round(rows, "us")),
                **{key[:-3]: _summary(_per_round(rows, key)) for key in rows[0] if key != "us"}}
    base = labels[0]
    ratios = {label: {name: _summary([b / a for a, b in zip(_per_round(samples[base][name], "us"),
                                                            _per_round(samples[label][name], "us"))],
                                     "", 4)
                      for name in names if name not in dropped[base] | dropped[label]}
              for label in labels[1:]}
    doc = {
        "benchmark": "scripts/bench_layers.py",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "rounds": args.rounds,
        "cap_s": CAP_S,
        "trees": labels,
        "cases": {name: _describe(op, f, g) for name, op, f, g, _ in cases(args.only)},
        "results": results,
        "ratios": ratios,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for label, rows in ratios.items():
        for name, q in rows.items():
            print(f"{name:<40} {label}/{base} {q['median']:.3f} ({q['q1']:.3f}-{q['q3']:.3f})")
    bad = [f"{label}/{name}" for label, rows in results.items()
           for name, row in rows.items() if not row.get("ok", True)]
    for b in bad:
        print(f"check failed: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
