"""Seeded problem corpora for the benchmark workloads.

Plain Python with integer coefficients: nothing here imports polysaddle
or the test suite, so a change to the program or to `tests/conftest.py`
cannot change what is measured.  The same seed always yields the same
instances.

Each workload is a fixed ladder of shapes (number of factors, factor
supports, exponents).  The seed only draws coefficients, signs and the
planted points, from bands of fixed bit length, so every seed gives
instances of the same size and the run-to-run spread stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

Poly = dict[tuple[int, int], int]

CZ_KEYS = ("condition_i_nonsingular", "condition_ii_leading_squarefree",
           "condition_iii_transversal_no_triples", "condition_iv_leading_coprime")


@dataclass(frozen=True)
class Instance:
    """One problem file plus what the benchmark knows about it by
    construction."""

    name: str
    factors: tuple[tuple[str, int], ...]
    x0: float  # simulate start, chosen off {V = 0}
    y0: float
    step: float  # RK4 step: about 1e-4 of the time to cross unit distance
    # verdicts the instance was built to get, by cz report key
    planted: dict[str, str] = field(default_factory=dict)
    # a planted Fails sits at a rational point, so its witness must be an exact point
    rational_witness: bool = False
    line_family: bool = False
    # H is free of x or of y: analyze/all hit the known degenerate-integral fault
    degenerate: bool = False

    def document(self) -> dict:
        return {"name": self.name,
                "factors": [{"poly": p, "exponent": k} for p, k in self.factors]}


# ---------------------------------------------------------------------------
# integer polynomials


def to_string(f: Poly) -> str:
    parts = []
    for (i, j) in sorted(f, key=lambda e: (e[0] + e[1], e[0]), reverse=True):
        c = f[(i, j)]
        mono = "*".join(([("x" if i == 1 else f"x^{i}")] if i else [])
                        + ([("y" if j == 1 else f"y^{j}")] if j else []))
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        sign = "-" if c < 0 else "+"
        parts.append(f"-{body}" if not parts and c < 0 else body if not parts
                     else f"{sign} {body}")
    return " ".join(parts) if parts else "0"


def evaluate(f: Poly, x: Fraction, y: Fraction) -> Fraction:
    return sum((c * x ** i * y ** j for (i, j), c in f.items()), Fraction(0))


def _content(f: Poly) -> int:
    g = 0
    for c in f.values():
        g = math.gcd(g, c)
    return g


def _linear(a: int, b: int, c: int) -> Poly:
    return {e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _draw(rng: random.Random, support: tuple[tuple[int, int], ...], lo: int, hi: int) -> Poly:
    """Coefficients in +-[lo, hi] on a fixed support, primitive."""
    while True:
        f = {e: _signed(rng, lo, hi) for e in support}
        if _content(f) == 1:
            return f


# univariate helpers over Q, lowest power first, for the coprimality test


def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _urem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        _trim(a)
    return a


def _ugcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    while b:
        a, b = b, _urem(a, b)
    return len(a) - 1


def _specialize(f: Poly, var: int, t: int) -> list[Fraction]:
    """f with variable `var` (0 = x, 1 = y) set to t, in the other one."""
    out: dict[int, Fraction] = {}
    for e, c in f.items():
        out[e[1 - var]] = out.get(e[1 - var], Fraction(0)) + c * Fraction(t) ** e[var]
    return _trim([out.get(k, Fraction(0)) for k in range(max(out) + 1)])


def coprime(f: Poly, g: Poly) -> bool:
    """Sufficient test that f and g share no nonconstant factor.

    A common factor of positive degree in y survives setting x = t for
    any t that keeps the y-degrees of f and g, and likewise with x and y
    swapped; so coprime specializations in both directions prove it.
    """
    for var in (0, 1):
        degf = max(e[1 - var] for e in f)
        degg = max(e[1 - var] for e in g)
        for t in range(2, 12):
            a, b = _specialize(f, var, t), _specialize(g, var, t)
            if len(a) - 1 == degf and len(b) - 1 == degg:
                if degf and degg and _ugcd_degree(a, b) > 0:
                    return False
                break
        else:
            return False
    return True


def _start(rng: random.Random, factors: list[Poly]) -> tuple[float, float]:
    """A start on an eighths grid in [-1, 1]^2 where no factor vanishes."""
    while True:
        x0, y0 = Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8)
        if all(evaluate(f, x0, y0) != 0 for f in factors):
            return float(x0), float(y0)


def _partial(f: Poly, var: int) -> Poly:
    out: Poly = {}
    for e, c in f.items():
        if e[var]:
            d = (e[0] - 1, e[1]) if var == 0 else (e[0], e[1] - 1)
            out[d] = c * e[var]
    return out


def _step(factors: list[tuple[Poly, int]], x0: float, y0: float) -> float:
    """A power of two near 1e-4 / |X0(x0, y0)|, with X0 the field
    P0 = sum k_l (prod_{i != l} u_i) du_l/dy, Q0 = -sum k_l (...) du_l/dx.

    Orbits then cover about a tenth of a unit in their 1000 steps, which
    keeps them clear of the finite-time blow-up these fields have."""
    x, y = Fraction(x0), Fraction(y0)
    vals = [evaluate(u, x, y) for u, _ in factors]
    p0 = q0 = Fraction(0)
    for l, (u, k) in enumerate(factors):
        others = math.prod(v for i, v in enumerate(vals) if i != l)
        p0 += k * others * evaluate(_partial(u, 1), x, y)
        q0 -= k * others * evaluate(_partial(u, 0), x, y)
    speed = max(1.0, math.hypot(p0, q0))
    return 2.0 ** -math.ceil(math.log2(speed * 1e4))


def _instance(name: str, rng: random.Random, factors: list[tuple[Poly, int]], **kw) -> Instance:
    x0, y0 = _start(rng, [f for f, _ in factors])
    return Instance(name, tuple((to_string(f), k) for f, k in factors), x0, y0,
                    _step(factors, x0, y0), **kw)


# ---------------------------------------------------------------------------
# line-ladder: p <= 4 lines, one exponent >= 2; CZ holds by construction

# (number of lines, exponent of the last line)
LINE_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 2), (3, 3), (4, 2), (4, 2), (2, 2))
LINE_BAND = (2, 9)


def _concurrent(a: Poly, b: Poly, c: Poly) -> bool:
    (a1, b1, c1), (a2, b2, c2) = ([l.get(e, 0) for e in ((1, 0), (0, 1), (0, 0))] for l in (a, b))
    det = a1 * b2 - a2 * b1
    x = Fraction(-c1 * b2 + c2 * b1, det)
    y = Fraction(-a1 * c2 + a2 * c1, det)
    return evaluate(c, x, y) == 0


def line_family(rng: random.Random, p: int, k: int, name: str) -> Instance:
    lines: list[Poly] = []
    while len(lines) < p:
        a, b, c = (_signed(rng, *LINE_BAND) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        cand = _linear(a, b, c)
        if any(m[(1, 0)] * b - m[(0, 1)] * a == 0 for m in lines):
            continue  # parallel or equal
        if any(_concurrent(lines[i], lines[j], cand)
               for i in range(len(lines)) for j in range(i + 1, len(lines))):
            continue
        lines.append(cand)
    ks = [1] * (p - 1) + [k]
    return _instance(name, rng, list(zip(lines, ks)), line_family=True,
                     planted={key: "Holds" for key in CZ_KEYS})


def line_ladder(rng: random.Random, small: bool) -> list[Instance]:
    shapes = LINE_SHAPES[:3] if small else LINE_SHAPES
    return [line_family(rng, p, k, f"line-{n}-p{p}-k{k}") for n, (p, k) in enumerate(shapes)]


# ---------------------------------------------------------------------------
# random-ladder: wider supports, 5-bit coefficients, one instance that
# takes seconds, plus the fixed x-free and y-free integrals

L = ((1, 0), (0, 1), (0, 0))
PARABOLA_X = ((2, 0), (0, 1), (0, 0))
PARABOLA_Y = ((0, 2), (1, 0), (0, 0))
HYPERBOLA = ((1, 1), (1, 0), (0, 0))
CONIC = ((2, 0), (0, 2), (0, 0))
CUBIC = ((3, 0), (0, 1), (0, 0))

# (supports, exponents); the last shape is the slow one
RANDOM_SHAPES = (
    ((L, PARABOLA_X), (1, 2)),
    ((PARABOLA_Y, L), (2, 1)),
    ((HYPERBOLA, L), (1, 3)),
    ((CUBIC, L), (1, 2)),
    ((CONIC, L), (1, 2)),
    ((PARABOLA_X, PARABOLA_Y), (1, 1)),
    ((L, L, CONIC), (1, 1, 2)),
)
RANDOM_BAND = (16, 31)

# H free of x, H free of y: the same in every run, whatever the seed
DEGENERATE = (
    ("x-free", (({(0, 1): 1}, 2), ({(0, 1): 1, (0, 0): 1}, 1))),
    ("y-free", (({(2, 0): 1, (0, 0): -2}, 1), ({(2, 0): 1, (1, 0): 1, (0, 0): 1}, 2))),
)


def random_integral(rng: random.Random, supports, ks, name: str) -> Instance:
    while True:
        fs = [_draw(rng, s, *RANDOM_BAND) for s in supports]
        if all(coprime(fs[i], fs[j]) for i in range(len(fs)) for j in range(i + 1, len(fs))):
            return _instance(name, rng, list(zip(fs, ks)))


def random_ladder(rng: random.Random, small: bool) -> list[Instance]:
    shapes = RANDOM_SHAPES[:2] if small else RANDOM_SHAPES
    out = [random_integral(rng, s, ks, f"random-{n}") for n, (s, ks) in enumerate(shapes)]
    for name, facs in DEGENERATE:
        out.append(_instance(name, random.Random(0), list(facs), degenerate=True))
    return out


# ---------------------------------------------------------------------------
# cz-witness: the four shipped fixtures plus planted defects

X, Y = {(1, 0): 1}, {(0, 1): 1}
FIXTURES = (
    ("cusp-level", ((X, 2), (Y, 1))),
    ("product-saddle", ((X, 1), (Y, 1))),
    ("three-lines", ((X, 1), (Y, 1), ({(1, 0): 1, (0, 1): 1}, 2))),
    ("twin-parabolas", (({(0, 1): 1, (2, 0): -1}, 1), ({(0, 1): 1, (2, 0): 1}, 2))),
)


def _shift(f: Poly, r: int, s: int) -> Poly:
    """f(x - r, y - s), expanded."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in f.items():
        for a in range(i + 1):
            for b in range(j + 1):
                v = c * math.comb(i, a) * (-r) ** (i - a) * math.comb(j, b) * (-s) ** (j - b)
                out[(a, b)] = out.get((a, b), 0) + v
    return {e: c for e, c in out.items() if c}


def _tangent(rng: random.Random) -> Instance:
    """Parabola y = x^2 + b and its tangent at x = a: (iii) fails at (a, a^2 + b)."""
    a, b = _signed(rng, 4, 5), _signed(rng, 5, 7)
    par = {(0, 1): 1, (2, 0): -1, (0, 0): -b}
    line = {(0, 1): 1, (1, 0): -2 * a, (0, 0): a * a - b}
    return _instance("tangent-line-parabola", rng, [(par, 1), (line, 2)],
                     planted={CZ_KEYS[2]: "Fails"},
                     rational_witness=True)


def _three_lines(rng: random.Random) -> Instance:
    """Three lines of distinct slopes through (r, s): only the triple point fails."""
    r, s = _signed(rng, 5, 9), _signed(rng, 5, 9)
    slopes = rng.sample([m for m in range(-6, 7) if abs(m) >= 3], 3)
    lines = [_shift({(0, 1): 1, (1, 0): -m}, r, s) for m in slopes]
    return _instance("three-lines-one-point", rng, list(zip(lines, (1, 2, 1))),
                     planted={CZ_KEYS[0]: "Holds", CZ_KEYS[1]: "Holds",
                              CZ_KEYS[2]: "Fails", CZ_KEYS[3]: "Holds"},
                     rational_witness=True)


def _node(rng: random.Random) -> Instance:
    """Folium x^3 + y^3 - 3xy moved to a node at (r, s), beside a line."""
    r, s = _signed(rng, 3, 5), _signed(rng, 3, 5)
    folium = _shift({(3, 0): 1, (0, 3): 1, (1, 1): -3}, r, s)
    while True:
        line = _linear(_signed(rng, 5, 9), _signed(rng, 5, 9), _signed(rng, 5, 9))
        if math.gcd(*line.values()) == 1 and evaluate(line, Fraction(r), Fraction(s)) != 0:
            break
    return _instance("singular-curve-beside-line", rng, [(folium, 1), (line, 2)],
                     planted={CZ_KEYS[0]: "Fails", CZ_KEYS[1]: "Holds"},
                     rational_witness=True)


def _shared_leading(rng: random.Random) -> Instance:
    """Leading forms x*y and x*(x + y) share x: (iv) fails."""
    while True:
        # fixed sizes, seeded signs: cz cost depends on the sizes (b = d makes
        # v - u factor; some d shorten the trial division), not on the signs
        a, b, c, d = (rng.choice((-1, 1)) * m for m in (5, 7, 6, 8))
        u = {(1, 1): 1, (1, 0): a, (0, 1): b, (0, 0): c}
        v = {(2, 0): 1, (1, 1): 1, (0, 1): d, (0, 0): c}
        # u = (x + b)(y + a) + c - ab and v = y(x + d) + x^2 + c are irreducible
        if a * b != c and d * d + c != 0 and coprime(u, v):
            break
    return _instance("shared-leading-factor", rng, [(u, 2), (v, 1)],
                     planted={CZ_KEYS[3]: "Fails"})


def _fiber_triple(rng: random.Random, bits: int, square: bool) -> Instance:
    """x^2 - N, y, y - x^2 + N meet at (+-sqrt(N), 0); N has `bits` bits and
    sits near the bottom of its range so the trial-division cost is the
    same for every seed."""
    if square:
        lo = math.isqrt(1 << (bits - 1)) + 1
        r = rng.randrange(lo, lo + (lo >> 6))
        n = r * r

    else:
        while True:
            n = rng.randrange(1 << (bits - 1), (1 << (bits - 1)) + (1 << (bits - 6)))
            if math.isqrt(n) ** 2 != n:
                break
    curves = [{(2, 0): 1, (0, 0): -n}, {(0, 1): 1}, {(0, 1): 1, (2, 0): -1, (0, 0): n}]
    kind = "rational" if square else "irrational"
    return _instance(f"triple-point-{bits}bit-{kind}", rng, list(zip(curves, (1, 2, 1))),
                     planted={CZ_KEYS[2]: "Fails"}, rational_witness=square)


def cz_witness(rng: random.Random, small: bool) -> list[Instance]:
    out = [_instance(name, rng, facs) for name, facs in FIXTURES]
    out += [_tangent(rng), _three_lines(rng), _node(rng), _shared_leading(rng),
            _fiber_triple(rng, 20, square=False)]
    if not small:
        out += [_fiber_triple(rng, 44, square=False), _fiber_triple(rng, 44, square=True)]
    return out


WORKLOADS = {"line-ladder": line_ladder, "random-ladder": random_ladder,
             "cz-witness": cz_witness}


def build(workload: str, seed: int, small: bool = False) -> list[Instance]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), small)
