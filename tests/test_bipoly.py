"""Bivariate polynomial ring: parser, arithmetic, gcd, resultants."""

import functools
import glob
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
from polysaddle import cli, remarkable
from polysaddle.field_ops import VectorField, is_hamiltonian
from polysaddle.variety import variety_empty

from conftest import random_line_family, random_rat, sylvester_y

rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exps = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))


def bipolys(max_terms=5):
    return st.dictionaries(exps, rats, max_size=max_terms).map(
        lambda d: {e: c for e, c in d.items() if c})


# parser

def test_parse_basics():
    assert bp.parse("0") == {}
    assert bp.parse("x") == {(1, 0): Fraction(1)}
    assert bp.parse("3/2*x*y^2") == {(1, 2): Fraction(3, 2)}
    assert bp.parse("x^2 - y") == {(2, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert bp.parse("(x + y)^2") == bp.parse("x^2 + 2*x*y + y^2")
    assert bp.parse("-x^2") == {(2, 0): Fraction(-1)}  # unary minus binds below ^
    assert bp.parse("-(x - y)") == bp.parse("y - x")


def test_parse_errors_carry_position():
    with pytest.raises(bp.ParseError, match="column 5"):
        bp.parse("x + z")
    with pytest.raises(bp.ParseError, match="unknown variable"):
        bp.parse("x + z")
    with pytest.raises(bp.ParseError):
        bp.parse("x^(-1)")
    with pytest.raises(bp.ParseError):
        bp.parse("x +")
    with pytest.raises(bp.ParseError):
        bp.parse("")
    with pytest.raises(bp.ParseError):
        bp.parse("2x")  # explicit * required


def test_parse_degree_budget():
    top = bp.MAX_TOTAL_DEGREE
    assert bp.total_degree(bp.parse(f"(x + y)^{top}")) == top
    assert bp.total_degree(bp.parse(f"x^{top - 1}*y")) == top
    for src in (f"x^{top + 1}", f"(x*y + 1)^{top // 2 + 1}", f"x^{top}*y",
                f"2^{top + 1}", "(x + y + 1)^40000"):
        with pytest.raises(bp.ParseError, match="total-degree budget"):
            bp.parse(src)


def test_parse_takes_only_decimal_digits():
    # '²' is a digit to str.isdigit but not a decimal one, and int() refuses it
    with pytest.raises(bp.ParseError, match=r"exponent must be a natural number \(column 3\)"):
        bp.parse("x^²")
    with pytest.raises(bp.ParseError, match=r"unexpected character '²' \(column 1\)"):
        bp.parse("²")
    assert bp.parse("٣*x") == bp.parse("3*x")  # an Arabic-Indic three is decimal


def test_parse_nesting_cap():
    # each level is a few Python frames: 250 parentheses or 1000 unary
    # minus signs used to raise RecursionError
    cap = bp._MAX_NESTING
    assert bp.parse("(" * cap + "x" + ")" * cap) == bp.X
    assert bp.parse("-" * cap + "x") == bp.X
    assert bp.parse("-(" * (cap // 2) + "x" + ")" * (cap // 2)) == bp.X
    # levels that close again do not add up
    assert bp.parse(" + ".join(["(" * cap + "y" + ")" * cap] * 3)) == bp.parse("3*y")
    for src, col in (("(" * (cap + 1) + "x" + ")" * (cap + 1), cap + 1),
                     ("(" * 250 + "x" + ")" * 250, cap + 1),
                     ("-" * 1000 + "x", cap + 1),
                     ("x + " + "-(" * cap + "y" + ")" * cap, 5 + cap)):
        with pytest.raises(bp.ParseError, match=rf"nesting too deep \(column {col}\)"):
            bp.parse(src)


def test_to_string_canonical():
    assert bp.to_string(bp.parse("y - x^2")) == "-x^2 + y"
    assert bp.to_string({}) == "0"
    assert bp.to_string(bp.parse("1/3*x*y - 1")) == "1/3*x*y - 1"


@given(bipolys())
@settings(max_examples=150)
def test_parse_print_round_trip(f):
    assert bp.parse(bp.to_string(f)) == f


# ring arithmetic

@given(bipolys(), bipolys(), bipolys())
@settings(max_examples=100)
def test_ring_axioms(f, g, h):
    assert bp.add(f, g) == bp.add(g, f)
    assert bp.mul(f, g) == bp.mul(g, f)
    assert bp.mul(f, bp.add(g, h)) == bp.add(bp.mul(f, g), bp.mul(f, h))
    assert bp.add(f, bp.neg(f)) == {}
    assert bp.mul(f, bp.const(1)) == f


@given(bipolys(), bipolys())
@settings(max_examples=100)
def test_degree_of_product(f, g):
    if bp.is_zero(f) or bp.is_zero(g):
        return
    assert bp.total_degree(bp.mul(f, g)) == bp.total_degree(f) + bp.total_degree(g)


@given(bipolys())
@settings(max_examples=100)
def test_mixed_partials_commute(f):
    assert bp.partial(bp.partial(f, "x"), "y") == bp.partial(bp.partial(f, "y"), "x")


@given(bipolys(), bipolys())
@settings(max_examples=100)
def test_partial_leibniz(f, g):
    lhs = bp.partial(bp.mul(f, g), "x")
    rhs = bp.add(bp.mul(bp.partial(f, "x"), g), bp.mul(f, bp.partial(g, "x")))
    assert lhs == rhs


# multiplication: Kronecker-packed bp.mul against the schoolbook product

def reference_mul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


wide_rats = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**6)
wide_exps = st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))


@given(st.dictionaries(wide_exps, wide_rats, max_size=12),
       st.dictionaries(wide_exps, wide_rats, max_size=12))
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook(f, g):
    f = {e: c for e, c in f.items() if c}
    g = {e: c for e, c in g.items() if c}
    assert bp.mul(f, g) == reference_mul(f, g)


@pytest.mark.parametrize("f, g, want", [
    # cross terms cancel, down to the zero product
    ("x^2 + x*y + y^2", "x - y", "x^3 - y^3"),
    ("x - y", "x + y", "x^2 - y^2"),
    ("x^2 - 2*x*y + 3", "0", "0"),
    # rational denominators
    ("1/2*x + 1/3*y", "2/5*x - 3/7", "1/5*x^2 + 2/15*x*y - 3/14*x - 1/7*y"),
    # single-term operands
    ("-3/4*x^2*y", "x + y - 2/3", "-3/4*x^3*y - 3/4*x^2*y^2 + 1/2*x^2*y"),
    ("7", "x*y - 1", "7*x*y - 7"),
    ("x^5*y^7", "y^2", "x^5*y^9"),
])
def test_mul_fixed_cases(f, g, want):
    f, g, want = bp.parse(f), bp.parse(g), bp.parse(want)
    assert bp.mul(f, g) == want
    assert bp.mul(g, f) == want
    assert reference_mul(f, g) == want


def test_mul_sparse_high_degree():
    # beyond the parser's degree budget, so built term by term
    one = Fraction(1)
    f = {(2000, 0): one, (0, 0): one}
    g = {(2000, 0): one, (0, 0): -one}
    assert bp.mul(f, g) == {(4000, 0): one, (0, 0): -one}
    h = {(200, 200): one, (0, 0): one}
    assert bp.mul(h, h) == {(400, 400): one, (200, 200): Fraction(2), (0, 0): one}
    k = {(300, 0): Fraction(2), (0, 300): Fraction(-3), (1, 1): one}
    assert bp.mul(k, h) == reference_mul(k, h)


def test_mul_big_coefficients():
    big = 10**60 + 7
    f = {(0, 0): Fraction(big), (1, 0): Fraction(-big, 3), (0, 1): Fraction(big**2, 11)}
    g = {(0, 0): Fraction(-big), (1, 1): Fraction(5, big), (0, 1): Fraction(big**3)}
    assert bp.mul(f, g) == reference_mul(f, g)
    line = bp.parse(f"{big}*x - {big - 1}*y + 1")
    assert bp.power(line, 5) == functools.reduce(reference_mul, [line] * 5)


def test_evaluate():
    f = bp.parse("x^2*y - 3")
    assert bp.evaluate(f, Fraction(2), Fraction(1, 4)) == Fraction(-2)


# division

def test_exact_div_and_witness():
    f = bp.parse("x^2 - y^2")
    g = bp.parse("x - y")
    assert bp.exact_div(f, g) == bp.parse("x + y")
    with pytest.raises(bp.ExactDivisionError) as ei:
        bp.exact_div(bp.parse("x^2 + 1"), g)
    assert not bp.is_zero(ei.value.remainder)
    with pytest.raises(ZeroDivisionError):
        bp.exact_div(f, {})


@given(bipolys(), bipolys(3))
@settings(max_examples=100)
def test_product_division_round_trip(f, g):
    if bp.is_zero(g):
        return
    assert bp.exact_div(bp.mul(f, g), g) == f


@given(bipolys(), bipolys(3))
@settings(max_examples=80)
def test_divmod_lt_identity(f, g):
    if bp.is_zero(g):
        return
    q, r = bp.divmod_lt(f, g)
    assert bp.add(bp.mul(q, g), r) == f


# gcd

def test_gcd_oracles():
    assert bp.gcd(bp.parse("x^2*y"), bp.parse("x*y^2")) == bp.parse("x*y")
    assert bp.total_degree(bp.gcd(bp.parse("x"), bp.parse("y"))) == 0
    f = bp.parse("(x + y)*(x - y)")
    g = bp.parse("(x + y)*(x + 1)")
    got = bp.gcd(f, g)
    assert got == bp.normalize(bp.parse("x + y"))
    assert bp.gcd({}, f) == bp.normalize(f)


@given(bipolys(3), bipolys(3), bipolys(3))
@settings(max_examples=60, deadline=None)
def test_gcd_recovers_common_factor(a, b, c):
    if bp.is_zero(c) or bp.is_const(c):
        return
    if bp.is_zero(a) and bp.is_zero(b):
        return
    g = bp.gcd(bp.mul(a, c), bp.mul(b, c))
    assert bp.divides(bp.normalize(c), g)


# The content-plus-subresultant-PRS route that decided every gcd before the
# modular coprimality proof, and still decides every pair the proof leaves
# open: the oracle for the proof.
prs_gcd = bp._gcd_prs


@given(bipolys(4), bipolys(4), bipolys(3))
@settings(max_examples=200, deadline=None)
def test_gcd_matches_prs_oracle(a, b, c):
    # c is a planted common factor when nonconstant, and a scale otherwise
    f, g = bp.mul(a, c), bp.mul(b, c)
    if bp.is_zero(f) or bp.is_zero(g):
        return
    assert bp.gcd(f, g) == prs_gcd(f, g)


P61 = 2**61 - 1


@pytest.mark.parametrize("f,g,want", [
    # homogeneous leading forms: the images share the root y = 0 at x = 0
    ("3*x + 2*y", "x - 5*y", "1"),
    ("(3*x + 2*y)*(x - y + 1)", "(x - 5*y)*(x + y)", "1"),
    # lc_y = x(x - 1) vanishes at t = 0 and t = 1
    ("x*(x - 1)*y^2 + y + x", "x*(x - 1)*y + 2", "1"),
    ("(x*(x - 1)*y + 1)*(y + x)", "(x*(x - 1)*y + 1)*(y - 3)", "x^2*y - x*y + 1"),
    # both images vanish at x = 0, where neither lc_y is checked nonzero
    ("(x*y + 1)*y", "(x*y + 1)*(y + 1)", "x*y + 1"),
    # a leading coefficient that is 0 mod 2^61 - 1, in one or both operands
    (f"{P61}*y + x", "y", "1"),
    (f"{P61}*y + x", f"{P61}*y^2 + x + 1", "1"),
    (f"{P61}*x*y + 1", f"{P61}*x*y + 1", f"{P61}*x*y + 1"),
    # x-free and y-free operands
    ("y^2 + 1", "x^3 - 2", "1"),
    ("x^2 - 1", "(x - 1)*y", "x - 1"),
    ("y^2 - 4", "(y + 2)*x^3", "y + 2"),
    ("3", "x + y", "1"),
    # y-free and x-free common factors
    ("(x - 1)*y", "(x - 1)*(y + 1)", "x - 1"),
    ("(y + 2)*x", "(y + 2)*(x + 3)", "y + 2"),
    # a common factor of positive degree in both variables
    ("(x + y)*(x - 1)", "(x + y)*(y + 2)", "x + y"),
    ("1/2*(x + y)^2*(x - 1/3)", "(x + y)*(y - x^2)", "x + y"),
    # monomial content, split off before any image is taken
    ("x^2", "2*x", "x"),
    ("x*y", "y", "y"),
    ("x^2*y + x*y^2", "2*x*y + y^2", "y"),
    ("-x^3*y", "x*y^2", "x*y"),
    ("3", "x^2*y", "1"),
])
def test_gcd_fixed_cases(f, g, want):
    f, g = bp.parse(f), bp.parse(g)
    assert bp.gcd(f, g) == prs_gcd(f, g) == bp.parse(want)
    assert bp.gcd(g, f) == bp.parse(want)


def test_coprime_images_start_from_the_free_terms(monkeypatch):
    # the image at t = 0 is read off the terms free of the variable set to
    # t: at x = 0 for the first direction, at y = 0 for the swapped one
    seen = []
    kernel = bp._gcd_degree_mod_p

    def recording(a, b):
        seen.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(bp, "_gcd_degree_mod_p", recording)
    assert bp.gcd(bp.parse("3*x + 2*y + 1"), bp.parse("x - 5*y + 7")) == bp.ONE
    assert seen == [([2, 1], [P61 - 5, 7]), ([3, 1], [1, 7])]
    seen.clear()
    f, g = bp.parse("x*y^2 + 4*y^2 + x + 2*y + 3"), bp.parse("y^2 + x*y - 5")
    assert bp.gcd(f, g) == bp.ONE
    assert seen == [([4, 2, 3], [1, 0, P61 - 5]), ([1, 3], [0, P61 - 5])]


single_terms = st.builds(lambda e, c: {e: c}, exps, rats.filter(bool))


@given(st.one_of(bipolys(4), single_terms), st.one_of(bipolys(4), single_terms),
       bipolys(3), exps, exps, st.sampled_from([1, -1, Fraction(-2, 3), Fraction(5, 7)]))
@settings(max_examples=300, deadline=None)
def test_gcd_splits_monomial_content(a, b, c, m, n, s):
    # planted monomial content x^m and x^n beside a planted common factor
    # c: the gcd is a multiple of x^min(m, n), with Fraction coefficients,
    # single-term operands and negative leading terms (s < 0 flips one)
    # included, in both argument orders
    f = bp.mul({m: 1}, bp.mul(a, c))
    g = bp.scalar_mul(s, bp.mul({n: 1}, bp.mul(b, c)))
    if bp.is_zero(f) or bp.is_zero(g):
        return
    want = prs_gcd(f, g)
    assert bp.gcd(f, g) == bp.gcd(g, f) == want
    assert bp.divides({(min(m[0], n[0]), min(m[1], n[1])): 1}, want)


# The heuristic gcd on the Kronecker image decides the pairs the modular
# proof leaves open, before the PRS; every answer it gives must be the
# PRS's, and a None hands the pair on to the PRS.

def _factors(keys, coeffs, max_terms):
    return st.dictionaries(keys, coeffs, min_size=1, max_size=max_terms).map(
        lambda d: {e: Fraction(c) for e, c in d.items() if c})


pos = st.integers(min_value=1, max_value=3)
planted_factors = st.one_of(
    _factors(st.tuples(pos, pos), rats, 3),  # positive degree in x and in y
    _factors(exps, rats, 4),  # mixed degrees, constants included
    _factors(st.tuples(pos, st.just(0)), rats, 3),  # y-free
    _factors(st.tuples(st.just(0), pos), rats, 3),  # x-free
    _factors(exps, rats, 1),  # a single term
    _factors(exps, st.integers(min_value=-10**60, max_value=10**60), 3),  # 60 digits
)


@given(bipolys(4), bipolys(4), planted_factors)
@settings(max_examples=300, deadline=None)
def test_gcd_heuristic_matches_prs_oracle(a, b, c):
    f, g = bp.mul(a, c), bp.mul(b, c)
    if bp.is_zero(f) or bp.is_zero(g):
        return
    want = prs_gcd(f, g)
    for p, q in ((f, g), (g, f)):
        got = bp._gcd_heuristic(p, q)
        assert got is None or got == want
        assert bp.gcd(p, q) == want


@pytest.mark.parametrize("f,g,want,decided", [
    # F has coefficients 2^40 times G's: packed at a base sized from G
    # alone, y + 1 would pass as a divisor of F
    ("(257*2^32*x + y + 1)", "y + 1", "1", True),
    ("(257*2^32*x + y + 1)*(x - y + 3)", "(y + 1)*(x - y + 3)", "x - y + 3", True),
    ("2^40*x*y + 3*x - 5", "(x*y + 1)*(x - 2)", "1", True),
    # y - 1 divides the image of x - y^2 at every base, with quotient
    # y^2: the product y^3 - y^2 would wrap into x
    ("x - y^2", "y - 1", "1", False),
    ("(x - y^2)*(x + y + 2)", "(y - 1)*(x + y + 2)", "x + y + 2", False),
    ("(x*y - y^3)*(2*x - y)", "(y^2 - y)*(2*x - y)", "2*x*y - y^2", False),
    # analyze's confirmation pairs H + c0 and G on problems/three_lines.json
    # and problems/twin_parabolas.json
    ("x^3*y + 2*x^2*y^2 + x*y^3", "x + y", "x + y", True),
    ("-x^6 - x^4*y + x^2*y^2 + y^3", "x^2 + y", "x^2 + y", True),
])
def test_gcd_heuristic_fixed_cases(f, g, want, decided):
    f, g, want = bp.parse(f), bp.parse(g), bp.parse(want)
    assert prs_gcd(f, g) == want
    for p, q in ((f, g), (g, f)):
        got = bp._gcd_heuristic(p, q)
        assert (got is not None) == decided
        assert got is None or got == want
        assert bp.gcd(p, q) == want


def test_analyze_makes_one_gcd(monkeypatch):
    # the only bivariate gcd in analyze is the constructed field's common
    # factor; its critical values need no confirming gcd(H + c0, G)
    # (proof in the remarkable module docstring)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "problems")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    rng = random.Random("confirmation")
    integrals = ([cli.load_problem(p).integral for p in paths]
                 + [random_line_family(rng, max_p=4) for _ in range(6)])
    calls = []
    inner = bp.gcd

    def counting(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(bp, "gcd", counting)
    values = 0
    for F in integrals:
        calls.clear()
        values += remarkable.analyze(F).s
        assert calls == [(F.field.P, F.field.Q)], str(F)
    assert values >= 8  # each one confirmed by a gcd of its own, once


# resultants

def test_resultant_oracles():
    # classic elimination: common root structure of two parabolas
    r = bp.resultant(bp.parse("y - x^2"), bp.parse("y + x^2"))
    assert r == bp.parse("2*x^2")
    # no common factor in y: nonzero resultant
    assert not bp.is_zero(bp.resultant(bp.parse("x*y + 1"), bp.parse("y")))
    # shared factor forces identically zero resultant
    f = bp.parse("(y - x)*(y + x)")
    g = bp.parse("(y - x)*(y + 1)")
    assert bp.is_zero(bp.resultant(f, g))


def test_resultant_var_x():
    # Res_x by swapping the variables around Res_y
    f, g = bp.swap_vars(bp.parse("x - y^2")), bp.swap_vars(bp.parse("x + y^2"))
    assert bp.swap_vars(bp.resultant(f, g)) == bp.parse("2*y^2")


@given(bipolys(3), bipolys(3), bipolys(2))
@settings(max_examples=40, deadline=None)
def test_resultant_vanishes_iff_common_y_factor(a, b, c):
    if bp.deg_y(c) < 1 or bp.deg_y(a) < 1 or bp.deg_y(b) < 1:
        return
    r = bp.resultant(bp.mul(a, c), bp.mul(b, c))
    assert bp.is_zero(r)


def test_sylvester_convention():
    # degree bookkeeping: res_y of polynomials with y-degrees 2 and 1
    f = bp.parse("y^2 - x")
    g = bp.parse("y - 1")
    # resultant = f evaluated at the root y = 1 (up to the stated convention)
    assert bp.resultant(f, g) == bp.parse("1 - x")


def _with_y_degree(rng, dy, dx=2):
    """Random polynomial of y-degree exactly dy and x-degree at most dx,
    rational coefficients on a random support."""
    while True:
        f = {(i, j): random_rat(rng, 6) for i in range(dx + 1) for j in range(dy + 1)
             if j == dy or rng.random() < 0.6}
        f = {e: c for e, c in f.items() if c}
        if bp.deg_y(f) == dy:
            return f


def _resultant_pairs(n):
    """n seeded pairs (kind, f, g), cycling through four kinds: y-degrees
    1 and 3 in either order (both odd, so the order flips the sign), a
    planted common factor of positive y-degree, a degree-1 operand, and
    y-degrees in 1..3 drawn freely."""
    rng = random.Random(8088)
    out = []
    for k in range(n):
        kind = ("odd-swap", "planted", "linear", "free")[k % 4]
        if kind == "odd-swap":
            f, g = _with_y_degree(rng, 1), _with_y_degree(rng, 3)
            if k % 8 == 4:
                f, g = g, f
        elif kind == "planted":
            c = _with_y_degree(rng, rng.randint(1, 2), dx=1)
            f = bp.mul(_with_y_degree(rng, rng.randint(0, 1), dx=1), c)
            g = bp.mul(_with_y_degree(rng, rng.randint(0, 1), dx=1), c)
        elif kind == "linear":
            f, g = _with_y_degree(rng, 1), _with_y_degree(rng, rng.randint(1, 3))
        else:
            f, g = _with_y_degree(rng, rng.randint(1, 3)), _with_y_degree(rng, rng.randint(1, 3))
        out.append((kind, f, g))
    return out


def test_resultant_matches_bareiss_on_sylvester():
    pairs = _resultant_pairs(320)
    for kind, f, g in pairs:
        want = bp.det_bareiss(sylvester_y(f, g))
        assert bp.resultant(f, g) == want, (kind, bp.to_string(f), bp.to_string(g))
        if kind == "planted":
            assert want == {}
    # the sign flip is exercised: swapping odd-degree operands negates
    _, f, g = pairs[0]
    assert bp.resultant(g, f) == bp.neg(bp.resultant(f, g)) != {}


# squarefree and leading form

def test_is_squarefree():
    assert bp.is_squarefree(bp.parse("x*y"))
    assert bp.is_squarefree(bp.parse("y - x^2"))
    assert not bp.is_squarefree(bp.parse("x^2*y"))
    assert not bp.is_squarefree(bp.parse("(x + y)^2"))
    assert not bp.is_squarefree(bp.parse("(y - x^2)*(y - x^2)"))


def test_leading_form():
    f = bp.parse("y + x^2 + 3*x*y")
    # top total degree is 2: x^2 + 3xy
    assert bp.leading_form(f) == bp.parse("x^2 + 3*x*y")


def test_normalize_primitive():
    f = bp.parse("2*x + 4*y")
    n = bp.normalize(f)
    assert n == bp.parse("x + 2*y")
    assert bp.normalize(bp.parse("-3*x")) in (bp.parse("x"), bp.parse("-x"))


# CheckResult discipline

def test_check_result_invariants():
    with pytest.raises(ValueError):
        bp.CheckResult("Fails")          # no witness
    with pytest.raises(ValueError):
        bp.CheckResult("Inconclusive")   # no reason
    with pytest.raises(ValueError):
        bp.CheckResult("Maybe")
    assert bp.holds("fine").ok
    assert not bp.fails("w", "r").ok
    assert bp.inconclusive("because").status == "Inconclusive"


# coefficient representation: int or Fraction, never float

ints = st.integers(min_value=-9, max_value=9)


def int_bipolys(max_terms=5):
    return st.dictionaries(exps, ints, max_size=max_terms).map(
        lambda d: {e: c for e, c in d.items() if c})


def _typed(f):
    """f, after checking that every coefficient is an int or a Fraction."""
    assert all(type(c) in (int, Fraction) for c in f.values()), f
    return f


def _all_int(f):
    return all(type(c) is int for c in f.values())


@given(st.one_of(int_bipolys(), bipolys()), st.one_of(int_bipolys(), bipolys()),
       st.one_of(ints, rats))
@settings(max_examples=150, deadline=None)
def test_coefficients_are_int_or_fraction(f, g, c):
    integral = _all_int(f) and _all_int(g)
    parsed = _typed(bp.parse(bp.to_string(f)))
    prod = _typed(bp.mul(f, g))
    for h in (bp.add(f, g), bp.sub(f, g), bp.scalar_mul(c, f), bp.power(f, 3),
              bp.partial(f, "x"), bp.partial(f, "y")):
        _typed(h)
    if integral:
        assert _all_int(parsed) and _all_int(prod)
    if f:
        assert _all_int(_typed(bp.normalize(f)))
    if g:
        q, r = bp.divmod_lt(f, g)
        _typed(q)
        _typed(r)
        assert bp.add(bp.mul(q, g), r) == f
        assert _typed(bp.exact_div(prod, g)) == f
    if f or g:
        assert _all_int(_typed(bp.gcd(f, g)))
    if bp.deg_y(f) >= 1 and bp.deg_y(g) >= 1:
        _typed(bp.resultant(f, g))
    if bp.total_degree(f) >= 1:
        # (f_y, -f_x) is divergence-free, so it has a potential
        _typed(is_hamiltonian(VectorField(bp.partial(f, "y"), bp.neg(bp.partial(f, "x")))))


def test_integer_results_are_ints():
    f = bp.parse("(3*x - 2*y + 1)^3 - 4/2*x")
    assert _all_int(f) and f[(1, 0)] == 9 - 2
    assert _all_int(bp.mul(f, bp.parse("x*y - 5")))
    # a product of operands with denominators may keep integer-valued Fractions
    assert bp.mul(bp.parse("1/2*x + 1/3"), bp.parse("6*x - 12")) == bp.parse("3*x^2 - 4*x - 4")
    assert bp.normalize(bp.parse("-1/2*x + 1/3*y")) == {(1, 0): 3, (0, 1): -2}
    assert _all_int(bp.normalize(bp.parse("-1/2*x + 1/3*y")))
    assert all(type(c) is int for c in (*bp.ONE.values(), *bp.X.values(), *bp.Y.values()))
    assert bp.const(Fraction(4, 2)) == {(0, 0): 2} and _all_int(bp.const(Fraction(4, 2)))
    assert bp.const(0.5) == {(0, 0): Fraction(1, 2)}  # a float is converted exactly
    assert type(bp.scalar_mul(2.0, bp.X)[(1, 0)]) is int


def test_true_divisions_keep_fractions():
    # the two division sites an int pair can reach: they must not floor
    # or give a float
    q, r = bp.divmod_lt(bp.parse("x + 1"), bp.parse("2*x + 1"))
    assert q == {(0, 0): Fraction(1, 2)} and type(q[(0, 0)]) is Fraction
    assert r == {(0, 0): Fraction(1, 2)}
    H = is_hamiltonian(VectorField(bp.parse("y"), {}))
    assert H == {(0, 2): Fraction(1, 2)} and type(H[(0, 2)]) is Fraction
    assert bp.exact_div(bp.parse("4*x^2 - 2"), bp.parse("2*x^2 - 1")) == {(0, 0): 2}


def test_rational_witness_renders_as_a_point():
    # three lines through (1/2, 3)
    r = variety_empty([bp.parse("2*x - 1"), bp.parse("y - 3"), bp.parse("2*x + 2*y - 7")])
    assert r.status == "Fails" and r.witness == (Fraction(1, 2), Fraction(3))
    assert all(type(c) is Fraction for c in r.witness)
    assert cli._wit(r.witness) == {"x": "1/2", "y": "3"}
