"""Bivariate polynomial ring: parser, arithmetic, gcd, resultants."""

import functools
import glob
import inspect
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysaddle import bipoly as bp
from polysaddle import cli, modp, remarkable
from polysaddle.field_ops import VectorField, is_hamiltonian
from polysaddle.variety import variety_empty

from conftest import (evaluate, gcd_many, prs_gcd, random_line_family, random_rat,
                      reference_parse, sylvester_y)

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


def _parse_outcome(parse, src):
    """The terms of parse(src) in insertion order, or its ParseError text."""
    try:
        return list(parse(src).items())
    except bp.ParseError as e:
        return str(e)


# grammar fragments, white space, a superscript and an Arabic-Indic digit,
# stray letters, and pieces that reach the degree budget
_FRAGMENTS = [*"0123456789xy+-*/^()", " ", "\t", "²", "٣", "a", "z", "é",
              "12", "200", "x^", "^99", "^100", "^101", " * ", "/ 0"]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map("".join))
@settings(max_examples=1000, deadline=None)
def test_parse_matches_reference_parser(src):
    assert _parse_outcome(bp.parse, src) == _parse_outcome(reference_parse, src)


_CONSTANTS = {"ZERO": {}, "ONE": {(0, 0): 1}, "X": {(1, 0): 1}, "Y": {(0, 1): 1}}


def _parse_in_place_outcome(src):
    """_parse_outcome of bp.parse, after which the module's shared
    constants must hold their values: the parser sums into a dict of its
    own, and power(b, 0) returns ONE itself."""
    got = _parse_outcome(bp.parse, src)
    assert {name: getattr(bp, name) for name in _CONSTANTS} == _CONSTANTS, src
    return got


def _valid_expressions():
    """Expressions of the grammar, built from the inside out: naturals,
    rationals and variables; sums, differences, sums that cancel, unary
    minus, products; ^0 and ^1 of anything, powers of monomials up to the
    degree budget, and small powers of parenthesized sums."""
    rational = st.tuples(st.integers(0, 99), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")
    monomial = st.tuples(st.integers(0, 120), st.integers(0, 80)).map(
        lambda e: f"x^{e[0]}*y^{e[1]}")
    atoms = st.one_of(st.sampled_from(["x", "y", "0", "1", "2"]), st.integers(0, 10**6).map(str),
                      rational, monomial)

    def grow(inner):
        paren = inner.map(lambda s: f"({s})")
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "+", "-"]), inner).map("".join),
            inner.map(lambda s: f"{s} - ({s})"),
            inner.map(lambda s: f"-{s}"),
            st.tuples(inner, st.sampled_from(["*", " * "]), inner).map("".join),
            st.tuples(st.one_of(paren, st.sampled_from(["x", "y", "2", "1/3"])),
                      st.sampled_from(["0", "1", "2", "3"])).map("^".join),
            st.tuples(st.sampled_from(["x", "y", "3/2*x*y", "-x"]), st.integers(0, 200)).map(
                lambda t: f"({t[0]})^{t[1]}"),
            paren)
    return st.recursive(atoms, grow, max_leaves=8)


@given(_valid_expressions())
@settings(max_examples=500, deadline=None)
def test_parse_of_valid_expressions_matches_reference_parser(src):
    assert _parse_in_place_outcome(src) == _parse_outcome(reference_parse, src)


@pytest.mark.parametrize("src", ["(x + 1)^0 + y", "((x + 1)^0) - y", "x^0 + y", "(x)^1 + 1",
                                 "(2*x)^3 + x^3", "(x - x)^0 + x"])
def test_parse_leaves_shared_constants_alone(src):
    # a sum that started from the dict its first term returned would add
    # into bp.ONE, which power(b, 0) returns: "(x + 1)^0 + y" made it 1 + y
    assert _parse_in_place_outcome(src) == _parse_outcome(reference_parse, src)


@pytest.mark.parametrize("src, want", [
    # the column just after the operator, white space included
    ("x * y^200", "product exceeds the total-degree budget of 200 (column 4)"),
    ("3/ 0", "zero denominator (column 3)"),
    # only the first character of a run of digits is named
    ("x200", "unexpected character '2' (column 2)"),
])
def test_parse_error_columns(src, want):
    assert _parse_outcome(bp.parse, src) == _parse_outcome(reference_parse, src) == want


@pytest.mark.parametrize("src, column", [
    ("1" * 5001 + "*x + y", 1), ("x^" + "1" * 5001, 3), ("x + 2/" + "1" * 5001, 7)])
def test_parse_refuses_numbers_past_the_int_string_limit(src, column):
    # int() raised ValueError on these, which escaped the parser
    limit = sys.get_int_max_str_digits()
    with pytest.raises(bp.ParseError) as e:
        bp.parse(src)
    assert str(e.value) == f"number longer than {limit} digits (column {column})"
    assert bp.parse("1" * limit) == {(0, 0): int("1" * limit)}


def test_parse_keeps_integer_valued_fractions():
    # Fraction arithmetic leaves Fraction(1, 1), as mul does; the
    # primitivity test must count it as an integer, which
    # test_factored_integral_rejects_bad_input checks on this input
    got = _parse_outcome(bp.parse, "(1/2*x + 1)*2")
    assert got == _parse_outcome(reference_parse, "(1/2*x + 1)*2") == [((1, 0), 1), ((0, 0), 2)]
    assert type(got[0][1]) is Fraction


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
wide_coeffs = st.one_of(wide_rats, st.integers(min_value=-10**30, max_value=10**30))
wide_exps = st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))


# bp._SCHOOLBOOK_PAIRS as the module sets it, then at 0, which packs every
# product of two multi-term operands whose packed span allows it, and at
# 10**9, which sends every product through the loop
@pytest.mark.parametrize("pairs", [bp._SCHOOLBOOK_PAIRS, 0, 10**9],
                         ids=["cutoff", "packed", "loop"])
@given(st.dictionaries(wide_exps, wide_coeffs, max_size=12),
       st.dictionaries(wide_exps, wide_coeffs, max_size=12))
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook(pairs, f, g):
    f = {e: c for e, c in f.items() if c}
    g = {e: c for e, c in g.items() if c}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bp, "_SCHOOLBOOK_PAIRS", pairs)
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
    assert evaluate(f, Fraction(2), Fraction(1, 4)) == Fraction(-2)


# division

def test_exact_div_and_witness():
    f = bp.parse("x^2 - y^2")
    g = bp.parse("x - y")
    assert bp.exact_div(f, g) == bp.parse("x + y")
    with pytest.raises(bp.ExactDivisionError) as ei:
        bp.exact_div(bp.parse("x^2 + 1"), g)
    assert not bp.is_zero(ei.value.remainder)
    assert str(ei.value) == "not divisible; remainder y^2 + 1"
    with pytest.raises(ZeroDivisionError):
        bp.exact_div(f, {})
    # the message is formatted only when shown, so a remainder past
    # Python's 4300-digit int-to-str limit still raises ExactDivisionError
    with pytest.raises(bp.ExactDivisionError) as ei:
        bp.exact_div({(0, 0): 10**5000 + 1}, {(1, 0): 1})
    assert ei.value.remainder == {(0, 0): 10**5000 + 1}


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


# prs_gcd, the content-plus-subresultant-PRS route that decided every gcd
# before the modular routes, is the oracle for both of them.

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
    # 2^61 - 1 divides the integer content of one operand or of both, so
    # every image of that operand mod 2^61 - 1 is 0
    (f"{P61}*(x + 2*y + 1)", "x - y + 3", "1"),
    (f"{P61}*(x + 2*y + 1)", f"{P61}*(x - y + 3)", "1"),
    (f"{P61}*(x + y + 1)", "y^2 + x + 2", "1"),
    (f"{P61}*(x + y)*(x - 1)", "(x + y)*(y + 2)", "x + y"),
    (f"{P61}*(x + y)*(x - 1)", f"{P61}*(x + y)*(y + 2)", "x + y"),
    (f"{P61}*(x + y + 1)", "(x + y + 1)*(y^2 + x + 2)", "x + y + 1"),
    # the curves meet on the lines x = 0, ..., 5: the images there share
    # a factor, and the first good point past them proves the pair coprime
    # (y alone is split off as monomial content first)
    ("y", "y - x*(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5)", "1"),
    ("y*(y + 1)", "(y - x*(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5))*(y + 1)", "y + 1"),
    ("y + 1", "y + 1 - x*(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5)", "1"),
])
def test_gcd_fixed_cases(f, g, want):
    f, g = bp.parse(f), bp.parse(g)
    assert bp.gcd(f, g) == prs_gcd(f, g) == bp.parse(want)
    assert bp.gcd(g, f) == bp.parse(want)


def test_coprime_images_start_from_the_free_terms(monkeypatch):
    # the image at t = 0 is read off the terms free of x
    seen = []
    kernel = modp.gcd

    def recording(a, b, p=P61):
        seen.append((a, b))
        return kernel(a, b, p)

    monkeypatch.setattr(modp, "gcd", recording)
    # the y-coefficient 2 is a nonzero constant, so the y-contents are 1
    # and the x = 0 image alone proves the lines coprime
    assert bp.gcd(bp.parse("3*x + 2*y + 1"), bp.parse("x - 5*y + 7")) == bp.ONE
    assert seen == [([2, 1], [P61 - 5, 7])]
    # no y-coefficient is constant: the gcd in Q[x] of the y-coefficients
    # follows, here by upoly.gcd's exit for degree 1, with no further image
    seen.clear()
    f, g = bp.parse("x*y^2 + 4*y^2 + 2*x*y + x + 3"), bp.parse("x*y^2 + x*y - 5*x + 2")
    assert bp.gcd(f, g) == bp.ONE
    assert seen == [([4, 0, 3], [0, 0, 2])]
    # with no constant term, both images at t = 0 are divisible by the
    # kept variable and prove nothing, so the first point is t = 1
    seen.clear()
    assert bp.gcd(bp.parse("3*x + 2*y"), bp.parse("x - 5*y")) == bp.ONE
    assert seen == [([2, 3], [P61 - 5, 1])]


def test_gcd_takes_each_image_once(monkeypatch):
    # the images that fail to prove the pair coprime are the modular gcd's
    # first interpolation points, and t only moves forward, across primes
    # too: no image (p, t) is taken twice in one call
    seen = []
    images = modp.images
    sig = inspect.signature(images)

    def recording(*args):
        call = sig.bind(*args)
        call.apply_defaults()
        seen.append((call.arguments["p"], call.arguments["t"]))
        return images(*args)

    monkeypatch.setattr(modp, "images", recording)
    for f, g, want in [("(x + y)*(x - 1)", "(x + y)*(y + 2)", "x + y"),
                       ("(x - y^2)*(x + y + 2)", "(y - 1)*(x + y + 2)", "x + y + 2")]:
        seen.clear()
        assert bp.gcd(bp.parse(f), bp.parse(g)) == bp.parse(want)
        assert len(seen) > 1 and len(set(seen)) == len(seen), seen


def test_gcd_keeps_a_prime_past_unlucky_points(monkeypatch):
    # y + 1 and y + 1 - x(x - 1)...(x - 5) agree at x = 0, ..., 5, so the
    # images there share y + 1 and each lift fails trial division; the
    # second prime leaves the lift unchanged, so it is kept and takes
    # further points until x = 6 proves the pair coprime
    primes = []
    images = modp.images

    def recording(polys, t, dx, p):
        primes.append(p)
        return images(polys, t, dx, p)

    monkeypatch.setattr(modp, "images", recording)
    f, g = bp.parse("y + 1"), bp.parse("y + 1 - x*(x - 1)*(x - 2)*(x - 3)*(x - 4)*(x - 5)")
    assert bp.gcd(f, g) == bp.ONE
    assert len(set(primes)) <= 2, primes


def test_gcd_free_of_y_runs_the_modular_gcd_once(monkeypatch):
    # two operands free of y go to upoly.gcd in x, whose modular gcd runs
    # once, on them as polynomials in y
    calls = []
    inner = bp._gcd_modular

    def counting(f, g):
        calls.append((f, g))
        return inner(f, g)

    monkeypatch.setattr(bp, "_gcd_modular", counting)
    for f, g, want in [("x^2 - 2", "x^2 + x + 1", "1"),
                       ("(x - 1)*(x + 2)", "(x - 1)*(2*x + 3)", "x - 1")]:
        calls.clear()
        f, g = bp.parse(f), bp.parse(g)
        assert bp.gcd(f, g) == bp.parse(want)
        assert calls == [(bp.swap_vars(f), bp.swap_vars(g))]


def test_primes_descend_from_the_mersenne_prime():
    # the modular gcd's primes: 2^61 - 1, then each next prime below
    assert [(1 << 61) - modp.prime(k) for k in range(6)] == [1, 31, 45, 229, 259, 283]


@pytest.mark.parametrize("f, g, want", [
    ("(x - 1)*(x + y)", "(x - 1)*(y - 2)", "x - 1"),
    ("(2*x + 3)*(x*y + 1)", "(2*x + 3)^2*(x*y - 1)", "2*x + 3"),
    # only g has a constant y-coefficient, 3: its y-content is 1, though
    # x - 1 divides both f's y-content and g's leading y-coefficient
    ("(x - 1)*(x + y)", "(x - 1)*y + 3", "1"),
])
def test_gcd_planted_x_only_factor(f, g, want):
    # a common factor in Q[x] passes the x = t images and is the gcd of
    # the y-contents; it is taken only when neither of those is 1, and
    # gcd(f, g) must agree with the PRS oracle either way
    f, g = bp.parse(f), bp.parse(g)
    assert bp.gcd(f, g) == bp.gcd(g, f) == prs_gcd(f, g) == bp.parse(want)


# x-only polynomials with a nonzero constant term, so that no monomial
# content is split off
x_only = st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=4).filter(
    lambda cs: cs[0] and cs[-1]).map(lambda cs: {(i, 0): c for i, c in enumerate(cs) if c})


@given(bipolys(3), bipolys(3), x_only, x_only)
@settings(max_examples=150, deadline=None)
def test_gcd_x_only_factor_without_unit_content(a, b, c, d):
    # every y-coefficient of f and g is a multiple of c, so neither has a
    # unit y-content: once an image proves that no common factor has
    # positive y-degree, the gcd is that of all their y-coefficients in
    # Q[x], the route that replaced a second run with x and y exchanged
    f, g = bp.mul(c, bp.mul(a, d)), bp.mul(c, b)
    if bp.is_zero(f) or bp.is_zero(g):
        return
    want = prs_gcd(f, g)
    assert bp.divides(bp.normalize(c), want)
    assert bp.gcd(f, g) == bp.gcd(g, f) == want


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


# The modular gcd decides every pair, most often at its first image; it
# is called here directly too, with the monomial split bypassed, and must
# give the PRS oracle's gcd.

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
    # lc_y = x^2 - x vanishes at the first points t = 0 and t = 1
    _factors(st.tuples(pos, st.integers(min_value=0, max_value=1)), rats, 3).map(
        lambda d: bp.add(d, {(2, 2): 1, (1, 2): -1})),
)


@given(bipolys(4), bipolys(4), planted_factors)
@settings(max_examples=300, deadline=None)
def test_gcd_modular_matches_prs_oracle(a, b, c):
    f, g = bp.mul(a, c), bp.mul(b, c)
    if bp.is_zero(f) or bp.is_zero(g):
        return
    want = prs_gcd(f, g)
    for p, q in ((f, g), (g, f)):
        if not (bp.is_const(p) or bp.is_const(q)):
            assert bp._gcd_modular(p, q) == want
        assert bp.gcd(p, q) == want


@pytest.mark.parametrize("f,g,want", [
    # F has coefficients 2^40 times G's: a base or modulus sized from G
    # alone would pass y + 1 as a divisor of F
    ("(257*2^32*x + y + 1)", "y + 1", "1"),
    ("(257*2^32*x + y + 1)*(x - y + 3)", "(y + 1)*(x - y + 3)", "x - y + 3"),
    ("2^40*x*y + 3*x - 5", "(x*y + 1)*(x - 2)", "1"),
    # pairs the heuristic gcd on Kronecker images never decided: y - 1
    # divides the image of x - y^2 at every base, with quotient y^2
    ("x - y^2", "y - 1", "1"),
    ("(x - y^2)*(x + y + 2)", "(y - 1)*(x + y + 2)", "x + y + 2"),
    ("(x*y - y^3)*(2*x - y)", "(y^2 - y)*(2*x - y)", "2*x*y - y^2"),
    # a common factor beside monomial content
    ("x^3*y + 2*x^2*y^2 + x*y^3", "x + y", "x + y"),
    ("-x^6 - x^4*y + x^2*y^2 + y^3", "x^2 + y", "x^2 + y"),
    # 2^61 - 1 divides lc_y of both: every point is bad at that prime,
    # which is dropped, not looped on
    (f"{P61}*x*y + 1", f"{P61}*x*y + 1", f"{P61}*x*y + 1"),
    # with the monomial split bypassed, every image at t = 0 would have
    # the extra root y = 0, and so would x*y^2's lc_y = x: with no
    # constant term in either operand, the points start at t = 1
    ("y^2", "x*y + y^2", "y"),
    ("x*y^2", "x^2*y + x*y^2", "x*y"),
    # the first prime alone cannot lift 2^70 + 1, and the second,
    # 2^61 - 31, divides the cofactor's x-coefficient, so at every point
    # its images share the extra factor y + 1: it is dropped, not waited on
    ("(x + (2^70 + 1)*y + 3)*(y + 1 + (2^61 - 31)*x)", "(x + (2^70 + 1)*y + 3)*(y + 1)",
     "x + (2^70 + 1)*y + 3"),
])
def test_gcd_modular_fixed_cases(f, g, want):
    f, g, want = bp.parse(f), bp.parse(g), bp.parse(want)
    assert prs_gcd(f, g) == want
    for p, q in ((f, g), (g, f)):
        assert bp._gcd_modular(p, q) == want
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


def _with_y_degree(rng, dy, dx=2, coeff=None):
    """Random polynomial of y-degree exactly dy and x-degree at most dx,
    rational coefficients (or coeff(rng)'s) on a random support."""
    coeff = coeff or (lambda rng: random_rat(rng, 6))
    while True:
        f = {(i, j): coeff(rng) for i in range(dx + 1) for j in range(dy + 1)
             if j == dy or rng.random() < 0.6}
        f = {e: c for e, c in f.items() if c}
        if bp.deg_y(f) == dy:
            return f


def _wide_int(rng):
    return rng.randint(-2**100, 2**100)


def _resultant_pairs(n):
    """n seeded pairs (kind, f, g), cycling through seven kinds: y-degrees
    1 and 3 in either order (both odd, so the order flips the sign), a
    planted common factor of positive y-degree, a degree-1 operand,
    y-degrees in 1..3 drawn freely, and three with both y-degrees in 2..3,
    which the CRT lift takes: integer coefficients of about 100 bits, so
    that it needs at least 3 primes, Fractions with denominators, and an
    lc_y of f whose coefficients are all multiples of 2^61 - 1, so that
    the first prime is skipped."""
    rng = random.Random(8088)
    out = []
    for k in range(n):
        kind = ("odd-swap", "planted", "linear", "free", "wide", "fraction", "skip")[k % 7]
        if kind == "odd-swap":
            f, g = _with_y_degree(rng, 1), _with_y_degree(rng, 3)
            if k % 14 == 7:
                f, g = g, f
        elif kind == "planted":
            c = _with_y_degree(rng, rng.randint(1, 2), dx=1)
            f = bp.mul(_with_y_degree(rng, rng.randint(0, 1), dx=1), c)
            g = bp.mul(_with_y_degree(rng, rng.randint(0, 1), dx=1), c)
        elif kind == "linear":
            f, g = _with_y_degree(rng, 1), _with_y_degree(rng, rng.randint(1, 3))
        elif kind == "free":
            f, g = _with_y_degree(rng, rng.randint(1, 3)), _with_y_degree(rng, rng.randint(1, 3))
        elif kind == "wide":
            f, g = (_with_y_degree(rng, rng.randint(2, 3), coeff=_wide_int) for _ in "fg")
        else:
            f, g = _with_y_degree(rng, rng.randint(2, 3)), _with_y_degree(rng, rng.randint(2, 3))
            if kind == "fraction" and all(c.denominator == 1 for c in (*f.values(), *g.values())):
                f = bp.scalar_mul(Fraction(1, 7), f)
            if kind == "skip":
                d = bp.deg_y(f)
                f = {(i, j): c * P61 if j == d else c for (i, j), c in f.items()}
        out.append((kind, f, g))
    return out


def test_resultant_matches_bareiss_on_sylvester():
    pairs = _resultant_pairs(560)
    for kind, f, g in pairs:
        want = bp.det_bareiss(sylvester_y(f, g))
        got = _typed(bp.resultant(f, g))
        assert got == want, (kind, bp.to_string(f), bp.to_string(g))
        if kind == "planted":
            assert want == {}
        if min(bp.deg_y(f), bp.deg_y(g)) >= 2:  # the lift: an int where the value is one
            assert all(type(c) is int for c in got.values() if c.denominator == 1)
    # the sign flip is exercised: swapping odd-degree operands negates
    _, f, g = pairs[0]
    assert bp.resultant(g, f) == bp.neg(bp.resultant(f, g)) != {}


def _y_polys(m, dx, fraction):
    """Polynomials of y-degree exactly m and x-degree at most dx, integer
    or Fraction coefficients."""
    coeff = rats if fraction else st.integers(min_value=-6, max_value=6)
    rows = st.lists(st.lists(coeff, min_size=dx + 1, max_size=dx + 1),
                    min_size=m + 1, max_size=m + 1)
    return rows.map(lambda rows: {(i, j): c for j, row in enumerate(rows)
                                  for i, c in enumerate(row) if c}).filter(
        lambda f: bp.deg_y(f) == m)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_resultant_closed_form_matches_bareiss(m, dxf, dxg, swap, fraction, data):
    # an operand linear in y takes the closed form: f of y-degree m (odd or
    # even, 1 for two linear operands) against a linear g, in either order,
    # with x-free coefficients at x-degree 0
    f = data.draw(_y_polys(m, dxf, fraction))
    g = data.draw(_y_polys(1, dxg, fraction))
    if swap:
        f, g = g, f
    got = bp.resultant(f, g)
    want = bp.det_bareiss(sylvester_y(f, g))
    assert got == want and bp.to_string(got) == bp.to_string(want)


def test_resultant_routes(monkeypatch):
    # the closed form when an operand is linear in y, the CRT lift of
    # modp.resultant_image only when both y-degrees are at least 2: one
    # image for small coefficients, 7 for 100-bit ones (Hadamard's bound
    # is about 2^400), and an empty one at 2^61 - 1, skipped, when 2^61 - 1
    # divides an lc_y
    calls = []
    linear, image = bp._resultant_linear, modp.resultant_image

    def counting_linear(*args):
        calls.append("_resultant_linear")
        return linear(*args)

    def counting_image(f, g, p=P61):
        calls.append(p)
        return image(f, g, p)

    monkeypatch.setattr(bp, "_resultant_linear", counting_linear)
    monkeypatch.setattr(modp, "resultant_image", counting_image)
    wide = 2**100 + 277
    for f, g, route in [("y^3 - x", "x*y + 1", ["_resultant_linear"]),
                        ("x*y + 1", "y^2 - x", ["_resultant_linear"]),
                        ("2*y - x", "y + x", ["_resultant_linear"]),
                        ("y^2 - x", "y^2 + x*y + 1", [P61]),
                        (f"{wide}*y^2 - x", f"y^2 + {wide}*x*y + 1",
                         [modp.prime(k) for k in range(7)]),
                        (f"{P61}*x*y^2 - x", "y^2 + x*y + 1", [modp.prime(k) for k in range(4)])]:
        calls.clear()
        f, g = bp.parse(f), bp.parse(g)
        assert bp.resultant(f, g) == bp.det_bareiss(sylvester_y(f, g))
        assert calls == route


# squarefree and leading form

def test_squarefree_by_gradient_gcd():
    # in characteristic zero f has a repeated factor exactly when
    # gcd(f, f_x, f_y) is not constant
    def squarefree(s):
        f = bp.parse(s)
        return bp.is_const(gcd_many([f, bp.partial(f, "x"), bp.partial(f, "y")]))

    assert squarefree("x*y")
    assert squarefree("y - x^2")
    assert not squarefree("x^2*y")
    assert not squarefree("(x + y)^2")
    assert not squarefree("(y - x^2)*(y - x^2)")


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
    assert bp.holds("fine").status == "Holds"
    assert bp.fails("w", "r").status != "Holds"
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
    # three lines through (1/2, 3), and three through the integer point
    # (1, 3): upoly keeps int coefficients there, and the roots stay Fractions
    for lines, point in ((("2*x - 1", "y - 3", "2*x + 2*y - 7"), ("1/2", "3")),
                         (("x - 1", "y - 3", "x + y - 4"), ("1", "3"))):
        r = variety_empty([bp.parse(u) for u in lines])
        assert r.status == "Fails" and r.witness == tuple(Fraction(c) for c in point)
        assert all(type(c) is Fraction for c in r.witness)
        assert cli._wit(r.witness) == {"x": point[0], "y": point[1]}
