"""Coefficient arithmetic and polynomial ring laws; the determinants and
resultants of the test-side oracle that `implicitize` is checked against.

Resultant values are checked two ways: small frozen cases worked out by hand,
and a numeric cross-check against the root-product formula
res(p, q) = lc(p)^deg(q) * prod_i q(alpha_i) with alpha_i the roots of p.
Univariate polynomials are coefficient lists, constant first.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from resultant_oracle import bareiss_determinant, sylvester_matrix, sylvester_resultant

from shrubfield.poly_core import (
    Polynomial,
    format_rational,
    parse_point,
    parse_rational,
    rational_circle_point,
    rational_point,
)

V2 = ("x", "y")


def _poly_strategy(variables=V2, max_exp=3, max_terms=4):
    exps = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp) for _ in variables]
    )
    coeff = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: Polynomial(variables, d)
    )


polys = _poly_strategy()


# -- ring laws -----------------------------------------------------------


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(V2) == a
    assert a * Polynomial.constant(1, V2) == a


@given(polys)
def test_sub_and_neg(a):
    assert a - a == Polynomial.zero(V2)
    assert -(-a) == a


@given(polys, st.integers(min_value=0, max_value=4))
@settings(max_examples=30)
def test_pow_is_repeated_mul(a, n):
    expect = Polynomial.constant(1, V2)
    for _ in range(n):
        expect = expect * a
    assert a**n == expect


# -- evaluation ----------------------------------------------------------


@given(polys, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60)
def test_horner_matches_direct(p, xv, yv):
    direct = sum(
        c * xv**e[0] * yv**e[1] for e, c in p.terms.items()
    )
    assert p.evaluate((xv, yv)) == direct


def test_evaluate_exact_rational():
    p = Polynomial.from_text("1*x^2 + 2*x*y + 1*y^2 + -3*y", V2)
    assert p.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(-11, 36)


# -- calculus ------------------------------------------------------------


@given(polys, polys)
@settings(max_examples=40)
def test_diff_product_rule(a, b):
    left = (a * b).diff("x")
    right = a.diff("x") * b + a * b.diff("x")
    assert left == right


def test_diff_basic():
    p = Polynomial.from_text("3*x^4 + -2*x*y + 7", V2)
    assert p.diff("x") == Polynomial.from_text("12*x^3 + -2*y", V2)
    assert p.diff("y") == Polynomial.from_text("-2*x", V2)


# -- substitution: evaluate at polynomial arguments ------------------------


def test_substitute_affine():
    p = Polynomial.from_text("1*x^2 + 1*y^2", V2)
    u = Polynomial.from_text("1*x + 1", V2)
    v = Polynomial.from_text("1*y + -2", V2)
    q = p.evaluate((u, v))
    assert q == Polynomial.from_text("1*x^2 + 1*y^2 + 2*x + -4*y + 5", V2)


@given(polys, st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30)
def test_substitute_consistent_with_eval(p, xv, yv):
    shift = (
        Polynomial.from_text("1*x + 1", V2),
        Polynomial.from_text("1*y + -1", V2),
    )
    # a constant or zero p composes to a bare coefficient; adding the zero
    # polynomial makes every result a polynomial
    q = p.evaluate(shift) + Polynomial.zero(V2)
    assert isinstance(q, Polynomial)
    assert q.evaluate((xv, yv)) == p.evaluate((xv + 1, yv - 1))


# -- text form -----------------------------------------------------------


@given(polys)
def test_text_roundtrip(p):
    assert Polynomial.from_text(p.to_text(), V2) == p


def test_text_with_gaussian_and_fraction():
    # coefficients are integers and rationals; the former Gaussian "(re,im)"
    # form is refused
    p = Polynomial(V2, {(1, 0): -2, (0, 1): Fraction(3, 4), (0, 0): Fraction(-1, 2)})
    text = p.to_text()
    assert text == "-2*x + 3/4*y + -1/2"
    assert Polynomial.from_text(text, V2) == p
    assert Polynomial.from_text("4/2*x", V2).terms == {(1, 0): 2}
    with pytest.raises(ValueError):
        Polynomial.from_text("(0,2)*x", V2)


def test_text_term_order_is_graded_lex():
    p = Polynomial.from_text("1*y^3 + 1*x^2 + 1*x*y + 1", V2)
    assert p.to_text() == "1*y^3 + 1*x^2 + 1*x*y + 1"


# -- determinants --------------------------------------------------------


def test_bareiss_matches_numpy_on_random_int_matrices():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        exact = bareiss_determinant(m)
        approx = np.linalg.det(np.array(m, dtype=float))
        assert exact == round(approx), m


def test_bareiss_singular_and_pivot_swap():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0


def test_bareiss_rational_and_gaussian_entries():
    half = Fraction(1, 2)
    det = bareiss_determinant([[half, 1, 0], [0, half, 1], [1, 0, half]])
    assert det == Fraction(9, 8)
    # integer entries, as in every resultant the oracle takes, stay
    # integers through the exact divisions; the second needs a pivot swap
    det = bareiss_determinant([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    assert det == 9 and isinstance(det, int)
    assert bareiss_determinant([[0, 3, 1], [2, 1, 0], [1, 0, 5]]) == -31


# -- resultants ----------------------------------------------------------


def test_sylvester_shape():
    p = [1, 0, 1]
    q = [0, -1, 0, 1]
    m = sylvester_matrix(p, q)
    assert len(m) == 5 and all(len(r) == 5 for r in m)
    assert m[0][0] == 1 and m[0][2] == 1


def test_resultant_frozen_values():
    p = [1, 0, 1]
    q = [-1, 0, 1]
    assert sylvester_resultant(p, q) == 4

    # res(t - a, t - b) = a - b
    a = [-3, 1]
    b = [-5, 1]
    assert sylvester_resultant(a, b) == -2


def test_resultant_zero_iff_common_root():
    # p = (t - 3)(t - 1), q = (t - 3)(t + 2) share the root t = 3
    p = [3, -4, 1]
    q = [-6, -1, 1]
    assert sylvester_resultant(p, q) == 0
    # (t - 2)(t + 2) shares no root with p
    assert sylvester_resultant(p, [-4, 0, 1]) != 0


def test_resultant_matches_root_product():
    rng = random.Random(11)
    for _ in range(30):
        dp = rng.randint(2, 4)
        dq = rng.randint(2, 4)
        pc = [rng.randint(-5, 5) for _ in range(dp)] + [rng.randint(1, 5)]
        qc = [rng.randint(-5, 5) for _ in range(dq)] + [rng.randint(1, 5)]
        exact = sylvester_resultant(pc, qc)
        roots = np.roots(list(reversed(pc)))
        qv = np.polyval(list(reversed(qc)), roots)
        oracle = pc[-1] ** dq * np.prod(qv)
        assert abs(exact - oracle.real) <= 1e-6 * max(1.0, abs(exact))
        assert abs(oracle.imag) <= 1e-6 * max(1.0, abs(exact))


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(3)
    for _ in range(10):
        a = [rng.randint(-4, 4), rng.randint(1, 4)]
        b = [rng.randint(-4, 4), rng.randint(1, 3), rng.randint(1, 3)]
        q = [rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3)]
        ab = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                ab[i + j] += ca * cb
        assert sylvester_resultant(ab, q) == sylvester_resultant(
            a, q
        ) * sylvester_resultant(b, q)


# -- coefficient layer ----------------------------------------------------

@given(st.fractions(max_denominator=10**6))
def test_rational_text_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_text_forms():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational("7") == 7
    with pytest.raises(ValueError):
        parse_rational("1.5")


def test_point_roundtrip():
    pt = (Fraction(1, 3), Fraction(-2, 7))
    assert parse_point(rational_point(pt)) == pt


@given(st.fractions(max_denominator=1000))
def test_rational_circle_point_on_circle(t):
    x, y = rational_circle_point(t)
    assert x * x + y * y == 1
