"""Test-side oracle for `curves.implicitize`: the Sylvester resultant.

`implicitize(k)` builds the hypocycloid's polynomial from a closed form.
This module derives it a second way, sharing no code with the package:
the curve parameter is eliminated by a Sylvester resultant R(x, y), which is
evaluated by fraction-free (Bareiss) determinants at integer points and
recovered by exact Newton interpolation (G. E. Collins, JACM 18(4), 1971).

Univariate polynomials are coefficient lists, constant first, with a
nonzero last entry; bivariate ones are {(a, b): c} maps of x^a y^b.
"""
from fractions import Fraction


def _exact_quotient(a, b):
    """a / b where b divides a: an int for integers, else a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        assert r == 0, (a, b)
        return q
    return Fraction(a) / Fraction(b)


def bareiss_determinant(matrix):
    """Exact determinant by fraction-free elimination.

    Every interior division is exact over the entries' ring. Rows are
    swapped, with a sign flip, when a pivot vanishes; an unfillable pivot
    column means the determinant is zero.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for row in m[k + 1 :]:
            lead = row[k]
            if not lead and pivot == prev:
                continue  # the update would leave the row as it is
            row[k:] = [0] + [
                _exact_quotient(pivot * row[j] - lead * m[k][j], prev)
                for j in range(k + 1, size)
            ]
        prev = pivot
    return sign * m[-1][-1] if size else 1


def sylvester_matrix(p, q):
    """Sylvester matrix of p and q: p's rows first, descending powers."""
    m, n = len(p) - 1, len(q) - 1
    rows = [[0] * i + p[::-1] + [0] * (n - 1 - i) for i in range(n)]
    return rows + [[0] * i + q[::-1] + [0] * (m - 1 - i) for i in range(m)]


def sylvester_resultant(p, q):
    return bareiss_determinant(sylvester_matrix(p, q))


def _interpolate(nodes, values):
    """Coefficients, constant first, of the polynomial of degree below
    len(nodes) through (nodes[j], values[j]): Newton's divided differences,
    then the nested Newton form multiplied out, in Fractions."""
    diffs = [Fraction(v) for v in values]
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [diffs[-1]]
    for i in range(len(nodes) - 2, -1, -1):
        # coeffs <- coeffs * (t - nodes[i]) + diffs[i]
        shifted = [0] + coeffs
        coeffs = [s - nodes[i] * c for s, c in zip(shifted, coeffs + [0])]
        coeffs[0] += diffs[i]
    return coeffs


def _integer_coefficients(nodes, values):
    """The interpolated coefficients below the spare top one, which must
    vanish, as the degree bound is one below len(nodes) - 1; all must be
    integers."""
    coeffs = _interpolate(nodes, values)
    assert coeffs[-1] == 0 and all(c.denominator == 1 for c in coeffs), coeffs
    return [c.numerator for c in coeffs[:-1]]


def hypocycloid_resultant(k):
    """(real part, imaginary part) of R(x, y) for the k-cusped hypocycloid.

    Writing the curve through a unimodular complex parameter t and clearing
    denominators gives p(t), linear in x, and q(t), linear in y through the
    coefficient 2i y of t^n, n = k - 1. At y = i s that coefficient is -2s,
    so S(x, s) = R(x, i s) is an integer determinant at integer x and s.
    Both variables have degree at most 2n in R; S is sampled on 2n + 2
    nodes per axis, the bound plus a spare node. Its coefficients are
    d_ab = c_ab i^b, with c_ab those of R.
    """
    n = k - 1
    nodes = range(-n - 1, n + 1)

    def eliminant(x, s):
        p = [1] + [0] * (2 * n)
        p[n - 1], p[n], p[n + 1], p[2 * n] = n, -2 * x, n, 1
        q = [-1] + [0] * (2 * n)
        q[n - 1], q[n], q[n + 1], q[2 * n] = n, -2 * s, -n, 1
        return sylvester_resultant(p, q)

    # by_x[j][b]: coefficient of s^b in S(nodes[j], s)
    by_x = [
        _integer_coefficients(nodes, [eliminant(x, s) for s in nodes])
        for x in nodes
    ]
    real, imag = {}, {}
    for b in range(2 * n + 1):
        column = _integer_coefficients(nodes, [row[b] for row in by_x])
        # c_ab = d_ab i^(-b): real for even b, imaginary for odd b
        part = imag if b % 2 else real
        for a, d in enumerate(column):
            if d:
                part[(a, b)] = (1, -1, -1, 1)[b % 4] * d
    return real, imag


def square(terms):
    """The square of a bivariate {(a, b): c} polynomial."""
    out = {}
    for (a1, b1), c1 in terms.items():
        for (a2, b2), c2 in terms.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}
