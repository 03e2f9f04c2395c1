"""Test-side exact oracle: the boundary function F at rational points.

The package evaluates F in floats only: a polynomial factor folds the exact
map (B, b) of `field_synth._kernel_map` into its compiled kernel. This
module evaluates F exactly from each factor's public data alone, and shares
no map code with that path:
- a hand-built factor (no placement): its polynomial at the point;
- a placed leaf: (1 - z)^n P(A^-1(x / (1 - z), y / (1 - z))), where P is
  `implicitize(k)` of degree n and A the factor's `placement`;
- an arc: a^2 + (sqrt(a^2 + b^2) + b)^2 with a = u.n - d and b = u.m - e,
  exact where the square root is rational.
"""
import math
from fractions import Fraction

from shrubfield.curves import implicitize


def rational_sqrt(q) -> Fraction:
    """The square root of a nonnegative rational; ValueError when it is
    irrational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num != q.numerator or den * den != q.denominator:
        raise ValueError(f"{q} has no rational square root")
    return Fraction(num, den)


def _placed_leaf(factor, point) -> Fraction:
    x, y, z = point
    plane = implicitize(factor.source["k"])
    w = 1 - z
    if w == 0:
        # on the unit sphere only the north pole has z = 1, and the lift of
        # a curve of positive degree vanishes there
        if x or y:
            raise ValueError(f"{point} is off the unit sphere")
        return Fraction(0)
    # A^-1 by Cramer's rule
    (a, b), (c, d) = factor.placement.matrix
    e, f = factor.placement.offset
    det = a * d - b * c
    px, py = x / w - e, y / w - f
    moved = ((d * px - b * py) / det, (a * py - c * px) / det)
    return w ** plane.total_degree() * plane.evaluate(moved)


def _arc(factor, point) -> Fraction:
    a = sum(c * v for c, v in zip(factor.n, point)) - factor.d
    b = sum(c * v for c, v in zip(factor.m, point)) - factor.e
    root = rational_sqrt(a * a + b * b)
    return a * a + (root + b) * (root + b)


def factor_value(factor, point) -> Fraction:
    """One factor's exact value at a rational point; ValueError where an
    arc's square root is irrational."""
    u = tuple(Fraction(c) for c in point)
    if factor.kind == "arc":
        return _arc(factor, u)
    if factor.placement is None:
        return Fraction(factor.poly.evaluate(u))
    return _placed_leaf(factor, u)


def exact_value(function, point) -> Fraction:
    """F at a rational point: the product of a `SphereFunction`'s factors
    (1 when there are none); ValueError where an arc's square root is
    irrational."""
    out = Fraction(1)
    for factor in function.factors:
        out *= factor_value(factor, point)
    return out
