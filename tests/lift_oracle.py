"""Test-side oracles for the composed leaf factors: the exact affine image
of a plane curve, and its stereographic lift expanded in the sphere
variables.

A leaf factor is evaluated unexpanded, as the homogenised canonical
polynomial under the inverse of its placement. These build the same
polynomial the long way, by substitution (`Polynomial.evaluate` at
polynomial arguments) and full expansion; no command or pipeline stage calls
them.
"""
from shrubfield.curves import PLANE_VARS, SPHERE_VARS, AffineMap
from shrubfield.poly_core import Polynomial


def apply_affine(poly: Polynomial, affine: AffineMap) -> Polynomial:
    """Implicit form of the image of a plane curve under an affine map.

    The zero set maps forward; the polynomial is composed with the inverse
    map and stays polynomial with rational coefficients.
    """
    if poly.variables != PLANE_VARS:
        raise ValueError("affine deformation applies to plane polynomials")
    inv = affine.inverse()
    (a, b), (c, d) = inv.matrix
    e, f = inv.offset
    x = Polynomial.variable("x", PLANE_VARS)
    y = Polynomial.variable("y", PLANE_VARS)
    # evaluate gives a bare coefficient for a constant, so add the zero
    image = poly.evaluate((a * x + b * y + e, c * x + d * y + f))
    return image + Polynomial.zero(PLANE_VARS)


def lift_to_sphere(p: Polynomial, n: int) -> Polynomial:
    """Clear a plane polynomial to the sphere through the stereographic chart.

    Returns Q(x,y,z) = (1-z)^n * p(x/(1-z), y/(1-z)) expanded as a polynomial;
    requires n >= deg p. On the sphere, Q vanishes exactly on the preimage of
    p's zero set together with the north pole (for n >= 1).
    """
    if p.variables != PLANE_VARS:
        raise ValueError("lift expects a plane polynomial in (x, y)")
    deg = p.total_degree()
    if n < deg:
        raise ValueError(f"clearing exponent {n} is below the degree {deg}")
    one_minus_z = Polynomial.from_text("1 + -1*z", SPHERE_VARS)
    x = Polynomial.variable("x", SPHERE_VARS)
    y = Polynomial.variable("y", SPHERE_VARS)
    out = Polynomial.zero(SPHERE_VARS)
    for (a, b), c in p.terms.items():
        term = Polynomial.constant(c, SPHERE_VARS)
        term = term * x**a * y**b * one_minus_z ** (n - a - b)
        out = out + term
    return out
