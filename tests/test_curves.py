"""Curve layer tests: parametrization, implicitization, segments, arcs, lifts."""
import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import factor_value
from hypothesis import given, settings
from hypothesis import strategies as st
from lift_oracle import apply_affine, lift_to_sphere
from resultant_oracle import hypocycloid_resultant, square

from shrubfield import curves
from shrubfield.curves import (
    AffineMap,
    DomainError,
    SphereArcFunction,
    cusp_angles,
    cusps,
    implicit_metadata,
    implicitize,
    normalized_residuals,
    param_point,
    plane_to_sphere,
    sphere_arc,
    sphere_to_plane,
)
from shrubfield.poly_core import Polynomial

V2 = ("x", "y")
X = Polynomial.variable("x", V2)
Y = Polynomial.variable("y", V2)

IDENTITY = AffineMap(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
# zero on the lower meridian {y = 0, z <= 0}, analytic off its endpoints
# (+-1, 0, 0); the plane shadow of the zero set is the segment (-1, 1) x {0}
MERIDIAN = sphere_arc((1, 0, 0), (-1, 0, 0), (0, 0, -1))


def value(arc, u) -> float:
    """The arc function at one point, through its kernel."""
    return arc.value_and_gradient(*(float(c) for c in u))[0]


def gradient(arc, u) -> tuple:
    """The arc function's gradient at one point."""
    return arc.value_and_gradient(*(float(c) for c in u))[1:]


# -- parametric form ----------------------------------------------------------


def test_param_point_quarter_turn():
    x, y = param_point(4, math.pi / 4)
    assert x == pytest.approx(math.sqrt(2), abs=1e-14)
    assert y == pytest.approx(math.sqrt(2), abs=1e-14)


def test_param_point_at_zero_is_first_cusp():
    for k in range(3, 9):
        x, y = param_point(k, 0.0)
        assert (x, y) == (k, 0.0)


def test_cusps_on_circle_of_radius_k():
    for k in range(3, 9):
        pts = cusps(k)
        assert len(pts) == k
        for x, y in pts:
            assert math.hypot(x, y) == pytest.approx(k, abs=1e-12)
        # cusps are actual curve points at the cusp angles
        for a, (x, y) in zip(cusp_angles(k), pts):
            px, py = param_point(k, a)
            assert (px, py) == pytest.approx((x, y), abs=1e-12)


def test_even_k_cusps_come_in_opposed_pairs():
    for k in (4, 6, 8):
        pts = cusps(k)
        for j in range(k // 2):
            ox, oy = pts[j + k // 2]
            assert (-pts[j][0], -pts[j][1]) == pytest.approx((ox, oy), abs=1e-12)


def test_param_rejects_small_k():
    with pytest.raises(ValueError):
        param_point(2, 0.0)
    with pytest.raises(ValueError):
        cusps(1)


# -- implicitization -----------------------------------------------------------


def test_astroid_matches_classical_form_exactly():
    # Independent oracle: the classical degree-6 astroid polynomial scaled to
    # cusp radius 4. The resultant construction must reproduce its square up
    # to the integer content 4096 = 2^12, as an exact polynomial identity.
    classical = (X * X + Y * Y - 16) ** 3 + 432 * X * X * Y * Y
    f4 = implicitize(4)
    assert f4 == 4096 * classical * classical


def test_implicit_zero_at_cusp_and_nonzero_at_origin():
    f3 = implicitize(3)
    assert f3.evaluate((Fraction(3), Fraction(0))) == 0
    assert f3.evaluate((Fraction(0), Fraction(0))) != 0
    for k in range(3, 9):
        assert implicitize(k).evaluate((Fraction(0), Fraction(0))) != 0


def test_implicit_nonnegative_everywhere_sampled():
    f5 = implicitize(5)
    for i in range(-6, 7, 3):
        for j in range(-6, 7, 3):
            assert float(f5.evaluate((float(i), float(j)))) >= 0.0


def test_parametric_residual_small():
    for k in range(3, 9):
        f = implicitize(k)
        points = [param_point(k, 2 * math.pi * (i + 0.371) / 100) for i in range(100)]
        assert max(normalized_residuals(f, points)) < 1e-12


def test_gradient_vanishes_at_cusps():
    for k in range(3, 9):
        f = implicitize(k)
        gx, gy = f.diff("x"), f.diff("y")
        assert max(normalized_residuals(gx, cusps(k))) < 1e-8
        assert max(normalized_residuals(gy, cusps(k))) < 1e-8


def test_implicit_metadata_content_doubles_per_cusp():
    for k in range(3, 7):
        md = implicit_metadata(k)
        assert md["integer_content"] == 2 ** (4 * k - 4)
        assert md["degree"] == 4 * (k - 1)


def test_exact_grid_zero_classification_matches_classical():
    # Coarse exact-rational preview of the acceptance grid: same zero/nonzero
    # classification as the classical astroid form at every point.
    classical = (X * X + Y * Y - 16) ** 3 + 432 * X * X * Y * Y
    f4 = implicitize(4)
    for i in range(21):
        for j in range(21):
            p = (Fraction(-5) + Fraction(i, 2), Fraction(-5) + Fraction(j, 2))
            assert (f4.evaluate(p) == 0) == (classical.evaluate(p) == 0)


# sha256 of implicitize(k).to_text(), as computed by the earlier
# fraction-free determinant over Z[i][x, y]
IMPLICIT_TEXT_SHA256 = {
    3: "35807b5f33f964b474a144bb0adcee70fb4f2f151bfb9c4690b42135bac96184",
    4: "c15f6c7c2ec5b1ce6aebb4a2baf1910ca55727da1387f7c0610b8fc1073afb7b",
    5: "4946d2c73a20a9870b7c5c46d0ff30f87d8aff7797d26dc05b77e53a2e86d726",
    6: "56c5223dde29a17b37e09f5714d0a452568df91f66f96267c43ec3ac214857b6",
    7: "876d95f323c17b3306deb3420e43d82384e95e0ce45f6acf7a52bd7fd2608ff9",
    8: "35bbaa7a940db056328ac58dc42ac02dd28066481bf0cc39b830c9962bf37286",
    # taken from the Sylvester-resultant implicitization the closed form
    # replaced
    9: "9748de10ddfce752bf53d50c672cc1274f19c38fceb5d835d4fd3e8a95d4ac28",
    10: "646a6149326b88d0de2636bd2c8310f954b561ff8b2dd45fedb15f3b7efe675a",
    11: "ca6aaf4ce64a80f0f5db5a66b6423c52e87d6ce2fff0b34de0b7b3d9e7e6bf0d",
    12: "6b32f6fc84ea50c6880b3110195b56aa3917aa830656ea341c3d6db42b4be42c",
}


def test_implicitize_output_is_pinned():
    for k, digest in IMPLICIT_TEXT_SHA256.items():
        text = implicitize(k).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k


def test_implicit_metadata_is_pinned():
    assert implicit_metadata(3) == {
        "k": 3, "degree": 8, "terms": 24, "integer_content": 256,
        "resultant_degree": 4,
    }
    assert implicit_metadata(4) == {
        "k": 4, "degree": 12, "terms": 28, "integer_content": 4096,
        "resultant_degree": 6,
    }
    assert implicit_metadata(5) == {
        "k": 5, "degree": 16, "terms": 69, "integer_content": 65536,
        "resultant_degree": 8,
    }


@pytest.mark.parametrize("k", range(3, 9))
def test_implicitize_equals_the_resultant_oracle(k):
    real, imag = hypocycloid_resultant(k)
    assert not imag
    assert square(real) == implicitize(k).terms


def test_implicitize_12_is_fast(monkeypatch):
    # a leaf with 9 to 12 cusps is laid out with k = 12
    monkeypatch.setattr(curves, "_implicit_cache", {})
    start = time.perf_counter()
    implicitize(12)
    assert time.perf_counter() - start < 1.0


def test_implicitize_rejects_small_k():
    with pytest.raises(ValueError):
        implicitize(2)


# -- affine maps ---------------------------------------------------------------


def test_affine_inverse_roundtrip():
    m = AffineMap(
        ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(3))),
        (Fraction(1, 2), Fraction(-4)),
    )
    inv = m.inverse()
    for p in [(0, 0), (1, 0), (Fraction(3, 7), Fraction(-2, 5))]:
        q = m.apply((Fraction(p[0]), Fraction(p[1])))
        back = inv.apply(q)
        assert back == (Fraction(p[0]), Fraction(p[1]))


def test_singular_affine_rejected():
    m = AffineMap(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    with pytest.raises(ValueError):
        m.inverse()


def test_apply_affine_translation_moves_zero_set():
    f3 = implicitize(3)
    shift = AffineMap(IDENTITY.matrix, (Fraction(2), Fraction(-1)))
    moved = apply_affine(f3, shift)
    # cusp (3,0) moves to (5,-1)
    assert moved.evaluate((Fraction(5), Fraction(-1))) == 0
    assert moved.evaluate((Fraction(3), Fraction(0))) != 0
    # parametric samples of the moved curve still sit on the zero set
    points = [param_point(3, 2 * math.pi * i / 25 + 0.13) for i in range(25)]
    assert max(normalized_residuals(moved, [(x + 2, y - 1) for x, y in points])) < 1e-12


def test_apply_affine_identity_is_noop():
    f5 = implicitize(5)
    same = apply_affine(f5, IDENTITY)
    assert same == f5
    # a sphere polynomial has no plane zero set to move
    with pytest.raises(ValueError):
        apply_affine(lift_to_sphere(f5, f5.total_degree()), IDENTITY)


def test_apply_affine_scaling():
    f4 = implicitize(4)
    half = AffineMap(((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))))
    small = apply_affine(f4, half)
    assert small.evaluate((Fraction(2), Fraction(0))) == 0
    assert small.evaluate((Fraction(4), Fraction(0))) != 0


# -- stereographic transfer ------------------------------------------------------


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
@settings(max_examples=60, deadline=None)
def test_plane_sphere_roundtrip_exact(u, v):
    x, y, z = plane_to_sphere((u, v))
    assert x * x + y * y + z * z == 1
    assert z != 1
    assert sphere_to_plane((x, y, z)) == (u, v)


def test_plane_to_sphere_known_points():
    assert plane_to_sphere((Fraction(0), Fraction(0))) == (0, 0, -1)
    assert plane_to_sphere((Fraction(1), Fraction(0))) == (1, 0, 0)
    x, y, z = plane_to_sphere((Fraction(2), Fraction(0)))
    assert (x, y, z) == (Fraction(4, 5), 0, Fraction(3, 5))


def test_sphere_to_plane_rejects_north_pole():
    with pytest.raises(DomainError):
        sphere_to_plane((0, 0, 1))
    # a batch of numpy columns is refused when any of its points is the pole
    with pytest.raises(DomainError):
        sphere_to_plane(np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 1.0]]).T)


def test_lift_examples():
    # x lifts to x with clearing exponent 1
    lifted = lift_to_sphere(X, 1)
    assert lifted == Polynomial.variable("x", ("x", "y", "z"))
    # a constant lifts to c*(1-z)
    lifted = lift_to_sphere(Polynomial.constant(3, V2), 1)
    assert lifted == Polynomial.from_text("3 + -3*z", ("x", "y", "z"))
    # the unit circle lifts to x^2 + y^2 - (1-z)^2
    circle = X * X + Y * Y - 1
    lifted = lift_to_sphere(circle, 2)
    expected = Polynomial.from_text(
        "1*x^2 + 1*y^2 + -1*z^2 + 2*z + -1", ("x", "y", "z")
    )
    assert lifted == expected


def test_lift_agrees_with_chart_composition_exactly():
    p = (X - 1) * (Y + 2) * X + 5
    n = p.total_degree() + 1
    q = lift_to_sphere(p, n)
    for w in [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(0), Fraction(4))]:
        u = plane_to_sphere(w)
        lhs = q.evaluate(u)
        rhs = (1 - u[2]) ** n * p.evaluate(w)
        assert lhs == rhs


def test_lift_vanishes_at_north_pole():
    p = X * Y - 3
    q = lift_to_sphere(p, 3)
    assert q.evaluate((Fraction(0), Fraction(0), Fraction(1))) == 0


def test_lift_rejects_low_exponent():
    with pytest.raises(ValueError):
        lift_to_sphere(X * X + Y, 1)


# -- segment and arc functions ----------------------------------------------------


def test_segment_function_reference_values():
    seg = MERIDIAN
    assert value(seg, (0.0, 0.0, -1.0)) == 0.0
    assert value(seg, (0.0, 0.0, 1.0)) == 4.0
    assert value(seg, (0.0, 1.0, 0.0)) == 2.0


def test_segment_function_zero_set_is_lower_meridian():
    seg = MERIDIAN
    for i in range(1, 40):
        th = math.pi * i / 40  # lower half: z = -sin(th) <= 0
        u = (math.cos(th), 0.0, -math.sin(th))
        assert value(seg, u) < 1e-28
        v = (math.cos(th), 0.0, math.sin(th))  # upper mirror
        assert value(seg, v) > 1e-6
    off = (0.1, 0.2, -math.sqrt(1 - 0.05))
    assert value(seg, off) > 1e-3


def test_segment_gradient_matches_finite_differences():
    seg = MERIDIAN
    h = 1e-6
    for u in [(0.3, 0.5, -0.6), (0.0, 0.2, 0.9), (-0.4, -0.1, -0.5)]:
        g = gradient(seg, u)
        for i in range(3):
            up = list(u)
            dn = list(u)
            up[i] += h
            dn[i] -= h
            fd = (value(seg, up) - value(seg, dn)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_segment_gradient_rejects_endpoints():
    seg = MERIDIAN
    with pytest.raises(DomainError):
        gradient(seg, (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        gradient(seg, (-1.0, 0.0, 0.0))


def test_canonical_arc_reproduces_segment_function():
    arc = sphere_arc((1, 0, 0), (-1, 0, 0), (0, 0, -1))
    assert arc.n == (0, 1, 0)
    assert arc.d == 0
    assert arc.m == (0, 0, 1)
    assert arc.e == 0
    # the canonical meridian-arc function y^2 + (sqrt(z^2+y^2) + z)^2,
    # written out by hand
    one, zero = Fraction(1), Fraction(0)
    assert arc == SphereArcFunction(
        n=(0, 1, 0),
        d=zero,
        m=(0, 0, 1),
        e=zero,
        endpoints=((one, zero, zero), (-one, zero, zero)),
    )


def test_quarter_arc_zero_set():
    # quarter of the equator from (1,0,0) to (0,1,0) through (3/5, 4/5, 0)
    arc = sphere_arc((1, 0, 0), (0, 1, 0), (Fraction(3, 5), Fraction(4, 5), 0))
    for i in range(1, 30):
        th = (math.pi / 2) * i / 30
        on = (math.cos(th), math.sin(th), 0.0)
        assert value(arc, on) < 1e-28
    # the complementary three quarters stay positive
    for th in (2.0, 3.0, 4.5, 5.5):
        off = (math.cos(th), math.sin(th), 0.0)
        assert value(arc, off) > 1e-3
    # off the circle plane it is positive as well
    assert value(arc, (0.6, 0.64, math.sqrt(1 - 0.36 - 0.4096))) > 1e-4
    # endpoints are the exceptional points
    with pytest.raises(DomainError):
        gradient(arc, (1.0, 0.0, 0.0))


def test_arc_endpoints_exact_zeros():
    arc = sphere_arc(
        (0, 0, 1),
        (Fraction(4, 5), 0, Fraction(3, 5)),
        (Fraction(3, 5), 0, Fraction(4, 5)),
    )
    for q in arc.endpoints:
        assert factor_value(arc, q) == 0


def test_arc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sphere_arc((1, 0, 0), (1, 0, 0), (0, 1, 0))  # repeated point
    with pytest.raises(ValueError):
        sphere_arc((1, 0, 0), (0, 1, 0), (Fraction(1, 2), 0, 0))  # off sphere


# -- seeded sampling ------------------------------------------------------------------


def test_seeded_doubles_are_the_numpy_default_stream():
    # numpy's generator is the oracle; the large seeds take SeedSequence's
    # multi-word path
    for seed in [*range(1000), 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3]:
        rng = np.random.default_rng(seed)
        expected = [float(rng.random()) for _ in range(5)]
        draws = curves.seeded_doubles(seed)
        assert [next(draws) for _ in range(5)] == expected, seed


def test_seeded_doubles_reject_a_negative_seed():
    with pytest.raises(ValueError, match="nonnegative"):
        next(curves.seeded_doubles(-1))
