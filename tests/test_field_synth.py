"""Field layer tests: factors, products, the induced field, composition,
reference shrubs, and serialized bundles."""
import ast
import hashlib
import io
import json
import math
import random
import re
import tokenize
from fractions import Fraction

import numpy as np
import pytest
from exact_oracle import exact_value, factor_value
from hypothesis import given, settings
from hypothesis import strategies as st
from lift_oracle import apply_affine, lift_to_sphere
from shrubs import (
    example_field,
    example_shrubs,
    jacobian_at_south_pole,
    random_very_simple_shrub,
    synthesize_field,
)

from shrubfield import field_synth
from shrubfield.curves import (
    SPHERE_VARS,
    AffineMap,
    DomainError,
    homogenize,
    implicitize,
    param_point,
    plane_to_sphere,
    sphere_arc,
)
from shrubfield.field_synth import (
    PolyFactor,
    SphereFunction,
    VectorField,
    BUNDLE_FORMAT,
    _chart_image,
    _kernel_source,
    build_field,
    bundle_dict,
    bundle_text,
    compose_shrub_function,
    function_from_bundle,
    load_bundle,
    save_bundle,
)
from shrubfield.poly_core import Polynomial, parse_point
from shrubfield.shrub_model import (
    Attachment,
    Junction,
    LayoutError,
    LeafPlacement,
    Piece,
    ShrubGraph,
    layout_shrub,
)

X = Polynomial.variable("x", SPHERE_VARS)
Y = Polynomial.variable("y", SPHERE_VARS)
Z = Polynomial.variable("z", SPHERE_VARS)

SOUTH = (Fraction(0), Fraction(0), Fraction(-1))
NORTH = (Fraction(0), Fraction(0), Fraction(1))
# the arc factor zero on the lower meridian {y = 0, z <= 0}
MERIDIAN = sphere_arc((1, 0, 0), (-1, 0, 0), (0, 0, -1))


def unit_points(count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def value(fn, u) -> float:
    """F of a factor or of a product at one point, through its kernel."""
    return fn.value_and_gradient(*(float(c) for c in u))[0]


def gradient(fn, u) -> tuple:
    """(dF/dx, dF/dy, dF/dz) of a factor or of a product at one point."""
    return fn.value_and_gradient(*(float(c) for c in u))[1:]


def row(field, u) -> np.ndarray:
    """The field vector at one point."""
    return field.evaluate_many([u])[0]


def normalized_tangency(field, pts):
    """max |f(u).u| / |f(u)| over the batch, zero rows skipped.

    Rows are rescaled by their largest component first; squaring raw values
    of towering composite fields would overflow doubles.
    """
    f = field.evaluate_many(pts)
    scale = np.max(np.abs(f), axis=1)
    keep = scale > 0.0
    f = f[keep] / scale[keep][:, None]
    dots = np.abs(np.sum(f * pts[keep], axis=1))
    norms = np.linalg.norm(f, axis=1)
    return float(np.max(dots / norms, initial=0.0))


# -- factors --------------------------------------------------------------------


def test_poly_factor_value_matches_exact_evaluation():
    factor = PolyFactor(Z * Z * 3 + X * Y - 7)
    pts = [
        (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)),
        (Fraction(0), Fraction(0), Fraction(-1)),
    ]
    for p in pts:
        exact = factor_value(factor, p)
        assert value(factor, p) == pytest.approx(
            float(exact), rel=1e-14
        )


def test_poly_factor_rejects_plane_variables():
    plain = Polynomial.variable("x", ("x", "y"))
    with pytest.raises(ValueError):
        PolyFactor(plain)


def test_poly_factor_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        PolyFactor(Polynomial.zero(SPHERE_VARS))


def test_poly_factor_gradient_matches_finite_differences():
    factor = PolyFactor(Z * Z * Z - 2 * X * Y + Y)
    u = np.array([0.3, -0.5, 0.7])
    grad = gradient(factor, u)
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        fd = (value(factor, u + step) - value(factor, u - step)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-7)


def test_arc_factor_vanishes_exactly_on_its_arc():
    factor = MERIDIAN
    # the zero set is the lower meridian {y = 0, z <= 0}; the kernel refuses
    # the endpoints, where the exact value is checked instead
    for t in np.linspace(0.0, math.pi, 9)[1:-1]:
        u = np.array([math.cos(t), 0.0, -abs(math.sin(t))])
        assert value(factor, u) == pytest.approx(0.0, abs=1e-30)
    for q in factor.endpoints:
        assert factor_value(factor, q) == 0
    # off-arc points are strictly positive
    assert value(factor, [0.0, 0.0, 1.0]) > 1.0
    assert value(factor, [0.0, 1.0, 0.0]) > 0.5


def test_arc_factor_gradient_raises_at_endpoints():
    factor = MERIDIAN
    with pytest.raises(DomainError):
        gradient(factor, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        factor.value_and_gradient(*np.array([[-1.0, 0.0, 0.0]]).T)


def test_one_endpoint_in_a_batch_refuses_the_batch():
    factor = MERIDIAN
    pts = unit_points(20, seed=2)
    factor.value_and_gradient(*pts.T)
    pts[7] = (-1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        factor.value_and_gradient(*pts.T)
    with pytest.raises(DomainError):
        build_field(SphereFunction(factors=[factor])).evaluate_many(pts)


def test_arc_factor_gradient_matches_finite_differences():
    factor = MERIDIAN
    u = np.array([0.1, 0.4, 0.6])
    grad = gradient(factor, u)
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        fd = (value(factor, u + step) - value(factor, u - step)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_arc_factor_exceptional_points_are_the_endpoints():
    arc = MERIDIAN
    assert arc.kind == "arc"
    assert arc.exceptional_points == arc.endpoints
    assert PolyFactor(Z).exceptional_points == ()


def _leaf_factors():
    """Every leaf factor of the five examples, plus one leaf placed by a
    shear, which no layout gives (layouts rotate and scale)."""
    out = []
    for name, shrub in sorted(example_shrubs().items()):
        fn = compose_shrub_function(layout_shrub(shrub))
        out.extend(
            (f"{name}/{f.label}", f)
            for f in fn.factors
            if f.kind == "poly" and f.source["piece"] == "hypocycloid"
        )
    source = {
        "piece": "hypocycloid",
        "k": 4,
        "matrix": [["1/2", "1/3"], ["0", "1"]],
        "offset": ["2", "-1"],
    }
    out.append(("shear", PolyFactor.from_piece(source, "leaf:shear")))
    return out


def _expanded(factor):
    """P(B u + b) expanded exactly in sphere variables."""
    u = (X, Y, Z)
    linear = [
        sum((c * v for c, v in zip(row, u)), Polynomial.constant(b, SPHERE_VARS))
        for row, b in zip(factor.matrix, factor.shift)
    ]
    return factor.poly.evaluate(linear)


def _rational_sphere_points():
    """Images of a rational plane grid: |p| < 1 lands in the southern
    hemisphere, |p| > 1 in the northern one."""
    coords = [Fraction(c) for c in ("-7/2", "-2", "-1", "-1/3", "0", "2/5", "1", "5/3", "3")]
    return [plane_to_sphere((a, b)) for a in coords for b in coords]


def test_leaf_factors_expand_to_the_lifted_affine_image():
    # the expanded lift of the moved curve is an independent oracle
    cases = _leaf_factors()
    assert len(cases) == 5
    for name, factor in cases:
        k = factor.source["k"]
        affine = AffineMap(
            tuple(parse_point(row) for row in factor.source["matrix"]),
            parse_point(factor.source["offset"]),
        )
        moved = apply_affine(implicitize(k), affine)
        lifted = lift_to_sphere(moved, moved.total_degree())
        assert _expanded(factor) == lifted, name
        assert factor.poly.total_degree() == lifted.total_degree(), name


def test_leaf_factor_gradient_is_the_chain_rule():
    for name, factor in _leaf_factors():
        expanded = _expanded(factor)
        partials = [expanded.diff(v) for v in SPHERE_VARS]
        for point in _rational_sphere_points()[::7]:
            exact = [float(p.evaluate(point)) for p in partials]
            scale = max(abs(g) for g in exact)
            grad = gradient(factor, point)
            assert np.allclose(grad, exact, rtol=0, atol=1e-11 * scale), name


def test_leaf_kernel_source_holds_only_names_and_float_literals():
    # the generated kernel runs with empty builtins; its text must carry no
    # string, call or bundle text, only its own names and finite floats
    allowed_names = r"def|kernel|return|[xyz]|c\d|p\d_\d+|m\d+"
    for name, factor in _leaf_factors():
        source = _kernel_source(factor.poly)
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert re.fullmatch(allowed_names, token.string), (name, token)
            elif token.type == tokenize.NUMBER:
                literal = ast.literal_eval(token.string)
                assert isinstance(literal, float) and math.isfinite(literal)
            elif token.type == tokenize.OP:
                assert token.string in ("(", ")", ",", ":", "=", "+", "-", "*")
            else:
                assert token.type in (
                    tokenize.NEWLINE,
                    tokenize.NL,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENDMARKER,
                ), (name, token)


def test_leaf_factors_share_one_kernel_per_polynomial(monkeypatch):
    # the kernel depends on P alone; each placement is applied outside it
    fn = compose_shrub_function(layout_shrub(example_shrubs()["framed-chain"]))
    first, second = [f for f in fn.factors if f.label.startswith("leaf:")]
    assert first._kernel is second._kernel
    assert (first.matrix, first.shift) != (second.matrix, second.shift)
    source, generated = field_synth._kernel_source, []

    def counted(poly):
        generated.append(poly)
        return source(poly)

    monkeypatch.setattr(field_synth, "_kernel_source", counted)
    field_synth._compiled_kernel.cache_clear()
    polys = []
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(3):
            try:
                layout = layout_shrub(random_very_simple_shrub(rng))
            except LayoutError:
                continue
            factors = compose_shrub_function(layout).factors
            polys.extend(f.poly for f in factors if f.kind == "poly")
    # 82 factors share 3 polynomials: z and the k = 4 and k = 8 leaves
    assert len(polys) > 2 * len(set(polys)) > 2
    assert len(generated) == len(set(generated)) == len(set(polys))


def test_equal_polynomials_built_apart_share_one_kernel():
    # the memo is keyed by the polynomial's value, and its hash is kept
    built = homogenize(implicitize(4))
    parsed = Polynomial.from_text(built.to_text(), built.variables)
    reversed_terms = Polynomial(built.variables, dict(reversed(built.terms.items())))
    assert built is not parsed and built == parsed == reversed_terms
    assert hash(built) == hash(parsed) == hash(reversed_terms)
    assert hash(parsed) == hash(parsed)
    placement = AffineMap(((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    kernels = {
        id(PolyFactor(poly, placement=placement)._kernel)
        for poly in (built, parsed, reversed_terms)
    }
    assert len(kernels) == 1


def _condition(factor, point) -> float:
    """sum |c| |V^e| over |P(V)| at the mapped point V: the relative error
    an evaluation of P from its own coefficients can amplify."""
    mapped = [
        sum((bij * uj for bij, uj in zip(row, point)), bi)
        for row, bi in zip(factor.matrix, factor.shift)
    ]
    size = sum(
        abs(c) * math.prod(abs(v) ** e for v, e in zip(mapped, exps))
        for exps, c in factor.poly.terms.items()
    )
    magnitude = abs(factor_value(factor, point))
    return math.inf if magnitude == 0 else float(size / magnitude)


def test_poly_factors_match_exact_values_at_rational_points():
    factors = [
        (f"{name}/{f.label}", f)
        for name, shrub in sorted(example_shrubs().items())
        for f in compose_shrub_function(layout_shrub(shrub)).factors
        if f.kind == "poly"
    ]
    for name, factor in factors:
        # off the zero set: the factor's own evaluation is well posed
        points = [p for p in _rational_sphere_points() if _condition(factor, p) <= 100.0]
        exact = np.array([float(factor_value(factor, p)) for p in points])
        floats = np.array([[float(c) for c in p] for p in points])
        # one point at a time on Python floats, and the whole batch on columns
        single = np.array([value(factor, u) for u in floats])
        batch = factor.value_and_gradient(*floats.T)[0]
        for got in (single, batch):
            assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact)), name
        south = int(np.sum(floats[:, 2] < 0))
        assert min(south, len(points) - south) >= 5, (name, south, len(points))


# -- products ---------------------------------------------------------------------


def test_product_value_and_gradient_match_closed_form():
    fn = SphereFunction(factors=[PolyFactor(Z), PolyFactor(X)])
    pts = unit_points(50, seed=3)
    vals, *grads = fn.value_and_gradient(*pts.T)
    x, z = pts[:, 0], pts[:, 2]
    assert np.allclose(vals, x * z, atol=1e-15)
    expect = [z, np.zeros(len(pts)), x]
    assert np.allclose(grads, expect, atol=1e-14)


def test_product_gradient_survives_a_zero_factor():
    fn = SphereFunction(factors=[PolyFactor(Z), PolyFactor(X)])
    assert value(fn, [1.0, 0.0, 0.0]) == 0.0
    assert np.allclose(gradient(fn, [1.0, 0.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)


def test_empty_product_is_the_constant_one():
    fn = SphereFunction()
    pts = unit_points(10)
    vals, *grads = fn.value_and_gradient(*pts.T)
    assert np.all(vals == 1.0)
    assert np.all(np.array(grads) == 0.0)
    assert exact_value(fn, SOUTH) == 1


def test_value_exact_multiplies_factors():
    fn = SphereFunction(factors=[PolyFactor(Z), PolyFactor(Z * 2)])
    assert exact_value(fn, SOUTH) == Fraction(2)
    assert exact_value(fn, NORTH) == Fraction(2)


def test_exceptional_points_union_without_duplicates():
    arc = MERIDIAN
    fn = SphereFunction(factors=[arc, arc, PolyFactor(Z)])
    assert fn.exceptional_points() == arc.endpoints


# -- the induced field -------------------------------------------------------------


def test_constant_function_field_has_closed_form():
    field = build_field(SphereFunction())
    # with G = 1 the tangential gradient term drops out entirely
    for u in unit_points(40, seed=5):
        x, y, z = u
        expect = np.array(
            [2 * z * (y - x), -2 * z * (x + y), 2 * (x * x + y * y)]
        )
        assert np.allclose(row(field, u), expect, atol=1e-14)


def test_poles_are_rest_points_of_the_constant_field():
    field = build_field(SphereFunction())
    assert np.all(row(field, (0.0, 0.0, 1.0)) == 0.0)
    assert np.all(row(field, (0.0, 0.0, -1.0)) == 0.0)


def test_equator_field_frozen_value():
    field = example_field("equator")
    s = math.sqrt(2) / 2
    f = row(field, (s, 0.0, -s))
    assert np.allclose(f, [0.5, 0.0, 0.5], atol=1e-13)


def test_equator_field_vanishes_on_its_zero_circle():
    field = example_field("equator")
    for t in np.linspace(0.0, 2 * math.pi, 17):
        f = row(field, (math.cos(t), math.sin(t), 0.0))
        assert np.allclose(f, 0.0, atol=1e-15)


def test_field_values_are_tangent():
    field = example_field("framed-pair")
    assert normalized_tangency(field, unit_points(500, seed=11)) < 1e-12


def test_scaling_covariance_of_the_boundary_function():
    base = build_field(SphereFunction(factors=[PolyFactor(Z)]))
    scaled = build_field(SphereFunction(factors=[PolyFactor(Z * 2)]))
    pts = unit_points(60, seed=7)
    assert np.allclose(
        scaled.evaluate_many(pts), 4.0 * base.evaluate_many(pts), rtol=1e-13
    )


def test_unit_norm_guard_rejects_off_sphere_points():
    field = build_field(SphereFunction())
    with pytest.raises(ValueError, match="unit sphere"):
        row(field, (1.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        row(field, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="unit sphere"):
        field.evaluate_many(np.array([[0.0, 0.0, 1.0], [1.1, 0.0, 0.0]]))


def _leaf_with_sprig(k):
    return ShrubGraph(
        (Piece("leaf", k=k), Piece("sprig")),
        (Junction(0, (Attachment(0, 0), Attachment(1, "end0"))),),
    )


def test_one_point_rows_equal_batched_rows():
    # one row runs on Python floats, a batch on numpy columns; the kernels
    # do the same operations in the same order on both, so the bits agree
    pts = unit_points(200, seed=41)
    fields = {name: example_field(name) for name in sorted(example_shrubs())}
    for k in (8, 12):
        fields[f"leaf k={k} with a sprig"] = synthesize_field(_leaf_with_sprig(k))
    for name, field in fields.items():
        batch = field.evaluate_many(pts)
        single = np.concatenate([field.evaluate_many(p[None, :]) for p in pts])
        assert np.array_equal(single, batch, equal_nan=True), name


def test_evaluate_many_demands_point_batches():
    field = build_field(SphereFunction())
    with pytest.raises(ValueError, match=r"\(m, 3\)"):
        field.evaluate_many(np.ones(3)[None, None, :])


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
)
def test_tangency_is_an_identity_of_the_formulas(raw):
    v = np.array(raw)
    n = np.linalg.norm(v)
    if n < 1e-3:
        return
    u = v / n
    field = example_field("spiked-leaf")
    try:
        f = row(field, u)
    except DomainError:
        return  # landed exactly on an arc endpoint, where evaluation refuses
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return
    f = f / scale
    assert abs(float(f @ u)) <= 1e-12 * float(np.linalg.norm(f))


# -- the south-pole rest point ------------------------------------------------------


def test_south_pole_focus_for_plain_height():
    field = build_field(SphereFunction(factors=[PolyFactor(Z)]))
    focus = jacobian_at_south_pole(field)
    assert focus.g_south == 1.0
    expected = {2 * (1 + 1j), 2 * (1 - 1j)}
    for eig in focus.eigenvalues:
        assert min(abs(eig - e) for e in expected) < 1e-6
    assert focus.relative_error < 1e-6


def test_south_pole_focus_scales_with_the_squared_constant():
    field = build_field(SphereFunction(factors=[PolyFactor(Z * 2)]))
    focus = jacobian_at_south_pole(field)
    assert focus.g_south == 4.0
    assert focus.relative_error < 1e-6
    assert sorted(e.real for e in focus.eigenvalues) == pytest.approx(
        [8.0, 8.0], rel=1e-6
    )


def test_south_pole_focus_for_a_composite_boundary():
    focus = jacobian_at_south_pole(example_field("framed-pair"))
    assert focus.relative_error < 1e-4


def test_south_pole_focus_needs_a_nonvanishing_function():
    field = build_field(SphereFunction(factors=[PolyFactor(X)]))
    with pytest.raises(ValueError, match="south pole"):
        jacobian_at_south_pole(field)


def test_jacobian_rotation_part_matches_the_prediction():
    field = build_field(SphereFunction(factors=[PolyFactor(Z)]))
    focus = jacobian_at_south_pole(field)
    # predicted linearization [[2G, -2G], [2G, 2G]] at G = 1
    assert np.allclose(focus.jacobian, [[2.0, -2.0], [2.0, 2.0]], atol=1e-6)


# -- composition --------------------------------------------------------------------


def test_frame_composition_structure():
    lay = layout_shrub(example_shrubs()["framed-pair"])
    fn = compose_shrub_function(lay)
    assert [f.label for f in fn.factors] == ["frame", "leaf:1"]
    assert fn.exceptional_points() == ()
    assert exact_value(fn, SOUTH) != 0


def test_frame_composition_vanishes_on_the_placed_leaf_boundary():
    lay = layout_shrub(example_shrubs()["framed-pair"])
    fn = compose_shrub_function(lay)
    inner = next(
        p
        for p in lay.placements.values()
        if isinstance(p, LeafPlacement) and not p.frame
    )
    worst = 0.0
    for t in np.linspace(0.1, 2 * math.pi - 0.1, 60):
        raw = param_point(inner.k_layout, t)
        px, py = inner.affine.apply((float(raw[0]), float(raw[1])))
        s = px * px + py * py
        u = np.array([2 * px, 2 * py, s - 1]) / (s + 1)
        val = value(fn, u)
        # scale-free residual: factor values are compared to their own size
        ref = abs(value(fn, [0.0, 0.0, -1.0]))
        worst = max(worst, abs(val) / ref)
    assert worst < 1e-8


def test_punctured_composition_of_the_lone_sprig():
    lay = layout_shrub(example_shrubs()["lone-sprig"])
    fn = compose_shrub_function(lay)
    assert [f.label for f in fn.factors] == ["segment:0"]
    # the ray's arc runs from the tip image up to the top of the sphere
    assert set(fn.exceptional_points()) == set(fn.factors[0].endpoints)
    assert NORTH in fn.exceptional_points()
    assert exact_value(fn, NORTH) == 0


def test_field_evaluation_refuses_exact_punctures():
    field = example_field("lone-sprig")
    with pytest.raises(DomainError):
        row(field, (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        field.evaluate_many(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]))


def test_punctured_composition_of_the_spiked_leaf():
    lay = layout_shrub(example_shrubs()["spiked-leaf"])
    fn = compose_shrub_function(lay)
    assert [f.label for f in fn.factors] == ["leaf:0", "segment:0"]
    assert len(fn.exceptional_points()) == 2
    assert NORTH in fn.exceptional_points()
    # the arc radicand is irrational at the south pole, so exactness is
    # available factor by factor, not for the product
    assert factor_value(fn.factors[0], SOUTH) != 0
    assert value(fn, [0.0, 0.0, -1.0]) != 0.0


def test_punctured_composition_keeps_auxiliary_whiskers():
    sh = ShrubGraph(
        [Piece("leaf", k=4), Piece("sprig"), Piece("leaf", k=4)],
        [
            Junction(0, (Attachment(0, 0), Attachment(1, "end0"))),
            Junction(1, (Attachment(2, 0), Attachment(1, "end1"))),
        ],
    )
    lay = layout_shrub(sh)
    fn = compose_shrub_function(lay)
    labels = [f.label for f in fn.factors]
    assert labels == [
        "leaf:0",
        "leaf:2",
        "segment:0",
        "segment:1",
        "segment:2",
    ]
    arcs = [f for f in fn.factors if f.kind == "arc"]
    # the whole skeleton is collinear here, so all three arcs share a circle
    normals = {a.n for a in arcs}
    assert len(normals) == 1
    assert len(fn.exceptional_points()) == 4
    assert NORTH in fn.exceptional_points()


def test_punctured_leaf_factors_avoid_the_chart_origin():
    lay = layout_shrub(example_shrubs()["spiked-leaf"])
    fn = compose_shrub_function(lay)
    leaf_factor = fn.factors[0]
    # a leaf boundary through the origin would zero the south-pole value
    assert factor_value(leaf_factor, SOUTH) != 0


def test_punctured_composition_vanishes_on_sampled_boundary():
    lay = layout_shrub(example_shrubs()["spiked-leaf"])
    fn = compose_shrub_function(lay)
    leaf = next(
        p for p in lay.placements.values() if isinstance(p, LeafPlacement)
    )
    worst = 0.0
    ref = abs(value(fn, [0.0, 0.0, -1.0]))
    for t in np.linspace(0.05, 2 * math.pi - 0.05, 40):
        raw = param_point(leaf.k_layout, t)
        px, py = leaf.affine.apply((float(raw[0]), float(raw[1])))
        s = px * px + py * py
        u = np.array([2 * px, 2 * py, s - 1]) / (s + 1)
        worst = max(worst, abs(value(fn, u)) / ref)
    # plus interior points of each maximal segment, mapped to the sphere
    for seg in lay.maximal_segments:
        a = seg.end if seg.start is None else seg.start
        for t in (Fraction(1, 3), Fraction(3, 2), Fraction(13, 4)):
            if seg.start is not None and seg.end is not None:
                if t > 1:
                    continue
                p = (
                    a[0] + t * (seg.end[0] - a[0]),
                    a[1] + t * (seg.end[1] - a[1]),
                )
            else:
                p = (a[0] + t, a[1])
            u = tuple(float(c) for c in plane_to_sphere(p))
            worst = max(worst, abs(value(fn, u)) / ref)
    assert worst < 1e-8


def test_arc_ends_are_exactly_the_layout_punctures():
    # a bundle stores no punctures: they are the arc factors' endpoints, so
    # composition must end every arc on a puncture's image and leave no
    # puncture without an arc; the five examples, then three generated
    # shrubs per seed for seeds 0..19 (58 lay out, 2 are refused)
    layouts = [layout_shrub(shrub) for shrub in example_shrubs().values()]
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(3):
            try:
                layouts.append(layout_shrub(random_very_simple_shrub(rng)))
            except LayoutError:
                pass
    assert len(layouts) == 63
    for lay in layouts:
        images = {_chart_image(lay.junction_points[bud]) for bud in lay.punctures}
        points = compose_shrub_function(lay).exceptional_points()
        assert set(points) == images, lay.punctures


def test_compose_rejects_unknown_layout_mode():
    lay = layout_shrub(example_shrubs()["equator"])
    lay.mode = "garbled"
    with pytest.raises(ValueError, match="layout mode"):
        compose_shrub_function(lay)


def test_leaf_through_the_chart_origin_is_refused():
    # moved by (-4, 0), the k = 4 leaf's cusp (4, 0) sits on the origin,
    # which is the south pole
    one, zero = Fraction(1), Fraction(0)
    placement = LeafPlacement(
        piece=0,
        frame=False,
        k_layout=4,
        affine=AffineMap(((one, zero), (zero, one)), (Fraction(-4), zero)),
    )
    with pytest.raises(AssertionError, match="chart origin"):
        field_synth._leaf_factor(0, placement)


# -- reference shrubs ----------------------------------------------------------------


def test_example_shrubs_cover_both_modes():
    shrubs = example_shrubs()
    assert set(shrubs) == {
        "equator",
        "framed-pair",
        "framed-chain",
        "lone-sprig",
        "spiked-leaf",
    }
    modes = {name: layout_shrub(sh).mode for name, sh in shrubs.items()}
    assert modes["equator"] == "frame"
    assert modes["lone-sprig"] == "punctured"


def test_example_fields_build_tangent_and_spiral():
    pts = unit_points(300, seed=23)
    for name in sorted(example_shrubs()):
        field = example_field(name)
        assert normalized_tangency(field, pts) < 1e-12, name
        focus = jacobian_at_south_pole(field)
        assert focus.relative_error < 1e-4, name


def test_example_field_rejects_unknown_names():
    with pytest.raises(KeyError, match="equator"):
        example_field("no-such-shrub")


def test_synthesize_field_runs_the_whole_pipeline():
    field = synthesize_field(example_shrubs()["lone-sprig"])
    assert isinstance(field, VectorField)
    assert NORTH in field.function.exceptional_points()


# -- bundles --------------------------------------------------------------------------


def test_bundle_round_trip_is_byte_identical():
    fn = compose_shrub_function(layout_shrub(example_shrubs()["spiked-leaf"]))
    text = bundle_text(fn)
    again = bundle_text(function_from_bundle(json.loads(text)))
    assert text == again


def test_bundle_preserves_values():
    fn = compose_shrub_function(layout_shrub(example_shrubs()["spiked-leaf"]))
    back = function_from_bundle(json.loads(bundle_text(fn)))
    pts = unit_points(40, seed=31)
    for before, after in zip(
        fn.value_and_gradient(*pts.T), back.value_and_gradient(*pts.T)
    ):
        assert np.array_equal(before, after)
    assert back.exceptional_points() == fn.exceptional_points()


def test_arc_labels_survive_a_bundle_round_trip():
    fn = compose_shrub_function(layout_shrub(example_shrubs()["spiked-leaf"]))
    back = function_from_bundle(json.loads(bundle_text(fn)))
    assert [f.label for f in back.factors] == ["leaf:0", "segment:0"]
    assert back.factors[1] == fn.factors[1]
    arc = sphere_arc((1, 0, 0), (-1, 0, 0), (0, 0, -1), label="meridian")
    fn = SphereFunction([arc])
    back = function_from_bundle(bundle_dict(fn))
    assert back.factors == (arc,)
    assert back.factors[0].label == "meridian"


def test_bundle_format_and_metadata_survive():
    fn = compose_shrub_function(layout_shrub(example_shrubs()["framed-pair"]))
    data = bundle_dict(fn)
    assert data["format"] == BUNDLE_FORMAT
    assert bundle_dict(function_from_bundle(data)) == data


def test_bundle_stores_each_leaf_as_its_piece():
    fn = compose_shrub_function(layout_shrub(example_shrubs()["framed-chain"]))
    data = bundle_dict(fn)
    assert data["format"] == BUNDLE_FORMAT
    polys = [f for f in data["factors"] if f["kind"] == "poly"]
    assert [f["label"] for f in polys] == ["frame", "leaf:0", "leaf:2"]
    for entry in polys:
        assert sorted(entry) == ["kind", "label", "source"]
    assert polys[0]["source"] == {"piece": "equator"}
    for entry in polys[1:]:
        assert entry["source"]["piece"] == "hypocycloid"
        assert entry["source"]["k"] == 4
    back = function_from_bundle(json.loads(bundle_text(fn)))
    assert back.factors[0].poly == Z
    for a, b in zip(fn.factors[1:], back.factors[1:]):
        assert a.poly == b.poly == homogenize(implicitize(4))
        assert (a.matrix, a.shift) == (b.matrix, b.shift)
    assert bundle_text(back) == bundle_text(fn)


# sha256 of bundle_text for each example shrub. Each text is the
# field-bundle/3 text pinned before it (itself the field-bundle/2 text, from
# when the leaf polynomial came from the fraction-free determinant over
# Z[i][x, y], with the format bumped and the "poly" key dropped from every
# poly entry) with the format bumped to field-bundle/4 and the "metadata" and
# "punctures" keys dropped
EXAMPLE_BUNDLE_SHA256 = {
    "equator": "6e0ed7d6f121204e90e7d37542aff50e2945a0cd5fa58e62f52d30b2ca839721",
    "lone-sprig": "7277b75dc30d5a2ad9a85613a515dddb1ee289a56a462448a30b6d27a63d4810",
    "framed-pair": "d1a3bc173862780ea62974582405a51b372105e39479eb0f2e59efe13307eb17",
    "framed-chain": "b8c9ffbd90b0ff71297916068212ab35dd2dfd06350da414bcc8a410209675d1",
    "spiked-leaf": "e340a1c33b7fa858529554daf25139fba9349f21b303c601b7671d1e13fe0f86",
}


def test_example_bundles_are_pinned():
    for name, digest in EXAMPLE_BUNDLE_SHA256.items():
        text = bundle_text(example_field(name).function)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_bundle_refuses_version_one():
    with pytest.raises(ValueError, match="re-run synthesize"):
        function_from_bundle({"format": "field-bundle/1", "factors": []})


def test_bundle_refuses_version_two():
    # a version 2 entry stored the leaf polynomial beside its piece, and a
    # version 3 bundle its arc endpoints again as punctures
    fn = compose_shrub_function(layout_shrub(example_shrubs()["framed-pair"]))
    for older in ("field-bundle/2", "field-bundle/3"):
        data = dict(bundle_dict(fn), format=older)
        message = f"re-run synthesize to write a {BUNDLE_FORMAT}"
        with pytest.raises(ValueError, match=message):
            function_from_bundle(data)


def test_bundle_rejects_foreign_formats():
    with pytest.raises(ValueError, match="bundle"):
        function_from_bundle({"format": "something-else/9", "factors": []})


def test_save_and_load_bundle(tmp_path):
    fn = compose_shrub_function(layout_shrub(example_shrubs()["lone-sprig"]))
    path = tmp_path / "bundle.json"
    save_bundle(path, fn)
    back = load_bundle(path)
    assert bundle_text(back) == bundle_text(fn)


def test_composition_is_deterministic():
    sh = example_shrubs()["spiked-leaf"]
    a = bundle_text(compose_shrub_function(layout_shrub(sh)))
    b = bundle_text(compose_shrub_function(layout_shrub(sh)))
    assert a == b
