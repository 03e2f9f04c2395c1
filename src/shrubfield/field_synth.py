"""Tangent vector fields on the sphere from squared boundary functions.

A shrub layout hands us a collection of plane curves and segments. Each one
becomes a factor: placed leaf boundaries give polynomials (the homogenised
canonical hypocycloid polynomial composed with an exact affine map of the
sphere coordinates), segments give closed-form arc functions. The product F of all factors vanishes exactly on the realized
boundary, and the induced field is built from G = F^2 so that the zero set
consists of degenerate rest points that orbits accumulate on without
reaching.

Factor coefficients stay exact rationals end to end; only evaluation is
floating point, through one shared value-and-gradient kernel per polynomial.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .curves import (
    HOMOGENEOUS_VARS,
    K_MAX,
    SPHERE_VARS,
    AffineMap,
    SphereArcFunction,
    component_any,
    component_sqrt,
    homogenize,
    implicitize,
    param_point,
    plane_to_sphere,
    sphere_arc,
)
from .poly_core import (
    Polynomial,
    check_keys,
    json_list,
    parse_point,
    rational_point,
)

# shrub_model is imported inside the functions that compose a layout: loading
# a bundle and evaluating its field, all that `simulate` does, never runs it
if TYPE_CHECKING:
    from .shrub_model import LeafPlacement, ShrubGraph, ShrubLayout

UNIT_NORM_TOLERANCE = 1e-12


def _placement(source) -> AffineMap | None:
    """The forward map A that places a hypocycloid piece's plane curve, read
    once from its source; None for the equator. ValueError on a source that
    `compose_shrub_function` cannot write, before any curve is implicitized."""
    if source == {"piece": "equator"}:
        return None
    check_keys(source, "factor source", ("piece", "k", "matrix", "offset"))
    if source["piece"] != "hypocycloid":
        raise ValueError(f"unknown piece kind {source['piece']!r}")
    k = source["k"]
    if type(k) is not int or k % 4 or not 4 <= k <= K_MAX:
        raise ValueError(f"a leaf's k must be a multiple of 4 in [4, {K_MAX}]: {k!r}")
    rows = tuple(parse_point(row) for row in json_list(source, "matrix"))
    offset = parse_point(source["offset"])
    if [len(v) for v in (*rows, offset)] != [2, 2, 2]:
        raise ValueError("a placement is a 2 x 2 matrix and a 2-vector offset")
    placement = AffineMap(rows, offset)
    if placement.determinant() == 0:
        raise ValueError("a placement's matrix is singular")
    return placement


def _kernel_map(placement: AffineMap | None) -> tuple[tuple, tuple]:
    """Exact (B, b) of a factor P(B u + b): the identity, or for a placement
    A the lift P^h(L (x, y, 1 - z)) of the moved curve, where P^h is the
    homogenised canonical polynomial and L is A^-1 in homogeneous
    coordinates."""
    zero, one = Fraction(0), Fraction(1)
    if placement is None:
        return ((one, zero, zero), (zero, one, zero), (zero, zero, one)), (zero,) * 3
    inverse = placement.inverse()
    (a, b), (c, d) = inverse.matrix
    e, f = inverse.offset
    return ((a, b, -e), (c, d, -f), (zero, zero, -one)), (e, f, one)


def _fold(start, pairs, values):
    """((start + c0 * values[i0]) + c1 * values[i1]) + ... over the (c, i)
    pairs, on floats, numpy columns and Fractions alike."""
    for c, i in pairs:
        start = start + c * values[i]
    return start


@functools.cache
def _leaf_polynomial(k: int) -> Polynomial:
    return homogenize(implicitize(k))


@functools.cache
def _compiled_kernel(poly: Polynomial):
    namespace = {"__builtins__": {}}
    exec(_kernel_source(poly), namespace)
    return namespace["kernel"]


class PolyFactor:
    """Polynomial factor P(B u + b) of the boundary function.

    P is exact; (B, b) is an exact rational affine map of sphere points. A
    hand-built factor is a polynomial in the sphere variables under the
    identity map. The factor of a boundary piece comes from `from_piece`,
    which builds P from the piece alone: the equator gives z, and a
    hypocycloid gives the homogenised canonical polynomial in (x, y, w)
    under the inverse of its placement, so its 28 terms (k = 4) stand in
    for the hundreds an expanded lift would need, and floats never see that
    expansion's cancellation.

    P's value and gradient come from a straight-line kernel compiled once
    per polynomial (see `_kernel_source`). A placed factor applies (B, b)
    before it and B^T grad P after it, as left folds over B's nonzero
    entries. A piece's factor also writes and reads its bundle entry, which
    stores the piece and not its polynomial, and samples its piece.
    """

    kind = "poly"

    def __init__(
        self, poly: Polynomial, label: str = "", placement: AffineMap | None = None
    ):
        """P(u) in the sphere variables, or with a placement, P in (x, y, w)
        moved as `_kernel_map` describes."""
        expected = SPHERE_VARS if placement is None else HOMOGENEOUS_VARS
        if poly.variables != expected:
            raise ValueError(f"factor polynomial must use variables {expected}")
        if not poly:
            raise ValueError("zero polynomial cannot be a factor")
        self.poly = poly
        self.label = label
        self.placement = placement
        self.source = None
        self.matrix, self.shift = _kernel_map(placement)
        # row j: (b_j, [(B_ji, i) for nonzero B_ji]); column j: [(B_ij, i + 1)
        # for nonzero B_ij], where i + 1 finds dP/dv_i in the kernel's result
        self._exact = [
            (b, [(c, i) for i, c in enumerate(row) if c])
            for row, b in zip(self.matrix, self.shift)
        ]
        self._rows = [(float(b), [(float(c), i) for c, i in r]) for b, r in self._exact]
        self._columns = [
            [(float(c), i) for i, c in enumerate(column, 1) if c]
            for column in zip(*self.matrix)
        ]
        self._kernel = _compiled_kernel(poly)

    @classmethod
    def from_piece(cls, source: dict, label: str = "") -> "PolyFactor":
        """The factor of the boundary piece that `source` names; ValueError on
        a source that `compose_shrub_function` cannot write, raised before a
        curve is implicitized or a kernel compiled."""
        placement = _placement(source)
        if placement is None:
            poly = Polynomial.variable("z", SPHERE_VARS)
        else:
            poly = _leaf_polynomial(source["k"])
        factor = cls(poly, label, placement)
        factor.source = dict(source)
        return factor

    @classmethod
    def from_bundle(cls, item: dict) -> "PolyFactor":
        """The factor of a bundle entry; raises ValueError on an entry that
        `bundle_entry` cannot write."""
        check_keys(item, "poly factor", ("kind", "source"), ("label",))
        return cls.from_piece(item["source"], label=item.get("label", ""))

    def bundle_entry(self) -> dict:
        if self.source is None:
            raise ValueError(f"factor {self.label!r} names no piece to store")
        return {"kind": self.kind, "label": self.label, "source": self.source}

    @property
    def exceptional_points(self) -> tuple:
        return ()

    def value_and_gradient(self, x, y, z) -> tuple:
        """(F, dF/dx, dF/dy, dF/dz) in component form: floats for one point,
        numpy columns for a batch."""
        if self.placement is None:
            return self._kernel(x, y, z)
        u = (x, y, z)
        (b0, row0), (b1, row1), (b2, row2) = self._rows
        p = self._kernel(_fold(b0, row0, u), _fold(b1, row1, u), _fold(b2, row2, u))
        g0, g1, g2 = self._columns
        return p[0], _fold(0.0, g0, p), _fold(0.0, g1, p), _fold(0.0, g2, p)

    def value_exact(self, point):
        u = tuple(Fraction(c) for c in point)
        return self.poly.evaluate(tuple(_fold(b, row, u) for b, row in self._exact))

    def zero_set(self) -> tuple:
        """(length, sampler) of the equator or of the placed hypocycloid's
        image; sampler(count) spreads count points endpoint-free."""
        if self.source is None:
            raise ValueError(f"factor {self.label!r} carries no parametric source")
        if self.placement is None:
            def equator(count: int) -> np.ndarray:
                t = np.arange(count) * (math.tau / count)
                return np.stack([np.cos(t), np.sin(t), np.zeros(count)], axis=1)
            return math.tau, equator
        k = self.source["k"]
        (a, b), (c, d) = [[float(v) for v in row] for row in self.placement.matrix]
        e, f = [float(v) for v in self.placement.offset]

        def on_sphere(t: float) -> np.ndarray:
            px, py = param_point(k, t)
            p = np.array(plane_to_sphere((a * px + b * py + e, c * px + d * py + f)))
            return p / np.linalg.norm(p)

        probe = np.array([on_sphere(t) for t in np.linspace(0.0, math.tau, 64 * k)])
        length = float(np.sum(np.linalg.norm(np.diff(probe, axis=0), axis=1)))

        def sampler(count: int) -> np.ndarray:
            ts = np.arange(count) * (math.tau / count)
            return np.array([on_sphere(t) for t in ts])

        return length, sampler


def _kernel_source(poly: Polynomial) -> str:
    """Source of `kernel(x, y, z)`: (P, dP/dv0, dP/dv1, dP/dv2) at P's
    variables (v0, v1, v2) = (x, y, z), for floats and numpy columns alike.

    Straight-line code, one fixed order of float operations:
    - powers by repeated multiplication, v^2 = v v, v^3 = v^2 v;
    - each monomial of P and of its partials as (x^i y^j) z^k, with the
      literal 1.0 for a zeroth power;
    - the columns P and dP/dv_j, each a sum from 0.0 adding one
      coefficient times value per statement.
    A left fold, not `sum`, since from Python 3.12 `sum` compensates float
    sums; one statement per term, since CPython refuses an expression
    nested past 200 parentheses and a k = 12 leaf has 276 terms. The text
    depends on P alone and holds only names, operators and the `repr` of
    finite floats, so it runs with empty builtins.
    """
    lines = ["def kernel(x, y, z):"]
    # rows: monomials of P and of its partials; columns: P, dP/dv_j
    rows: dict[tuple, list] = {}
    for exps, c in poly.terms.items():
        rows.setdefault(exps, [0, 0, 0, 0])[0] += c
        for j, e in enumerate(exps):
            if e:
                lower = exps[:j] + (e - 1,) + exps[j + 1 :]
                rows.setdefault(lower, [0, 0, 0, 0])[j + 1] += e * c
    monomials = sorted(rows)
    powers = []
    for j, name in enumerate("xyz"):
        names = ["1.0", name]
        for n in range(2, max(e[j] for e in monomials) + 1):
            names.append(f"p{j}_{n}")
            lines.append(f"    p{j}_{n} = {names[-2]} * {name}")
        powers.append(names)
    px, py, pz = powers
    for index, (i, j, k) in enumerate(monomials):
        lines.append(f"    m{index} = {px[i]} * {py[j]} * {pz[k]}")
    for col in range(4):
        lines.append(f"    c{col} = 0.0")
        for index, exps in enumerate(monomials):
            if rows[exps][col]:
                coefficient = float(rows[exps][col])
                lines.append(f"    c{col} = c{col} + {coefficient!r} * m{index}")
    lines.append("    return c0, c1, c2, c3")
    return "\n".join(lines) + "\n"


class SphereFunction:
    """Product of boundary factors. An empty product is the constant 1."""

    def __init__(self, factors=()):
        self.factors = tuple(factors)

    def exceptional_points(self) -> tuple:
        """The punctures: the arc factors' endpoints, each once, in factor
        order. The product is analytic everywhere else."""
        out = []
        for factor in self.factors:
            for p in factor.exceptional_points:
                if p not in out:
                    out.append(p)
        return tuple(out)

    def value_exact(self, point):
        """Exact rational product; raises ValueError when an arc factor's
        square root is irrational at the point."""
        out = Fraction(1)
        for factor in self.factors:
            out *= factor.value_exact(point)
        return out

    def value_and_gradient(self, x, y, z) -> tuple:
        """(F, dF/dx, dF/dy, dF/dz) of the product in component form.

        A running product rule, g <- g v + F h and F <- F v over the factors
        (v, h), never divides, so a factor with a zero value is harmless.
        """
        if not self.factors:
            return 1.0, 0.0, 0.0, 0.0
        first, *rest = self.factors
        f, gx, gy, gz = first.value_and_gradient(x, y, z)
        for factor in rest:
            v, hx, hy, hz = factor.value_and_gradient(x, y, z)
            gx = gx * v + f * hx
            gy = gy * v + f * hy
            gz = gz * v + f * hz
            f = f * v
        return f, gx, gy, gz


# -- the induced tangent field ---------------------------------------------


class VectorField:
    """Tangent field on the unit sphere induced by a boundary function.

    With G = F^2 evaluated on radial projections, the components are

        f1 = 2z(y - x)G + (x^2 + y^2)(z dG/dy - y dG/dz)
        f2 = -2z(x + y)G + (x^2 + y^2)(x dG/dz - z dG/dx)
        f3 = (x^2 + y^2)(2G + y dG/dx - x dG/dy)

    where dG is the tangential gradient 2F(I - vv^T)grad F. Tangency
    u . f(u) = 0 is an identity of the formulas, independent of F.
    """

    def __init__(self, function: SphereFunction):
        self.function = function

    def g_value(self, u) -> float:
        """G = F^2 at the radial projection of u."""
        v = np.asarray(u, dtype=float)
        x, y, z = (v / np.linalg.norm(v)).tolist()
        value = self.function.value_and_gradient(x, y, z)[0]
        return value * value

    def evaluate_many(self, pts) -> np.ndarray:
        """Field vectors at an (m, 3) batch of unit points.

        One row runs the component-form formula on Python floats, a larger
        batch runs it on numpy columns.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("expected an (m, 3) array of sphere points")
        if pts.shape[0] == 1:
            return np.array([self._rows(*pts[0].tolist())])
        return np.stack(self._rows(*np.ascontiguousarray(pts.T)), axis=1)

    def _rows(self, x, y, z) -> tuple:
        """(f1, f2, f3) in component form, after the unit-norm guard."""
        norm = component_sqrt(x * x + y * y + z * z)
        deviation = abs(norm - 1.0)
        if component_any(deviation > UNIT_NORM_TOLERANCE):
            worst = float(np.max(deviation))
            raise ValueError(
                f"field is defined on the unit sphere; |norm - 1| = {worst:.3e}"
            )
        x, y, z = x / norm, y / norm, z / norm
        fval, fx, fy, fz = self.function.value_and_gradient(x, y, z)
        radial = x * fx + y * fy + z * fz
        two_f = 2.0 * fval
        ggx = two_f * (fx - radial * x)
        ggy = two_f * (fy - radial * y)
        ggz = two_f * (fz - radial * z)
        g = fval * fval
        rho2 = x * x + y * y
        return (
            2.0 * z * (y - x) * g + rho2 * (z * ggy - y * ggz),
            -2.0 * z * (x + y) * g + rho2 * (x * ggz - z * ggx),
            rho2 * (2.0 * g + y * ggx - x * ggy),
        )


def build_field(function: SphereFunction) -> VectorField:
    return VectorField(function)


# -- rest point at the bottom of the sphere ---------------------------------


@dataclass(frozen=True)
class SouthPoleFocus:
    """Finite-difference linearization at the south pole.

    The eigenvalue pair of the chart Jacobian is compared against the
    closed-form prediction 2*G(south) * (1 +- i); a relative mismatch
    above ~1e-4 indicates a broken field, not difference noise.
    """

    jacobian: np.ndarray
    eigenvalues: tuple
    predicted: tuple
    g_south: float
    relative_error: float


def jacobian_at_south_pole(field: VectorField, h: float = 1e-5) -> SouthPoleFocus:
    """Central-difference Jacobian in the chart that sends the south pole
    to the origin, with its eigenvalues and the spiral-focus prediction."""
    south = (Fraction(0), Fraction(0), Fraction(-1))
    try:
        f_south = float(field.function.value_exact(south))
    except ValueError:
        f_south = field.function.value_and_gradient(0.0, 0.0, -1.0)[0]
    if f_south == 0.0:
        raise ValueError(
            "boundary function vanishes at the south pole; "
            "the focus prediction needs a nonzero value there"
        )
    g_south = f_south * f_south

    def chart_field(a: float, b: float) -> np.ndarray:
        x, y, z = plane_to_sphere((a, b))
        f1, f2, f3 = field.evaluate_many([(x, y, z)])[0]
        w = 1.0 - z
        return np.array([f1 / w + x * f3 / (w * w), f2 / w + y * f3 / (w * w)])

    col0 = (chart_field(h, 0.0) - chart_field(-h, 0.0)) / (2.0 * h)
    col1 = (chart_field(0.0, h) - chart_field(0.0, -h)) / (2.0 * h)
    jac = np.column_stack([col0, col1])
    eig = sorted(np.linalg.eigvals(jac), key=lambda t: (t.imag, t.real))
    predicted = sorted(
        [2.0 * g_south * (1 - 1j), 2.0 * g_south * (1 + 1j)],
        key=lambda t: (t.imag, t.real),
    )
    rel = max(
        abs(e - p) / abs(p) for e, p in zip(eig, predicted)
    )
    return SouthPoleFocus(
        jacobian=jac,
        eigenvalues=tuple(eig),
        predicted=tuple(predicted),
        g_south=g_south,
        relative_error=float(rel),
    )


# -- composing the boundary function from a layout ---------------------------


def _chart_image(point) -> tuple:
    """Sphere image of a layout point; None (the bud at infinity) goes to
    the top of the sphere."""
    if point is None:
        return (Fraction(0), Fraction(0), Fraction(1))
    return tuple(plane_to_sphere((Fraction(point[0]), Fraction(point[1]))))


def _segment_interior_point(segment) -> tuple:
    """A finite plane point strictly inside a maximal segment or ray."""
    if segment.start is None:
        return (Fraction(segment.end[0]) + 1, Fraction(segment.end[1]))
    if segment.end is None:
        return (Fraction(segment.start[0]) + 1, Fraction(segment.start[1]))
    return (
        (Fraction(segment.start[0]) + Fraction(segment.end[0])) / 2,
        (Fraction(segment.start[1]) + Fraction(segment.end[1])) / 2,
    )


def _leaf_factor(pid: int, placement: LeafPlacement) -> PolyFactor:
    # the south pole is the chart origin; the factor there is 2^m times the
    # canonical polynomial at the origin's preimage, so the two vanish alike
    origin = placement.affine.inverse().offset
    if implicitize(placement.k_layout).evaluate(origin) == 0:
        raise AssertionError("placed leaf boundary passes through the chart origin")
    # exact rationals as strings, so bundles round-trip byte for byte
    source = {
        "piece": "hypocycloid",
        "k": placement.k_layout,
        "matrix": [rational_point(row) for row in placement.affine.matrix],
        "offset": rational_point(placement.affine.offset),
    }
    return PolyFactor.from_piece(source, label=f"leaf:{pid}")


def compose_shrub_function(layout: ShrubLayout) -> SphereFunction:
    """Boundary function for a drawn shrub.

    Frame layouts start with a plain z factor (the outer disk boundary is
    the equator). Every other placed leaf gives a leaf factor: the
    homogenised canonical hypocycloid polynomial composed with the inverse
    placement, never expanded. Each maximal segment of a punctured layout
    gives one circular-arc factor; segments reaching the bud at infinity
    close up at the top of the sphere, so the function's exceptional points
    are the images of the layout's punctures.
    """
    from .shrub_model import LeafPlacement

    if layout.mode == "frame":
        factors = [PolyFactor.from_piece({"piece": "equator"}, label="frame")]
    elif layout.mode == "punctured":
        if layout.junction_points[layout.base_bud] is not None:
            raise AssertionError("layout base bud is not at infinity")
        factors = []
    else:
        raise ValueError(f"unknown layout mode {layout.mode!r}")
    for pid in sorted(layout.placements):
        placement = layout.placements[pid]
        if isinstance(placement, LeafPlacement) and not placement.frame:
            factors.append(_leaf_factor(pid, placement))
    for index, segment in enumerate(layout.maximal_segments):
        factors.append(
            sphere_arc(
                _chart_image(segment.start),
                _chart_image(segment.end),
                _chart_image(_segment_interior_point(segment)),
                label=f"segment:{index}",
            )
        )
    return SphereFunction(factors)


def synthesize_field(shrub: ShrubGraph) -> VectorField:
    """Layout, compose, and build in one step."""
    from .shrub_model import layout_shrub

    return build_field(compose_shrub_function(layout_shrub(shrub)))


# -- small reference shrubs ---------------------------------------------------


def example_shrubs() -> dict[str, ShrubGraph]:
    """Named small shrubs that exercise both layout modes.

    equator      lone leaf; the realized boundary is the equator circle
    framed-pair  two leaves joined at a cusp, drawn as disk-in-frame
    framed-chain three leaves in a row, still a pure cactus
    lone-sprig   a single segment with two free ends
    spiked-leaf  a leaf with sprigs on two opposed cusps
    """
    from .shrub_model import Attachment, Junction, Piece, ShrubGraph

    leaf = lambda: Piece("leaf", k=4)  # noqa: E731
    sprig = lambda: Piece("sprig")  # noqa: E731
    out = {}
    out["equator"] = ShrubGraph((leaf(),), ())
    out["framed-pair"] = ShrubGraph(
        (leaf(), leaf()),
        (Junction(0, (Attachment(0, 0), Attachment(1, 0))),),
    )
    out["framed-chain"] = ShrubGraph(
        (leaf(), leaf(), leaf()),
        (
            Junction(0, (Attachment(0, 0), Attachment(1, 0))),
            Junction(1, (Attachment(1, 2), Attachment(2, 0))),
        ),
    )
    out["lone-sprig"] = ShrubGraph((sprig(),), ())
    out["spiked-leaf"] = ShrubGraph(
        (leaf(), sprig(), sprig()),
        (
            Junction(0, (Attachment(0, 0), Attachment(1, "end0"))),
            Junction(1, (Attachment(0, 2), Attachment(2, "end0"))),
        ),
    )
    return out


def example_field(name: str) -> VectorField:
    shrubs = example_shrubs()
    if name not in shrubs:
        known = ", ".join(sorted(shrubs))
        raise KeyError(f"unknown example {name!r}; known: {known}")
    return synthesize_field(shrubs[name])


# -- serialized bundles -------------------------------------------------------


BUNDLE_FORMAT = "field-bundle/4"


def bundle_dict(function: SphereFunction) -> dict:
    """JSON-ready description of a boundary function; exact and stable."""
    return {
        "format": BUNDLE_FORMAT,
        "factors": [factor.bundle_entry() for factor in function.factors],
    }


def bundle_text(function: SphereFunction) -> str:
    return json.dumps(bundle_dict(function), sort_keys=True, indent=2) + "\n"


def save_bundle(path, function: SphereFunction) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(bundle_text(function))


def function_from_bundle(data: dict) -> SphereFunction:
    """Rebuild a boundary function; each factor class reads its own entry,
    and a malformed bundle raises ValueError.

    Older bundles are refused: version 1 stored each leaf factor expanded in
    sphere variables, whose floats cancel badly, version 2 stored each
    leaf's polynomial beside the piece that determines it, and version 3
    stored the arc endpoints again as punctures, beside the layout mode.
    """
    if not isinstance(data, dict):
        raise ValueError("a bundle must be a JSON object")
    if data.get("format") in ("field-bundle/1", "field-bundle/2", "field-bundle/3"):
        raise ValueError(
            f"{data['format']} is an older bundle format; "
            f"re-run synthesize to write a {BUNDLE_FORMAT} bundle"
        )
    if data.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"not a {BUNDLE_FORMAT} bundle")
    check_keys(data, "bundle", ("format", "factors"))
    classes = {cls.kind: cls for cls in (PolyFactor, SphereArcFunction)}
    factors = []
    for item in json_list(data, "factors"):
        kind = item.get("kind") if isinstance(item, dict) else None
        if not isinstance(kind, str) or kind not in classes:
            raise ValueError(f"unknown factor kind {kind!r}")
        factors.append(classes[kind].from_bundle(item))
    return SphereFunction(factors)


def load_bundle(path) -> SphereFunction:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return function_from_bundle(data)
