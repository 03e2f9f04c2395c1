"""Command line driver for the whole pipeline.

Five commands cover the pipeline end to end:

    implicitize   exact implicit polynomial of a k-cusped hypocycloid
    classify      structural report for a shrub description file
    synthesize    layout a shrub and emit a tangent field bundle
    simulate      integrate an orbit and estimate its limit set
    report        render a report file as readable text

Every command is deterministic given its inputs: reports embed the resolved
parameter set together with its SHA-256 hash, repeated runs with identical
configuration produce byte-identical files, and nothing records wall-clock
time or machine identity.

Configuration comes from an optional single JSON file (``--config``) holding
one object per command name, e.g. ``{"simulate": {"horizon": 40.0}}``.
Command-line flags override file values, which override built-in defaults.
A file value is read as the text its flag would take, so it meets the same
type and range checks. Unknown keys in a command's section are rejected.

Exit codes are stable: 0 success, 2 validation or configuration failure
(bad flags, malformed files, unsatisfiable layouts, a start on the zero set
of F, an `implicitize` cusp count outside 3 to 25, `IMPLICIT_K_MAX`), 3
numeric failure (step underflow, exhausted step budgets, evaluation at
exceptional points, an orbit that reaches a float zero of F, non-finite
field rows in the synthesis spot check, a non-finite south spiral rate, a
NaN or an infinity in any output, a failed classify self-check).
"""

from __future__ import annotations

import gc
import json
import math
import os
from typing import TYPE_CHECKING

# Set before any command loads numpy and with it OpenBLAS. No command makes a
# BLAS call large enough to gain from threads, and each OpenBLAS worker
# busy-waits for tens of milliseconds after start-up, taking a core from the
# main thread whenever the machine is loaded; a user's own setting is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from . import ATOL_DEFAULT, GUARD_DEFAULT, MAX_STEPS_DEFAULT, RTOL_DEFAULT

# Each command imports the modules it runs, inside the command, so that
# `--help` and `report` load none of them. `implicitize` loads `curves` and
# `classify` loads `shrub_model` (which loads `curves`), neither with numpy;
# `synthesize` adds `field_synth` and numpy, and `simulate` loads
# `field_synth` and `flow_sim` but not `shrub_model`, the largest module.
if TYPE_CHECKING:
    import numpy as np

    from . import field_synth, shrub_model
    from .poly_core import Polynomial

PLANE_VARS = ("x", "y")
CURVE_FORMAT = "implicit-curve/1"


class ConfigurationError(click.ClickException):
    """Validation failure: bad input files, values, or unsatisfiable layouts."""

    exit_code = 2


class NumericFailureError(click.ClickException):
    """Numeric failure during integration or evaluation, or a failed
    self-check."""

    exit_code = 3


# -- configuration plumbing ----------------------------------------------------


def _dump_json(obj) -> str:
    """Strict JSON text: a NaN or an infinity is a numeric failure, since
    standard JSON has no spelling for either."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericFailureError(f"output holds a non-finite number: {exc}")


def _config_hash(resolved: dict) -> str:
    # the interpreter's own SHA-256, as CPython's `random` takes its SHA-512:
    # `hashlib` loads OpenSSL, about 3.5 MB of memory, for one digest; only a
    # build made without the built-in hashes falls back to it
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _load_json_file(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path!r} is not valid JSON: {exc}")


def _resolve_config(ctx: click.Context) -> dict:
    """The command's settings as click resolved them, plus its name.

    Each setting comes from its flag, else from the config file, else from
    its default, and always through the flag's type. The returned dict is
    what gets hashed into reports. Before any input file is read, a float
    setting must be finite and every output path must be writable.
    """
    for param in ctx.command.params:
        value = ctx.params.get(param.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{param.name} must be finite")
        if isinstance(param.type, click.Path) and not param.type.exists:
            if value is not None:
                _require_writable(value, param.opts[0])
    return dict(ctx.params, command=ctx.command.name)


def _require_writable(path, what: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigurationError(f"{what} path {path!r} is not writable")


def _write_text(path, text: str, what: str) -> None:
    _require_writable(path, what)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _emit_report(text: str, report_path) -> None:
    """Print or write report text. Commands dump the report before writing
    any other file, so a report with a non-finite number leaves no file."""
    if report_path is None:
        click.echo(text, nl=False)
    else:
        _write_text(report_path, text, "report")
        click.echo(f"report: {report_path}")


# -- command group --------------------------------------------------------------


@click.group()
def cli():
    """Hypocycloid boundary curves, shrub layouts, and sphere flows."""


def _read_config_section(ctx: click.Context, _param, path) -> None:
    """Make the command's section of the config file click's default map.

    Each value becomes the text its flag would take (a list joined by
    commas, null left unset), so it passes the same type, range and
    conversion as the flag, and a flag still overrides it.
    """
    if path is None:
        return
    command = ctx.command.name
    data = _load_json_file(path, "config file")
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    section = data.get(command, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {command!r} must be a JSON object")
    options = {
        p.name for p in ctx.command.params if isinstance(p, click.Option)
    } - {"config"}
    unknown = sorted(set(section) - options)
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) in section {command!r}: " + ", ".join(unknown)
        )
    ctx.default_map = {
        name: ",".join(map(str, value)) if isinstance(value, list) else str(value)
        for name, value in section.items()
        if value is not None
    }


# value types shared by several options
_COUNT = click.IntRange(min=1)
_SEED = click.IntRange(min=0)
_POSITIVE = click.FloatRange(min=0.0, min_open=True)

_CONFIG_OPTION = click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    is_eager=True,
    expose_value=False,
    callback=_read_config_section,
    help="JSON file with one settings object per command; flags override it.",
)


# -- implicitize -----------------------------------------------------------------


def _curve_file_dict(k: int) -> dict:
    from . import curves

    meta = curves.implicit_metadata(k)
    return {
        "format": CURVE_FORMAT,
        "k": k,
        "variables": list(PLANE_VARS),
        "degree": meta["degree"],
        "terms": meta["terms"],
        "integer_content": str(meta["integer_content"]),
        "polynomial": curves.implicitize(k).to_text(),
    }


def _astroid_grid_check(poly: Polynomial) -> dict:
    """Exact zero-set comparison on the 101x101 tenth-step grid over [-5,5]^2.

    The point (i/10, j/10) is tested in integers: the homogenised polynomial
    at (i, j, 10), and 10^6 times the classical astroid form
    (x^2 + y^2 - 16)^3 + 432 x^2 y^2 there. Neither scale moves a zero, so
    the comparison carries no floating-point slack at all.
    """
    from . import curves

    form = curves.homogenize(poly)
    mismatches = []
    shared_zeros = 0
    for i in range(-50, 51):
        for j in range(-50, 51):
            ours = form.evaluate((i, j, 10)) == 0
            r2 = i * i + j * j - 1600
            reference = r2 * r2 * r2 + 43200 * i * i * j * j == 0
            if ours != reference:
                mismatches.append([i / 10, j / 10])
            elif ours:
                shared_zeros += 1
    return {
        "grid": 101,
        "span": [-5.0, 5.0],
        "points": 101 * 101,
        "agreements": 101 * 101 - len(mismatches),
        "mismatches": mismatches,
        "shared_zeros": shared_zeros,
        "exact": True,
    }


# The largest cusp count `implicitize` takes. Its report divides |F(p)| by
# 1 + |F|_1 r^deg in doubles, and from k = 26 on that product passes the
# largest double on the curve: every residual then reads 0.0, and from k = 41
# on the coefficients of F themselves no longer convert to floats.
IMPLICIT_K_MAX = 25


@cli.command("implicitize")
@click.option(
    "--k",
    type=click.IntRange(min=3, max=IMPLICIT_K_MAX),
    required=True,
    help=f"Cusp count, 3 to {IMPLICIT_K_MAX}.",
)
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Curve file destination (default hypocycloid-k<k>.curve.json).",
)
@click.option(
    "--samples",
    type=_COUNT,
    default=1000,
    show_default=True,
    help="Parameter samples for the residual sweep.",
)
@click.option(
    "--check",
    type=click.Choice(["astroid"]),
    default=None,
    help="Compare the k=4 zero set against the classical astroid form.",
)
@click.option("--report", type=click.Path(dir_okay=False), default=None)
@_CONFIG_OPTION
@click.pass_context
def implicitize_command(ctx, k, out, samples, check, report):
    """Write the exact implicit polynomial of the k-cusped hypocycloid.

    The residual report sweeps the parametric curve and records the largest
    normalized value of the polynomial along it, plus the normalized gradient
    at every cusp and a nonvanishing check at the origin.
    """
    from . import curves

    cfg = _resolve_config(ctx)
    if check is not None and k != 4:
        raise click.BadParameter(
            "the classical comparison form is the four-cusp astroid; use --k 4",
            param_hint="--check",
        )
    if out is None:
        out = cfg["out"] = f"hypocycloid-k{k}.curve.json"

    poly = curves.implicitize(k)

    # midpoint offsets keep the sweep off the cusp parameters themselves
    residuals = curves.normalized_residuals(
        poly,
        [
            curves.param_point(k, (i + 0.5) * 2.0 * math.pi / samples)
            for i in range(samples)
        ],
    )
    cusp_grad = max(
        max(curves.normalized_residuals(part, curves.cusps(k)))
        for part in curves.poly_gradient(poly)
    )
    origin = poly.evaluate((0, 0))

    body = {
        "kind": "implicitize",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "k": k,
        "degree": poly.total_degree(),
        "terms": len(poly.terms),
        "curve_file": out,
        "samples": samples,
        "max_residual": max(residuals),
        "mean_residual": sum(residuals) / len(residuals),
        "cusp_gradient_max": cusp_grad,
        "origin_value_nonzero": origin != 0,
    }
    if check == "astroid":
        body["astroid_check"] = _astroid_grid_check(poly)
    text = _dump_json(body)
    _write_text(out, _dump_json(_curve_file_dict(k)), "curve file")
    click.echo(f"curve file: {out}")
    _emit_report(text, report)


# -- classify --------------------------------------------------------------------


def _load_shrub(path) -> shrub_model.ShrubGraph:
    from . import shrub_model

    data = _load_json_file(path, "shrub file")
    try:
        return shrub_model.ShrubGraph.from_json(data)
    except shrub_model.ShrubError as exc:
        raise ConfigurationError(f"invalid shrub file {path!r}: {exc}")


def _orientation_report(shrub: shrub_model.ShrubGraph) -> dict:
    """Orientation certificate, augmenting odd cactuses with parity sprigs
    first when needed, plus the independent checker's verdict."""
    from . import shrub_model

    augmented = bool(shrub_model.find_odd_cactuses(shrub))
    target = shrub
    aux_sprigs = ()
    if augmented:
        target, aux_sprigs, _ = shrub_model.augment_with_parity_sprigs(shrub)
    try:
        cert = shrub_model.orient_all(target)
    except shrub_model.ShrubError as exc:
        return {"failure": str(exc)}
    verified, check_failures = shrub_model.verify_certificate(target, cert)
    return {
        "augmented": augmented,
        "aux_sprigs": list(aux_sprigs),
        "orientable": cert.orientable,
        "certificate": cert.to_json(),
        "verified": bool(verified),
        "checker_failures": list(check_failures),
    }


@cli.command("classify")
@click.argument("shrub_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", type=click.Path(dir_okay=False), default=None)
@_CONFIG_OPTION
@click.pass_context
def classify_command(ctx, shrub_file, report):
    """Report a shrub's structure: odd buds, odd cactuses, punctures,
    and an orientation certificate checked by an independent verifier.
    Exits 3 when the handshake identity fails or the degree-parity recount
    of odd buds plus odd cactuses disagrees with the classification."""
    from . import shrub_model

    cfg = _resolve_config(ctx)
    shrub = _load_shrub(shrub_file)

    buds = sorted(shrub_model.classify_buds(shrub), key=lambda b: b["bud"])
    cactus_list = shrub_model.cactuses(shrub)
    try:
        punctures = shrub_model.required_puncture_set(shrub)
    except shrub_model.ShrubError as exc:
        raise ConfigurationError(f"shrub rejected: {exc}")
    sum_orders = sum(b["order"] for b in buds)
    leaf_contacts = sum(
        1
        for junction in shrub.junctions
        for attach in junction.at
        if shrub.pieces[attach.piece].is_leaf
    )
    edge_count = len(shrub.sprig_ids()) + leaf_contacts
    if sum_orders != 2 * edge_count:
        raise NumericFailureError(
            f"handshake check failed: sum of star orders {sum_orders} "
            f"!= twice the edge count {2 * edge_count}"
        )
    odd_buds = [b["bud"] for b in buds if b["odd"]]
    odd_cactuses = sum(1 for c in cactus_list if c["odd"])
    odd_objects = len(odd_buds) + odd_cactuses
    # degree-parity recount that shares no classification code with the above
    recount = shrub_model.odd_object_recount(shrub)
    if recount != odd_objects:
        raise NumericFailureError(
            f"odd-object recount {recount} != {odd_objects} odd buds "
            "plus odd cactuses"
        )

    body = {
        "kind": "classify",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "pieces": {
            "leaves": list(shrub.leaf_ids()),
            "sprigs": list(shrub.sprig_ids()),
        },
        "buds": buds,
        "odd_buds": odd_buds,
        "cactuses": cactus_list,
        "odd_cactuses": odd_cactuses,
        "odd_object_recount": {
            "odd_buds_plus_odd_cactuses": odd_objects,
            "recount": recount,
        },
        "parity": {
            "sum_of_star_orders": sum_orders,
            "twice_edge_count": 2 * edge_count,
        },
        "punctures": punctures,
        "very_simple": shrub_model.is_very_simple(shrub),
        "orientation": _orientation_report(shrub),
    }
    _emit_report(_dump_json(body), report)


# -- synthesize ------------------------------------------------------------------


def _tangency_spot_check(field: field_synth.VectorField, count: int, seed: int) -> dict:
    """Largest normalized tangency defect over seeded random unit vectors.

    Each point takes two doubles u, v of the seeded stream that orbit starts
    draw from, and is z = 2u - 1 at longitude 2 pi v: uniform on the sphere.
    Rows are rescaled by their largest component before any product is
    taken; towering composites otherwise overflow doubles when squared.
    A row that evaluates to exactly zero is tangent by convention. A row
    with an infinite or NaN entry is counted in `nonfinite_rows`, never
    with the zero rows, and is left out of the maximum; so the batch runs
    with numpy's overflow and invalid-value warnings off.
    """
    import numpy as np

    from . import curves

    draws = np.fromiter(curves.seeded_doubles(seed), float, 2 * count)
    u, v = draws.reshape(count, 2).T
    z = 2.0 * u - 1.0
    r = np.sqrt(1.0 - z * z)
    longitude = 2.0 * math.pi * v
    points = np.stack([r * np.cos(longitude), r * np.sin(longitude), z], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = field.evaluate_many(points)
    finite = np.isfinite(rows).all(axis=1)
    scale = np.max(np.abs(rows), axis=1)
    live = finite & (scale > 0.0)
    unit_rows = rows[live] / scale[live, None]
    defect = np.abs(
        np.einsum("ij,ij->i", unit_rows, points[live])
    ) / np.linalg.norm(unit_rows, axis=1)
    return {
        "samples": count,
        "seed": seed,
        "zero_rows": int(np.sum(finite & ~live)),
        "nonfinite_rows": int(np.sum(~finite)),
        "max_normalized": float(defect.max()) if defect.size else 0.0,
    }


def _layout_report(layout: shrub_model.ShrubLayout) -> dict:
    body = {
        "mode": layout.mode,
        "pieces": len(layout.placements),
        "punctures": list(layout.punctures),
        "aux_sprigs": list(layout.aux_sprigs),
    }
    if layout.mode == "frame":
        body["frame_piece"] = layout.frame_piece
    else:
        body["base_bud"] = layout.base_bud
        body["maximal_segments"] = len(layout.maximal_segments)
    return body


def _factor_report(function: field_synth.SphereFunction) -> list:
    out = []
    for factor in function.factors:
        entry = {"label": factor.label, "kind": factor.kind}
        if factor.kind == "poly":
            entry["degree"] = factor.poly.total_degree()
        out.append(entry)
    return out


@cli.command("synthesize")
@click.argument("shrub_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default="field-bundle.json",
    show_default=True,
    help="Field bundle destination.",
)
@click.option(
    "--spot-checks",
    type=_COUNT,
    default=200,
    show_default=True,
    help="Random unit vectors for the tangency spot check.",
)
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--report", type=click.Path(dir_okay=False), default=None)
@_CONFIG_OPTION
@click.pass_context
def synthesize_command(ctx, shrub_file, out, spot_checks, seed, report):
    """Lay a shrub out in the plane, compose its boundary function, and
    write the tangent field as a reloadable bundle."""
    from . import field_synth, shrub_model

    cfg = _resolve_config(ctx)
    shrub = _load_shrub(shrub_file)
    try:
        layout = shrub_model.layout_shrub(shrub)
    except shrub_model.LayoutError as exc:
        raise ConfigurationError(f"layout unsatisfiable: {exc}")
    except shrub_model.ShrubError as exc:
        raise ConfigurationError(f"shrub rejected: {exc}")

    function = field_synth.compose_shrub_function(layout)
    field = field_synth.build_field(function)
    tangency = _tangency_spot_check(field, spot_checks, seed)
    if tangency["nonfinite_rows"]:
        raise NumericFailureError(
            f"{tangency['nonfinite_rows']} of {spot_checks} spot-check field "
            "rows are not finite (the boundary function overflows doubles)"
        )
    spiral_rate = 2.0 * field.g_value((0.0, 0.0, -1.0))
    if not math.isfinite(spiral_rate):
        raise NumericFailureError(
            f"the south spiral rate is {spiral_rate} "
            "(the boundary function overflows doubles at the south pole)"
        )

    body = {
        "kind": "synthesize",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "bundle_file": out,
        "layout": _layout_report(layout),
        "factors": _factor_report(function),
        "exceptional_points": [
            [float(c) for c in point] for point in function.exceptional_points()
        ],
        "south_spiral_rate": spiral_rate,
        "tangency": tangency,
    }
    text = _dump_json(body)
    field_synth.save_bundle(out, function)
    click.echo(f"bundle: {out}")
    _emit_report(text, report)


# -- simulate --------------------------------------------------------------------


def _parse_start(value):
    import numpy as np

    if value is None:
        return None
    try:
        coords = [float(c) for c in value.split(",")]
    except ValueError:
        raise ConfigurationError(f"start point {value!r} is not three numbers")
    if len(coords) != 3:
        raise ConfigurationError("start point needs exactly three coordinates")
    if not all(math.isfinite(c) for c in coords):
        raise ConfigurationError(f"start point {value!r} is not finite")
    # scaled by the largest coordinate first, so the norm cannot overflow
    peak = max(abs(c) for c in coords)
    if peak == 0.0:
        raise ConfigurationError("start point cannot be the origin")
    vec = np.asarray(coords, dtype=float) / peak
    return vec / float(np.linalg.norm(vec))


def _derived_path(base: str, seed: int) -> str:
    stem, ext = os.path.splitext(base)
    return f"{stem}-seed{seed}{ext}"


def _float_fmt(value: float) -> str:
    return format(value, ".6g")


def _run_label(run: dict) -> str:
    """`seed N`, or for a run from `--start` its normalised start point."""
    if run["seed"] is not None:
        return f"seed {run['seed']}"
    return f"start ({', '.join(_float_fmt(c) for c in run['start'])})"


def _stereo_svg(states: np.ndarray, zero_points: np.ndarray) -> str:
    """Plane picture of an orbit with the limit set's samples overdrawn.

    Projection from the north pole, (x, y, z) -> (x, y)/(1 - z); samples
    too close to the pole are dropped rather than drawn at huge radii, and
    the view box is clipped to inner percentiles so one late excursion
    cannot flatten the rest of the picture.
    """
    import numpy as np

    from . import curves

    def project(rows):
        px, py = curves.sphere_to_plane(rows[rows[:, 2] < 1.0 - 1e-12].T)
        return np.column_stack((px, -py))

    orbit = project(states)
    omega = project(zero_points)
    visible = [p for p in (orbit, omega) if p.size]
    stacked = np.vstack(visible) if visible else np.zeros((1, 2))
    lo = np.percentile(stacked, 1, axis=0)
    hi = np.percentile(stacked, 99, axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-6))
    pad = 0.08 * span
    box = (lo[0] - pad, lo[1] - pad, (hi[0] - lo[0]) + 2 * pad, (hi[1] - lo[1]) + 2 * pad)
    dot = 0.008 * span
    stroke = 0.004 * span

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="'
        + " ".join(_float_fmt(v) for v in box)
        + '">',
        f'<rect x="{_float_fmt(box[0])}" y="{_float_fmt(box[1])}" '
        f'width="{_float_fmt(box[2])}" height="{_float_fmt(box[3])}" fill="white"/>',
    ]
    if orbit.size:
        points = " ".join(
            f"{_float_fmt(px)},{_float_fmt(py)}" for px, py in orbit
        )
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="#1f6fb4" '
            f'stroke-width="{_float_fmt(stroke)}"/>'
        )
    if omega.size:
        lines.append('<g fill="#c23b22">')
        lines.extend(
            f'<circle cx="{_float_fmt(px)}" cy="{_float_fmt(py)}" r="{_float_fmt(dot)}"/>'
            for px, py in omega
        )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _run_orbit(
    field: field_synth.VectorField, zero_points: np.ndarray, cfg: dict, seed: int
):
    """One integration: returns (csv text, svg text or None, report).

    The field and the zero-set samples are shared by every seed of a batch.
    """
    from . import flow_sim

    start = _parse_start(cfg["start"])
    if start is None:
        start = flow_sim.seed_orbit(field, cfg["seed_radius"], seed)
    else:
        flow_sim.refuse_start(field.function, start)
    options = flow_sim.IntegrateOptions(
        rtol=cfg["rtol"],
        atol=cfg["atol"],
        unit_speed=cfg["unit_speed"],
        fixed_step=cfg["fixed_step"],
        max_steps=cfg["max_steps"],
        min_step=cfg["min_step"],
        max_step=cfg["max_step"],
    )
    trajectory = flow_sim.integrate(field, start, cfg["horizon"], options)

    drift = None
    drift_note = None
    try:
        drift = flow_sim.first_integral_drift(
            trajectory, guard=cfg["guard"], zero_samples=zero_points
        )
    except flow_sim.FlowError as exc:
        drift_note = str(exc)
    winding = None
    try:
        winding = flow_sim.winding_summary(trajectory)
    except flow_sim.FlowError:
        pass
    omega = flow_sim.omega_estimate(
        trajectory, zero_points, window_fraction=cfg["window_fraction"]
    )

    csv_text = flow_sim.trajectory_csv(trajectory)
    svg_text = None
    if cfg["plot"] is not None:
        svg_text = _stereo_svg(trajectory.states, zero_points)
    report = {
        "seed": None if cfg["start"] is not None else seed,
        "start": [float(c) for c in start],
        "samples": len(trajectory),
        "steps": dict(trajectory.diagnostics),
        "first_integral_drift": drift,
        "drift_note": drift_note,
        "winding": winding,
        "omega": omega,
    }
    return csv_text, svg_text, report


@cli.command("simulate")
@click.argument("bundle", type=click.Path(exists=True, dir_okay=False))
@click.option("--horizon", type=_POSITIVE, default=20.0, show_default=True)
@click.option(
    "--rtol", type=_POSITIVE, default=RTOL_DEFAULT, show_default=True
)
@click.option(
    "--atol", type=_POSITIVE, default=ATOL_DEFAULT, show_default=True
)
@click.option(
    "--unit-speed/--raw-speed",
    default=False,
    help="Follow the unit-speed direction field; horizons become arc length.",
)
@click.option("--fixed-step", type=_POSITIVE, default=None)
@click.option("--max-step", type=_POSITIVE, default=None)
@click.option("--min-step", type=_POSITIVE, default=None)
@click.option(
    "--max-steps", type=_COUNT, default=MAX_STEPS_DEFAULT, show_default=True
)
@click.option(
    "--start",
    type=str,
    default=None,
    help="Explicit start point x,y,z (normalized onto the sphere).",
)
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option(
    "--seed-radius",
    type=click.FloatRange(min=0.0, max=0.1, max_open=True),
    default=0.05,
    show_default=True,
    help="Chart radius of the seeded start disk around the bottom of the sphere.",
)
@click.option("--zero-samples", type=_COUNT, default=1200, show_default=True)
@click.option(
    "--window-fraction",
    type=click.FloatRange(min=0.0, max=1.0, min_open=True),
    default=0.5,
    show_default=True,
)
@click.option(
    "--guard",
    type=click.FloatRange(min=0.0),
    default=GUARD_DEFAULT,
    show_default=True,
)
@click.option(
    "--seeds",
    type=_COUNT,
    default=None,
    help="Run this many consecutive seeds one after another and merge the report.",
)
@click.option(
    "--out-csv",
    type=click.Path(dir_okay=False),
    default="trajectory.csv",
    show_default=True,
)
@click.option(
    "--plot",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write a plane projection of the orbit and limit set samples.",
)
@click.option("--report", type=click.Path(dir_okay=False), default=None)
@_CONFIG_OPTION
@click.pass_context
def simulate_command(ctx, bundle, **_kwargs):
    """Integrate one or more orbits of a field bundle and report the
    estimated limit set, first-integral drift, and winding."""
    from . import curves, field_synth, flow_sim

    cfg = _resolve_config(ctx)
    if cfg["seeds"] is not None and cfg["start"] is not None:
        raise ConfigurationError("an explicit start point conflicts with --seeds")

    data = _load_json_file(bundle, "bundle file")
    try:
        function = field_synth.function_from_bundle(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"invalid bundle {bundle!r}: {exc}")

    seeds = cfg["seeds"]
    seed_values = range(cfg["seed"], cfg["seed"] + (seeds or 1))
    try:
        field = field_synth.build_field(function)
        zero_points = flow_sim.sample_zero_set(function, cfg["zero_samples"])
        results = [_run_orbit(field, zero_points, cfg, seed) for seed in seed_values]
    except flow_sim.FlowError as exc:
        raise NumericFailureError(f"integration failed: {exc}")
    except curves.DomainError as exc:
        raise NumericFailureError(f"evaluation failed: {exc}")
    except ValueError as exc:
        raise ConfigurationError(str(exc))

    runs = []
    writes = []
    for seed, (csv_text, svg_text, run_report) in zip(seed_values, results):
        csv_path = (
            cfg["out_csv"] if seeds is None else _derived_path(cfg["out_csv"], seed)
        )
        writes.append((csv_path, csv_text, "trajectory"))
        files = {"trajectory_csv": csv_path}
        if svg_text is not None:
            plot_path = (
                cfg["plot"] if seeds is None else _derived_path(cfg["plot"], seed)
            )
            writes.append((plot_path, svg_text, "plot"))
            files["plot_svg"] = plot_path
        run_report["files"] = files
        runs.append(run_report)

    body = {
        "kind": "simulate",
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "bundle": bundle,
        "zero_samples": cfg["zero_samples"],
        "runs": runs,
    }
    text = _dump_json(body)
    for path, content, what in writes:
        _write_text(path, content, what)
    for run in runs:
        tail = run["omega"]
        click.echo(
            f"{_run_label(run)}: {run['samples']} samples, "
            f"attraction {_float_fmt(tail['attraction'])}, "
            f"coverage {_float_fmt(tail['coverage'])}"
        )
    _emit_report(text, cfg["report"])


# -- report ----------------------------------------------------------------------


def _render_implicitize(body: dict) -> list:
    lines = [
        f"implicit curve: k={body['k']} degree {body['degree']} "
        f"({body['terms']} terms) -> {body['curve_file']}",
        f"residual sweep: {body['samples']} samples, "
        f"max {_float_fmt(body['max_residual'])}, "
        f"mean {_float_fmt(body['mean_residual'])}",
        f"cusp gradients: max normalized {_float_fmt(body['cusp_gradient_max'])}",
        "origin value nonzero: " + ("yes" if body["origin_value_nonzero"] else "NO"),
    ]
    if "astroid_check" in body:
        grid = body["astroid_check"]
        lines.append(
            f"astroid grid: {grid['agreements']}/{grid['points']} agree, "
            f"{grid['shared_zeros']} shared zeros, "
            + ("exact arithmetic" if grid.get("exact") else "tolerance-based")
        )
    return lines


def _render_classify(body: dict) -> list:
    parity = body["parity"]
    recount = body["odd_object_recount"]
    orientation = body["orientation"]
    lines = [
        f"pieces: {len(body['pieces']['leaves'])} leaves, "
        f"{len(body['pieces']['sprigs'])} sprigs",
        f"odd buds: {body['odd_buds']}",
        f"odd cactuses: {body['odd_cactuses']}",
        f"parity: sum of star orders {parity['sum_of_star_orders']} vs "
        f"twice edges {parity['twice_edge_count']} (consistent)",
        f"odd-object recount: {recount['recount']} vs "
        f"{recount['odd_buds_plus_odd_cactuses']} odd buds plus odd cactuses (match)",
        f"punctures: {body['punctures']}",
        f"very simple: {'yes' if body['very_simple'] else 'no'}",
    ]
    if "failure" in orientation:
        lines.append(f"orientation failed: {orientation['failure']}")
    elif not orientation["orientable"]:
        reasons = orientation["certificate"]["failures"]
        first = reasons[0] if reasons else "no reason recorded"
        lines.append(f"orientation: not orientable ({first})")
    else:
        verdict = "verified" if orientation["verified"] else "REJECTED BY CHECKER"
        augmented = " (after parity augmentation)" if orientation["augmented"] else ""
        lines.append(f"orientation: certificate {verdict}{augmented}")
    return lines


def _render_synthesize(body: dict) -> list:
    layout = body["layout"]
    tangency = body["tangency"]
    return [
        f"bundle: {body['bundle_file']}",
        f"layout: {layout['mode']} mode, {layout['pieces']} pieces, "
        f"punctures {layout['punctures']}",
        f"factors: {len(body['factors'])} "
        f"({', '.join(f['label'] or f['kind'] for f in body['factors'])})",
        f"exceptional points: {len(body['exceptional_points'])}",
        f"south spiral rate: {_float_fmt(body['south_spiral_rate'])}",
        f"tangency spot check: max normalized "
        f"{_float_fmt(tangency['max_normalized'])} over {tangency['samples']} samples",
    ]


def _render_simulate(body: dict) -> list:
    lines = [
        f"bundle: {body['bundle']}",
        f"zero samples: {body['zero_samples']}",
    ]
    for run in body["runs"]:
        omega = run["omega"]
        drift = run["first_integral_drift"]
        drift_bit = (
            f"drift {_float_fmt(drift)}" if drift is not None else "drift n/a"
        )
        winding = run["winding"]
        winding_bit = (
            f", winding {_float_fmt(winding['net'])}" if winding else ""
        )
        lines.append(
            f"{_run_label(run)}: {run['samples']} samples, {drift_bit}, "
            f"attraction {_float_fmt(omega['attraction'])}, "
            f"coverage {_float_fmt(omega['coverage'])}{winding_bit}"
        )
    return lines


_RENDERERS = {
    "implicitize": _render_implicitize,
    "classify": _render_classify,
    "synthesize": _render_synthesize,
    "simulate": _render_simulate,
}


@cli.command("report")
@click.argument("report_file", type=click.Path(exists=True, dir_okay=False))
def report_command(report_file):
    """Render a report file produced by any other command as plain text."""
    body = _load_json_file(report_file, "report file")
    try:
        lines = [f"{body['kind']} report (config {body['config_sha256'][:12]})"]
        lines.extend(_RENDERERS[body["kind"]](body))
    except (KeyError, TypeError, ValueError):
        raise ConfigurationError(f"{report_file!r} is not a recognized report file")
    click.echo("\n".join(lines))


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    """Run the command line; returns the exit code instead of raising.

    This is the in-process API. It leaves the garbage collector as it
    found it; only `run` freezes it.
    """
    try:
        cli.main(args=argv, prog_name="shrubfield", standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def run() -> None:
    """Process entry point: run the command line, then exit with its code.

    Freezing the collector first moves every live object out of its
    generations, so the collections of interpreter shutdown find nothing to
    traverse. Output streams still flush and `atexit` handlers still run;
    every file a command writes is closed by then.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
