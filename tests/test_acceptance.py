"""Acceptance gate: eight criteria, one test and one verdict line each.

Each test prints ``CRITERION <n> PASS`` with its measured numbers after all
assertions clear, so a verbose run doubles as a checklist. Budgets are
asserted last; a slow but correct run fails on the budget line, not on the
mathematics.
"""

import math
import random
import time

import numpy as np
import pytest
from shrubs import (
    example_field,
    jacobian_at_south_pole,
    parity_check,
    random_very_simple_shrub,
)

from shrubfield.cli import main
from shrubfield.curves import (
    cusps,
    implicitize,
    normalized_residuals,
    param_point,
    poly_gradient,
)
from shrubfield.field_synth import PolyFactor, SphereFunction, build_field
from shrubfield.flow_sim import (
    IntegrateOptions,
    first_integral_drift,
    integrate,
    omega_estimate,
    sample_zero_set,
    seed_orbit,
    winding_summary,
)
from shrubfield.poly_core import Polynomial
from shrubfield.shrub_model import orient_all, verify_certificate

FIVE_FIELDS = ("equator", "lone-sprig", "framed-pair", "framed-chain", "spiked-leaf")
OFF_BOTTOM = np.array([0.1, 0.0, -math.sqrt(0.99)])


def _verdict(number: int, label: str, elapsed: float, detail: str) -> None:
    print(f"CRITERION {number} PASS ({label}): {detail} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def built():
    """All five acceptance fields, built once; the build time is charged to
    the tangency criterion, whose budget covers synthesis plus evaluation."""
    start = time.perf_counter()
    fields = {name: example_field(name) for name in FIVE_FIELDS}
    return {"fields": fields, "build_seconds": time.perf_counter() - start}


def _normalized_tangency(field, points: np.ndarray) -> float:
    rows = field.evaluate_many(points)
    # rescale by the largest component first; squaring raw values of
    # towering composites would overflow doubles
    scale = np.max(np.abs(rows), axis=1)
    live = scale > 0.0
    unit_rows = rows[live] / scale[live, None]
    defect = np.abs(
        np.einsum("ij,ij->i", unit_rows, points[live])
    ) / np.linalg.norm(unit_rows, axis=1)
    return float(defect.max()) if defect.size else 0.0


def test_criterion_1_tangency(built):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    points = rng.normal(size=(10_000, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    worst = 0.0
    for name in FIVE_FIELDS:
        worst = max(worst, _normalized_tangency(built["fields"][name], points))
        assert worst < 1e-10, f"{name} breaks tangency at {worst:.3e}"
    elapsed = time.perf_counter() - start + built["build_seconds"]
    assert elapsed < 10.0, f"tangency took {elapsed:.1f}s (budget 10s)"
    _verdict(
        1,
        "tangency",
        elapsed,
        f"5 fields x 10^4 unit vectors, max normalized defect {worst:.3e} < 1e-10",
    )


def test_criterion_2_south_pole_focus(built):
    start = time.perf_counter()
    z = Polynomial.variable("z", ("x", "y", "z"))
    cases = {
        "height": build_field(SphereFunction(factors=[PolyFactor(z)])),
        "doubled height": build_field(SphereFunction(factors=[PolyFactor(z * 2)])),
        "hypocycloid composite": built["fields"]["framed-pair"],
    }
    worst = 0.0
    for name, field in cases.items():
        focus = jacobian_at_south_pole(field)
        worst = max(worst, focus.relative_error)
        assert focus.relative_error < 1e-4, (
            f"{name}: eigenvalues {focus.eigenvalues} miss the spiral "
            f"prediction by {focus.relative_error:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"focus check took {elapsed:.1f}s (budget 5s)"
    _verdict(
        2,
        "south-pole focus",
        elapsed,
        f"3 fields, worst relative eigenvalue mismatch {worst:.3e} < 1e-4",
    )


DRIFT_HORIZONS = {
    "equator": 30.0,
    "framed-pair": 16.0,
    "framed-chain": 14.0,
    "lone-sprig": 10.0,
    "spiked-leaf": 12.0,
}


def test_criterion_3_first_integral(built):
    start = time.perf_counter()
    worst = 0.0
    for name in FIVE_FIELDS:
        field = built["fields"][name]
        zeros = sample_zero_set(field.function, 1000)
        trajectory = integrate(
            field,
            seed_orbit(field, 0.05, 11),
            DRIFT_HORIZONS[name],
            IntegrateOptions(unit_speed=True),
        )
        drift = first_integral_drift(trajectory, zero_samples=zeros)
        worst = max(worst, drift)
        assert drift < 1e-6, f"{name} drifts {drift:.3e} over a guarded orbit"
    # halving the step must cut the drift at least fourfold (order > 2)
    halved = []
    for h in (0.02, 0.01):
        trajectory = integrate(
            built["fields"]["equator"],
            OFF_BOTTOM,
            16.0,
            IntegrateOptions(unit_speed=True, fixed_step=h),
        )
        halved.append(first_integral_drift(trajectory))
    ratio = halved[0] / halved[1]
    assert ratio >= 4.0, f"step halving only improved drift {ratio:.2f}x"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"first-integral check took {elapsed:.1f}s (budget 60s)"
    _verdict(
        3,
        "first integral",
        elapsed,
        f"5 guarded orbits, worst drift {worst:.3e} < 1e-6; "
        f"step halving improves {ratio:.1f}x >= 4x",
    )


def test_criterion_4_implicitization():
    from fractions import Fraction

    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_residual = 0.0
    worst_gradient = 0.0
    for k in range(3, 9):
        poly = implicitize(k)
        points = [param_point(k, t) for t in rng.uniform(0.0, 2.0 * math.pi, size=1000)]
        worst_residual = max(worst_residual, *normalized_residuals(poly, points))
        assert worst_residual < 1e-12, f"k={k} parametric residual {worst_residual:.3e}"
        gradient = poly_gradient(poly)
        for part in gradient:
            worst_gradient = max(worst_gradient, *normalized_residuals(part, cusps(k)))
        assert worst_gradient < 1e-8, f"k={k} cusp gradient {worst_gradient:.3e}"
        assert poly.evaluate((Fraction(0), Fraction(0))) != 0, f"k={k} vanishes at 0"

    # the k=4 zero set must match the classical astroid form pointwise on
    # the tenth-step grid over [-5, 5]^2, in exact arithmetic
    x = Polynomial.variable("x", ("x", "y"))
    y = Polynomial.variable("y", ("x", "y"))
    c16 = Polynomial.constant(16, ("x", "y"))
    c432 = Polynomial.constant(432, ("x", "y"))
    classical = (x * x + y * y - c16) ** 3 + c432 * x * x * y * y
    f4 = implicitize(4)
    mismatches = 0
    for i in range(-50, 51):
        for j in range(-50, 51):
            point = (Fraction(i, 10), Fraction(j, 10))
            if (f4.evaluate(point) == 0) != (classical.evaluate(point) == 0):
                mismatches += 1
    assert mismatches == 0, f"{mismatches} grid points disagree with the astroid"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"implicitization took {elapsed:.1f}s (budget 120s)"
    _verdict(
        4,
        "implicitization",
        elapsed,
        f"k=3..8 residual {worst_residual:.3e} < 1e-12, cusp gradients "
        f"{worst_gradient:.3e} < 1e-8, origin nonzero, 101x101 astroid grid exact",
    )


def test_criterion_5_parity():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(1000):
        vertices = int(rng.integers(1, 40))
        edge_count = int(rng.integers(0, 80))
        edges = [
            (int(rng.integers(0, vertices)), int(rng.integers(0, vertices)))
            for _ in range(edge_count)
        ]
        try:
            total, even = parity_check(edges, vertex_count=vertices)
            if total != 2 * edge_count or not even:
                failures += 1
        except AssertionError:
            failures += 1
    assert failures == 0, f"{failures} of 1000 random graphs break the handshake"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"parity sweep took {elapsed:.2f}s (budget 1s)"
    _verdict(
        5,
        "parity",
        elapsed,
        "1000 random multigraphs, star orders sum to twice the edges, 0 failures",
    )


def test_criterion_6_orientation():
    start = time.perf_counter()
    rng = random.Random(6)
    alternatives_seen = set()
    for index in range(50):
        shrub = random_very_simple_shrub(rng)
        certificate = orient_all(shrub)
        assert certificate.orientable, f"shrub {index} failed to orient"
        verified, failures = verify_certificate(shrub, certificate)
        assert verified, f"shrub {index} rejected by the checker: {failures[:3]}"
        for sprig in shrub.sprig_ids():
            assignment = certificate.sprig_assignments.get(sprig)
            assert assignment is not None, f"shrub {index} sprig {sprig} unassigned"
            assert assignment["alternative"] in {"i", "ii", "iii"}
            alternatives_seen.add(assignment["alternative"])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"orientation sweep took {elapsed:.1f}s (budget 10s)"
    _verdict(
        6,
        "orientation",
        elapsed,
        f"50 very simple shrubs verified; alternatives used: "
        f"{sorted(alternatives_seen)}",
    )


def test_criterion_7_omega_limit(built):
    start = time.perf_counter()

    # circle case: the whole equator is reached and the winding diverges
    equator = built["fields"]["equator"]
    zeros = sample_zero_set(equator.function, 1500)
    trajectory = integrate(
        equator,
        OFF_BOTTOM,
        80.0,
        IntegrateOptions(unit_speed=True, max_step=0.01),
    )
    estimate = omega_estimate(trajectory, zeros, window_fraction=0.5)
    assert estimate["symmetric"] < 1e-2, (
        f"equator tail misses the limit set by {estimate['symmetric']:.3e}"
    )
    winding = winding_summary(trajectory)
    assert winding["net"] < -20.0 * math.pi, (
        f"winding only reached {winding['net']:.2f}"
    )

    # one hypocycloid inside the unit-disk frame: attraction plus coverage
    # shrinking across three horizon doublings
    framed = built["fields"]["framed-pair"]
    framed_zeros = sample_zero_set(framed.function, 1200)
    framed_run = integrate(
        framed,
        OFF_BOTTOM,
        52.0,
        IntegrateOptions(unit_speed=True, rtol=1e-6, atol=1e-9),
    )
    attraction = omega_estimate(
        framed_run, framed_zeros, window_fraction=0.25
    )["attraction"]
    assert attraction < 1e-2, f"framed tail sits {attraction:.3e} off the limit set"
    series = omega_estimate(framed_run, framed_zeros, window_fraction=0.5)["series"]
    coverages = [window["coverage"] for window in series]
    assert len(coverages) == 4
    assert all(a > b for a, b in zip(coverages, coverages[1:])), (
        f"coverage fails to shrink monotonically: {coverages}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"omega-limit runs took {elapsed:.1f}s (budget 300s)"
    _verdict(
        7,
        "omega limit",
        elapsed,
        f"equator symmetric {estimate['symmetric']:.3e} < 1e-2, winding "
        f"{winding['net']:.1f} < -20pi; framed attraction {attraction:.3e} < 1e-2, "
        f"coverage {', '.join(f'{c:.3f}' for c in coverages)} decreasing",
    )


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    shrub_file = tmp_path / "shrub.json"
    shrub_file.write_text('{"pieces": [{"leaf": {"k": 3}}], "junctions": []}')
    bundle = tmp_path / "bundle.json"
    synth_report = tmp_path / "synth.json"
    synth_args = [
        "synthesize",
        str(shrub_file),
        "--out",
        str(bundle),
        "--report",
        str(synth_report),
    ]
    simulate_args = [
        "simulate",
        str(bundle),
        "--horizon",
        "8",
        "--unit-speed",
        "--zero-samples",
        "300",
        "--out-csv",
        str(tmp_path / "orbit.csv"),
        "--report",
        str(tmp_path / "omega.json"),
        "--plot",
        str(tmp_path / "orbit.svg"),
    ]
    implicit_args = [
        "implicitize",
        "--k",
        "5",
        "--out",
        str(tmp_path / "k5.json"),
        "--report",
        str(tmp_path / "k5-report.json"),
    ]
    watched = [
        bundle,
        synth_report,
        tmp_path / "orbit.csv",
        tmp_path / "omega.json",
        tmp_path / "orbit.svg",
        tmp_path / "k5.json",
        tmp_path / "k5-report.json",
    ]
    snapshots = []
    for _ in range(2):
        assert main(synth_args) == 0
        assert main(simulate_args) == 0
        assert main(implicit_args) == 0
        snapshots.append([path.read_bytes() for path in watched])
    for path, first, second in zip(watched, *snapshots):
        assert first == second, f"{path.name} differs between identical runs"
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "determinism",
        elapsed,
        f"{len(watched)} report and artifact files byte-identical across "
        "repeated runs",
    )
