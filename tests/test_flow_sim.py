"""Orbit integration, conserved quantity, and limit-set diagnostics."""

import hashlib
import math

import numpy as np
import pytest
from exact_oracle import exact_value
from shrubs import example_field

from shrubfield.curves import plane_to_sphere, sphere_arc
from shrubfield.field_synth import SphereFunction
from shrubfield.flow_sim import (
    FlowError,
    _allocate,
    _pairwise_min_angle,
    IntegrateOptions,
    Trajectory,
    first_integral_drift,
    integrate,
    omega_estimate,
    refuse_start,
    sample_zero_set,
    seed_orbit,
    trajectory_csv,
    winding_summary,
)

SOUTH = np.array([0.0, 0.0, -1.0])
OFF_BOTTOM = np.array([0.1, 0.0, -math.sqrt(0.99)])

_CACHE = {}


def zero_for(name, count=1200):
    key = ("zero", name, count)
    if key not in _CACHE:
        _CACHE[key] = sample_zero_set(example_field(name).function, count)
    return _CACHE[key]


def equator_run():
    """Medium equator orbit shared by the cheap diagnostics tests."""
    if "eq-run" not in _CACHE:
        _CACHE["eq-run"] = integrate(
            example_field("equator"),
            OFF_BOTTOM,
            20.0,
            IntegrateOptions(unit_speed=True),
        )
    return _CACHE["eq-run"]


def equator_long_run():
    """Long, densely sampled equator orbit for winding and limit tests."""
    if "eq-long" not in _CACHE:
        _CACHE["eq-long"] = integrate(
            example_field("equator"),
            OFF_BOTTOM,
            80.0,
            IntegrateOptions(unit_speed=True, max_step=0.01),
        )
    return _CACHE["eq-long"]


def constant_trajectory(point, n=5, logrho=-1.0):
    point = np.asarray(point, dtype=float)
    return Trajectory(
        times=np.arange(n, dtype=float),
        states=np.tile(point, (n, 1)),
        theta=np.full(n, math.atan2(point[1], point[0])),
        logrho=np.full(n, logrho),
        steps=np.zeros(n),
        errors=np.zeros(n),
        diagnostics={},
    )


# -- integration basics -------------------------------------------------------


def test_rest_at_the_bottom_stays_put():
    traj = integrate(
        example_field("equator"), SOUTH, 1.0, IntegrateOptions(fixed_step=0.1)
    )
    assert len(traj) == 11
    assert np.all(traj.states == SOUTH)
    assert np.all(traj.theta == 0.0)


def test_rest_on_the_boundary_stays_put():
    # every zero of the boundary function is a rest point of the field
    p = np.array([1.0, 0.0, 0.0])
    traj = integrate(
        example_field("equator"), p, 1.0, IntegrateOptions(fixed_step=0.25)
    )
    assert np.all(traj.states == p)


def test_updraft_away_from_the_bottom_on_the_plain_equator_field():
    # third component is 2 z^2 (x^2 + y^2) >= 0, so height climbs toward 0
    traj = equator_run()
    z = traj.states[:, 2]
    assert np.all(np.diff(z) > 0.0)
    assert z[0] < -0.9 and abs(z[-1]) < 1e-6


def test_states_stay_on_the_sphere():
    for traj in (equator_run(), equator_long_run()):
        norms = np.linalg.norm(traj.states, axis=1)
        assert float(np.max(np.abs(norms - 1.0))) < 1e-10


def test_sample_times_increase_and_turns_stay_small():
    traj = equator_run()
    assert np.all(np.diff(traj.times) > 0.0)
    assert float(np.max(np.abs(np.diff(traj.theta)))) < math.pi / 2


def test_steps_that_swing_a_quarter_turn_are_retried_shorter():
    # 1e-3 from the poles axis the orbit turns about it quickly, so at loose
    # tolerances a step can swing the winding angle by a quarter turn or more
    field = example_field("equator")
    start = seed_orbit(field, 1e-3, 0)
    for unit_speed in (False, True):
        opts = IntegrateOptions(rtol=1e-3, atol=1e-3, unit_speed=unit_speed)
        traj = integrate(field, start, 3.0, opts)
        assert traj.diagnostics["rejected_winding"] > 0
        assert float(np.max(np.abs(np.diff(traj.theta)))) < math.pi / 2
    with pytest.raises(FlowError, match="fixed step swings the winding angle"):
        integrate(field, start, 3.0, IntegrateOptions(fixed_step=1.0))


class NorthCap:
    """Stand-in boundary function: F = -z below the equator and exactly 0.0
    on and above it, with no punctures."""

    def exceptional_points(self):
        return ()

    def value_and_gradient(self, x, y, z):
        return (-z, 0.0, 0.0, -1.0) if z < 0.0 else (0.0, 0.0, 0.0, 0.0)


class NorthwardField:
    """Stand-in field: rows point north along the meridians wherever F is
    not zero and vanish exactly where it is."""

    function = NorthCap()

    def evaluate_many(self, pts):
        rows = []
        for x, y, z in np.asarray(pts, dtype=float).tolist():
            if self.function.value_and_gradient(x, y, z)[0] == 0.0:
                rows.append((0.0, 0.0, 0.0))
            else:
                rows.append((-x * z, -y * z, 1.0 - z * z))
        return np.array(rows)


def test_an_orbit_that_reaches_a_zero_of_f_raises():
    # the fixed step accepts every step, so the orbit climbs through the
    # equator, where F turns 0.0 and the row vanishes for good
    opts = IntegrateOptions(unit_speed=True, fixed_step=0.25)
    message = "orbit reached a zero of the field after arc length 1.25 at"
    with pytest.raises(FlowError, match=message) as err:
        integrate(NorthwardField(), np.array([0.6, 0.0, -0.8]), 4.0, opts)
    assert err.value.location[2] >= 0.0
    assert NorthCap().value_and_gradient(*err.value.location)[0] == 0.0


def test_start_on_the_zero_set_is_refused_before_integration():
    # every zero of F is a rest point; an explicit start there is refused,
    # while the south focus, where F is not zero, is taken
    function = example_field("equator").function
    with pytest.raises(ValueError, match="zero set of F"):
        refuse_start(function, np.array([1.0, 0.0, 0.0]))
    refuse_start(function, SOUTH)
    with pytest.raises(FlowError, match="exceptional"):
        refuse_start(example_field("lone-sprig").function, np.array([0.0, 0.0, 1.0]))


def test_start_off_the_sphere_is_rejected():
    with pytest.raises(ValueError, match="unit sphere"):
        integrate(example_field("equator"), np.array([0.5, 0.0, 0.0]), 1.0)


def test_nonfinite_start_is_rejected():
    # a NaN coordinate passed the unit-norm check, since NaN compares false
    for start in ([math.nan, 0.0, 0.0], [math.inf, 0.0, -1.0], [0.6, math.nan, -0.8]):
        with pytest.raises(ValueError, match="finite"):
            integrate(example_field("equator"), np.array(start), 1.0)


def test_start_on_a_puncture_is_refused():
    field = example_field("lone-sprig")
    with pytest.raises(FlowError, match="exceptional"):
        integrate(field, np.array([0.0, 0.0, 1.0]), 1.0)


def test_zero_horizon_is_rejected():
    with pytest.raises(ValueError, match="horizon"):
        integrate(example_field("equator"), SOUTH, 0.0)


def test_negative_horizon_retraces_the_orbit():
    opts = IntegrateOptions(unit_speed=True)
    for name, span in (("equator", 20.0), ("lone-sprig", 10.0)):
        field = example_field(name)
        p0 = seed_orbit(field, 0.05, 11)
        forward = integrate(field, p0, span, opts)
        back = integrate(field, forward.states[-1], -span, opts)
        assert np.all(np.diff(back.times) > 0.0)
        gap = float(np.linalg.norm(back.states[-1] - p0))
        assert gap < 1e-5


def test_step_budget_exhaustion_is_reported():
    with pytest.raises(FlowError, match="step budget"):
        integrate(
            example_field("equator"),
            OFF_BOTTOM,
            30.0,
            IntegrateOptions(unit_speed=True, max_steps=5),
        )


def test_step_floor_stops_the_run_with_a_location():
    with pytest.raises(FlowError, match=r"underflow.*at \("):
        integrate(
            example_field("equator"),
            OFF_BOTTOM,
            30.0,
            IntegrateOptions(unit_speed=True, min_step=1.0),
        )


def test_tolerances_must_be_positive():
    for options in (IntegrateOptions(atol=0.0), IntegrateOptions(rtol=-1e-10)):
        with pytest.raises(ValueError, match="tolerances"):
            integrate(example_field("equator"), OFF_BOTTOM, 1.0, options)


def test_fixed_step_must_be_positive():
    with pytest.raises(ValueError, match="fixed step"):
        integrate(
            example_field("equator"),
            SOUTH,
            1.0,
            IntegrateOptions(fixed_step=0.0),
        )


class CountingField:
    """Stands in for a VectorField and counts the points it evaluates."""

    def __init__(self, field):
        self.field = field
        self.function = field.function
        self.evaluations = 0

    def evaluate_many(self, pts):
        self.evaluations += len(pts)
        return self.field.evaluate_many(pts)


def test_each_step_attempt_costs_six_evaluations():
    # the start evaluation is the first stage of the first step, and every
    # accepted step hands its last stage on, rejected or not
    for name, start, horizon in (
        ("equator", OFF_BOTTOM, 6.0),
        ("lone-sprig", OFF_BOTTOM, 3.0),
    ):
        counted = CountingField(example_field(name))
        traj = integrate(counted, start, horizon, IntegrateOptions(unit_speed=True))
        d = traj.diagnostics
        attempts = d["accepted"] + d["rejected_error"] + d["rejected_winding"]
        assert counted.evaluations == 1 + 6 * attempts, name


def _seven_stage_orbit(field, start, h, count):
    """Fixed-step Dormand-Prince orbit with all seven stages evaluated
    afresh at every step."""
    a = [
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
    b5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]

    def deriv(u):
        return field.evaluate_many([u / np.linalg.norm(u)])[0]

    u = np.asarray(start, dtype=float)
    states = [u]
    for _ in range(count):
        k = []
        for row in a:
            k.append(deriv(u + h * sum((c * kj for c, kj in zip(row, k)), np.zeros(3))))
        u5 = u + h * sum(c * kj for c, kj in zip(b5, k))
        u = u5 / np.linalg.norm(u5)
        states.append(u)
    return np.array(states)


def test_reused_stages_match_a_seven_stage_reference():
    field = example_field("equator")
    # a step of 1/16 divides the horizon exactly
    traj = integrate(field, OFF_BOTTOM, 4.0, IntegrateOptions(fixed_step=0.0625))
    reference = _seven_stage_orbit(field, OFF_BOTTOM, 0.0625, len(traj) - 1)
    assert len(traj) == 65
    assert float(np.max(np.abs(traj.states - reference))) < 1e-12


# -- the conserved quantity ---------------------------------------------------


def test_nearest_angle_matches_the_elementwise_minimum():
    states = equator_run().states
    zs = zero_for("equator")
    for a, b in ((states, zs), (zs, states)):
        elementwise = np.arccos(np.clip(a @ b.T, -1.0, 1.0)).min(axis=1)
        assert np.array_equal(_pairwise_min_angle(a, b), elementwise)


def test_first_integral_holds_on_guarded_samples():
    for name, span in (
        ("equator", 30.0),
        ("framed-pair", 16.0),
        ("lone-sprig", 10.0),
    ):
        field = example_field(name)
        p0 = seed_orbit(field, 0.05, 11)
        traj = integrate(field, p0, span, IntegrateOptions(unit_speed=True))
        drift = first_integral_drift(traj, zero_samples=zero_for(name))
        assert drift < 1e-6, f"{name}: drift {drift:.3e}"


def test_drift_vanishes_on_a_constant_orbit():
    traj = constant_trajectory((0.6, 0.0, -0.8), logrho=-1.3)
    assert first_integral_drift(traj) == 0.0


def test_drift_errors_when_the_integral_starts_at_zero():
    # on the poles axis rho vanishes, so w(0) = 0 and no ratio exists
    traj = integrate(
        example_field("equator"), SOUTH, 1.0, IntegrateOptions(fixed_step=0.25)
    )
    with pytest.raises(FlowError, match="vanishes at the start"):
        first_integral_drift(traj)


def test_drift_errors_when_the_guard_excludes_everything():
    traj = constant_trajectory((0.6, 0.0, -0.8))
    with pytest.raises(FlowError, match="guard"):
        first_integral_drift(
            traj, guard=0.5, zero_samples=np.array([[0.6, 0.0, -0.8]])
        )


def test_loosened_tolerance_grows_the_drift():
    drifts = []
    for rtol in (1e-10, 1e-8, 1e-6):
        traj = integrate(
            example_field("equator"),
            OFF_BOTTOM,
            20.0,
            IntegrateOptions(unit_speed=True, rtol=rtol, atol=rtol * 1e-2),
        )
        drifts.append(first_integral_drift(traj))
    assert drifts[0] < drifts[1] < drifts[2]


def test_halving_the_step_cuts_the_drift_at_least_fourfold():
    drifts = []
    for h in (0.02, 0.01):
        traj = integrate(
            example_field("equator"),
            OFF_BOTTOM,
            16.0,
            IntegrateOptions(unit_speed=True, fixed_step=h),
        )
        drifts.append(first_integral_drift(traj))
    assert drifts[0] / drifts[1] >= 4.0


# -- winding ------------------------------------------------------------------


def test_winding_summary_needs_three_samples():
    traj = constant_trajectory((0.6, 0.0, -0.8), n=2)
    with pytest.raises(FlowError, match="three samples"):
        winding_summary(traj)


def test_constant_orbit_has_zero_winding():
    summary = winding_summary(constant_trajectory((0.6, 0.0, -0.8)))
    assert summary["net"] == 0.0
    assert summary["monotone_tail"]


def test_circle_boundary_run_winds_past_ten_turns():
    summary = winding_summary(equator_long_run())
    assert summary["net"] < -10.0 * 2.0 * math.pi
    assert summary["monotone_tail"]


def test_winding_keeps_growing_with_the_horizon():
    short = integrate(
        example_field("equator"),
        OFF_BOTTOM,
        10.0,
        IntegrateOptions(unit_speed=True),
    )
    assert winding_summary(equator_run())["net"] < winding_summary(short)["net"]


# -- zero-set sampling --------------------------------------------------------


def test_equator_sample_of_four_is_the_cardinal_points():
    pts = sample_zero_set(example_field("equator").function, 4)
    expected = np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float
    )
    assert pts.shape == (4, 3)
    assert float(np.max(np.abs(pts - expected))) < 1e-12


def test_segment_function_samples_the_lower_meridian():
    arc = sphere_arc((1, 0, 0), (-1, 0, 0), (0, 0, -1))
    fn = SphereFunction(factors=[arc])
    pts = sample_zero_set(fn, 41)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all(pts[:, 2] <= 0.0)
    assert any(np.allclose(p, [1, 0, 0]) for p in pts)
    assert any(np.allclose(p, [-1, 0, 0]) for p in pts)
    # the kernel refuses a sample that is exactly an endpoint; its exact
    # value is checked instead
    endpoints = [tuple(float(c) for c in q) for q in arc.endpoints]
    ends = np.array([tuple(p) in endpoints for p in pts.tolist()])
    assert ends.any()
    assert all(exact_value(fn, p) == 0 for p in pts[ends])
    assert float(np.max(np.abs(fn.value_and_gradient(*pts[~ends].T)[0]))) == 0.0


def test_puncture_appears_among_arc_samples():
    field = example_field("lone-sprig")
    pts = sample_zero_set(field.function, 50)
    assert any(np.allclose(p, [0, 0, 1], atol=1e-12) for p in pts)


def test_hypocycloid_samples_sit_on_the_boundary():
    fn = example_field("framed-pair").function
    pts = sample_zero_set(fn, 400)
    worst = 0.0
    for factor in fn.factors:
        if factor.kind != "poly" or factor.source["piece"] != "hypocycloid":
            continue
        vals = np.abs(factor.value_and_gradient(*pts.T)[0])
        scale = 1.0 + float(factor.poly.coeff_l1_norm())
        worst = max(worst, float(np.min(vals)) / scale)
    # every leaf piece received samples where its own factor vanishes
    assert worst < 1e-10


# sha256 of the 1200 zero-set samples of each example, the count `simulate`
# uses by default; taken before each factor sampled its own piece, and like
# the orbit digests they depend on libm and numpy
ZERO_SET_SHA256 = {
    "equator": "5e5379fe1fe72263be62e894a704f9d883867bac9d7b41c5691e817ce6ffccb1",
    "framed-chain": "3eecbb47c2034d3a0c3daca933b79f70039c7b5d6f89c5e4f591f3903a817da3",
    "framed-pair": "bd974ed309744afc86aa39f22a157f9409e6340637bc56d6e7fbee9eb2eb6f16",
    "lone-sprig": "4943a55a1e612cdccd270875adbca7f61fd3e6066ef079cb92a2c8038a878211",
    "spiked-leaf": "2333b487a8b0c216dce39f60fb790e543cbc615d349cc8306dfb13f65cc21d1a",
}


@pytest.mark.parametrize("name", sorted(ZERO_SET_SHA256))
def test_zero_set_samples_are_pinned(name):
    digest = hashlib.sha256(zero_for(name).tobytes()).hexdigest()
    assert digest == ZERO_SET_SHA256[name]


def test_sample_counts_follow_piece_lengths():
    fn = example_field("framed-pair").function
    pts = sample_zero_set(fn, 300)
    assert pts.shape == (300, 3)
    on_equator = int(np.sum(pts[:, 2] == 0.0))
    assert 0 < on_equator < 300


def test_allocation_matches_the_argmax_loop():
    def argmax_loop(total, lengths):
        counts = np.ones(len(lengths), dtype=int)
        quotas = lengths / float(lengths.sum()) * total
        for _ in range(total - len(lengths)):
            counts[int(np.argmax(quotas - counts))] += 1
        return counts

    rng = np.random.default_rng(17)
    cases = [
        np.array([1.0]),
        np.array([2.0, 2.0, 2.0]),  # ties go to the first piece
        np.array([math.pi, 1.0, math.pi, 1e-3]),
        np.array([2.0 * math.pi, 0.37, 0.37]),
        rng.uniform(0.01, 7.0, size=9),
    ]
    for lengths in cases:
        for total in (len(lengths), len(lengths) + 1, 100, 1200):
            assert _allocate(total, lengths) == argmax_loop(total, lengths).tolist()


def test_sampling_without_a_parametric_source_is_refused():
    from shrubfield.field_synth import PolyFactor, SPHERE_VARS
    from shrubfield.poly_core import Polynomial

    bare = SphereFunction(
        factors=[PolyFactor(Polynomial.variable("z", SPHERE_VARS))]
    )
    with pytest.raises(ValueError, match="parametric source"):
        sample_zero_set(bare, 10)


def test_sampling_needs_one_point_per_piece():
    fn = example_field("spiked-leaf").function
    with pytest.raises(ValueError, match="one sample per"):
        sample_zero_set(fn, 1)


# -- omega estimates ----------------------------------------------------------


def test_equator_orbit_settles_on_the_equator():
    est = omega_estimate(
        equator_long_run(), zero_for("equator", 1500), window_fraction=0.5
    )
    assert est["symmetric"] < 1e-2


def test_rest_orbit_sits_a_quarter_turn_from_the_equator():
    traj = integrate(
        example_field("equator"), SOUTH, 1.0, IntegrateOptions(fixed_step=0.25)
    )
    est = omega_estimate(traj, zero_for("equator", 200))
    assert abs(est["attraction"] - math.pi / 2) < 1e-9


def test_lone_sprig_orbit_converges_to_its_arc():
    field = example_field("lone-sprig")
    p0 = seed_orbit(field, 0.05, 11)
    traj = integrate(
        field,
        p0,
        22.0,
        IntegrateOptions(unit_speed=True, rtol=1e-6, atol=1e-9),
    )
    est = omega_estimate(traj, zero_for("lone-sprig"), window_fraction=0.25)
    assert est["attraction"] < 1e-2
    assert est["coverage"] < 1e-2


def test_omega_series_reports_doubling_horizons():
    est = omega_estimate(equator_run(), zero_for("equator", 200))
    horizons = [w["horizon"] for w in est["series"]]
    total = float(equator_run().times[-1])
    assert horizons == [total / 8, total / 4, total / 2, total]


def test_window_fraction_bounds_are_enforced():
    with pytest.raises(ValueError, match="window fraction"):
        omega_estimate(equator_run(), zero_for("equator", 200), 0.0)
    with pytest.raises(ValueError, match="window fraction"):
        omega_estimate(equator_run(), zero_for("equator", 200), 1.5)


# -- seeding ------------------------------------------------------------------


def test_same_seed_gives_the_same_start():
    field = example_field("equator")
    a = seed_orbit(field, 0.05, 123)
    b = seed_orbit(field, 0.05, 123)
    assert np.array_equal(a, b)


def test_zero_radius_seeds_the_bottom_point():
    p = seed_orbit(example_field("equator"), 0.0, 9)
    assert np.array_equal(p, SOUTH)


def test_hundred_seeds_are_distinct():
    field = example_field("equator")
    pts = {tuple(seed_orbit(field, 0.05, s)) for s in range(100)}
    assert len(pts) == 100


def test_seed_angle_is_the_numpy_uniform_draw():
    # numpy's own generator is the oracle for the pure-Python stream
    field = example_field("equator")
    for s in range(100):
        psi = float(np.random.default_rng(s).uniform(0.0, 2.0 * math.pi))
        p = np.array(plane_to_sphere((0.05 * math.cos(psi), 0.05 * math.sin(psi))))
        assert np.array_equal(seed_orbit(field, 0.05, s), p / np.linalg.norm(p)), s


def test_seed_radius_is_bounded():
    field = example_field("equator")
    for radius in (0.1, 0.5, -0.01):
        with pytest.raises(ValueError, match="radius"):
            seed_orbit(field, radius, 1)


# -- trajectory output --------------------------------------------------------


def test_trajectory_csv_has_the_stated_columns():
    traj = equator_run()
    text = trajectory_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,x,y,z,theta,w,step,err"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:4]] == list(OFF_BOTTOM)


def test_identical_runs_give_identical_csv():
    opts = IntegrateOptions(unit_speed=True)
    a = integrate(example_field("equator"), OFF_BOTTOM, 5.0, opts)
    b = integrate(example_field("equator"), OFF_BOTTOM, 5.0, opts)
    assert trajectory_csv(a) == trajectory_csv(b)
