"""Orbit integration and long-run diagnostics for synthesized fields.

The flow lives on the unit sphere, so every accepted step is projected back
to it, and the winding angle about the poles axis is carried along as a
continuous unwrapped quantity. On each orbit the combination

    w(t) = rho(u(t)) * exp(-2 theta(t)),    rho(x, y, z) = (x^2 + y^2) G,

is conserved, which makes its relative drift the integrator's primary
accuracy gauge. Because theta can wind through hundreds of turns, w spans
an astronomical range; it is stored and compared in log form throughout.

Long-horizon runs estimate where an orbit accumulates by comparing its tail
against points sampled from the boundary zero set in the great-circle
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ATOL_DEFAULT, GUARD_DEFAULT, MAX_STEPS_DEFAULT, RTOL_DEFAULT
from .curves import DomainError, plane_to_sphere, seeded_doubles
from .field_synth import SphereFunction, VectorField

MAX_COMPARE = 5000

TWO_PI = 2.0 * math.pi


class FlowError(RuntimeError):
    """Integration or diagnostic failure, tagged with a sphere location."""

    def __init__(self, message: str, location=None):
        if location is not None:
            spot = ", ".join(f"{float(c):.6g}" for c in location)
            message = f"{message} at ({spot})"
        super().__init__(message)
        self.location = (
            None if location is None else np.asarray(location, dtype=float)
        )


@dataclass(frozen=True)
class IntegrateOptions:
    """Controls for one integration run.

    `unit_speed` rescales the field to unit length away from its zeros, so
    horizons measure arc length instead of raw time; orbits near the
    boundary otherwise slow to a crawl (the field vanishes quadratically
    there) or race off the clock on towering composite functions. A
    `fixed_step` disables the error controller and marches with a constant
    step, which is the mode used for step-halving convergence checks.
    """

    rtol: float = RTOL_DEFAULT
    atol: float = ATOL_DEFAULT
    unit_speed: bool = False
    fixed_step: float | None = None
    max_steps: int = MAX_STEPS_DEFAULT
    min_step: float | None = None
    max_step: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit with winding and conserved-quantity diagnostics.

    `theta` is the continuous planar angle of (x, y); consecutive samples
    differ by less than a quarter turn by construction. `logrho` holds
    log((x^2 + y^2) G) at each sample (-inf exactly on the poles axis or
    the zero set), so `logw = logrho - 2 theta` never overflows even when
    w itself would. `steps` and `errors` record the accepted step size and
    its local error estimate per sample (zero for the initial sample).
    """

    times: np.ndarray
    states: np.ndarray
    theta: np.ndarray
    logrho: np.ndarray
    steps: np.ndarray
    errors: np.ndarray
    diagnostics: dict

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def logw(self) -> np.ndarray:
        return self.logrho - 2.0 * self.theta

    @property
    def w(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.logw)


# -- the embedded Runge-Kutta pair -------------------------------------------
#
# The integrator runs on 3-tuples of Python floats; a stage costs one
# one-point field evaluation, and numpy's per-call overhead would dominate
# it. Python floats raise where numpy returns inf or NaN, so nothing here
# divides by a value that can be an exact zero.

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_A[6] + (0.0,), _DP_B4))


def _unit(u) -> tuple:
    """Radial projection of a 3-tuple; the origin maps to NaN, as 0/0 does."""
    x, y, z = u
    norm = math.hypot(x, y, z)
    if norm == 0.0:
        return (math.nan,) * 3
    return (x / norm, y / norm, z / norm)


def _advance(u, h, weights, ks) -> tuple:
    """u + h * sum_j weights_j ks_j on 3-tuples."""
    sx = sy = sz = 0.0
    for c, (kx, ky, kz) in zip(weights, ks):
        sx += c * kx
        sy += c * ky
        sz += c * kz
    return (u[0] + h * sx, u[1] + h * sy, u[2] + h * sz)


def _make_deriv(
    field: VectorField, unit_speed: bool, reverse: bool
) -> Callable[[tuple], tuple]:
    sign = -1.0 if reverse else 1.0

    def deriv(u: tuple) -> tuple:
        f1, f2, f3 = field.evaluate_many(np.array([_unit(u)]))[0].tolist()
        if unit_speed and math.isfinite(f1) and math.isfinite(f2) and math.isfinite(f3):
            # rescale by the largest component first; squaring raw values
            # of towering composites would overflow doubles
            peak = max(abs(f1), abs(f2), abs(f3))
            if peak == 0.0:
                return (0.0, 0.0, 0.0)
            f1, f2, f3 = f1 / peak, f2 / peak, f3 / peak
            norm = math.sqrt(f1 * f1 + f2 * f2 + f3 * f3)
            f1, f2, f3 = f1 / norm, f2 / norm, f3 / norm
        return (sign * f1, sign * f2, sign * f3)

    return deriv


def _dp_step(u, h, deriv, rtol, atol, k0):
    """One Dormand-Prince attempt from u, whose first stage k0 is given.

    The last stage is taken at the fifth-order solution itself, and `deriv`
    normalises its argument, so that stage is the first stage of the next
    step ("first same as last"); it is returned as the third item. A step
    whose solution or last stage is not finite returns k0 in its place.
    """
    ks = [k0]
    for weights in _DP_A[1:6]:
        ks.append(deriv(_advance(u, h, weights, ks)))
    u5 = _advance(u, h, _DP_A[6], ks)
    k6 = deriv(u5)
    if not all(map(math.isfinite, u5 + k6)):
        return u, math.inf, k0
    ks.append(k6)
    err = _advance((0.0, 0.0, 0.0), h, _DP_ERR, ks)
    total = 0.0
    for e, a, b in zip(err, u, u5):
        ratio = e / (atol + rtol * max(abs(a), abs(b)))
        total += ratio * ratio
    return _unit(u5), math.sqrt(total / 3.0), k6


def _angle_increment(u, unew) -> float:
    if u[0] * u[0] + u[1] * u[1] == 0.0:
        return 0.0
    if unew[0] * unew[0] + unew[1] * unew[1] == 0.0:
        return 0.0
    d = math.atan2(unew[1], unew[0]) - math.atan2(u[1], u[0])
    return math.remainder(d, TWO_PI)


def _log_abs_function(function: SphereFunction, states: np.ndarray):
    out = np.zeros(states.shape[0])
    columns = np.ascontiguousarray(states.T)
    for factor in function.factors:
        value = factor.value_and_gradient(*columns)[0]
        with np.errstate(divide="ignore"):
            out += np.log(np.abs(value))
    return out


def _log_rho(function: SphereFunction, states: np.ndarray) -> np.ndarray:
    rho2 = states[:, 0] ** 2 + states[:, 1] ** 2
    with np.errstate(divide="ignore"):
        out = np.log(rho2)
    return out + 2.0 * _log_abs_function(function, states)


def _refuse_exceptional(function: SphereFunction, p: np.ndarray) -> None:
    for q in function.exceptional_points():
        qf = np.array([float(c) for c in q])
        if np.linalg.norm(p - qf) < 1e-9:
            raise FlowError("start point sits on an exceptional point", p)


def refuse_start(function: SphereFunction, p: np.ndarray) -> None:
    """Refuse an explicit start at an exceptional point (FlowError) or at a
    float zero of F (ValueError). Every zero of F is a rest point of the
    field, so an orbit from one is a single point."""
    _refuse_exceptional(function, p)
    if function.value_and_gradient(*p.tolist())[0] == 0.0:
        raise ValueError("start point lies on the zero set of F")


def integrate(
    field: VectorField,
    p0,
    horizon: float,
    options: IntegrateOptions | None = None,
) -> Trajectory:
    """Integrate one orbit for the given horizon.

    Adaptive embedded Runge-Kutta (orders 4 and 5) with the state projected
    back to the sphere after every accepted step. The start evaluation is
    the first stage of the first step, and each accepted step hands its
    last stage on as the next first stage, so an orbit costs 1 + 6 field
    evaluations per step attempt. The winding angle is
    advanced by the wrapped planar increment of (x, y); any step that would
    swing it by a quarter turn or more is rejected and retried shorter, so
    unwrapping stays unambiguous even close to the poles axis. A negative
    horizon integrates the time-reversed field; reported times are always
    the elapsed durations, so they increase either way.

    Raises FlowError when the step size underflows (which happens when the
    orbit is driven into a puncture), when the step budget runs out, when
    evaluation lands exactly on an exceptional point, or when the orbit
    reaches a float zero of F. In exact arithmetic an orbit never reaches
    the zero set, but within float resolution of it F can round to 0.0;
    the row there is exactly zero and the orbit would stop unannounced.
    F is evaluated only at a step that turns the row exactly zero, so an
    orbit that starts at a rest point (a zero of F, the south focus, a
    centre, a saddle) stays there, as before.
    """
    opts = options or IntegrateOptions()
    p = np.asarray(p0, dtype=float)
    if p.shape != (3,):
        raise ValueError("start point must be a 3-vector")
    if not np.isfinite(p).all():
        raise ValueError("start point must be finite")
    nrm = float(np.linalg.norm(p))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("start point must lie on the unit sphere")
    p = p / nrm
    _refuse_exceptional(field.function, p)
    p = tuple(p.tolist())

    span = abs(float(horizon))
    if span == 0.0 or not math.isfinite(span):
        raise ValueError("horizon must be finite and nonzero")
    if opts.fixed_step is not None and opts.fixed_step <= 0.0:
        raise ValueError("fixed step must be positive")
    if not (opts.rtol >= 0.0 and opts.atol > 0.0):
        raise ValueError("tolerances need rtol >= 0 and atol > 0")
    deriv = _make_deriv(field, opts.unit_speed, horizon < 0)
    min_step = opts.min_step if opts.min_step is not None else span * 1e-14

    try:
        k0 = deriv(p)
    except DomainError as exc:
        raise FlowError(f"field evaluation refused the start ({exc})", p)
    v0 = math.hypot(*k0)
    if opts.fixed_step is not None:
        h = min(opts.fixed_step, span)
    elif v0 > 0.0:
        h = min(span, 0.1 / v0)
    else:
        h = span

    times = [0.0]
    states = [p]
    rho2_0 = p[0] * p[0] + p[1] * p[1]
    th = math.atan2(p[1], p[0]) if rho2_0 > 0.0 else 0.0
    thetas = [th]
    steps = [0.0]
    errs = [0.0]
    t = 0.0
    u = p
    accepted = 0
    rejected_error = 0
    rejected_winding = 0

    while span - t > span * 1e-15:
        if accepted + rejected_error + rejected_winding >= opts.max_steps:
            raise FlowError("step budget exhausted before the horizon", u)
        if opts.max_step is not None:
            h = min(h, opts.max_step)
        h = min(h, span - t)
        if h < min_step:
            raise FlowError("step size underflow", u)
        try:
            unew, err_norm, k_last = _dp_step(u, h, deriv, opts.rtol, opts.atol, k0)
        except DomainError as exc:
            raise FlowError(f"evaluation hit an exceptional point ({exc})", u)
        if opts.fixed_step is None and err_norm > 1.0:
            rejected_error += 1
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue
        dth = _angle_increment(u, unew)
        if abs(dth) >= math.pi / 2:
            if opts.fixed_step is not None:
                raise FlowError(
                    "fixed step swings the winding angle by a quarter turn", u
                )
            rejected_winding += 1
            h *= 0.5
            continue
        if any(k0) and not any(k_last):
            # a zero row stops the orbit for good; F is evaluated only here
            if field.function.value_and_gradient(*unew)[0] == 0.0:
                clock = "arc length" if opts.unit_speed else "time"
                raise FlowError(
                    f"orbit reached a zero of the field after {clock} {t + h:.6g}",
                    unew,
                )
        t += h
        u = unew
        k0 = k_last
        th += dth
        times.append(t)
        states.append(u)
        thetas.append(th)
        steps.append(h)
        errs.append(err_norm)
        accepted += 1
        if opts.fixed_step is None:
            if err_norm == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err_norm ** -0.2))

    state_arr = np.array(states)
    return Trajectory(
        times=np.array(times),
        states=state_arr,
        theta=np.array(thetas),
        logrho=_log_rho(field.function, state_arr),
        steps=np.array(steps),
        errors=np.array(errs),
        diagnostics={
            "accepted": accepted,
            "rejected_error": rejected_error,
            "rejected_winding": rejected_winding,
            "horizon": float(horizon),
            "unit_speed": opts.unit_speed,
            "fixed_step": opts.fixed_step,
        },
    )


def trajectory_csv(traj: Trajectory) -> str:
    """CSV dump with columns t,x,y,z,theta,w,step,err (w may print inf)."""
    columns = (
        traj.times,
        *traj.states.T,
        traj.theta,
        traj.w,
        traj.steps,
        traj.errors,
    )
    lines = ["t,x,y,z,theta,w,step,err"]
    for values in zip(*(column.tolist() for column in columns)):
        lines.append(",".join(map(repr, values)))
    return "\n".join(lines) + "\n"


# -- first integral -----------------------------------------------------------


def _pairwise_min_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min great-circle distance from each row of `a` to the set `b`."""
    # arccos falls monotonically, so the nearest point has the largest dot
    nearest = np.empty(a.shape[0])
    # 128 rows against the default 1200 zero samples make a 1.2 MB block,
    # which stays in cache; longer blocks are slower and raise peak memory
    chunk = 128
    for s in range(0, a.shape[0], chunk):
        nearest[s : s + chunk] = (a[s : s + chunk] @ b.T).max(axis=1)
    return np.arccos(np.clip(nearest, -1.0, 1.0))


def first_integral_drift(
    traj: Trajectory,
    guard: float = GUARD_DEFAULT,
    zero_samples=None,
) -> float:
    """Largest relative excursion of w from its starting value.

    The comparison runs in log space, so orbits that wind through many
    turns cannot overflow it. When `zero_samples` is given, samples closer
    than `guard` (great-circle) to the zero set are excluded from the
    comparison; the reference value stays w at time zero regardless.

    Raises FlowError when w vanishes at the start (orbit beginning on the
    poles axis or on the zero set itself) or when the guard excludes every
    sample.
    """
    logw = traj.logw
    if not math.isfinite(float(logw[0])):
        raise FlowError("first integral vanishes at the start", traj.states[0])
    mask = np.ones(len(traj), dtype=bool)
    if zero_samples is not None:
        zs = np.asarray(zero_samples, dtype=float)
        mask &= _pairwise_min_angle(traj.states, zs) > guard
    if not mask.any():
        raise FlowError("the guard excluded every trajectory sample")
    return float(np.max(np.abs(np.expm1(logw[mask] - logw[0]))))


# -- winding ------------------------------------------------------------------


def winding_summary(traj: Trajectory) -> dict:
    """Net winding angle, and whether the tail half moves monotonically, as
    the `{net, monotone_tail}` record of the `simulate` report."""
    if len(traj) < 3:
        raise FlowError("winding summary needs at least three samples")
    net = float(traj.theta[-1] - traj.theta[0])
    d = np.diff(traj.theta[len(traj) // 2 :])
    monotone = bool(np.all(d <= 0.0) or np.all(d >= 0.0))
    return {"net": net, "monotone_tail": monotone}


# -- zero-set sampling --------------------------------------------------------


def _allocate(total: int, lengths: np.ndarray) -> list:
    """Greedy largest-shortfall allocation, at least one point per piece;
    ties go to the first piece."""
    quotas = (lengths / float(lengths.sum()) * total).tolist()
    counts = [1] * len(quotas)
    shortfall = [q - 1 for q in quotas]
    for _ in range(total - len(quotas)):
        i = shortfall.index(max(shortfall))
        counts[i] += 1
        shortfall[i] = quotas[i] - counts[i]
    return counts


def sample_zero_set(function: SphereFunction, count: int) -> np.ndarray:
    """Points on the realized boundary, spread across its pieces.

    Each factor samples its own piece (its `zero_set`), and the requested
    count is allocated proportionally to piece length, at least one point
    per piece. Closed pieces are sampled endpoint-free; open pieces include
    their endpoints, so the punctures appear among the samples.
    """
    pieces = [factor.zero_set() for factor in function.factors]
    if not pieces:
        raise ValueError("function has no boundary pieces to sample")
    if count < len(pieces):
        raise ValueError("need at least one sample per boundary piece")
    lengths = np.array([length for length, _ in pieces])
    counts = _allocate(count, lengths)
    return np.concatenate(
        [sampler(n) for (_, sampler), n in zip(pieces, counts)]
    )


# -- omega-limit estimation ---------------------------------------------------


def _thin(points: np.ndarray) -> np.ndarray:
    if points.shape[0] <= MAX_COMPARE:
        return points
    idx = np.linspace(0, points.shape[0] - 1, MAX_COMPARE).round().astype(int)
    return points[np.unique(idx)]


def omega_estimate(
    traj: Trajectory, zero_samples, window_fraction: float = 0.5
) -> dict:
    """Tail-versus-boundary distances in the great-circle metric, as the
    `omega` record of the `simulate` report.

    For each prefix horizon T/8, T/4, T/2, T the tail window
    [(1 - window_fraction) h, h] is compared against the zero samples in
    both directions: `attraction` is the directed distance from the tail to
    the zero samples (small when the orbit hugs the boundary), `coverage`
    the reverse direction (small when the tail visits every part of the
    boundary). `series` lists `{horizon, attraction, coverage}` at each
    prefix horizon, so convergence is visible in a single run; the record's
    own `attraction`, `coverage` and `symmetric` (their maximum) belong to
    the full window [`t_start`, `t_end`]. Distances are reported, never
    judged: an orbit that stays away from the boundary simply shows large
    numbers.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window fraction must lie in (0, 1]")
    zs = _thin(np.asarray(zero_samples, dtype=float))
    if zs.ndim != 2 or zs.shape[1] != 3 or zs.shape[0] == 0:
        raise ValueError("zero samples must be a nonempty (n, 3) array")
    total = float(traj.times[-1])
    if total <= 0.0:
        raise FlowError("trajectory spans no time")
    series = []
    for horizon in (total / 8, total / 4, total / 2, total):
        lo = horizon * (1.0 - window_fraction)
        mask = (traj.times >= lo) & (traj.times <= horizon)
        if not mask.any():
            continue
        tail = _thin(traj.states[mask])
        series.append(
            {
                "horizon": float(horizon),
                "attraction": float(np.max(_pairwise_min_angle(tail, zs))),
                "coverage": float(np.max(_pairwise_min_angle(zs, tail))),
            }
        )
    last = series[-1]
    return {
        "t_start": total * (1.0 - window_fraction),
        "t_end": total,
        "attraction": last["attraction"],
        "coverage": last["coverage"],
        "symmetric": max(last["attraction"], last["coverage"]),
        "series": series,
    }


# -- seeding ------------------------------------------------------------------


def seed_orbit(field: VectorField, radius: float, seed: int) -> np.ndarray:
    """Deterministic pseudorandom start near the bottom of the sphere.

    The point is drawn at the given radius from the chart origin in the
    lower stereographic chart (radius 0 is the bottom rest point itself),
    at an angle drawn from the seeded stream `seeded_doubles`. Same seed,
    same point.
    """
    if not 0.0 <= radius < 0.1:
        raise ValueError("seed radius must stay inside the tenth-size chart disk")
    psi = TWO_PI * next(seeded_doubles(seed))
    p = np.array(plane_to_sphere((radius * math.cos(psi), radius * math.sin(psi))))
    p = p / np.linalg.norm(p)
    if radius > 0.0 and field.function.value_and_gradient(*p.tolist())[0] == 0.0:
        raise FlowError("seed landed on the boundary", p)
    return p
