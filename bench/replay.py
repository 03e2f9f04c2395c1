"""Traced replay of one CLI op, run in a fresh interpreter.

    python3 bench/replay.py SPEC.json

SPEC names the op (``synthesize`` or ``simulate``) with the same inputs as
the CLI command it mirrors. The replay calls the package's public
functions in the command's order and records one span around each call:
name, start, end, parent and op id. Field evaluations inside ``integrate``
go through a counting proxy that keeps one aggregate per integrate span.
Spans stay in memory and are written to the spec's ``out`` file at the
end, together with the files the command would have written (prefixed
``replay.``), so the caller can compare them with the CLI's bytes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

from shrubfield import cli, curves, field_synth, flow_sim, shrub_model
from shrubfield.poly_core import Polynomial

# the commands' option defaults, read from the commands themselves
SYNTHESIZE_DEFAULTS = {p.name: p.default for p in cli.synthesize_command.params}
SIMULATE_DEFAULTS = {p.name: p.default for p in cli.simulate_command.params}


class Tracer:
    """Span recorder for one process; `root` is the parent of its top spans."""

    def __init__(self, op: str, prefix: str = "", root: str | None = None):
        self.op = op
        self.prefix = prefix
        self.root = root
        self.spans = []
        self._stack = []
        self._count = 0

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": f"{self.prefix}{self._count}",
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else self.root,
            "op": self.op,
            "attrs": attrs,
        }
        self._count += 1
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


_tracer: Tracer | None = None
_from_text = Polynomial.from_text.__func__


def _traced_from_text(cls, text, variables):
    with _tracer.span("Polynomial.from_text"):
        return _from_text(cls, text, variables)


Polynomial.from_text = classmethod(_traced_from_text)


class CountingField:
    """Stands in for a VectorField inside ``integrate``: same ``function``,
    a timed ``evaluate_many``, and one running total instead of a span per
    call."""

    def __init__(self, field: field_synth.VectorField):
        self._field = field
        self.function = field.function
        self.calls = 0
        self.points = 0
        self.seconds = 0.0
        self.nonfinite = 0

    def evaluate_many(self, pts):
        start = time.perf_counter()
        rows = self._field.evaluate_many(pts)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.points += rows.shape[0]
        self.nonfinite += int(np.sum(~np.isfinite(rows).all(axis=1)))
        return rows


class SpannedField(CountingField):
    """A CountingField that also records one span per ``evaluate_many``
    call, for the spot check's single batch."""

    def evaluate_many(self, pts):
        before = self.nonfinite
        with _tracer.span("evaluate_many", points=len(pts)) as record:
            rows = super().evaluate_many(pts)
        record["attrs"]["nonfinite"] = self.nonfinite - before
        return rows


def _factor_terms(function) -> int:
    return sum(len(f.poly.terms) for f in function.factors if f.kind == "poly")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def replay_synthesize(spec: dict) -> dict:
    span = _tracer.span
    with span("ShrubGraph.from_json"):
        with open(spec["shrub"], encoding="utf-8") as handle:
            shrub = shrub_model.ShrubGraph.from_json(json.load(handle))
    with span("validate"):
        diagnostics = shrub_model.validate(shrub)
    if not diagnostics.ok:
        raise SystemExit("shrub fails validation: " + "; ".join(diagnostics.failures))
    with span("layout_shrub"):
        layout = shrub_model.layout_shrub(shrub)
    # warm the per-process cache first, so compose's span excludes it
    for k in sorted(
        {
            p.k_layout
            for p in layout.placements.values()
            if isinstance(p, shrub_model.LeafPlacement) and not p.frame
        }
    ):
        with span("implicitize", k=k):
            curves.implicitize(k)
    with span("compose_shrub_function"):
        function = field_synth.compose_shrub_function(layout)
    with span("build_field"):
        field = field_synth.build_field(function)
    with span("bundle_text") as record:
        text = field_synth.bundle_text(function)
    record["attrs"].update(bytes=len(text.encode("utf-8")), factor_terms=_factor_terms(function))
    _write("replay." + spec["bundle"], text)
    function.exceptional_points()
    south_spiral_rate = 2.0 * field.g_value((0.0, 0.0, -1.0))
    # the spot check of ``synthesize`` itself, on a proxy that records the batch
    count = spec["spot_checks"] or SYNTHESIZE_DEFAULTS["spot_checks"]
    tangency = cli._tangency_spot_check(SpannedField(field), count, spec["seed"])
    return {
        "tangency_max_normalized": tangency["max_normalized"],
        "south_spiral_rate": south_spiral_rate,
    }


def _orbit(spec: dict, seed: int) -> str:
    """The body of the CLI's ``_run_orbit`` for a seeded start, with the
    command's defaults for every option the op does not set."""
    span = _tracer.span
    cfg = dict(SIMULATE_DEFAULTS, horizon=spec["horizon"], unit_speed=True)
    with span("load_bundle") as record:
        function = field_synth.load_bundle(spec["bundle"])
    record["attrs"]["factor_terms"] = _factor_terms(function)
    with span("build_field"):
        field = field_synth.build_field(function)
    with span("sample_zero_set"):
        zero_points = flow_sim.sample_zero_set(function, cfg["zero_samples"])
    with span("seed_orbit"):
        start = flow_sim.seed_orbit(field, cfg["seed_radius"], seed)
    options = flow_sim.IntegrateOptions(
        rtol=cfg["rtol"],
        atol=cfg["atol"],
        unit_speed=cfg["unit_speed"],
        fixed_step=cfg["fixed_step"],
        max_steps=cfg["max_steps"],
        min_step=cfg["min_step"],
        max_step=cfg["max_step"],
    )
    proxy = CountingField(field)
    with span("integrate") as record:
        trajectory = flow_sim.integrate(proxy, start, cfg["horizon"], options)
    record["attrs"].update(
        evals=proxy.calls,
        eval_s=proxy.seconds,
        eval_points=proxy.points,
        nonfinite=proxy.nonfinite,
        arc=abs(cfg["horizon"]),
        **{k: trajectory.diagnostics[k] for k in ("accepted", "rejected_error", "rejected_winding")},
    )
    drift = None
    with span("first_integral_drift") as record:
        try:
            drift = flow_sim.first_integral_drift(
                trajectory, guard=cfg["guard"], zero_samples=zero_points
            )
        except flow_sim.FlowError:
            pass
    record["attrs"]["drift"] = drift
    with span("winding_summary"):
        try:
            flow_sim.winding_summary(trajectory)
        except flow_sim.FlowError:
            pass
    with span("omega_estimate"):
        flow_sim.omega_estimate(trajectory, zero_points, window_fraction=cfg["window_fraction"])
    with span("trajectory_csv"):
        csv_text = flow_sim.trajectory_csv(trajectory)
    return csv_text


def _pool_orbit(spec: dict, seed: int, parent: str):
    """Worker side of a ``--seeds`` replay: a fresh tracer per process."""
    global _tracer
    _tracer = Tracer(spec["op"], prefix=f"w{seed}.", root=parent)
    csv_text = _orbit(spec, seed)
    return csv_text, _tracer.spans


def replay_simulate(spec: dict) -> dict:
    # ``simulate`` parses the bundle once up front to validate it
    with _tracer.span("load_bundle", role="validate"):
        field_synth.load_bundle(spec["bundle"])
    seeds = spec["seeds"]
    if seeds is None or seeds == 1:
        texts = [_orbit(spec, spec["seed"])]
    else:
        seed_values = list(range(spec["seed"], spec["seed"] + seeds))
        with _tracer.span("pool", workers=min(seeds, os.cpu_count() or 1)) as record:
            with ProcessPoolExecutor(max_workers=record["attrs"]["workers"]) as pool:
                results = list(
                    pool.map(_pool_orbit, [spec] * seeds, seed_values, [record["id"]] * seeds)
                )
        texts = [text for text, _ in results]
        for _, spans in results:
            _tracer.spans.extend(spans)
    for name, text in zip(spec["csv"], texts):
        _write("replay." + name, text)
    return {}


def main(argv) -> int:
    global _tracer
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    _tracer = Tracer(spec["op"])
    if spec["kind"] == "synthesize":
        extra = replay_synthesize(spec)
    else:
        extra = replay_simulate(spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump({"op": spec["op"], "spans": _tracer.spans, **extra}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
