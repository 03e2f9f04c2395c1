"""Summary statistics and span arithmetic.

Timings are summarized by their median and by a tail: the highest
percentile that still has at least ten samples above it. Spans from a
traced replay are turned into self times by sweeping their boundaries:
each instant is charged to the innermost spans open at that instant,
split evenly when several run at once (the worker processes of a
``--seeds`` run), so the self times of a replay add up to the wall time
its top-level spans cover.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10

MODULE_OF = {
    "ShrubGraph.from_json": "shrub_model",
    "validate": "shrub_model",
    "layout_shrub": "shrub_model",
    "implicitize": "curves",
    "Polynomial.from_text": "poly_core",
    "compose_shrub_function": "field_synth",
    "build_field": "field_synth",
    "bundle_text": "field_synth",
    "evaluate_many": "field_synth",
    "load_bundle": "field_synth",
    "sample_zero_set": "flow_sim",
    "seed_orbit": "flow_sim",
    "integrate": "flow_sim",
    "first_integral_drift": "flow_sim",
    "winding_summary": "flow_sim",
    "omega_estimate": "flow_sim",
    "trajectory_csv": "flow_sim",
    "pool": "cli",
}


def tail(values, beyond: int = TAIL_BEYOND):
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    index = len(ordered) - beyond - 1
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median(values):
    return statistics.median(values) if values else None


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Self time per span id, by the sweep described in the module doc."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    times = sorted({t for s in spans for t in (s["start"], s["end"])})
    out = {s["id"]: 0.0 for s in spans}
    for lo, hi in zip(times, times[1:]):
        active = [s for s in spans if s["start"] <= lo and s["end"] >= hi]
        active_ids = {s["id"] for s in active}
        leaves = [
            s for s in active
            if not any(c["id"] in active_ids for c in children.get(s["id"], ()))
        ]
        for s in leaves:
            out[s["id"]] += (hi - lo) / len(leaves)
    return out


def module_self_times(spans) -> dict:
    """Self time per module; the field evaluations counted inside an
    integrate span move from flow_sim to field_synth."""
    own = self_times(spans)
    out = {}
    for s in spans:
        module = MODULE_OF.get(s["name"], "other")
        charged = own[s["id"]]
        if s["name"] == "integrate":
            raw = (s["end"] - s["start"]) - covered(
                (c["start"], c["end"]) for c in spans if c["parent"] == s["id"]
            )
            moved = s["attrs"]["eval_s"] * (charged / raw if raw > 0 else 0.0)
            out["field_synth"] = out.get("field_synth", 0.0) + moved
            charged -= moved
        out[module] = out.get(module, 0.0) + charged
    return out


def top_covered(spans) -> float:
    return covered((s["start"], s["end"]) for s in spans if s["parent"] is None)


def _named(spans, name, **attrs):
    return [
        s for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    ]


def _dur(spans):
    return sum(s["end"] - s["start"] for s in spans)


def _per_replay(replays, value_of):
    """Values of `value_of(spans)` over the replays where it is not None."""
    values = [value_of(r["spans"]) for r in replays]
    return [v for v in values if v is not None]


def _sum_if(name, **attrs):
    def value_of(spans):
        hits = _named(spans, name, **attrs)
        return _dur(hits) if hits else None

    return value_of


def _compose_at(k_layout_8: bool):
    def value_of(spans):
        if bool(_named(spans, "implicitize", k=8)) != k_layout_8:
            return None
        return _sum_if("compose_shrub_function")(spans)

    return value_of


def _parse(spans):
    loads = {s["id"] for s in _named(spans, "load_bundle")}
    hits = [s for s in _named(spans, "Polynomial.from_text") if s["parent"] in loads]
    return _dur(hits) if loads else None


def _attr_total(name, key):
    def value_of(spans):
        hits = _named(spans, name)
        return sum(s["attrs"][key] for s in hits) if hits else None

    return value_of


def _batch_ms_per_kpt(spans):
    hits = _named(spans, "evaluate_many")
    points = sum(s["attrs"]["points"] for s in hits)
    return 1e6 * _dur(hits) / points if points else None


def _single_us(spans):
    hits = _named(spans, "integrate")
    evals = sum(s["attrs"]["evals"] for s in hits)
    return 1e6 * sum(s["attrs"]["eval_s"] for s in hits) / evals if evals else None


def _integrate_self(spans):
    hits = _named(spans, "integrate")
    return sum(s["end"] - s["start"] - s["attrs"]["eval_s"] for s in hits) if hits else None


def _nonfinite(spans):
    hits = _named(spans, "evaluate_many") + _named(spans, "integrate")
    return sum(s["attrs"]["nonfinite"] for s in hits) if hits else None


def _factor_terms(replays):
    values = [
        s["attrs"]["factor_terms"]
        for r in replays
        for s in _named(r["spans"], "bundle_text") + _named(r["spans"], "load_bundle")
        if "factor_terms" in s["attrs"]
    ]
    return max(values) if values else None


def _load_calls(replays):
    return [
        s["end"] - s["start"] for r in replays for s in _named(r["spans"], "load_bundle")
    ]


def _ratio_over(replays, numerator, denominator):
    num = den = 0
    for r in replays:
        for s in _named(r["spans"], "integrate"):
            num += numerator(s["attrs"])
            den += denominator(s["attrs"])
    return num / den if den else None


def _drift_max(replays):
    drifts = [
        s["attrs"]["drift"]
        for r in replays
        for s in _named(r["spans"], "first_integral_drift")
        if s["attrs"]["drift"] is not None
    ]
    return max(drifts) if drifts else None


def _summary(values, unit):
    return (median(values), unit, len(values)) if values else None


def _median_of(value_of, unit):
    def metric(replays):
        return _summary(_per_replay(replays, value_of), unit)

    return metric


def _total_of(value_of, unit):
    def metric(replays):
        values = _per_replay(replays, value_of)
        return (sum(values), unit, len(values)) if values else None

    return metric


def _pooled(fn, unit):
    def metric(replays):
        value = fn(replays)
        return None if value is None else (value, unit, len(replays))

    return metric


# Per-layer metrics read off the spans of a set of replays. Times are
# inclusive span durations (the module self times are reported apart);
# per-replay values are summarized by their median, rates pool all replays.
SPAN_METRICS = {
    "shrub_model.validate_s": _median_of(_sum_if("validate"), "s"),
    "shrub_model.layout_s": _median_of(_sum_if("layout_shrub"), "s"),
    "curves.implicitize_s.k4": _median_of(_sum_if("implicitize", k=4), "s"),
    "curves.implicitize_s.k8": _median_of(_sum_if("implicitize", k=8), "s"),
    "poly_core.parse_s": _median_of(_parse, "s"),
    "poly_core.factor_terms": _pooled(_factor_terms, "count"),
    "field_synth.compose_s": _median_of(_compose_at(False), "s"),
    "field_synth.compose_s.k8": _median_of(_compose_at(True), "s"),
    "field_synth.bundle_bytes": _median_of(_attr_total("bundle_text", "bytes"), "bytes"),
    "field_synth.bundle_load_s": lambda rs: _summary(_load_calls(rs), "s"),
    "field_synth.rows_batch_ms_per_kpt": _median_of(_batch_ms_per_kpt, "ms"),
    "field_synth.row_single_us": _median_of(_single_us, "us"),
    "field_synth.evals": _median_of(_attr_total("integrate", "evals"), "count"),
    "field_synth.nonfinite_rows": _total_of(_nonfinite, "count"),
    "flow_sim.integrate_self_s": _median_of(_integrate_self, "s"),
    "flow_sim.accepted": _median_of(_attr_total("integrate", "accepted"), "count"),
    "flow_sim.rejected_error": _median_of(_attr_total("integrate", "rejected_error"), "count"),
    "flow_sim.rejected_winding": _median_of(_attr_total("integrate", "rejected_winding"), "count"),
    "flow_sim.accept_ratio": _pooled(
        lambda rs: _ratio_over(
            rs,
            lambda a: a["accepted"],
            lambda a: a["accepted"] + a["rejected_error"] + a["rejected_winding"],
        ),
        "ratio",
    ),
    "flow_sim.evals_per_arc": _pooled(
        lambda rs: _ratio_over(rs, lambda a: a["evals"], lambda a: a["arc"]), "1/arc"
    ),
    "flow_sim.zero_set_s": _median_of(_sum_if("sample_zero_set"), "s"),
    "flow_sim.omega_s": _median_of(_sum_if("omega_estimate"), "s"),
    "flow_sim.drift_s": _median_of(_sum_if("first_integral_drift"), "s"),
    "flow_sim.csv_s": _median_of(_sum_if("trajectory_csv"), "s"),
    "flow_sim.drift_max": _pooled(_drift_max, "ratio"),
}


def span_metrics(sources: dict) -> dict:
    """Each span metric from the first of `sources` (name -> replays, in
    order of preference) whose replays reach the layer; an entry holds
    value, unit, sample count and the source's name."""
    out = {}
    for name, metric in SPAN_METRICS.items():
        for source, replays in sources.items():
            got = metric(replays)
            if got is not None:
                out[name] = (*got, source)
                break
    return out
