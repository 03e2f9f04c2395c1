"""Tests for the benchmark's own parts.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import analysis  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_depend_on_the_seed_alone(name):
    first, again, other = (workloads.build(name, s) for s in (7, 7, 8))
    assert [op.args for op in first.ops] == [op.args for op in again.ops]
    assert first.inputs == again.inputs
    assert [op.args for op in first.ops] != [op.args for op in other.ops]


def test_probe_shrub_is_deterministic_and_drawn_by_structure():
    shrubs = [workloads.probe_inputs(seed)["k8.shrub.json"] for seed in range(40)]
    assert shrubs == [workloads.probe_inputs(seed)["k8.shrub.json"] for seed in range(40)]
    kinds = set()
    for shrub in shrubs:
        leaves = [p["leaf"]["k"] for p in shrub["pieces"] if "leaf" in p]
        sprigs = [p for p in shrub["pieces"] if "sprig" in p]
        assert sum(5 <= k <= 8 for k in leaves) == 1
        if sprigs:
            assert len(leaves) == 1 and 1 <= len(sprigs) <= 3
            kinds.add("sprigs")
        else:
            assert len(leaves) == 2 and shrub["pieces"][0]["leaf"]["k"] <= 4
            kinds.add("companion")
    assert kinds == {"sprigs", "companion"}


def test_probe_shrubs_validate():
    from shrubfield import shrub_model

    for seed in range(20):
        shrub = shrub_model.ShrubGraph.from_json(workloads.k8_shrub(random.Random(seed)))
        assert shrub_model.validate(shrub).ok


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = list(range(30, 0, -1))
    value, percentile = analysis.tail(values)
    assert value == 20
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert analysis.tail(range(11)) == (0, pytest.approx(100 / 11))
    assert analysis.tail(range(10)) is None


def _span(sid, parent, start, end, name="validate", **attrs):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name, "op": "x", "attrs": attrs}


def test_self_times_add_up_to_the_covered_wall_time():
    spans = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "a", 5.0, 6.0),
        _span("d", "b", 2.0, 3.0),
    ]
    own = analysis.self_times(spans)
    assert own == pytest.approx({"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})
    assert sum(own.values()) == pytest.approx(analysis.top_covered(spans))


def test_concurrent_children_share_the_wall_time():
    spans = [
        _span("pool", None, 0.0, 10.0, "pool"),
        _span("w0", "pool", 1.0, 9.0, "integrate", eval_s=4.0),
        _span("w1", "pool", 1.0, 5.0, "integrate", eval_s=0.0),
    ]
    own = analysis.self_times(spans)
    assert own == pytest.approx({"pool": 2.0, "w0": 6.0, "w1": 2.0})
    modules = analysis.module_self_times(spans)
    assert sum(modules.values()) == pytest.approx(10.0)
    # w0 was charged 6 of its 8 s, so 3 of its 4 s of field rows move
    assert modules["field_synth"] == pytest.approx(3.0)


def _report(**tangency):
    return json.dumps({"tangency": {"max_normalized": 1e-16, **tangency}}).encode()


def test_checker_passes_a_good_synthesis():
    assert checks.check_op("synthesize", 0, {"report.json": _report()}) == []


def test_checker_flags_a_nan_report():
    text = b'{"tangency": {"max_normalized": NaN}}'
    reasons = checks.check_op("synthesize", 0, {"report.json": text})
    assert len(reasons) == 1 and "NaN" in reasons[0]


def test_checker_flags_a_nonzero_exit():
    reasons = checks.check_op("simulate", 3, {"report.json": None}, "Error: step size underflow\n")
    assert reasons == ["exit 3: Error: step size underflow"]


def test_checker_flags_an_infinite_omega_and_a_large_drift():
    run = {"seed": 4, "omega": {"attraction": 0.1, "series": [{"coverage": 1e400}]}, "first_integral_drift": 2e-6}
    text = json.dumps({"runs": [run]}).encode()  # json writes 1e400 as Infinity
    reasons = checks.check_op("simulate", 0, {"report.json": text})
    assert len(reasons) == 1 and "Infinity" in reasons[0]
    run["omega"]["series"][0]["coverage"] = 0.5
    reasons = checks.check_op("simulate", 0, {"report.json": json.dumps({"runs": [run]}).encode()})
    assert reasons == ["seed 4: first_integral_drift = 2e-06, limit 1e-06"]


def _replay(spans, **extra):
    return {"op": "x", "spans": spans, **extra}


def test_checker_passes_a_good_replay():
    spans = [_span("a", None, 0.0, 1.0, "evaluate_many", points=200, nonfinite=0)]
    assert checks.check_replay(_replay(spans, tangency_max_normalized=1e-16, south_spiral_rate=-2.0)) == []


def test_checker_flags_nan_rows_that_the_tangency_defect_hides():
    # every row NaN: the spot check drops them all and reports a defect of 0
    spans = [
        _span("a", None, 0.0, 1.0, "evaluate_many", points=200, nonfinite=200),
        _span("b", None, 1.0, 2.0, "integrate", nonfinite=3, drift=None),
    ]
    reasons = checks.check_replay(_replay(spans, tangency_max_normalized=0.0, south_spiral_rate=float("nan")))
    assert reasons == [
        "evaluate_many: 200 non-finite field rows",
        "integrate: 3 non-finite field rows",
        "south_spiral_rate = nan",
    ]


def test_checker_flags_a_replayed_drift_and_tangency_defect():
    spans = [_span("a", None, 0.0, 1.0, "first_integral_drift", drift=float("nan"))]
    reasons = checks.check_replay(_replay(spans, tangency_max_normalized=1e-3))
    assert reasons == [
        "first_integral_drift = nan, limit 1e-06",
        "tangency.max_normalized = 0.001, limit 1e-10",
    ]


def test_checker_flags_a_byte_mismatch_with_the_first_run():
    first_runs = checks.FirstRuns()
    assert first_runs.compare("op", {"report.json": b"a", "orbit.csv": b"1"}) == []
    assert first_runs.compare("op", {"report.json": b"a", "orbit.csv": b"1"}) == []
    assert first_runs.compare("op", {"report.json": b"a", "orbit.csv": b"2"}) == [
        "orbit.csv differs from the first run of op"
    ]
