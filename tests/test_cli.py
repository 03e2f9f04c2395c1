"""End-to-end checks of the command line driver.

Everything goes through ``main(argv)`` exactly as the console script would,
asserting on exit codes and on the files the commands leave behind.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from shrubfield import curves, field_synth, flow_sim, shrub_model
from shrubfield.cli import NumericFailureError, _dump_json, _tangency_spot_check, main
from shrubfield.field_synth import load_bundle
from shrubfield.flow_sim import FlowError, IntegrateOptions, integrate
from shrubfield.poly_core import Polynomial
from shrubs import example_field, example_shrubs, random_very_simple_shrub
from test_field_synth import EXAMPLE_BUNDLE_SHA256
from test_flow_sim import NorthwardField
from test_shrub_model import STAR, THREE_LEAVES_AT_ONE_CUSP, TWO_LEAVES_AND_SPRIG, VEE, X


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared directory with shrub files and one synthesized bundle."""
    root = tmp_path_factory.mktemp("cli")
    shrubs = {
        "lone-leaf": {"pieces": [{"leaf": {"k": 3}}], "junctions": []},
        "arc": {"pieces": [{"sprig": {}}], "junctions": []},
        "prickly": {
            "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}],
            "junctions": [
                {
                    "bud": 0,
                    "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}],
                }
            ],
        },
        "star": {
            "pieces": [{"sprig": {}} for _ in range(14)],
            "junctions": [
                {
                    "bud": 0,
                    "at": [{"piece": i, "site": "end0"} for i in range(14)],
                }
            ],
        },
    }
    for name, body in shrubs.items():
        (root / f"{name}.json").write_text(json.dumps(body))
    rc = main(
        [
            "synthesize",
            str(root / "lone-leaf.json"),
            "--out",
            str(root / "bundle.json"),
            "--report",
            str(root / "synthesize-report.json"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "synthesize",
            str(root / "arc.json"),
            "--out",
            str(root / "arc-bundle.json"),
            "--report",
            str(root / "arc-synthesize-report.json"),
        ]
    )
    assert rc == 0
    return root


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- implicitize -----------------------------------------------------------------


def test_two_cusps_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["implicitize", "--k", "2"]) == 2


def test_curve_file_and_residual_report(tmp_path):
    out = tmp_path / "k3.json"
    report = tmp_path / "k3-report.json"
    rc = main(
        ["implicitize", "--k", "3", "--out", str(out), "--report", str(report)]
    )
    assert rc == 0
    curve = _read_json(out)
    assert curve["format"] == "implicit-curve/1"
    poly = Polynomial.from_text(curve["polynomial"], tuple(curve["variables"]))
    assert poly.total_degree() == curve["degree"]
    body = _read_json(report)
    assert body["kind"] == "implicitize"
    assert body["max_residual"] < 1e-12
    assert body["cusp_gradient_max"] < 1e-8
    assert body["origin_value_nonzero"] is True
    assert len(body["config_sha256"]) == 64


# sha256 of the curve files written when the resultant came from the
# fraction-free determinant over Z[i][x, y]
CURVE_FILE_SHA256 = {
    3: "a6c9b099e9504477d6dca522279987764281f073fbc726c38f466ba3ce23d177",
    4: "d3088afc04689097fe5d16b79079fe185ff6f4a82e1452547febe9038c4ea2fb",
    5: "c0914a8712a2b2f9cb0f0796e91320b15c5bd204bdd0b5e56b787e89e8a80074",
    6: "ec003e592f502fb5a88c15b9c401721bf1e583551b87118c14e51b04c4112b37",
}


def test_curve_files_are_pinned(tmp_path):
    for k, digest in CURVE_FILE_SHA256.items():
        out = tmp_path / f"k{k}.curve.json"
        rc = main(
            ["implicitize", "--k", str(k), "--samples", "8", "--out", str(out),
             "--report", str(tmp_path / f"k{k}.report.json")]
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, k


# float.hex of the residuals in the implicitize report at --samples 64, as
# written when the closed form was computed in exact Polynomial arithmetic.
# They sum coeff_l1_norm over the terms in their order, which
# IMPLICIT_TEXT_SHA256 (a digest of the sorted text) does not pin.
IMPLICIT_REPORT_FLOATS = {
    3: ("0x1.a16ea1b56eb95p-57", "0x1.4d3b1a4123ca5p-60", "0x1.11d2d4335a5dap-62"),
    4: ("0x1.a8f86fb2a8c61p-67", "0x1.a63fd8d01d7a0p-70", "0x1.6eaac19556c40p-126"),
    5: ("0x1.b56ab17c9702ap-79", "0x1.0cfd68243de84p-82", "0x1.01c1c12955352p-82"),
    6: ("0x1.916e88023ed69p-94", "0x1.8589100ea5b3ap-97", "0x1.34f0eec9d99edp-95"),
    7: ("0x1.bba1cf8c82a89p-109", "0x1.6fd92d25b9a83p-112", "0x1.bee0150bfaca2p-111"),
    8: ("0x1.730efb440e257p-126", "0x1.ac25d7bbd2b49p-129", "0x1.6f15764604f6dp-125"),
    9: ("0x1.1070d8cfd4433p-142", "0x1.109126153e421p-145", "0x1.7b099cce5054bp-141"),
    10: ("0x1.b401537c57f93p-161", "0x1.dda46f8f4db38p-164", "0x1.8b625b900e2b1p-158"),
    11: ("0x1.270167e337c66p-179", "0x1.a082e4cbdb5bfp-182", "0x1.04ff81cb3703ep-175"),
    12: ("0x1.0cf9ae9eb090dp-197", "0x1.78520488b32d3p-201", "0x1.4d05b740824f1p-195"),
}


def test_implicitize_report_floats_are_pinned(tmp_path):
    keys = ("max_residual", "mean_residual", "cusp_gradient_max")
    for k, expected in IMPLICIT_REPORT_FLOATS.items():
        report = tmp_path / f"k{k}.report.json"
        rc = main(
            ["implicitize", "--k", str(k), "--samples", "64",
             "--out", str(tmp_path / f"k{k}.curve.json"), "--report", str(report)]
        )
        assert rc == 0
        body = _read_json(report)
        assert tuple(float.hex(body[key]) for key in keys) == expected, k


def test_astroid_grid_agreement(tmp_path):
    report = tmp_path / "k4-report.json"
    rc = main(
        [
            "implicitize",
            "--k",
            "4",
            "--check",
            "astroid",
            "--out",
            str(tmp_path / "k4.json"),
            "--report",
            str(report),
        ]
    )
    assert rc == 0
    grid = _read_json(report)["astroid_check"]
    assert grid["points"] == 101 * 101
    assert grid["agreements"] == grid["points"]
    assert grid["mismatches"] == []
    # the four quarter-turn cusps at radius 4 sit on the tenth-step grid
    assert grid["shared_zeros"] == 4


def test_astroid_check_requires_four_cusps(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["implicitize", "--k", "3", "--check", "astroid"]) == 2


# -- classify --------------------------------------------------------------------


def _classify(workdir, name):
    report = workdir / f"classify-{name}.json"
    rc = main(["classify", str(workdir / f"{name}.json"), "--report", str(report)])
    return rc, _read_json(report)


def test_lone_leaf_needs_no_punctures(workdir):
    rc, body = _classify(workdir, "lone-leaf")
    assert rc == 0
    assert body["punctures"] == []
    assert body["odd_buds"] == []
    assert body["very_simple"] is True
    assert body["orientation"]["verified"] is True


def test_arc_punctures_both_endpoints(workdir):
    rc, body = _classify(workdir, "arc")
    assert rc == 0
    assert body["punctures"] == [
        {"kind": "bud", "bud": 0},
        {"kind": "bud", "bud": 1},
    ]
    parity = body["parity"]
    assert parity["sum_of_star_orders"] == parity["twice_edge_count"]


def test_prickly_cactus_needs_two_punctures(workdir):
    rc, body = _classify(workdir, "prickly")
    assert rc == 0
    assert len(body["punctures"]) == 2
    kinds = {p["kind"] for p in body["punctures"]}
    assert kinds == {"bud", "cactus_cusp"}
    assert body["very_simple"] is False
    assert body["odd_cactuses"] == 1
    # orientation goes through after hanging a parity sprig on the cactus
    assert body["orientation"]["augmented"] is True
    assert body["orientation"]["verified"] is True


def test_free_sprigs_at_one_point_pair_off_into_degenerate_chains(workdir):
    rc, body = _classify(workdir, "star")
    assert rc == 0
    orientation = body["orientation"]
    assert orientation["orientable"] is True
    assert orientation["verified"] is True
    chains = orientation["certificate"]["chains"]
    assert len(chains) == 7
    assert all(c["degenerate"] and c["elements"] == ["node:0"] for c in chains)


def test_example_shrub_reports_carry_an_agreeing_recount(tmp_path, capsys):
    for name, shrub in example_shrubs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(shrub.to_json()))
        report = tmp_path / f"classify-{name}.json"
        assert main(["classify", str(path), "--report", str(report)]) == 0
        body = _read_json(report)
        classified = len(body["odd_buds"]) + body["odd_cactuses"]
        assert body["odd_object_recount"] == {
            "odd_buds_plus_odd_cactuses": classified,
            "recount": classified,
        }, name
        capsys.readouterr()
        assert main(["report", str(report)]) == 0
        assert f"odd-object recount: {classified} vs {classified} " in (
            capsys.readouterr().out
        )


def test_recount_disagreement_exits_3_without_a_report(workdir, tmp_path, monkeypatch):
    recount = shrub_model.odd_object_recount
    monkeypatch.setattr(
        shrub_model, "odd_object_recount", lambda shrub: recount(shrub) + 1
    )
    report = tmp_path / "classify.json"
    rc = main(["classify", str(workdir / "prickly.json"), "--report", str(report)])
    assert rc == 3
    assert not report.exists()


def test_broken_handshake_exits_3_without_a_report(workdir, tmp_path, monkeypatch):
    classify_buds = shrub_model.classify_buds

    def one_order_too_many(shrub):
        cls = classify_buds(shrub)
        first = min(cls.buds)
        cls.buds[first] = dataclasses.replace(
            cls.buds[first], order=cls.buds[first].order + 1
        )
        return cls

    monkeypatch.setattr(shrub_model, "classify_buds", one_order_too_many)
    report = tmp_path / "classify.json"
    rc = main(["classify", str(workdir / "arc.json"), "--report", str(report)])
    assert rc == 3
    assert not report.exists()


def _leaf_and_sprig(piece=0, site=0, leaf=None, sprig=None):
    return {
        "pieces": [
            {"leaf": {"k": 4} if leaf is None else leaf},
            {"sprig": {} if sprig is None else sprig},
        ],
        "junctions": [
            {
                "bud": 0,
                "at": [{"piece": piece, "site": site}, {"piece": 1, "site": "end0"}],
            }
        ],
    }


_MALFORMED_SHRUBS = {
    "not-json": "{not json",
    "dangling-piece": json.dumps(
        {
            "pieces": [{"sprig": {}}],
            "junctions": [{"bud": 0, "at": [{"piece": 5, "site": "end0"}]}],
        }
    ),
    "top-level-list": json.dumps([]),
    "k-not-an-int": json.dumps(_leaf_and_sprig(leaf={"k": "x"})),
    "k-missing": json.dumps(_leaf_and_sprig(leaf={})),
    "piece-not-an-int": json.dumps(_leaf_and_sprig(piece="q")),
    "site-float": json.dumps(_leaf_and_sprig(site=1.5)),
    "site-bool": json.dumps(_leaf_and_sprig(site=True)),
    "unknown-leaf-key": json.dumps(_leaf_and_sprig(leaf={"k": 4, "bogus": 1})),
    "leaf-affine": json.dumps(
        _leaf_and_sprig(leaf={"k": 4, "affine": {"matrix": [[1, 0], [0, 1]]}})
    ),
    "sprig-from": json.dumps(_leaf_and_sprig(sprig={"from": ["0", "0"]})),
    "sprig-to": json.dumps(_leaf_and_sprig(sprig={"to": ["3/2", "-1/4"]})),
    "k-2": json.dumps(_leaf_and_sprig(leaf={"k": 2})),
    "k-0": json.dumps({"pieces": [{"leaf": {"k": 0}}]}),
    "no-pieces": json.dumps({"pieces": [], "junctions": []}),
    "k-bool": json.dumps(_leaf_and_sprig(leaf={"k": True})),
    "pieces-not-a-list": json.dumps({"pieces": {}}),
    "leaf-and-sprig-in-one-record": json.dumps(
        {"pieces": [{"leaf": {"k": 4}, "sprig": {}}]}
    ),
    "unknown-piece-kind": json.dumps({"pieces": [{"cusp": {}}]}),
    "unknown-top-level-key": json.dumps({"pieces": [], "extra": 1}),
    "bud-missing": json.dumps({"pieces": [{"sprig": {}}], "junctions": [{"at": []}]}),
    "bud-float": json.dumps(
        {"pieces": [{"sprig": {}}], "junctions": [{"bud": 0.0, "at": []}]}
    ),
    "site-missing": json.dumps(
        {"pieces": [{"sprig": {}}], "junctions": [{"bud": 0, "at": [{"piece": 0}]}]}
    ),
    "unknown-sprig-end": json.dumps(_leaf_and_sprig(piece=1, site="end2")),
    "cycle": json.dumps(
        {
            "pieces": [{"leaf": {"k": 4}}, {"leaf": {"k": 4}}],
            "junctions": [
                {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}]},
                {"bud": 1, "at": [{"piece": 0, "site": 1}, {"piece": 1, "site": 1}]},
            ],
        }
    ),
    "disconnected": json.dumps({"pieces": [{"leaf": {"k": 4}}, {"sprig": {}}]}),
    "duplicate-site": json.dumps(
        {
            "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}, {"sprig": {}}],
            "junctions": [
                {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}]},
                {"bud": 1, "at": [{"piece": 0, "site": 0}, {"piece": 2, "site": "end0"}]},
            ],
        }
    ),
    "duplicate-bud": json.dumps(
        {
            "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}, {"sprig": {}}],
            "junctions": [
                {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}]},
                {"bud": 0, "at": [{"piece": 0, "site": 1}, {"piece": 2, "site": "end0"}]},
            ],
        }
    ),
}


def test_malformed_shrub_files_are_validation_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    report, bundle = tmp_path / "report.json", tmp_path / "bundle.json"
    for name, text in _MALFORMED_SHRUBS.items():
        bad.write_text(text)
        assert main(["classify", str(bad), "--report", str(report)]) == 2, name
        args = ["synthesize", str(bad), "--out", str(bundle), "--report", str(report)]
        assert main(args) == 2, name
        assert not report.exists() and not bundle.exists(), name
        err = capsys.readouterr().err
        if name == "cycle":
            assert err.count("invalid shrub file") == 2 and err.count("cycle") == 2


def test_missing_file_is_a_usage_error(tmp_path):
    assert main(["classify", str(tmp_path / "absent.json")]) == 2


# -- synthesize ------------------------------------------------------------------


def test_lone_leaf_bundle_is_the_equator_field(workdir):
    body = _read_json(workdir / "synthesize-report.json")
    assert body["kind"] == "synthesize"
    assert [f["label"] for f in body["factors"]] == ["frame"]
    assert body["tangency"]["max_normalized"] < 1e-10
    # boundary function z on the sphere: squared it has unit value at the
    # bottom, so the outward spiral rate there is exactly 2
    assert math.isclose(body["south_spiral_rate"], 2.0, rel_tol=1e-12)
    function = load_bundle(workdir / "bundle.json")
    assert [factor.label for factor in function.factors] == ["frame"]


def _overflowing_function():
    # each factor is about 1e200, so F is about 1e400 and no row is finite
    # away from the poles
    big = Polynomial.constant(10**200, ("x", "y", "z"))
    z = Polynomial.variable("z", ("x", "y", "z"))
    return field_synth.SphereFunction(
        factors=[field_synth.PolyFactor(big + z), field_synth.PolyFactor(big - z)]
    )


def test_spot_check_counts_nonfinite_rows_apart_from_zero_rows():
    field = field_synth.build_field(_overflowing_function())
    with np.errstate(over="ignore", invalid="ignore"):
        tangency = _tangency_spot_check(field, 50, 0)
    assert tangency["nonfinite_rows"] == 50
    assert tangency["zero_rows"] == 0
    plain = _tangency_spot_check(example_field("equator"), 50, 0)
    assert plain["nonfinite_rows"] == 0


def test_spot_check_points_are_seeded_unit_vectors():
    class Recorder:
        def evaluate_many(self, points):
            batches.append(points)
            return np.zeros_like(points)

    batches = []
    for seed in (0, 0, 1):
        assert _tangency_spot_check(Recorder(), 500, seed)["zero_rows"] == 500
    first, again, other = batches
    assert first.shape == (500, 3)
    deviation = np.abs(np.linalg.norm(first, axis=1) - 1.0)
    assert deviation.max() <= field_synth.UNIT_NORM_TOLERANCE
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_overflowing_one_point_row_is_a_nonfinite_value():
    # the one-point row runs on Python floats, which raise where numpy
    # returns inf or NaN; the kernel must keep the overflow a value
    field = field_synth.build_field(_overflowing_function())
    row = field.evaluate_many(np.array([[0.6, 0.0, -0.8]]))
    assert row.shape == (1, 3)
    assert not np.isfinite(row).any()


def test_overflowing_orbit_stops_on_step_underflow():
    field = field_synth.build_field(_overflowing_function())
    start = (0.1, 0.0, -math.sqrt(0.99))
    for unit_speed in (True, False):
        with pytest.raises(FlowError, match="step size underflow"):
            integrate(field, start, 1.0, IntegrateOptions(unit_speed=unit_speed))


def test_overflowing_synthesis_is_a_numeric_failure(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        field_synth, "compose_shrub_function", lambda layout: _overflowing_function()
    )
    out = tmp_path / "overflow.json"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["synthesize", str(workdir / "lone-leaf.json"), "--out", str(out)])
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_an_overflowing_spot_check_warns_nothing(tmp_path, capsys):
    # a k = 13 leaf lays out as 16, and with a sprig its field overflows
    # doubles; the spot check counts those rows, so numpy must not also warn
    shrub = tmp_path / "k13.json"
    shrub.write_text(json.dumps(_leaf_and_sprig(leaf={"k": 13})))
    out = tmp_path / "k13-bundle.json"
    assert main(["synthesize", str(shrub), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "153 of 200 spot-check field rows are not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("spot_checks", ["1", "2"])
def test_overflow_at_the_south_pole_is_a_numeric_failure(tmp_path, capsys, spot_checks):
    # the second shrub of this generator gives F(south pole) about 2e160: the
    # few spot-check rows are finite, but G = F^2 at the pole is not
    rng = random.Random(6)
    random_very_simple_shrub(rng)
    shrub = tmp_path / "big.json"
    shrub.write_text(json.dumps(random_very_simple_shrub(rng).to_json()))
    out, report = tmp_path / "big-bundle.json", tmp_path / "big-report.json"
    args = ["synthesize", str(shrub), "--out", str(out), "--report", str(report)]
    rc = main(args + ["--spot-checks", spot_checks, "--seed", "0"])
    assert rc == 3
    assert "south spiral rate" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


def test_reports_are_strict_json():
    assert _dump_json({"rate": 2.0}) == '{\n  "rate": 2.0\n}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericFailureError) as info:
            _dump_json({"rate": bad})
        assert info.value.exit_code == 3


def _sprig_at(bud, leaf, cusp, sprig):
    return {
        "bud": bud,
        "at": [{"piece": leaf, "site": cusp}, {"piece": sprig, "site": "end0"}],
    }


def test_odd_cactus_puncture_skips_a_leaf_with_every_cusp_taken(tmp_path):
    # a k=3 leaf glued to a k=4 leaf, with sprigs on every free cusp of the
    # first and on one of the second: the puncture goes on the second leaf
    path = tmp_path / "full-leaf.json"
    path.write_text(
        json.dumps(
            {
                "pieces": [{"leaf": {"k": 3}}, {"leaf": {"k": 4}}]
                + [{"sprig": {}}] * 3,
                "junctions": [
                    {
                        "bud": 0,
                        "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}],
                    },
                    _sprig_at(1, 0, 1, 2),
                    _sprig_at(2, 0, 2, 3),
                    _sprig_at(3, 1, 2, 4),
                ],
            }
        )
    )
    report = tmp_path / "classify.json"
    assert main(["classify", str(path), "--report", str(report)]) == 0
    body = _read_json(report)
    assert {"kind": "cactus_cusp", "leaf": 1, "cusp": 1} in body["punctures"]
    assert body["orientation"]["verified"] is True
    out, report = tmp_path / "bundle.json", tmp_path / "synthesize.json"
    args = ["synthesize", str(path), "--out", str(out), "--report", str(report)]
    assert main(args) == 0
    assert _read_json(report)["tangency"]["nonfinite_rows"] == 0
    assert out.exists()


def test_odd_cactus_without_a_free_cusp_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "k3-three-sprigs.json"
    path.write_text(
        json.dumps(
            {
                "pieces": [{"leaf": {"k": 3}}] + [{"sprig": {}}] * 3,
                "junctions": [_sprig_at(c, 0, c, c + 1) for c in range(3)],
            }
        )
    )
    report, out = tmp_path / "report.json", tmp_path / "bundle.json"
    assert main(["classify", str(path), "--report", str(report)]) == 2
    assert "no free cusp" in capsys.readouterr().err
    args = ["synthesize", str(path), "--out", str(out), "--report", str(report)]
    assert main(args) == 2
    assert "no free cusp" in capsys.readouterr().err
    assert not report.exists() and not out.exists()


def test_free_sprigs_at_one_point_synthesize_as_straight_lines(workdir, tmp_path):
    out, report = tmp_path / "star-bundle.json", tmp_path / "star-report.json"
    args = ["synthesize", str(workdir / "star.json"), "--out", str(out)]
    assert main(args + ["--report", str(report)]) == 0
    body = _read_json(report)
    labels = [f["label"] for f in body["factors"]]
    assert labels == [f"segment:{i}" for i in range(7)]
    assert body["tangency"]["max_normalized"] < 1e-10


def test_four_free_sprigs_at_one_point_synthesize_as_two_arcs(tmp_path):
    path, out = tmp_path / "x.json", tmp_path / "x-bundle.json"
    path.write_text(json.dumps(X))
    assert main(["synthesize", str(path), "--out", str(out)]) == 0
    assert [f["kind"] for f in _read_json(out)["factors"]] == ["arc", "arc"]


@pytest.mark.parametrize(
    "shrub, error",
    [
        (STAR, None),
        (VEE, "crosses the disk of leaf 0"),
        (THREE_LEAVES_AT_ONE_CUSP, "more than two leaves meet at one point"),
        (TWO_LEAVES_AND_SPRIG, "leaves 0 and 1 meet a sprig at one point"),
    ],
    ids=["star", "vee", "three-leaves", "two-leaves-and-sprig"],
)
def test_crowded_junctions_synthesize_or_exit_2(tmp_path, capsys, shrub, error):
    path = tmp_path / "shrub.json"
    path.write_text(json.dumps(shrub))
    out, report = tmp_path / "bundle.json", tmp_path / "synthesize.json"
    args = ["synthesize", str(path), "--out", str(out), "--report", str(report)]
    if error is None:
        assert main(args) == 0
        assert _read_json(report)["tangency"]["max_normalized"] < 1e-10
        return
    assert main(args) == 2
    assert error in capsys.readouterr().err
    assert not report.exists() and not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--seed", "-1"],
        ["--config", {"seed": -1}],
        ["--config", {"seed": "abc"}],
        ["--config", {"spot_checks": 2.5}],
    ],
    ids=["seed-flag", "seed-negative", "seed-text", "spot_checks-float"],
)
def test_synthesize_refuses_what_its_flags_refuse(workdir, tmp_path, extra):
    # a config value goes through the same type and range as its flag
    if extra[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthesize": extra[1]}))
        extra = ["--config", str(config)]
    out, report = tmp_path / "refused.json", tmp_path / "refused-report.json"
    args = ["synthesize", str(workdir / "lone-leaf.json"), "--out", str(out)]
    assert main(args + ["--report", str(report), *extra]) == 2
    assert not out.exists() and not report.exists()


# -- simulate --------------------------------------------------------------------


def _simulate(workdir, tmp_path, *extra, name="run", bundle="bundle.json"):
    args = [
        "simulate",
        str(workdir / bundle),
        "--out-csv",
        str(tmp_path / f"{name}.csv"),
        "--report",
        str(tmp_path / f"{name}.json"),
    ]
    args.extend(extra)
    rc = main(args)
    body = _read_json(tmp_path / f"{name}.json") if rc == 0 else None
    return rc, body


def test_repeated_runs_are_byte_identical(workdir, tmp_path):
    args = [
        "simulate",
        str(workdir / "bundle.json"),
        "--horizon",
        "8",
        "--unit-speed",
        "--zero-samples",
        "300",
        "--out-csv",
        str(tmp_path / "same.csv"),
        "--report",
        str(tmp_path / "same.json"),
        "--plot",
        str(tmp_path / "same.svg"),
    ]
    assert main(args) == 0
    first = [
        (tmp_path / f"same.{ext}").read_bytes() for ext in ("csv", "json", "svg")
    ]
    assert main(args) == 0
    second = [
        (tmp_path / f"same.{ext}").read_bytes() for ext in ("csv", "json", "svg")
    ]
    assert first == second


def test_plot_is_a_self_contained_picture(workdir, tmp_path):
    rc, _ = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "8",
        "--unit-speed",
        "--zero-samples",
        "300",
        "--plot",
        str(tmp_path / "orbit.svg"),
        name="plotted",
    )
    assert rc == 0
    svg = (tmp_path / "orbit.svg").read_text()
    assert svg.startswith("<svg ")
    assert "<polyline" in svg
    assert "<circle" in svg
    assert svg.rstrip().endswith("</svg>")


def test_seed_batches_write_per_seed_files(workdir, tmp_path):
    rc, body = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "6",
        "--unit-speed",
        "--zero-samples",
        "200",
        "--seeds",
        "3",
        name="batch",
    )
    assert rc == 0
    assert [run["seed"] for run in body["runs"]] == [0, 1, 2]
    for seed in range(3):
        csv_path = tmp_path / f"batch-seed{seed}.csv"
        assert csv_path.exists()
        assert body["runs"][seed]["files"]["trajectory_csv"] == str(csv_path)
    starts = {tuple(run["start"]) for run in body["runs"]}
    assert len(starts) == 3


def test_seed_batches_equal_one_seed_runs(workdir, tmp_path):
    # the seeds of a batch share one field and one zero-set sample
    common = ("--horizon", "6", "--unit-speed", "--zero-samples", "200")
    rc, batch = _simulate(
        workdir, tmp_path, *common, "--seed", "4", "--seeds", "3", name="batch"
    )
    assert rc == 0
    for run, seed in zip(batch["runs"], (4, 5, 6), strict=True):
        rc, single = _simulate(
            workdir, tmp_path, *common, "--seed", str(seed), name=f"single{seed}"
        )
        assert rc == 0
        (alone,) = single["runs"]
        del run["files"], alone["files"]
        assert run == alone
        batch_csv = tmp_path / f"batch-seed{seed}.csv"
        assert batch_csv.read_bytes() == (tmp_path / f"single{seed}.csv").read_bytes()


# sha256 of the unit-speed `simulate` CSV and of its report, without the
# fields that name paths, for each example bundle at seed 0 and its horizon
# in the benchmark's orbit workloads; taken before the factor kernels were
# generated, so a reordered float operation in the kernels, the field rows or
# the integrator fails here
EXAMPLE_ORBIT_SHA256 = {
    "equator": (
        45.0,
        "8b3cef8578c56aa206f50ede8647fea2a91170ba0014536748b2afb12ce7d5ca",
        "36f237cc53f9b088f9aaba17987303f1c003886d6fc70e792c6841c8ecc01aec",
    ),
    "framed-chain": (
        3.0,
        "6b05fcfc1e0f57616c042121e7058380619c1089b475fe9e279a4ce63acb843e",
        "5f12322aca278d29c55b87f6f83878044ae47505065de03aa81fbd6d379e5e42",
    ),
    "framed-pair": (
        5.0,
        "c4b1cd8b772e127402163cf75017af2dad8be9251f09d0fd9261947259493521",
        "af8cf907b8c61c3f5b4b1d0b0ecbd4ab49ebb59230c7ef2e6dae7d1b518dc041",
    ),
    "lone-sprig": (
        8.0,
        "67dd60ccb0be5f631293199ebfa5eb46598fe492bde3025f70749e778cf99fa8",
        "37767c140ae03e5ffee76086ccf01f524ff61f648f3de0ec4e1e73d928937f27",
    ),
    "spiked-leaf": (
        4.0,
        "69ff1d95834f845c75196c982f553d7c47d2488a97135c8a3afa94fae9483083",
        "c2f94dc3a1b4da34e4ed94d937ee3c0ec021cafb3ba47611fe3b36e63801058b",
    ),
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_ORBIT_SHA256))
def test_example_orbits_are_pinned(tmp_path, name):
    horizon, csv_digest, report_digest = EXAMPLE_ORBIT_SHA256[name]
    shrub = example_shrubs()[name]
    bundle = tmp_path / "bundle.json"
    field_synth.save_bundle(
        bundle, field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
    )
    csv_path, report_path = tmp_path / "orbit.csv", tmp_path / "report.json"
    args = ["simulate", str(bundle), "--horizon", repr(horizon), "--unit-speed"]
    args += ["--seed", "0", "--out-csv", str(csv_path), "--report", str(report_path)]
    assert main(args) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    body = _read_json(report_path)
    del body["bundle"], body["config_sha256"], body["runs"][0]["files"]
    for key in ("bundle", "out_csv", "report"):
        del body["config"][key]
    text = _dump_json(body)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == report_digest


# sha256 of the plane picture (`--plot`) of the framed-pair orbit pinned
# above; the projection runs through curves.sphere_to_plane
FRAMED_PAIR_PLOT_SHA256 = (
    "7235f8d341c4a210b883517749fa2172b64a740d62f4be693ce2741b485d0012"
)


def test_framed_pair_plot_is_pinned(tmp_path):
    horizon, csv_digest, _ = EXAMPLE_ORBIT_SHA256["framed-pair"]
    shrub = example_shrubs()["framed-pair"]
    bundle = tmp_path / "bundle.json"
    field_synth.save_bundle(
        bundle, field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
    )
    csv_path, plot_path = tmp_path / "orbit.csv", tmp_path / "orbit.svg"
    args = ["simulate", str(bundle), "--horizon", repr(horizon), "--unit-speed"]
    args += ["--seed", "0", "--out-csv", str(csv_path), "--plot", str(plot_path)]
    args += ["--report", str(tmp_path / "report.json")]
    assert main(args) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    digest = hashlib.sha256(plot_path.read_bytes()).hexdigest()
    assert digest == FRAMED_PAIR_PLOT_SHA256


# sha256 of each example's `classify` report without the fields that name
# paths; its certificate writes each chain link as a "node:<bud>" or
# "piece:<id>" label
EXAMPLE_CLASSIFY_SHA256 = {
    "equator": "73fe520cd9b3bb532acc8fae6944ce7483d51e44805c57533e6af2ea6aa60b0d",
    "framed-chain": "2c70cc0b5a5adca7e506d6d4f56a491ca853b538f57e5aa65f842d2718fdc240",
    "framed-pair": "3b325ebcc4820da98f2b58cdd3268f1a74c31e8fb774c8d40aa405171d776a33",
    "lone-sprig": "154697e65790d921576d37e3e87c8ae2dad7b46a6299f8d3959e66de5b0c7fe5",
    "spiked-leaf": "44c9895899f396f2e301bc964ac5cf07b1fa340bff0a667c9008870e0e5b694a",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_CLASSIFY_SHA256))
def test_example_classify_reports_are_pinned(tmp_path, name):
    shrub_path, report_path = tmp_path / "shrub.json", tmp_path / "report.json"
    shrub_path.write_text(json.dumps(example_shrubs()[name].to_json()))
    assert main(["classify", str(shrub_path), "--report", str(report_path)]) == 0
    body = _read_json(report_path)
    del body["config_sha256"]
    for key in ("shrub_file", "report"):
        del body["config"][key]
    text = _dump_json(body)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == EXAMPLE_CLASSIFY_SHA256[name]


def test_unit_speed_estimate_matches_raw_speed_within_factor_two(workdir, tmp_path):
    # the raw field fades quadratically at the boundary, so its orbit needs a
    # far longer time horizon to settle than the unit-speed arc length one
    rc_unit, unit = _simulate(
        workdir, tmp_path, "--horizon", "20", "--unit-speed", name="unit"
    )
    rc_raw, raw = _simulate(workdir, tmp_path, "--horizon", "480", name="raw")
    assert rc_unit == 0 and rc_raw == 0
    a_unit = unit["runs"][0]["omega"]["attraction"]
    a_raw = raw["runs"][0]["omega"]["attraction"]
    assert a_raw < 2.0 * a_unit
    assert a_unit < 2.0 * a_raw


def test_step_underflow_is_a_numeric_failure(workdir, tmp_path):
    rc, _ = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "8",
        "--unit-speed",
        "--min-step",
        "1.0",
        name="underflow",
    )
    assert rc == 3


def test_step_budget_exhaustion_is_a_numeric_failure(workdir, tmp_path):
    rc, _ = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "1e6",
        "--max-steps",
        "10",
        name="budget",
    )
    assert rc == 3


def test_start_flag_replaces_seeding(workdir, tmp_path, capsys):
    capsys.readouterr()
    rc, body = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "4",
        "--unit-speed",
        "--start",
        "0.1,0,-0.9",
        name="started",
    )
    assert rc == 0
    run = body["runs"][0]
    assert run["seed"] is None
    norm = math.sqrt(sum(c * c for c in run["start"]))
    assert abs(norm - 1.0) < 1e-12
    assert run["start"][2] < 0
    # the run is named by its normalised start point, in the echo and in
    # the rendered report alike
    label = "start (0.110432, 0, -0.993884): "
    assert capsys.readouterr().out.startswith(label)
    assert main(["report", str(tmp_path / "started.json")]) == 0
    assert capsys.readouterr().out.splitlines()[3].startswith(label)


@pytest.mark.parametrize(
    "start, code",
    [
        ("nan,0,0", 2),
        ("inf,0,-1", 2),
        ("1,2", 2),
        ("a,b,c", 2),
        ("0,0,0", 2),
        ("1e308,1e308,0", 0),
    ],
)
def test_start_points_are_finite_directions(workdir, tmp_path, start, code):
    # scaled by the largest coordinate before the norm, so a huge but finite
    # point is the direction it names; run on the arc's field, since that
    # direction lies on the equator, the zero set of the lone leaf's field
    rc, body = _simulate(
        workdir, tmp_path, "--horizon", "1", "--unit-speed", "--start", start,
        name="edge", bundle="arc-bundle.json",
    )
    assert rc == code
    assert (tmp_path / "edge.csv").exists() == (code == 0)
    if code == 0:
        half = math.sqrt(0.5)
        assert body["runs"][0]["start"] == pytest.approx([half, half, 0.0], abs=1e-15)


def test_start_conflicts_with_seed_batches(workdir, tmp_path):
    rc, _ = _simulate(
        workdir,
        tmp_path,
        "--start",
        "0.1,0,-0.9",
        "--seeds",
        "2",
        name="conflict",
    )
    assert rc == 2


@pytest.mark.parametrize("speed", ["--unit-speed", "--raw-speed"])
def test_a_start_on_the_zero_set_exits_2(workdir, tmp_path, capsys, speed):
    # the lone leaf's field is the equator's, whose F vanishes at z = 0;
    # every zero of F is a rest point, so the run would be a one-point orbit
    rc, _ = _simulate(
        workdir, tmp_path, "--horizon", "1", speed, "--start", "1,0,0", name="rest"
    )
    assert rc == 2
    assert "start point lies on the zero set of F" in capsys.readouterr().err
    assert not (tmp_path / "rest.csv").exists()


def test_an_orbit_that_reaches_a_zero_of_f_exits_3(
    workdir, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(field_synth, "build_field", lambda function: NorthwardField())
    rc, _ = _simulate(
        workdir, tmp_path, "--horizon", "4", "--unit-speed", "--fixed-step", "0.25",
        "--start", "0.6,0,-0.8", name="reached",
    )
    assert rc == 3
    assert "orbit reached a zero of the field" in capsys.readouterr().err
    assert not (tmp_path / "reached.csv").exists()


def test_nonpositive_horizon_is_a_validation_failure(workdir, tmp_path):
    rc, _ = _simulate(workdir, tmp_path, "--horizon", "0", name="zero")
    assert rc == 2
    rc, _ = _simulate(workdir, tmp_path, "--horizon", "-3", name="negative")
    assert rc == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--rtol", "inf"],
        ["--atol", "inf"],
        ["--max-step", "inf"],
        ["--guard", "inf"],
        ["--fixed-step", "inf"],
        ["--min-step", "inf"],
        ["--seed-radius", "inf"],
        ["--horizon", "inf"],
        ["--config", '{"simulate": {"rtol": Infinity}}'],
    ],
    ids=lambda extra: extra[0].lstrip("-"),
)
def test_nonfinite_settings_are_validation_failures(workdir, tmp_path, extra):
    if extra[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(extra[1])
        extra = ["--config", str(config)]
    rc, _ = _simulate(workdir, tmp_path, "--horizon", "2", *extra, name="inf")
    assert rc == 2
    assert not (tmp_path / "inf.csv").exists()
    assert not (tmp_path / "inf.json").exists()


def test_config_file_supplies_and_flags_override(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "simulate": {
                    "horizon": 8.0,
                    "unit_speed": True,
                    "zero_samples": 300,
                    "out_csv": str(tmp_path / "c.csv"),
                    "report": str(tmp_path / "c.json"),
                }
            }
        )
    )
    bundle = str(workdir / "bundle.json")
    assert main(["simulate", bundle, "--config", str(config)]) == 0
    body = _read_json(tmp_path / "c.json")
    assert body["config"]["horizon"] == 8.0
    assert body["config"]["unit_speed"] is True
    assert main(["simulate", bundle, "--config", str(config), "--horizon", "9"]) == 0
    assert _read_json(tmp_path / "c.json")["config"]["horizon"] == 9.0


@pytest.mark.parametrize(
    "section",
    [
        {"seed_radius": "x"},
        {"zero_samples": True},
        {"zero_samples": 2.5},
        {"seed": {"a": 1}},
    ],
    ids=["seed_radius-text", "zero_samples-bool", "zero_samples-float", "seed-object"],
)
def test_config_values_meet_their_flag_types(workdir, tmp_path, section):
    # each value is read as the text its flag would take, never coerced
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": section}))
    rc, _ = _simulate(
        workdir, tmp_path, "--horizon", "2", "--config", str(config), name="typed"
    )
    assert rc == 2
    assert not (tmp_path / "typed.csv").exists()
    assert not (tmp_path / "typed.json").exists()


def test_config_and_flags_write_the_same_report(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"simulate": {"horizon": 8, "unit_speed": True}}))
    bundle = str(workdir / "bundle.json")
    shared = [
        "--zero-samples",
        "300",
        "--out-csv",
        str(tmp_path / "same.csv"),
        "--report",
        str(tmp_path / "same.json"),
    ]
    assert main(["simulate", bundle, "--config", str(config), *shared]) == 0
    from_config = (tmp_path / "same.json").read_bytes()
    assert main(["simulate", bundle, "--horizon", "8", "--unit-speed", *shared]) == 0
    assert (tmp_path / "same.json").read_bytes() == from_config


@pytest.mark.parametrize("command", ["implicitize", "synthesize", "simulate"])
def test_unwritable_report_is_refused_before_any_output(workdir, tmp_path, command):
    out = tmp_path / "output"
    args = {
        "implicitize": ["implicitize", "--k", "3", "--out", str(out)],
        "synthesize": ["synthesize", str(workdir / "lone-leaf.json"), "--out", str(out)],
        "simulate": [
            "simulate",
            str(workdir / "bundle.json"),
            "--horizon",
            "2",
            "--out-csv",
            str(out),
        ],
    }[command]
    assert main(args + ["--report", str(tmp_path / "missing" / "report.json")]) == 2
    assert not out.exists()


def test_unknown_config_keys_are_rejected(workdir, tmp_path):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"simulate": {"horizn": 8.0}}))
    assert main(["simulate", str(workdir / "bundle.json"), "--config", str(config)]) == 2


def test_config_hash_tracks_the_resolved_values(workdir, tmp_path):
    rc_a, body_a = _simulate(
        workdir, tmp_path, "--horizon", "4", "--unit-speed", name="hash-a"
    )
    rc_b, body_b = _simulate(
        workdir, tmp_path, "--horizon", "5", "--unit-speed", name="hash-b"
    )
    assert rc_a == 0 and rc_b == 0
    assert body_a["config_sha256"] != body_b["config_sha256"]


def test_nonfinite_simulate_report_writes_no_files(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(flow_sim, "first_integral_drift", lambda *a, **k: math.nan)
    rc, _ = _simulate(workdir, tmp_path, "--horizon", "2", name="nan")
    assert rc == 3
    assert not (tmp_path / "nan.csv").exists()
    assert not (tmp_path / "nan.json").exists()


_ONE_ENDPOINT_ARC = {
    "kind": "arc",
    "circle_normal": [0, 0, 1],
    "circle_offset": "0",
    "side_normal": [1, 0, 0],
    "side_offset": "0",
    "endpoints": [["0", "1", "0"]],
}


# one factor entry of an example bundle, or the bundle itself, edited in a
# way `synthesize` never writes: (example, factor index or None for the
# bundle itself, keys down to the edited value, new value); lone-sprig has
# one arc on the circle y + 2z = 2, punctured at its two ends, and
# framed-pair the equator and one k = 4 leaf, with no puncture
_DROP = object()
_BROKEN_ENTRIES = [
    ("lone-sprig", 0, ("circle_offset",), 0.5),
    ("lone-sprig", 0, ("circle_offset",), "1/0"),
    ("lone-sprig", 0, ("side_offset",), 0),
    ("lone-sprig", 0, ("circle_normal",), [0, 0, 0]),
    ("lone-sprig", 0, ("circle_normal",), [0.5, 0, 1]),
    ("lone-sprig", 0, ("circle_normal",), [True, 1, 2]),
    ("lone-sprig", 0, ("circle_normal",), [1, 2]),
    ("lone-sprig", 0, ("side_normal",), [0, 0, 0]),
    ("lone-sprig", 0, ("endpoints", 0), ["0", "0", "2"]),  # off the sphere
    ("lone-sprig", 0, ("endpoints", 0), ["1", "0", "0"]),  # off the circle
    ("lone-sprig", 0, ("endpoints", 0), ["0", "4/5", "3/5"]),  # off the side
    ("lone-sprig", 0, ("endpoints", 0), [0, 0, 1]),
    ("lone-sprig", 0, ("endpoints", 1), ["0", "0", "1"]),
    ("lone-sprig", 0, ("colour",), "red"),
    ("framed-pair", 0, ("poly",), "2*z"),
    ("framed-pair", 0, ("source", "k"), 4),
    ("framed-pair", 1, ("poly",), 5),
    ("framed-pair", 1, ("colour",), "red"),
    ("framed-pair", 1, ("source", "k"), _DROP),
    ("framed-pair", 1, ("source", "k"), 7),
    ("framed-pair", 1, ("source", "k"), True),
    ("framed-pair", 1, ("source", "piece"), "spiral"),
    ("framed-pair", 1, ("source", "colour"), "red"),
    ("framed-pair", 1, ("source", "matrix"), [["1", "2"], ["2", "4"]]),
    ("framed-pair", 1, ("source", "matrix"), [["1", "0"], ["0", "1"], ["0", "0"]]),
    ("framed-pair", 1, ("source", "matrix"), [[1, 0], [0, 1]]),
    ("framed-pair", 1, ("source", "offset"), ["0", "0", "0"]),
    # an unknown top-level key, even one holding the true punctures
    ("lone-sprig", None, ("punctures",), [["0", "0", "1"], ["4/9", "4/9", "7/9"]]),
]


def _broken_bundles():
    intact = {}
    for name in ("lone-sprig", "framed-pair"):
        shrub = example_shrubs()[name]
        function = field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
        intact[name] = json.dumps(field_synth.bundle_dict(function))
        field_synth.function_from_bundle(json.loads(intact[name]))
    for name, index, keys, value in _BROKEN_ENTRIES:
        body = json.loads(intact[name])
        target = body if index is None else body["factors"][index]
        for key in keys[:-1]:
            target = target[key]
        if value is _DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        yield body


def test_garbage_bundles_are_validation_failures(tmp_path):
    fake = tmp_path / "fake.json"
    csv, report = tmp_path / "orbit.csv", tmp_path / "orbit.json"
    args = ["simulate", str(fake), "--out-csv", str(csv), "--report", str(report)]
    for body in [
        {"format": "something-else"},
        {"format": field_synth.BUNDLE_FORMAT, "factors": 5},
        [],
        {"format": field_synth.BUNDLE_FORMAT, "factors": [_ONE_ENDPOINT_ARC]},
        *_broken_bundles(),
    ]:
        fake.write_text(json.dumps(body))
        assert main(args) == 2, body
        assert not csv.exists() and not report.exists(), body


def test_poly_factors_without_a_source_are_refused(tmp_path, capsys, monkeypatch):
    # refused before a kernel is compiled, which for z^20000 would take a
    # fifth of a second and 75 MB
    def no_kernel(*args):
        raise AssertionError("a kernel was generated")

    monkeypatch.setattr(field_synth, "_kernel_source", no_kernel)
    monkeypatch.setattr(field_synth, "_compiled_kernel", no_kernel)
    entry = {"kind": "poly", "poly": "1*z^20000"}
    body = {"format": field_synth.BUNDLE_FORMAT, "factors": [entry]}
    with pytest.raises(ValueError, match="source"):
        field_synth.function_from_bundle(body)
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["simulate", str(fake), "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert "source" in capsys.readouterr().err


def test_a_misspelled_piece_kind_is_named(tmp_path, capsys):
    shrub = example_shrubs()["framed-pair"]
    body = field_synth.bundle_dict(
        field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
    )
    body["factors"][1]["source"]["piece"] = "spiral"
    with pytest.raises(ValueError, match="^unknown piece kind 'spiral'$"):
        field_synth.function_from_bundle(body)
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["simulate", str(fake), "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert "unknown piece kind 'spiral'" in capsys.readouterr().err


def test_version_one_bundles_ask_for_a_new_synthesis(workdir, tmp_path, capsys):
    data = _read_json(workdir / "bundle.json")
    assert data["format"] == field_synth.BUNDLE_FORMAT
    data["format"] = "field-bundle/1"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["simulate", str(stale), "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert "re-run synthesize" in capsys.readouterr().err


def test_version_two_bundles_ask_for_a_new_synthesis(tmp_path, capsys):
    shrub = example_shrubs()["framed-pair"]
    data = field_synth.bundle_dict(
        field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
    )
    for older in ("field-bundle/2", "field-bundle/3"):
        data["format"] = older
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(data))
        capsys.readouterr()
        csv = tmp_path / "x.csv"
        assert main(["simulate", str(stale), "--out-csv", str(csv)]) == 2, older
        err = capsys.readouterr().err
        assert f"re-run synthesize to write a {field_synth.BUNDLE_FORMAT}" in err
        assert not csv.exists()


def _refuse_algebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused leaf reached the algebra")

    monkeypatch.setattr(curves, "implicitize", refuse)
    monkeypatch.setattr(field_synth, "implicitize", refuse)
    monkeypatch.setattr(field_synth, "_leaf_polynomial", refuse)
    monkeypatch.setattr(field_synth, "_kernel_source", refuse)
    monkeypatch.setattr(field_synth, "_compiled_kernel", refuse)


@pytest.mark.parametrize("k", [5001, 7, 0])
def test_leaf_entries_off_the_k_rule_are_refused_first(
    tmp_path, capsys, monkeypatch, k
):
    # a leaf's k is a multiple of 4 in [4, K_MAX]; at k = 5001 the kernel
    # alone would take a fifth of a second and 77 MB
    shrub = example_shrubs()["framed-pair"]
    body = field_synth.bundle_dict(
        field_synth.compose_shrub_function(shrub_model.layout_shrub(shrub))
    )
    # the leaf alone, since reading the equator fetches its kernel, which
    # the refusal guard forbids
    body["factors"] = body["factors"][1:]
    body["factors"][0]["source"]["k"] = k
    _refuse_algebra(monkeypatch)
    with pytest.raises(ValueError, match="multiple of 4"):
        field_synth.function_from_bundle(body)
    fake = tmp_path / "fake.json"
    fake.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["simulate", str(fake), "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert "multiple of 4" in capsys.readouterr().err


def test_a_leaf_above_k_max_is_refused_before_implicitize(
    tmp_path, capsys, monkeypatch
):
    # a framed pair whose placed leaf would be laid out with K_MAX + 4 cusps
    shrub = {
        "pieces": [{"leaf": {"k": 4}}, {"leaf": {"k": curves.K_MAX + 1}}],
        "junctions": [
            {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}]}
        ],
    }
    path = tmp_path / "big-leaf.json"
    path.write_text(json.dumps(shrub))
    bundle = tmp_path / "bundle.json"
    _refuse_algebra(monkeypatch)
    capsys.readouterr()
    assert main(["synthesize", str(path), "--out", str(bundle)]) == 2
    assert "K_MAX" in capsys.readouterr().err
    assert not bundle.exists()


def test_a_leaf_of_k_max_cusps_is_synthesized(tmp_path):
    shrub = {
        "pieces": [{"leaf": {"k": 4}}, {"leaf": {"k": curves.K_MAX}}],
        "junctions": [
            {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}]}
        ],
    }
    path = tmp_path / "big-leaf.json"
    path.write_text(json.dumps(shrub))
    bundle = tmp_path / "bundle.json"
    assert main(["synthesize", str(path), "--out", str(bundle)]) == 0
    assert _read_json(bundle)["factors"][1]["source"]["k"] == curves.K_MAX


# -- report ----------------------------------------------------------------------


def test_report_renders_every_kind(workdir, tmp_path, capsys):
    rc, _ = _simulate(
        workdir,
        tmp_path,
        "--horizon",
        "6",
        "--unit-speed",
        "--zero-samples",
        "200",
        name="render",
    )
    assert rc == 0
    produced = [
        workdir / "synthesize-report.json",
        tmp_path / "render.json",
    ]
    for name in ("lone-leaf", "star"):
        rc_cls, _ = _classify(workdir, name)
        assert rc_cls == 0
        produced.append(workdir / f"classify-{name}.json")
    # no shrub that classify accepts fails to orient, so the "not
    # orientable" line is rendered from an edited star report
    reason = "sprig 0 caps no complete chain"
    refused = _read_json(workdir / "classify-star.json")
    refused["orientation"]["orientable"] = False
    refused["orientation"]["certificate"]["failures"] = [reason]
    (tmp_path / "classify-refused.json").write_text(json.dumps(refused))
    produced.append(tmp_path / "classify-refused.json")
    for k, check in ((3, []), (4, ["--check", "astroid"])):
        out = tmp_path / f"k{k}.json"
        report = tmp_path / f"k{k}-report.json"
        args = ["implicitize", "--k", str(k), "--out", str(out)]
        assert main(args + ["--report", str(report)] + check) == 0
        produced.append(report)
    rendered = {}
    for path in produced:
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        rendered[path.name] = capsys.readouterr().out
        assert "report (config " in rendered[path.name]
    assert "orientation: certificate verified" in rendered["classify-star.json"]
    refused_line = f"orientation: not orientable ({reason})"
    assert refused_line in rendered["classify-refused.json"]
    astroid = "astroid grid: 10201/10201 agree, 4 shared zeros"
    assert astroid in rendered["k4-report.json"]


def test_report_rejects_unrecognized_files(tmp_path, capsys):
    stray = tmp_path / "stray.json"
    for body in [
        {"kind": "unheard-of"},
        {"kind": "simulate"},
        {"kind": "classify", "config_sha256": "abcdef"},
    ]:
        stray.write_text(json.dumps(body))
        assert main(["report", str(stray)]) == 2, body
        assert "is not a recognized report file" in capsys.readouterr().err


def _fresh_interpreter_exit(code: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def test_cli_import_leaves_the_process_pool_unloaded(workdir, tmp_path):
    # `simulate --seeds` runs its seeds in this process, one after another
    args = [
        "simulate",
        str(workdir / "bundle.json"),
        "--horizon",
        "2",
        "--seeds",
        "2",
        "--out-csv",
        str(tmp_path / "pool.csv"),
        "--report",
        str(tmp_path / "pool.json"),
    ]
    code = (
        "import sys; from shrubfield import cli; "
        f"rc = cli.main({args!r}); "
        "sys.exit(rc or any(name in sys.modules "
        "for name in ('concurrent.futures', 'multiprocessing')))"
    )
    assert _fresh_interpreter_exit(code) == 0
    assert (tmp_path / "pool.json").exists()


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_cli_import_keeps_openblas_to_one_thread(given, expected):
    # set before numpy loads, so no OpenBLAS worker starts; a user value stays
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = (
        "import os, sys; import shrubfield.cli; "
        f"sys.exit(os.environ.get('OPENBLAS_NUM_THREADS') != {expected!r})"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_field_synth_import_leaves_shrub_model_unloaded():
    # shrub_model is needed to compose a layout, not to load or evaluate a field
    code = (
        "import sys, shrubfield.field_synth; "
        "sys.exit('shrubfield.shrub_model' in sys.modules)"
    )
    assert _fresh_interpreter_exit(code) == 0


_NUMERIC_MODULES = (
    "numpy",
    "hashlib",
    "shrubfield.curves",
    "shrubfield.field_synth",
    "shrubfield.flow_sim",
    "shrubfield.shrub_model",
)


_OPENSSL = ("hashlib", "_hashlib")

_UNLOADED = {
    "--help": _NUMERIC_MODULES,
    "report": _NUMERIC_MODULES,
    "classify": ("numpy", *_OPENSSL),
    "implicitize": ("numpy", *_OPENSSL),
    "synthesize": ("shrubfield.flow_sim", "numpy.random", *_OPENSSL),
    "simulate": ("shrubfield.shrub_model", "numpy.random", *_OPENSSL),
}


@pytest.mark.parametrize("command", _UNLOADED)
def test_commands_load_only_what_they_run(workdir, tmp_path, command):
    # each command imports its modules inside itself; `--help` and `report`
    # compute nothing, and only the spot check, the zero set, the integrator
    # and the plot load numpy; seeded draws come from `curves.seeded_doubles`,
    # so no command loads numpy.random, and the config hash is the
    # interpreter's own SHA-256, so none loads hashlib and with it OpenSSL
    report = str(tmp_path / "report.json")
    args = {
        "--help": ["--help"],
        "report": ["report", str(workdir / "synthesize-report.json")],
        "classify": ["classify", str(workdir / "prickly.json"), "--report", report],
        "implicitize": [
            "implicitize",
            "--k",
            "3",
            "--out",
            str(tmp_path / "k3.curve.json"),
            "--report",
            report,
        ],
        "synthesize": [
            "synthesize",
            str(workdir / "lone-leaf.json"),
            "--out",
            str(tmp_path / "bundle.json"),
            "--report",
            report,
        ],
        "simulate": [
            "simulate",
            str(workdir / "bundle.json"),
            "--horizon",
            "2",
            "--out-csv",
            str(tmp_path / "orbit.csv"),
            "--report",
            report,
        ],
    }[command]
    code = (
        "import sys; from shrubfield import cli; "
        f"rc = cli.main({args!r}); "
        f"loaded = [m for m in {_UNLOADED[command]!r} if m in sys.modules]; "
        "print('loaded:', loaded, file=sys.stderr); "
        "sys.exit(rc or bool(loaded))"
    )
    assert _fresh_interpreter_exit(code) == 0
    assert command in ("--help", "report") or os.path.exists(report)


def test_config_hash_is_the_sha256_of_the_canonical_config(workdir, tmp_path):
    # the oracle is hashlib's SHA-256, computed here; the commands use the
    # interpreter's built-in module, so the two share no import
    rc, simulate_body = _simulate(workdir, tmp_path, "--horizon", "1", name="hashed")
    assert rc == 0
    for body in (_read_json(workdir / "synthesize-report.json"), simulate_body):
        canonical = json.dumps(body["config"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert body["config_sha256"] == digest


def test_config_hash_without_the_built_in_modules_keeps_the_report(tmp_path):
    # a build made without the built-in hashes takes hashlib's SHA-256
    report = tmp_path / "k3.report.json"
    args = ["implicitize", "--k", "3", "--out", str(tmp_path / "k3.curve.json")]
    args += ["--report", str(report)]
    assert main(args) == 0
    expected = report.read_bytes()
    report.unlink()
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        f"from shrubfield import cli; rc = cli.main({args!r}); "
        "sys.exit(rc or 'hashlib' not in sys.modules)"
    )
    assert _fresh_interpreter_exit(code) == 0
    assert report.read_bytes() == expected


def _run_module(*args):
    """`python -m shrubfield.cli` in a fresh process: its exit code and the
    lines of its stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "shrubfield.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stdout.splitlines(), done.stderr.splitlines()


def test_the_process_entry_point_keeps_codes_and_output(workdir, tmp_path):
    # in-process main() never runs cli.run(), which `python -m shrubfield.cli`
    # and the console script take: it freezes the collector before the exit
    shrub = tmp_path / "framed-pair.json"
    shrub.write_text(json.dumps(example_shrubs()["framed-pair"].to_json()))
    bundle, report = tmp_path / "framed-pair.bundle.json", tmp_path / "synth.json"
    assert _run_module(
        "synthesize", str(shrub), "--out", str(bundle), "--report", str(report)
    ) == (0, [f"bundle: {bundle}", f"report: {report}"], [])
    digest = hashlib.sha256(bundle.read_bytes()).hexdigest()
    assert digest == EXAMPLE_BUNDLE_SHA256["framed-pair"]

    vee = tmp_path / "vee.json"
    vee.write_text(json.dumps(VEE))
    refused = tmp_path / "vee.bundle.json"
    assert _run_module("synthesize", str(vee), "--out", str(refused)) == (
        2,
        [],
        ["Error: layout unsatisfiable: sprig 2 crosses the disk of leaf 0"],
    )
    assert not refused.exists()

    csv = tmp_path / "underflow.csv"
    assert _run_module(
        "simulate", str(workdir / "bundle.json"), "--horizon", "8", "--unit-speed",
        "--min-step", "1.0", "--out-csv", str(csv),
    ) == (
        3,
        [],
        [
            "Error: integration failed: step size underflow "
            "at (-0.065039, -0.0756314, -0.995012)"
        ],
    )
    assert not csv.exists()
