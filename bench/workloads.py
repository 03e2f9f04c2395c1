"""Workload definitions and the seeded input generator.

Every input the program receives is a file made here from the workload
seed: shrub descriptions, spot-check seeds and orbit start seeds. The
generator draws by structure only (piece kinds, cusp counts, attachment
sites) and never looks at what the program does with a draw, so a shrub
that the program mishandles shows up as a failed op rather than being
skipped.

Each workload is a list of distinct CLI ops, run in order by one
closed-loop client: one command at a time, each a fresh process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# The example shrubs of ``field_synth.example_shrubs``, written out as the
# shrub files a user would hand to ``shrubfield synthesize``.
_LEAF4 = {"leaf": {"k": 4}}
_SPRIG = {"sprig": {}}
EXAMPLES = {
    "equator": {"pieces": [_LEAF4], "junctions": []},
    "framed-pair": {
        "pieces": [_LEAF4, _LEAF4],
        "junctions": [{"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}]}],
    },
    "framed-chain": {
        "pieces": [_LEAF4, _LEAF4, _LEAF4],
        "junctions": [
            {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": 0}]},
            {"bud": 1, "at": [{"piece": 1, "site": 2}, {"piece": 2, "site": 0}]},
        ],
    },
    "lone-sprig": {"pieces": [_SPRIG], "junctions": []},
    "spiked-leaf": {
        "pieces": [_LEAF4, _SPRIG, _SPRIG],
        "junctions": [
            {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}]},
            {"bud": 1, "at": [{"piece": 0, "site": 2}, {"piece": 2, "site": "end0"}]},
        ],
    },
}

FRAMED = ("framed-pair", "framed-chain", "spiked-leaf")

# Tangency spot checks per synthesize op. Ten thousand points take 3 to 5 s
# per op on a 2-core machine, too slow for a median and a tail in one run;
# at this count the batched field rows are still the largest single cost.
TANGENCY_SPOT_CHECKS = 2000

# Arc-length horizons of the orbit workloads (``simulate --unit-speed``).
# Within a workload every bundle costs about the same per op at its
# horizon (1.1 to 1.4 s on a 2-core machine), so the median draws on all
# of them instead of sitting in one cluster of timings.
FRAMED_HORIZONS = {"framed-pair": 5.0, "framed-chain": 3.0, "spiked-leaf": 4.0}
CHEAP_HORIZONS = {"lone-sprig": 8.0, "equator": 45.0}
POOL_SEEDS = 2

# Distinct inputs drawn per bundle. An orbit's cost depends on where it
# starts, so every timed op gets fresh seeds and a run covers many starts.
# A 25 s run uses 7 to 11 per bundle; the list wraps around if it ends.
DRAWS = 40

# Horizon of the short orbit the traced run's probe integrates.
PROBE_HORIZON = 4.0


def k8_shrub(rng: random.Random) -> dict:
    """A shrub whose one non-frame leaf has k in 5..8, so it is laid out
    with k = 8, plus either 1 to 3 sprigs on distinct cusps or one
    companion leaf with k <= 4 that becomes the frame."""
    k = rng.randint(5, 8)
    if rng.random() < 0.5:
        sites = rng.sample(range(k), rng.randint(1, 3))
        pieces = [{"leaf": {"k": k}}] + [{"sprig": {}} for _ in sites]
        junctions = [
            {"bud": b, "at": [{"piece": 0, "site": s}, {"piece": b + 1, "site": "end0"}]}
            for b, s in enumerate(sites)
        ]
    else:
        # the frame is the leaf with the most junctions, ties to the lower
        # index, so the companion goes first
        kc = rng.randint(3, 4)
        pieces = [{"leaf": {"k": kc}}, {"leaf": {"k": k}}]
        junctions = [
            {
                "bud": 0,
                "at": [
                    {"piece": 0, "site": rng.randrange(kc)},
                    {"piece": 1, "site": rng.randrange(k)},
                ],
            }
        ]
    return {"pieces": pieces, "junctions": junctions}


def draw_seeds(rng: random.Random, count: int) -> list[int]:
    """Distinct nonnegative seeds for spot checks and orbit starts."""
    return rng.sample(range(1_000_000), count)


@dataclass
class Op:
    """One CLI command with the files it reads and writes, relative to its
    own working directory."""

    name: str
    command: str  # "synthesize" or "simulate"
    args: list
    outputs: list  # files compared byte for byte between repeats
    units: int  # bundles or orbits one success delivers
    replay: dict = field(default_factory=dict)  # what the traced replay calls


@dataclass
class Workload:
    name: str
    unit: str  # "bundles" or "orbits"
    inputs: dict  # file name -> JSON object written before set-up
    setup: list  # ops run during set-up (bundle synthesis)
    ops: list  # the timed ops, in order
    cycle: int  # ops per pass through the bundles; runs end on a whole pass


def _synth_op(name, shrub_file, bundle, spot_checks, seed) -> Op:
    args = [shrub_file, "--out", bundle, "--report", "report.json"]
    if spot_checks is not None:
        args += ["--spot-checks", str(spot_checks)]
    args += ["--seed", str(seed)]
    return Op(
        name=name,
        command="synthesize",
        args=args,
        outputs=["report.json", bundle],
        units=1,
        replay={
            "kind": "synthesize",
            "shrub": shrub_file,
            "spot_checks": spot_checks,  # None: the command's default
            "seed": seed,
            "bundle": bundle,
        },
    )


def _simulate_op(name, bundle, horizon, seed, seeds=None) -> Op:
    args = [bundle, "--horizon", repr(horizon), "--unit-speed", "--seed", str(seed)]
    args += ["--out-csv", "orbit.csv", "--report", "report.json"]
    if seeds is None:
        outputs = ["report.json", "orbit.csv"]
    else:
        args += ["--seeds", str(seeds)]
        outputs = ["report.json"] + [f"orbit-seed{s}.csv" for s in range(seed, seed + seeds)]
    return Op(
        name=name,
        command="simulate",
        args=args,
        outputs=outputs,
        units=seeds or 1,
        replay={
            "kind": "simulate",
            "bundle": bundle,
            "horizon": horizon,
            "seed": seed,
            "seeds": seeds,
            "csv": outputs[1:],
        },
    )


def _cycle(names, seeds) -> list:
    """(name, seed) pairs cycling through the names, so that each pass
    through them interleaves the bundles."""
    return [(names[i % len(names)], seed) for i, seed in enumerate(seeds)]


def single_seed_ops(op: Op) -> list:
    """The seeds of a ``--seeds`` op as one-seed commands."""
    first = op.replay["seed"]
    return [
        _simulate_op(f"{op.name}:seed{s}", op.replay["bundle"], op.replay["horizon"], s)
        for s in range(first, first + op.units)
    ]


def _bundle_setup(names) -> list:
    return [
        _synth_op(f"setup:{n}", f"{n}.shrub.json", f"{n}.bundle.json", None, 0)
        for n in names
    ]


NAMES = ("tangency", "orbit-framed", "orbit-cheap")


def build(name: str, seed: int) -> Workload:
    """The workload's inputs and ops, made from the seed alone."""
    rng = random.Random(f"{name}:{seed}")
    if name == "tangency":
        seeds = draw_seeds(rng, len(FRAMED) * DRAWS)
        ops = [
            _synth_op(f"{n}:{s}", f"{n}.shrub.json", f"{n}.bundle.json", TANGENCY_SPOT_CHECKS, s)
            for n, s in _cycle(FRAMED, seeds)
        ]
        return Workload(name, "bundles", {f"{n}.shrub.json": EXAMPLES[n] for n in FRAMED}, [], ops, len(FRAMED))
    if name == "orbit-framed":
        seeds = draw_seeds(rng, len(FRAMED) * DRAWS)
        ops = [
            _simulate_op(f"{n}:{s}", f"{n}.bundle.json", FRAMED_HORIZONS[n], s)
            for n, s in _cycle(FRAMED, seeds)
        ]
        inputs = {f"{n}.shrub.json": EXAMPLES[n] for n in FRAMED}
        return Workload(name, "orbits", inputs, _bundle_setup(FRAMED), ops, len(FRAMED))
    if name == "orbit-cheap":
        names = tuple(CHEAP_HORIZONS)
        # each op takes two consecutive seeds, so draw even ones
        seeds = [2 * s for s in draw_seeds(rng, len(names) * DRAWS)]
        ops = [
            _simulate_op(f"{n}:{s}", f"{n}.bundle.json", CHEAP_HORIZONS[n], s, POOL_SEEDS)
            for n, s in _cycle(names, seeds)
        ]
        inputs = {f"{n}.shrub.json": EXAMPLES[n] for n in names}
        return Workload(name, "orbits", inputs, _bundle_setup(names), ops, len(names))
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


K8_PROBE = "probe:k8"


def probe_ops(seed: int) -> list:
    """Replay-only ops that the traced run adds on every workload, so that
    each per-layer metric is measured everywhere: a k=8 synthesis (the
    implicitization and factor expansion that make a k_layout = 8
    synthesize take about 20 s), a default framed-pair synthesis, and a
    short orbit on its bundle."""
    rng = random.Random(f"probe:{seed}")
    spot_seed, start_seed = draw_seeds(rng, 2)
    return [
        _synth_op(K8_PROBE, "k8.shrub.json", "k8.bundle.json", None, spot_seed),
        _synth_op("probe:framed-pair", "framed-pair.shrub.json", "framed-pair.bundle.json", None, 0),
        _simulate_op("probe:orbit", "framed-pair.bundle.json", PROBE_HORIZON, start_seed),
    ]


def probe_inputs(seed: int) -> dict:
    rng = random.Random(f"probe-shrub:{seed}")
    return {"k8.shrub.json": k8_shrub(rng), "framed-pair.shrub.json": EXAMPLES["framed-pair"]}


def write_inputs(directory, inputs: dict) -> None:
    for file_name, obj in inputs.items():
        with open(directory / file_name, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, sort_keys=True)
