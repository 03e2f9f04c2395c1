"""Benchmark of the shrubfield CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. One closed-loop client runs the workload's
CLI commands one at a time, each in a fresh process, until S seconds have
passed, and checks every output (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` each op is also replayed in a
fresh interpreter under the span recorder of replay.py, and the JSON line
holds the per-layer metrics. Both write a detailed record, spans included,
under ``.bench_work/results/``. Lines before the JSON line print every
metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import analysis
import checks
import workloads

SETUP_REPEATS = 3
HELP_REPEATS = 5
# enough samples for the tail to lie above the median
MIN_SAMPLES = 2 * analysis.TAIL_BEYOND + 2


class Runner:
    """Starts CLI commands and replays with the checkout's ``src`` on the path."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def _run(self, argv, cwd: Path) -> dict:
        """Spawn, wait with ``wait4`` for the peak RSS, and time spawn to exit."""
        with open(cwd / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
            "stderr": stderr,
        }

    def cli(self, args, cwd: Path) -> dict:
        return self._run([sys.executable, "-m", "shrubfield.cli", *args], cwd)

    def replay(self, spec: dict, cwd: Path) -> dict:
        spec_path = cwd / "replay.spec.json"
        spec_path.write_text(json.dumps(spec))
        script = self.root / "bench" / "replay.py"
        return self._run([sys.executable, str(script), spec_path.name], cwd)


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


class Harness:
    """One benchmark run: its directories, records and failure reasons."""

    def __init__(self, runner: Runner, work: Path):
        self.runner = runner
        self.work = work
        self.first_runs = checks.FirstRuns()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, op: str, reasons: list) -> None:
        """Count one failed attempt when there are reasons, and keep them."""
        self.failed += bool(reasons)
        self.failures += [{"op": op, "reason": r} for r in reasons]

    def stage(self, op: workloads.Op, sources: Path, directory: Path) -> Path:
        """Make the op's directory holding its input file (shrub or bundle)."""
        directory.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(sources / op.args[0], directory / op.args[0])
        return directory

    def run_op(self, op: workloads.Op, cwd: Path) -> dict:
        """Run and check one CLI op; a failure is counted and explained."""
        sample = self.runner.cli([op.command, *op.args], cwd)
        files = {name: _read(cwd / name) for name in op.outputs}
        reasons = checks.check_op(op.command, sample["exit"], files, sample["stderr"])
        if not reasons:
            reasons = self.first_runs.compare(op.name, files)
        self.attempted += 1
        self.fail(op.name, reasons)
        sample.update(op=op.name, units=op.units, ok=not reasons, files=files)
        return sample

    def replay_op(self, op: workloads.Op, cwd: Path, cli_files: dict) -> dict | None:
        """Traced replay of an op in `cwd`, checked like a CLI op; its files
        must equal the CLI's when `cli_files` holds them."""
        out = cwd / "replay.out.json"
        out.unlink(missing_ok=True)
        spec = dict(op.replay, op=op.name, out=out.name)
        sample = self.runner.replay(spec, cwd)
        self.attempted += 1
        if sample["exit"] != 0 or not out.is_file():
            self.fail(op.name + " (replay)", [f"replay exit {sample['exit']}: {sample['stderr'].strip()[-200:]}"])
            return None
        record = json.loads(out.read_text())
        record["wall_s"] = sample["wall_s"]
        reasons = checks.check_replay(record)
        if op.command == "synthesize":
            bundle = op.replay["bundle"]
            mine = _read(cwd / ("replay." + bundle))
            if cli_files is None:
                reasons += checks.check_bundle(mine.decode("utf-8")) if mine else ["replay wrote no bundle"]
            else:
                if mine != cli_files.get(bundle):
                    reasons.append("replayed bundle differs from the CLI's")
                report = checks.strict_json(cli_files["report.json"].decode("utf-8"))
                if report["tangency"]["max_normalized"] != record["tangency_max_normalized"]:
                    reasons.append("replayed tangency defect differs from the CLI's")
        elif cli_files is not None:
            for name in op.replay["csv"]:
                if _read(cwd / ("replay." + name)) != cli_files.get(name):
                    reasons.append(f"replayed {name} differs from the CLI's")
        self.fail(op.name + " (replay)", reasons)
        return record


def set_up(harness: Harness, workload: workloads.Workload, directory: Path) -> float | None:
    """Generate inputs, run one warm-up command and synthesize the bundles
    the ops read; returns the seconds it took, or None when a command
    failed (the failure is counted and kept)."""
    start = time.perf_counter()
    directory.mkdir(parents=True)
    workloads.write_inputs(directory, workload.inputs)
    warm = harness.runner.cli(["--help"], directory)
    harness.attempted += 1
    if warm["exit"] != 0:
        harness.fail("setup:--help", [f"exit {warm['exit']}: {warm['stderr'].strip()[-200:]}"])
        return None
    for op in workload.setup:
        if not harness.run_op(op, directory)["ok"]:
            return None
    return time.perf_counter() - start


def measure(harness, workload, sources: Path, seconds: float, trace: bool):
    """Closed loop over the workload's ops until `seconds` have passed and,
    untraced, the tail has its samples. A run stops only after a whole pass
    through the bundles, so that every run has the same mix. In trace mode
    each op is followed by its replay. The first op then runs again,
    untimed, and must write the same bytes."""
    samples, replays = [], []
    deadline = time.perf_counter() + seconds
    min_samples = workload.cycle if trace else MIN_SAMPLES
    done = 0
    while done % workload.cycle or time.perf_counter() < deadline or done < min_samples:
        op = workload.ops[done % len(workload.ops)]
        cwd = harness.stage(op, sources, harness.work / "ops" / op.name)
        sample = harness.run_op(op, cwd)
        samples.append(sample)
        if trace and sample["ok"]:
            record = harness.replay_op(op, cwd, sample["files"])
            if record is not None:
                replays.append(record)
        done += 1
    first = workload.ops[0]
    harness.run_op(first, harness.work / "ops" / first.name)
    return samples, replays


def end_to_end(workload, setups, samples) -> dict:
    """Each metric as (value, unit, sample count, note); the value is None
    when the run has nothing to measure it on."""
    walls = [s["wall_s"] for s in samples]
    good = [s for s in samples if s["ok"]]
    units = sum(s["units"] for s in good)
    tail = analysis.tail(walls)
    tail_note = (
        f"p{tail[1]:.0f}, {analysis.TAIL_BEYOND} samples above" if tail else "too few samples"
    )
    return {
        "setup_s": (analysis.median(setups), "s", len(setups), ""),
        "op_s_p50": (analysis.median(walls), "s", len(walls), ""),
        "op_s_tail": (tail and tail[0], "s", len(walls), tail_note),
        "checked_per_s": (units / sum(walls) if walls else None, "1/s", len(good), f"{workload.unit}_per_s"),
        "peak_rss_mb": (max((s["rss_mb"] for s in samples), default=None), "MB", len(samples), "max over commands"),
    }


def per_layer(harness, workload, seed, samples, replays) -> tuple:
    """Per-layer metrics of the traced run, and the accounting table."""
    work = harness.work
    helps = [harness.runner.cli(["--help"], work)["wall_s"] for _ in range(HELP_REPEATS)]
    walls = {}
    for s in samples:
        if s["ok"]:
            walls.setdefault(s["op"], []).append(s["wall_s"])
    untraced = {name: statistics.median(v) for name, v in walls.items()}
    overheads = [untraced[r["op"]] - analysis.top_covered(r["spans"]) for r in replays]
    ratios = [r["wall_s"] / untraced[r["op"]] for r in replays]
    metrics = {
        "cli.startup_s": (analysis.median(helps), "s", len(helps), "workload"),
        "cli.overhead_s": (analysis.median(overheads), "s", len(overheads), "workload"),
        "trace.overhead_ratio": (analysis.median(ratios), "ratio", len(ratios), "workload"),
    }

    # the first pool op of each bundle against its seeds run one after another
    pool_ops = [op for op in workload.ops[: workload.cycle] if op.units > 1 and op.name in untraced]
    if pool_ops:
        speedups = []
        for op in pool_ops:
            singles = []
            for single in workloads.single_seed_ops(op):
                cwd = harness.stage(single, work / "ops" / op.name, work / "single" / single.name)
                singles.append(harness.run_op(single, cwd))
            if all(s["ok"] for s in singles):
                speedups.append(sum(s["wall_s"] for s in singles) / untraced[op.name])
        metrics["cli.pool_speedup"] = (analysis.median(speedups), "ratio", len(speedups), "workload")

    probe_dir = work / "probe"
    probe_dir.mkdir()
    workloads.write_inputs(probe_dir, workloads.probe_inputs(seed))
    probes = {}
    for op in workloads.probe_ops(seed):
        record = harness.replay_op(op, probe_dir, None)
        if record is not None:
            probes[op.name] = record
            if op.command == "synthesize":
                # later probes read this bundle, as they would read the CLI's
                shutil.copyfile(probe_dir / ("replay." + op.replay["bundle"]), probe_dir / op.replay["bundle"])
    k8 = [r for name, r in probes.items() if name == workloads.K8_PROBE]
    k4 = [r for name, r in probes.items() if name != workloads.K8_PROBE]
    metrics.update(analysis.span_metrics({"workload": replays, "probe": k4, "probe:k8": k8}))
    return metrics, accounting(samples, replays), list(probes.values())


def _decompose(replay, wall) -> dict:
    """Module self times of a replay plus the CLI overhead of its op."""
    module_self = analysis.module_self_times(replay["spans"])
    overhead = wall - analysis.top_covered(replay["spans"])
    return {
        "untraced_s": wall,
        "module_self_s": dict(sorted(module_self.items())),
        "cli.overhead_s": overhead,
        "accounted_s": sum(module_self.values()) + overhead,
    }


def accounting(samples, replays) -> dict:
    """Per bundle, the mean decomposition of its ops (means add up, so it
    matches the mean untraced wall time); and the decomposition of the
    median op, against op_s_p50."""
    replay_of = {}
    for r in replays:
        replay_of.setdefault(r["op"], r)
    timed = sorted((s for s in samples if s["op"] in replay_of), key=lambda s: s["wall_s"])
    if not timed:
        return {"per_bundle_mean": {}, "median_op": None}
    groups = {}
    for s in timed:
        groups.setdefault(s["op"].split(":")[0], []).append(_decompose(replay_of[s["op"]], s["wall_s"]))
    per_bundle = {}
    for bundle, rows in groups.items():
        modules = sorted({m for row in rows for m in row["module_self_s"]})
        per_bundle[bundle] = {
            "ops": len(rows),
            "untraced_s": statistics.fmean(row["untraced_s"] for row in rows),
            "module_self_s": {
                m: statistics.fmean(row["module_self_s"].get(m, 0.0) for row in rows) for m in modules
            },
            "cli.overhead_s": statistics.fmean(row["cli.overhead_s"] for row in rows),
            "accounted_s": statistics.fmean(row["accounted_s"] for row in rows),
        }
    middle = timed[(len(timed) - 1) // 2]
    median_op = dict(_decompose(replay_of[middle["op"]], middle["wall_s"]), op=middle["op"])
    return {"per_bundle_mean": per_bundle, "median_op": median_op}


def machine(root: Path, args) -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        info["cpu"] = models[0] if models else info["cpu"]
    except OSError:
        pass
    info["mem_gib"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    info["git_commit"] = _git_commit(root)
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "shrubfield" / "cli.py").is_file() or not spec_path.is_file():
        print("run from the root of a shrubfield checkout (src/shrubfield/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(spec_path.read_text())

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    harness = Harness(Runner(root), work)
    workload = workloads.build(args.workload, args.seed)

    setups = []
    for i in range(SETUP_REPEATS):
        seconds = set_up(harness, workload, work / f"setup{i}")
        if seconds is None:
            break
        setups.append(seconds)
    samples, replays = [], []
    if len(setups) == SETUP_REPEATS:
        sources = work / f"setup{SETUP_REPEATS - 1}"
        samples, replays = measure(harness, workload, sources, args.seconds, bool(args.trace))

    e2e = end_to_end(workload, setups, samples)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}, seed {args.seed}: {why}")
    print("one closed-loop client, one CLI command at a time, each a fresh process")
    for name, (value, unit, n, note) in e2e.items():
        print(f"  {name:<24} {_fmt(value):>12} {unit:<6} n={n:<4} {note}")
    print(f"  {'fail_ratio':<24} {_fmt(harness.failed / harness.attempted):>12} ratio  n={harness.attempted}")

    result = {
        "machine": machine(root, args),
        "workload": {"name": workload.name, "why": why, "first_pass": [op.args for op in workload.ops[: workload.cycle]]},
        "end_to_end": {k: list(v) for k, v in e2e.items()},
        "samples": [{k: v for k, v in s.items() if k != "files"} for s in samples],
        "failures": harness.failures,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(exist_ok=True)
    if args.trace:
        layer, accounting, probes = per_layer(harness, workload, args.seed, samples, replays)
        print("per-layer metrics from the traced replays (source: the workload's own ops, or the probe)")
        for name, (value, unit, n, source) in layer.items():
            print(f"  {name:<34} {_fmt(value):>12} {unit:<6} n={n:<4} {source}")
        p50 = e2e["op_s_p50"][0]
        median_op = accounting["median_op"]
        if median_op is not None and layer["trace.overhead_ratio"][0] is not None:
            slack = abs(layer["trace.overhead_ratio"][0] - 1.0) * p50
            print("accounting: module self times + cli.overhead_s against the untraced wall time")

            def row_text(row):
                parts = ", ".join(f"{m} {v:.4f}" for m, v in row["module_self_s"].items())
                return f"{parts}, cli.overhead_s {row['cli.overhead_s']:.4f} = {row['accounted_s']:.4f} s"

            for bundle, row in accounting["per_bundle_mean"].items():
                print(f"  {bundle} (mean of {row['ops']}): {row_text(row)} against {row['untraced_s']:.4f} s")
            print(
                f"  median op {median_op['op']}: {row_text(median_op)} against op_s_p50 {p50:.4f} s "
                f"(difference {median_op['accounted_s'] - p50:+.4f} s, tracing overhead {slack:.4f} s)"
            )
            accounting.update(op_s_p50=p50, tracing_overhead_s=slack)
        result.update(per_layer={k: list(v) for k, v in layer.items()}, accounting=accounting)
        spans_out = results / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans_out.write_text("".join(json.dumps(sp) + "\n" for r in replays + probes for sp in r["spans"]))
        print(f"spans: {spans_out.relative_to(root)}")
        wanted, measured = spec["per_layer"], layer
    else:
        wanted, measured = spec["end_to_end"], e2e

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], (None,))[0]
        if value is None or not math.isfinite(value):
            harness.failures.append({"op": "metrics", "reason": f"{m['name']} = {value!r}, not measured"})
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for failure in harness.failures:
        print(f"  FAILED {failure['op']}: {failure['reason']}")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str))
    print(f"record: {out.relative_to(root)}")
    print(
        json.dumps(
            {
                "correct": not harness.failures,
                "attempted": harness.attempted,
                "failed": harness.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
