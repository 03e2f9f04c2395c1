"""Output checks for every CLI op the benchmark runs.

An op passes when the command exits 0, its report is strict JSON (no NaN
or Infinity), the report's numbers meet the acceptance tolerances, and
every file it wrote equals, byte for byte, what the first run of the same
op wrote. Each check returns a list of reasons; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

TANGENCY_LIMIT = 1e-10  # acceptance criterion 1
DRIFT_LIMIT = 1e-6  # acceptance criterion 3


def _reject_constant(name):
    raise ValueError(f"report holds the non-finite number {name}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def check_report(command: str, text: str) -> list:
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    reasons = []
    if command == "synthesize":
        defect = report.get("tangency", {}).get("max_normalized")
        if not (isinstance(defect, (int, float)) and defect < TANGENCY_LIMIT):
            reasons.append(f"tangency.max_normalized = {defect!r}, limit {TANGENCY_LIMIT:g}")
    elif command == "simulate":
        runs = report.get("runs") or []
        if not runs:
            reasons.append("report lists no runs")
        for run in runs:
            seed = run.get("seed")
            # strict_json has already refused non-finite omega numbers
            if not isinstance(run.get("omega"), dict):
                reasons.append(f"seed {seed}: no omega estimate")
            drift = run.get("first_integral_drift")
            if drift is not None and not drift < DRIFT_LIMIT:
                reasons.append(f"seed {seed}: first_integral_drift = {drift!r}, limit {DRIFT_LIMIT:g}")
    else:
        reasons.append(f"no checker for command {command!r}")
    return reasons


def check_replay(record: dict) -> list:
    """Reasons a traced replay failed. Its spans must hold no non-finite
    field rows (the spot check's arithmetic drops them, so the tangency
    defect alone would hide them) and no first-integral drift over the
    limit; a synthesis must give a finite south spiral rate and a tangency
    defect under the limit."""
    reasons = []
    for s in record["spans"]:
        nonfinite = s["attrs"].get("nonfinite")
        if nonfinite:
            reasons.append(f"{s['name']}: {nonfinite} non-finite field rows")
        drift = s["attrs"].get("drift")
        if drift is not None and not drift < DRIFT_LIMIT:
            reasons.append(f"first_integral_drift = {drift!r}, limit {DRIFT_LIMIT:g}")
    rate = record.get("south_spiral_rate")
    if rate is not None and not math.isfinite(rate):
        reasons.append(f"south_spiral_rate = {rate!r}")
    defect = record.get("tangency_max_normalized")
    if defect is not None and not defect < TANGENCY_LIMIT:
        reasons.append(f"tangency.max_normalized = {defect!r}, limit {TANGENCY_LIMIT:g}")
    return reasons


def check_bundle(text: str) -> list:
    """The bundle must load back through ``function_from_bundle``."""
    from shrubfield import field_synth

    try:
        field_synth.function_from_bundle(strict_json(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bundle does not reload: {exc}"]
    return []


def check_op(command: str, exit_code: int, files: dict, stderr: str = "") -> list:
    """Reasons an op failed. `files` maps each output name to its bytes
    (None when the command did not write it); the report is "report.json"
    and a synthesized bundle ends in "bundle.json"."""
    if exit_code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {exit_code}: {tail[0]}"]
    missing = [name for name, data in files.items() if data is None]
    if missing:
        return [f"missing output {name}" for name in missing]
    reasons = check_report(command, files["report.json"].decode("utf-8"))
    for name, data in files.items():
        if name.endswith("bundle.json"):
            reasons += check_bundle(data.decode("utf-8"))
    return reasons


class FirstRuns:
    """Byte-determinism check: repeats of an op must match its first run."""

    def __init__(self):
        self._first = {}

    def compare(self, op: str, files: dict) -> list:
        """Reasons the files differ from the op's first run; the first call
        for an op records it and returns no reasons."""
        first = self._first.setdefault(op, files)
        return [
            f"{name} differs from the first run of {op}"
            for name, data in files.items()
            if first.get(name) != data
        ]
