"""Test-side shrubs: two random generators with their census, the named
examples and their fields, the handshake identity, and the finite-difference
check of the spiral rest point at the bottom of the sphere.

No command or pipeline stage calls any of these; the tests and the
acceptance criteria do. Run as a script, the module prints the full census
of both generators as a Markdown table:

    PYTHONPATH=src python3 tests/shrubs.py
"""
import contextlib
import functools
import io
import json
import random
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from exact_oracle import exact_value

from shrubfield.cli import main
from shrubfield.curves import plane_to_sphere
from shrubfield.field_synth import VectorField, build_field, compose_shrub_function
from shrubfield.shrub_model import (
    Attachment,
    Junction,
    LayoutError,
    Piece,
    ShrubError,
    ShrubGraph,
    find_odd_cactuses,
    layout_shrub,
)

# -- random generation ------------------------------------------------------------


def random_very_simple_shrub(rng: random.Random, max_pieces: int = 9) -> ShrubGraph:
    """Random tree of leaves and sprigs, then parity-fixed to kill odd cactuses.

    A junction uses at most one cusp slot per new attachment, and each leaf
    keeps at least one spare cusp so the parity fix always finds room.
    """
    pieces = []
    junction_specs = []  # list of attachment lists
    open_slots = []  # (piece, site)

    def add_leaf():
        k = rng.choice([4, 4, 8, 3, 5])
        pieces.append(Piece(kind="leaf", k=k))
        pid = len(pieces) - 1
        # keep at least one cusp spare so the parity fix always finds room
        for cusp in range(min(3, k - 1)):
            open_slots.append((pid, cusp))
        return pid

    def add_sprig():
        pieces.append(Piece(kind="sprig"))
        pid = len(pieces) - 1
        open_slots.append((pid, "end1"))
        return pid, "end0"

    def build():
        return ShrubGraph(
            pieces,
            [Junction(bud=i, at=tuple(at)) for i, at in enumerate(junction_specs)],
        )

    if rng.random() < 0.6:
        add_leaf()
    else:
        add_sprig()  # its first end stays free
    target = rng.randint(1, max_pieces)
    while len(pieces) < target and open_slots:
        slot_idx = rng.randrange(len(open_slots))
        parent_slot = open_slots.pop(slot_idx)
        if rng.random() < 0.5:
            child = add_leaf()
            child_site = 0
            # slot 0 of the child is consumed by this junction
            open_slots.remove((child, 0))
        else:
            child, child_site = add_sprig()
        junction_specs.append(
            [Attachment(*parent_slot), Attachment(child, child_site)]
        )

    shrub = build()
    # parity fix: hang one extra free sprig off every odd cactus, at the
    # lowest free cusp of its first leaf; a leaf lies in one cactus only and
    # keeps a spare cusp, so that cusp is free
    for c in find_odd_cactuses(shrub):
        leaf = c.leaves[0]
        used = {cusp for cusp, _ in shrub.cusp_buds(leaf)}
        cusp = next(i for i in range(shrub.pieces[leaf].k) if i not in used)
        pieces.append(Piece(kind="sprig"))
        junction_specs.append(
            [Attachment(leaf, cusp), Attachment(len(pieces) - 1, "end0")]
        )
    return build()


def random_crowded_shrub(rng: random.Random) -> ShrubGraph:
    """Random tree of 2 to 8 leaves and sprigs that crowds its junctions.

    The leaf share is 0.5 or 0.25 per draw, and a leaf's cusp count is 4, 5,
    6 or 8. Each new piece joins an existing junction of fewer than five
    pieces with probability 0.4, else a new junction at a free site. So it
    reaches what `random_very_simple_shrub` never does, such as the vee, two
    leaves and a sprig, or three leaves at one point; and it does no parity
    fix.
    """
    target = rng.randint(2, 8)
    leaf_share = rng.choice((0.5, 0.25))
    pieces = []
    junctions = []  # attachment lists
    free = []  # (piece, site) on no junction

    def new_piece() -> Attachment:
        """A new piece, attached by its first site; its other sites go free."""
        if rng.random() < leaf_share:
            k = rng.choice((4, 5, 6, 8))
            pieces.append(Piece("leaf", k=k))
            sites = list(range(k))
        else:
            pieces.append(Piece("sprig"))
            sites = ["end0", "end1"]
        pid = len(pieces) - 1
        free.extend((pid, site) for site in sites[1:])
        return Attachment(pid, sites[0])

    first = new_piece()
    free.append((first.piece, first.site))
    while len(pieces) < target:
        open_junctions = [at for at in junctions if len(at) < 5]
        if open_junctions and rng.random() < 0.4:
            rng.choice(open_junctions).append(new_piece())
        else:
            site = free.pop(rng.randrange(len(free)))
            junctions.append([Attachment(*site), new_piece()])
    return ShrubGraph(
        pieces, [Junction(bud=i, at=tuple(at)) for i, at in enumerate(junctions)]
    )


# -- the census -------------------------------------------------------------------


def _outcome(message: str) -> str:
    """A refusal reason with its numbers renamed i, j, ... in order, so that
    refusals of one kind count together."""
    names = iter("ijklmnpq")
    return re.sub(r"\d+", lambda _: next(names), message)


def _synthesize(shrub: ShrubGraph, workdir: Path) -> tuple:
    """(exit code, tangency defect or None) of `synthesize` on a shrub, run
    in process with its output discarded."""
    path, report = workdir / "shrub.json", workdir / "report.json"
    path.write_text(json.dumps(shrub.to_json()))
    args = ["synthesize", str(path), "--out", str(workdir / "bundle.json")]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(args + ["--report", str(report)])
    if code:
        return code, None
    return code, json.loads(report.read_text())["tangency"]["max_normalized"]


def census(crowded_seeds, simple_seeds) -> tuple:
    """Layout outcomes of both generators, and the `synthesize` exit code of
    every fourth draw that lays out, counted per generator.

    Draw s of the crowded generator is `random_crowded_shrub(Random(s))`;
    very simple seed s gives three draws from one `Random(s)`. Returns the
    table {generator: {outcome: count}}, whose outcomes are "lays out",
    each refusal reason (a `ShrubError`'s prefixed so), and "synthesize
    exit c"; and the largest tangency defect of an exit-0 synthesis.
    """
    draws = {
        "crowded": (random_crowded_shrub(random.Random(s)) for s in crowded_seeds),
        "very simple": (
            random_very_simple_shrub(rng)
            for rng in map(random.Random, simple_seeds)
            for _ in range(3)
        ),
    }
    table, worst = {}, 0.0
    with tempfile.TemporaryDirectory() as workdir:
        for generator, shrubs in draws.items():
            counts = Counter()
            for shrub in shrubs:
                try:
                    layout_shrub(shrub)
                except LayoutError as exc:
                    counts[_outcome(exc.reason)] += 1
                    continue
                except ShrubError as exc:
                    counts[_outcome(f"ShrubError: {exc}")] += 1
                    continue
                counts["lays out"] += 1
                if counts["lays out"] % 4 == 1:
                    code, defect = _synthesize(shrub, Path(workdir))
                    counts[f"synthesize exit {code}"] += 1
                    if defect is not None:
                        worst = max(worst, defect)
            table[generator] = dict(counts)
    return table, worst


# -- the named examples -------------------------------------------------------------


def example_shrubs() -> dict:
    """Named small shrubs that exercise both layout modes.

    equator      lone leaf; the realized boundary is the equator circle
    framed-pair  two leaves joined at a cusp, drawn as disk-in-frame
    framed-chain three leaves in a row, still a pure cactus
    lone-sprig   a single segment with two free ends
    spiked-leaf  a leaf with sprigs on two opposed cusps
    """
    leaf = lambda: Piece("leaf", k=4)  # noqa: E731
    sprig = lambda: Piece("sprig")  # noqa: E731
    out = {}
    out["equator"] = ShrubGraph((leaf(),), ())
    out["framed-pair"] = ShrubGraph(
        (leaf(), leaf()),
        (Junction(0, (Attachment(0, 0), Attachment(1, 0))),),
    )
    out["framed-chain"] = ShrubGraph(
        (leaf(), leaf(), leaf()),
        (
            Junction(0, (Attachment(0, 0), Attachment(1, 0))),
            Junction(1, (Attachment(1, 2), Attachment(2, 0))),
        ),
    )
    out["lone-sprig"] = ShrubGraph((sprig(),), ())
    out["spiked-leaf"] = ShrubGraph(
        (leaf(), sprig(), sprig()),
        (
            Junction(0, (Attachment(0, 0), Attachment(1, "end0"))),
            Junction(1, (Attachment(0, 2), Attachment(2, "end0"))),
        ),
    )
    return out


def synthesize_field(shrub: ShrubGraph) -> VectorField:
    """Layout, compose, and build in one step."""
    return build_field(compose_shrub_function(layout_shrub(shrub)))


@functools.cache
def example_field(name: str) -> VectorField:
    """The field of a named example, built once per test session; callers
    must not change it."""
    shrubs = example_shrubs()
    if name not in shrubs:
        known = ", ".join(sorted(shrubs))
        raise KeyError(f"unknown example {name!r}; known: {known}")
    return synthesize_field(shrubs[name])


# -- parity -------------------------------------------------------------------------


def parity_check(edges, vertex_count=None):
    """Handshake identity for a finite multigraph (loops count twice).

    Returns (sum_of_vertex_orders, even_flag) and asserts the sum equals
    twice the edge count.
    """
    edges = list(edges)
    needed = max((max(u, v) for u, v in edges), default=-1) + 1
    if vertex_count is None:
        vertex_count = needed
    elif vertex_count < needed:
        raise ValueError("edge endpoint outside the declared vertex range")
    degree = [0] * vertex_count
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    total = sum(degree)
    if total != 2 * len(edges):
        raise AssertionError(
            f"degree sum {total} != twice edge count {2 * len(edges)}"
        )
    return total, total % 2 == 0


# -- rest point at the bottom of the sphere ---------------------------------


@dataclass(frozen=True)
class SouthPoleFocus:
    """Finite-difference linearization at the south pole.

    The eigenvalue pair of the chart Jacobian is compared against the
    closed-form prediction 2*G(south) * (1 +- i); a relative mismatch
    above ~1e-4 indicates a broken field, not difference noise.
    """

    jacobian: np.ndarray
    eigenvalues: tuple
    predicted: tuple
    g_south: float
    relative_error: float


def jacobian_at_south_pole(field: VectorField, h: float = 1e-5) -> SouthPoleFocus:
    """Central-difference Jacobian in the chart that sends the south pole
    to the origin, with its eigenvalues and the spiral-focus prediction."""
    try:
        f_south = float(exact_value(field.function, (0, 0, -1)))
    except ValueError:
        f_south = field.function.value_and_gradient(0.0, 0.0, -1.0)[0]
    if f_south == 0.0:
        raise ValueError(
            "boundary function vanishes at the south pole; "
            "the focus prediction needs a nonzero value there"
        )
    g_south = f_south * f_south

    def chart_field(a: float, b: float) -> np.ndarray:
        x, y, z = plane_to_sphere((a, b))
        f1, f2, f3 = field.evaluate_many([(x, y, z)])[0]
        w = 1.0 - z
        return np.array([f1 / w + x * f3 / (w * w), f2 / w + y * f3 / (w * w)])

    col0 = (chart_field(h, 0.0) - chart_field(-h, 0.0)) / (2.0 * h)
    col1 = (chart_field(0.0, h) - chart_field(0.0, -h)) / (2.0 * h)
    jac = np.column_stack([col0, col1])
    eig = sorted(np.linalg.eigvals(jac), key=lambda t: (t.imag, t.real))
    predicted = sorted(
        [2.0 * g_south * (1 - 1j), 2.0 * g_south * (1 + 1j)],
        key=lambda t: (t.imag, t.real),
    )
    rel = max(
        abs(e - p) / abs(p) for e, p in zip(eig, predicted)
    )
    return SouthPoleFocus(
        jacobian=jac,
        eigenvalues=tuple(eig),
        predicted=tuple(predicted),
        g_south=g_south,
        relative_error=float(rel),
    )


# -- the census as a script ---------------------------------------------------------


def _markdown(table: dict) -> str:
    generators = list(table)
    total = Counter()
    for counts in table.values():
        total.update(counts)
    # layout outcomes, most frequent first, then the synthesize exit codes
    outcomes = sorted(total, key=lambda o: (o.startswith("synthesize"), -total[o], o))
    lines = ["| outcome | " + " | ".join(generators) + " |"]
    lines.append("| --- |" + " --- |" * len(generators))
    for outcome in outcomes:
        cells = [str(table[g].get(outcome, 0)) for g in generators]
        lines.append(f"| {outcome} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    table, worst = census(range(3000), range(200))
    print(_markdown(table))
    print(f"\nlargest tangency defect of an exit-0 synthesis: {worst:.3e}")
    raise SystemExit(0 if worst < 1e-10 else 1)
