"""Finite shrubs: incidence, classification, orientations, and layout.

A shrub is encoded as a finite family of pieces (leaves, which are cusped
disks, and sprigs, which are arcs) glued at junctions. The bipartite
piece/junction incidence graph must be a tree; this is the combinatorial
shadow of simple connectedness. A `ShrubGraph` is checked against that
and every other rule of `validate` once, when it is built, and the rest of
the module takes it as well formed. On top of the incidence structure this
module computes: star orders and odd buds, cactuses and their attachment
parity, an independent degree-parity recount of the odd objects, the
puncture set a field synthesis must avoid, rigid/bland piece classification,
forced orientations with their chain certificates, and a fully rational
geometric layout (frame mode for pure cactuses, punctured mode for shrubs
with sprigs).
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .curves import K_MAX, AffineMap
from .poly_core import check_keys, json_int, json_list, rational_circle_point

END_SITES = ("end0", "end1")


class ShrubError(ValueError):
    """Structurally invalid shrub input."""


# -- data model ---------------------------------------------------------------


@dataclass(frozen=True)
class Attachment:
    piece: int
    site: object  # cusp index (int) for leaves, "end0"/"end1" for sprigs


@dataclass(frozen=True)
class Junction:
    bud: int
    at: tuple
    implicit: bool = False  # synthesized for a free sprig end


@dataclass(frozen=True)
class Piece:
    kind: str  # "leaf" | "sprig"
    k: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"

    @property
    def is_sprig(self) -> bool:
        return self.kind == "sprig"


class ShrubGraph:
    """Pieces plus junction incidence, with free sprig ends materialized.

    Every sprig endpoint that no declared junction covers receives an
    implicit junction of its own (a tip), so buds and junctions coincide.
    A shrub is checked once, here: construction runs `validate` and raises
    ShrubError naming every failure, so every later step takes it as well
    formed.
    """

    def __init__(self, pieces, junctions):
        self.pieces = list(pieces)
        self.junctions = list(junctions)
        # (piece, site) -> bud, held as piece -> {site: bud}; the first
        # junction to claim a site owns it, and `validate` names any other
        self._site_bud = {pid: {} for pid in range(len(self.pieces))}
        for j in self.junctions:
            for a in j.at:
                self._site_bud.setdefault(a.piece, {}).setdefault(a.site, j.bud)
        next_bud = max((j.bud for j in self.junctions), default=-1) + 1
        for pid in self.sprig_ids():
            for site in END_SITES:
                if site not in self._site_bud[pid]:
                    self.junctions.append(
                        Junction(
                            bud=next_bud,
                            at=(Attachment(pid, site),),
                            implicit=True,
                        )
                    )
                    self._site_bud[pid][site] = next_bud
                    next_bud += 1
        self._by_bud = {j.bud: j for j in self.junctions}
        diag = validate(self)
        if not diag.ok:
            raise ShrubError("; ".join(diag.failures))

    # construction -------------------------------------------------------

    @classmethod
    def from_json(cls, text_or_obj) -> "ShrubGraph":
        """Read a shrub file, which gives structure only: the layout derives
        every coordinate. Any key, type or record outside that form, or a
        shrub that fails `validate`, raises ShrubError."""
        obj = (
            json.loads(text_or_obj)
            if isinstance(text_or_obj, str)
            else text_or_obj
        )
        try:
            check_keys(obj, "shrub", (), ("pieces", "junctions"))
            pieces = []
            for rec in json_list(obj, "pieces"):
                kind = next(iter(rec)) if isinstance(rec, dict) and len(rec) == 1 else None
                if kind == "leaf":
                    check_keys(rec["leaf"], "leaf", ("k",))
                    pieces.append(Piece(kind="leaf", k=json_int(rec["leaf"]["k"], "k")))
                elif kind == "sprig":
                    check_keys(rec["sprig"], "sprig", ())
                    pieces.append(Piece(kind="sprig"))
                else:
                    raise ShrubError(f"piece record {rec!r} is not one leaf or sprig")
            junctions = []
            for rec in json_list(obj, "junctions"):
                check_keys(rec, "junction", ("bud",), ("at",))
                at = []
                for a in json_list(rec, "at"):
                    check_keys(a, "attachment", ("piece", "site"))
                    piece = json_int(a["piece"], "piece")
                    at.append(Attachment(piece, _site_from_json(a["site"])))
                junctions.append(Junction(bud=json_int(rec["bud"], "bud"), at=tuple(at)))
        except ValueError as exc:
            raise ShrubError(str(exc)) from exc
        return cls(pieces, junctions)

    # incidence helpers ---------------------------------------------------

    def junction(self, bud: int) -> Junction:
        return self._by_bud[bud]

    def pieces_at(self, bud: int):
        return [a.piece for a in self._by_bud[bud].at]

    def leaf_ids(self):
        return [i for i, p in enumerate(self.pieces) if p.is_leaf]

    def sprig_ids(self):
        return [i for i, p in enumerate(self.pieces) if p.is_sprig]

    def sprig_end_bud(self, pid: int, site: str) -> int:
        return self._site_bud[pid][site]

    def sprig_ends(self, pid: int):
        return self._site_bud[pid]["end0"], self._site_bud[pid]["end1"]

    def far_end(self, pid: int, bud: int) -> int:
        """The bud at the other end of a sprig from `bud`."""
        b0, b1 = self.sprig_ends(pid)
        return b1 if b0 == bud else b0

    def cusp_buds(self, pid: int):
        """Sorted (site, bud) pairs of the junctions on a piece: its cusps
        for a leaf, its ends for a sprig."""
        return sorted(self._site_bud[pid].items())


def _site_from_json(value):
    if isinstance(value, str):
        if value not in END_SITES:
            raise ShrubError(f"unknown site {value!r}")
        return value
    return json_int(value, "site")


# -- validation ----------------------------------------------------------------


@dataclass
class Diagnostics:
    ok: bool
    failures: tuple


def validate(shrub: ShrubGraph) -> Diagnostics:
    """The structural rules of a shrub: at least one piece, at least three
    cusps per leaf, distinct bud identifiers, every site in range and on
    one junction at most, tree incidence, and the leaf-pair bound.
    `ShrubGraph` runs it once, when it is built."""
    fails = [
        f"leaf {pid} has k = {p.k}; a leaf needs at least 3 cusps"
        for pid, p in enumerate(shrub.pieces)
        if p.is_leaf and p.k < 3
    ]
    if not shrub.pieces:
        fails.append("shrub has no pieces")
    if len(shrub._by_bud) != len(shrub.junctions):
        fails.append("duplicate bud identifiers")
    for j in shrub.junctions:
        seen_here = set()
        for a in j.at:
            owner = shrub._site_bud[a.piece][a.site]
            if owner != j.bud:
                fails.append(
                    f"site {(a.piece, a.site)} appears in junctions {owner} and {j.bud}"
                )
            if not (0 <= a.piece < len(shrub.pieces)):
                fails.append(f"junction {j.bud}: unknown piece {a.piece}")
                continue
            piece = shrub.pieces[a.piece]
            if piece.is_leaf:
                if not isinstance(a.site, int) or not (0 <= a.site < piece.k):
                    fails.append(
                        f"junction {j.bud}: leaf {a.piece} has no cusp {a.site}"
                    )
            else:
                if a.site not in END_SITES:
                    fails.append(
                        f"junction {j.bud}: sprig {a.piece} site {a.site!r}"
                    )
            if (a.piece, a.site) in seen_here:
                fails.append(
                    f"junction {j.bud}: duplicate attachment {a.piece}/{a.site}"
                )
            seen_here.add((a.piece, a.site))
    if fails:
        return Diagnostics(ok=False, failures=tuple(fails))

    # connectivity and tree property of the piece/junction incidence graph
    pieces_seen, buds_seen, stack = {0}, set(), [0]
    while stack:
        for bud in shrub._site_bud[stack.pop()].values():
            if bud not in buds_seen:
                buds_seen.add(bud)
                fresh = set(shrub.pieces_at(bud)) - pieces_seen
                pieces_seen |= fresh
                stack.extend(fresh)
    vertices = len(shrub.pieces) + len(shrub.junctions)
    if len(pieces_seen) + len(buds_seen) != vertices:
        fails.append("incidence graph is not connected")
    if sum(len(j.at) for j in shrub.junctions) != vertices - 1:
        fails.append(
            "incidence graph has a cycle (gluing encloses a hole)"
        )
    # two leaves may share at most one point; with tree incidence this is
    # implied, but recheck directly for defense in depth
    shared = Counter(
        pair
        for j in shrub.junctions
        for pair in combinations(
            sorted({a.piece for a in j.at if shrub.pieces[a.piece].is_leaf}), 2
        )
    )
    fails += [
        f"leaves {i} and {l} share {n} points"
        for (i, l), n in sorted(shared.items())
        if n > 1
    ]
    return Diagnostics(ok=not fails, failures=tuple(fails))


# -- bud classification ----------------------------------------------------------


def classify_buds(shrub: ShrubGraph) -> list:
    """Star order and flags for every junction point, as the `classify`
    report's records `{bud, order, on_leaf, odd, node, tip}`, in junction
    order.

    The boundary of a leaf contributes two local boundary branches at each
    of its points, a sprig end contributes one; the star order of a bud is
    the branch total. A bud is an odd bud when it lies on no leaf and its
    order is odd; it is a node when removing it disconnects the shrub,
    which for junction points means at least two attachments. The shrub
    was validated when it was built, so every attachment names a piece.
    """
    out = []
    for j in shrub.junctions:
        leaves = sum(1 for a in j.at if shrub.pieces[a.piece].is_leaf)
        sprig_ends = len(j.at) - leaves
        order = 2 * leaves + sprig_ends
        out.append(
            {
                "bud": j.bud,
                "order": order,
                "on_leaf": leaves > 0,
                "odd": order % 2 == 1 and not leaves,
                "node": len(j.at) >= 2,
                "tip": len(j.at) == 1 and sprig_ends == 1,
            }
        )
    return out


# -- cactuses ----------------------------------------------------------------------


def cactuses(shrub: ShrubGraph, cut: int = None):
    """Maximal connected unions of leaves, as the `classify` report's
    records `{leaves, attachments, odd}`: the sorted leaf ids, the sprig
    ends touching the union and their parity; sorted by leaves.

    With `cut` set, that junction is left out: it joins no leaves and its
    sprig ends count for no cactus.
    """
    leaf_ids = shrub.leaf_ids()
    parent = {i: i for i in leaf_ids}
    junctions = [j for j in shrub.junctions if j.bud != cut]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in junctions:
        leaves_here = [a.piece for a in j.at if shrub.pieces[a.piece].is_leaf]
        for other in leaves_here[1:]:
            parent[find(other)] = find(leaves_here[0])
    groups = {}
    for i in leaf_ids:
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        member_set = set(members)
        hits = sum(
            shrub.pieces[a.piece].is_sprig
            for j in junctions
            if any(b.piece in member_set for b in j.at)
            for a in j.at
        )
        out.append(
            {
                "leaves": tuple(sorted(members)),
                "attachments": hits,
                "odd": hits % 2 == 1,
            }
        )
    out.sort(key=lambda c: c["leaves"])
    return out


def find_odd_cactuses(shrub: ShrubGraph):
    return [c for c in cactuses(shrub) if c["odd"]]


def odd_object_recount(shrub: ShrubGraph) -> int:
    """Independent count of odd buds plus odd cactuses by degree parity.

    Contract every cactus to a single vertex and keep the off-leaf buds;
    sprigs become edges of a multigraph on these vertices. Odd buds and odd
    cactuses are then exactly the odd-degree vertices, so the two counts can
    be cross-checked without sharing any classification code.
    """
    cacts = cactuses(shrub)
    leaf_home = {leaf: idx for idx, c in enumerate(cacts) for leaf in c["leaves"]}
    # vertex per cactus, then one per off-leaf bud
    bud_vertex = {}
    nxt = len(cacts)
    for j in shrub.junctions:
        leaves_here = [a.piece for a in j.at if shrub.pieces[a.piece].is_leaf]
        if leaves_here:
            bud_vertex[j.bud] = leaf_home[leaves_here[0]]
        else:
            bud_vertex[j.bud] = nxt
            nxt += 1
    degree = [0] * nxt
    for pid in shrub.sprig_ids():
        for site in END_SITES:
            degree[bud_vertex[shrub.sprig_end_bud(pid, site)]] += 1
    return sum(d % 2 for d in degree)


# -- puncture set -------------------------------------------------------------------


def _free_axis_cusp(shrub: ShrubGraph, leaf: int):
    """Lowest quarter-turn cusp of the leaf not already used by a junction,
    else its lowest free cusp; both searches stop at the first free cusp, so
    the cost does not grow with k."""
    k = shrub.pieces[leaf].k
    used = {cusp for cusp, _ in shrub.cusp_buds(leaf)}
    step = max(1, k // 4)
    for cusp in sorted({0, step, 2 * step, 3 * step}):
        if cusp < k and cusp not in used:
            return cusp
    for cusp in range(k):
        if cusp not in used:
            return cusp
    return None


def required_puncture_set(shrub: ShrubGraph) -> list:
    """Points a synthesized field may not be analytic at, as the `classify`
    report's records: `{kind: "bud", bud}` for each odd bud, then
    `{kind: "cactus_cusp", leaf, cusp}` for one representative cusp per odd
    cactus (the lowest free cusp of its lowest leaf that has one). Raises
    ShrubError for an odd cactus with no free cusp at all."""
    odd_buds = sorted(b["bud"] for b in classify_buds(shrub) if b["odd"])
    refs = [{"kind": "bud", "bud": b} for b in odd_buds]
    for c in find_odd_cactuses(shrub):
        for leaf in c["leaves"]:
            cusp = _free_axis_cusp(shrub, leaf)
            if cusp is not None:
                refs.append({"kind": "cactus_cusp", "leaf": leaf, "cusp": cusp})
                break
        else:
            raise ShrubError(
                f"odd cactus of leaves {list(c['leaves'])} has no free cusp "
                "for its puncture"
            )
    return refs


# -- rigidity ---------------------------------------------------------------------


def _component_beyond(shrub: ShrubGraph, bud: int, piece: int):
    """Piece set of the component of (shrub minus the bud) containing `piece`."""
    seen = {piece}
    stack = [piece]
    while stack:
        for _, b in shrub.cusp_buds(stack.pop()):
            if b == bud:
                continue
            for p in shrub.pieces_at(b):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
    return seen


def rigid_pieces(shrub: ShrubGraph, bud: int):
    """The rigid pieces at a node, in attachment order.

    A sprig is always rigid. A leaf is rigid exactly when the component it
    spans beyond the node holds a leaf of an odd cactus, the node itself
    joining nothing. The flexible class needs an infinite union of leaves
    and cannot occur for finite shrubs, so every other piece is bland.
    """
    odd_leaves = {
        leaf for c in cactuses(shrub, cut=bud) if c["odd"] for leaf in c["leaves"]
    }
    return [
        a.piece
        for a in shrub.junction(bud).at
        if shrub.pieces[a.piece].is_sprig
        or odd_leaves & _component_beyond(shrub, bud, a.piece)
    ]


# -- orientations -------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRecord:
    elements: tuple  # alternating ("node", bud) / ("piece", id) pairs
    stubs: tuple  # sprig piece ids hanging off the two ends
    degenerate: bool  # single-node chain between two of its own stubs


@dataclass
class OrientationCertificate:
    node_orientations: dict  # bud -> tuple of piece ids, ccw, even size
    piece_orientations: dict  # piece -> tuple of bud ids, ccw, even size
    chains: tuple
    sprig_assignments: dict  # sprig id -> {alternative: "i" | "ii" | "iii", chain}
    orientable: bool
    failures: tuple

    def to_json(self) -> dict:
        return {
            "nodes": {
                str(b): list(v) for b, v in sorted(self.node_orientations.items())
            },
            "pieces": {
                str(p): list(v)
                for p, v in sorted(self.piece_orientations.items())
            },
            "chains": [
                {
                    "elements": [f"{kind}:{ident}" for kind, ident in c.elements],
                    "stubs": list(c.stubs),
                    "degenerate": c.degenerate,
                }
                for c in self.chains
            ],
            "sprigs": {str(s): a for s, a in sorted(self.sprig_assignments.items())},
            "orientable": self.orientable,
            "failures": list(self.failures),
        }


def is_very_simple(shrub: ShrubGraph) -> bool:
    """No odd cactuses (simplicity itself is automatic for these encodings)."""
    return not find_odd_cactuses(shrub)


def orient_all(shrub: ShrubGraph) -> OrientationCertificate:
    """Forced orientations for all orientable nodes and pieces, with chains.

    For a finite shrub without odd cactuses every orientation is forced: it
    must consist of exactly the rigid elements (bland ones are excluded,
    and the flexible class is empty at finite size). A node's orientation
    is its rigid pieces; a leaf's is the guarded nodes at which it is
    rigid. (The rigid pieces at a guarded node are even in number, so the
    leaf is rigid there exactly when the other rigid pieces are odd.)
    The cyclic order is the declared attachment order at a junction and the
    cusp order along a leaf. Each sprig is then assigned one of three
    alternatives: "i" (no endpoint is a guarded node), "ii" (stub of a
    complete chain), "iii" (interior link of a complete chain). Non-even
    rigid counts, a sprig with no alternative or an opposed pair off
    exactly one chain make the certificate unorientable, with the offender
    named.
    """
    if not is_very_simple(shrub):
        raise ShrubError("shrub has an odd cactus; orient after augmenting")
    guarded = {b["bud"]: b["node"] and not b["odd"] for b in classify_buds(shrub)}
    rigid_at = {b: rigid_pieces(shrub, b) for b, g in guarded.items() if g}
    failures = []

    def is_stub(pid, bud):
        """A sprig at `bud` whose far endpoint is no guarded node."""
        return shrub.pieces[pid].is_sprig and not guarded[shrub.far_end(pid, bud)]

    node_orients = {}
    for bud, rigid in rigid_at.items():
        if not rigid:
            continue
        if len(rigid) % 2 == 1:
            failures.append(f"node {bud} has {len(rigid)} rigid pieces")
            continue
        node_orients[bud] = tuple(rigid)

    piece_orients = {}
    for pid, piece in enumerate(shrub.pieces):
        if piece.is_sprig:
            b0, b1 = shrub.sprig_ends(pid)
            if guarded[b0] and guarded[b1]:
                piece_orients[pid] = (b0, b1)
            continue
        rigid = [
            bud
            for _, bud in shrub.cusp_buds(pid)
            if pid in rigid_at.get(bud, ())
        ]
        if not rigid:
            continue
        if len(rigid) % 2 == 1:
            failures.append(f"leaf {pid} has {len(rigid)} rigid nodes")
            continue
        piece_orients[pid] = tuple(rigid)

    chains = []
    chain_of = {}  # opposed pair (link, lower, upper) -> index of its chain

    def extend(prev, cur, out):
        """Walk outward until a dangling sprig caps the chain; returns the
        stub sprig id, or None on a structural violation."""
        steps = 0
        limit = 2 * (len(shrub.pieces) + len(shrub.junctions)) + 4
        while True:
            steps += 1
            if steps > limit:
                failures.append("chain walk did not terminate")
                return None
            if cur[0] == "node":
                bud = cur[1]
                f = node_orients.get(bud)
                if f is None or prev[1] not in f:
                    failures.append(
                        f"chain walk stuck at node {bud} from piece {prev[1]}"
                    )
                    return None
                nxt = _opposed(f, prev[1])
                if is_stub(nxt, bud):
                    return nxt
                out.append(("piece", nxt))
                prev, cur = cur, ("piece", nxt)
            else:
                pid = cur[1]
                f = piece_orients.get(pid)
                if f is None or prev[1] not in f:
                    failures.append(
                        f"chain walk stuck at piece {pid} from node {prev[1]}"
                    )
                    return None
                nxt = _opposed(f, prev[1])
                out.append(("node", nxt))
                prev, cur = cur, ("node", nxt)

    def record_chain(elements, stubs):
        """Append a chain and claim each opposed pair it runs through."""
        for i, link in enumerate(elements):
            left = stubs[0] if i == 0 else elements[i - 1][1]
            right = stubs[1] if i == len(elements) - 1 else elements[i + 1][1]
            pair = (link, min(left, right), max(left, right))
            if pair in chain_of:
                failures.append(
                    f"{link[0]} {link[1]} opposed pair ({left},{right}) "
                    "lies on 2 chains"
                )
            chain_of.setdefault(pair, len(chains))
        chains.append(
            ChainRecord(
                elements=tuple(elements),
                stubs=tuple(stubs),
                degenerate=len(elements) == 1,
            )
        )

    # build each chain once, from the first stub pairing that reaches it
    for bud, f in sorted(node_orients.items()):
        half = len(f) // 2
        for a, b in zip(f[:half], f[half:]):
            if (("node", bud), min(a, b), max(a, b)) in chain_of:
                continue  # found from its other end
            a_st, b_st = is_stub(a, bud), is_stub(b, bud)
            if not (a_st or b_st):
                continue
            if a_st and b_st:
                record_chain([("node", bud)], (a, b))
                continue
            stub, inner = (a, b) if a_st else (b, a)
            elements = [("node", bud), ("piece", inner)]
            far = extend(("node", bud), ("piece", inner), elements)
            if far is not None:
                record_chain(elements, (stub, far))

    assignments = {}
    for pid in shrub.sprig_ids():
        guarded_ends = [b for b in shrub.sprig_ends(pid) if guarded[b]]
        if not guarded_ends:
            assignments[pid] = {"alternative": "i", "chain": None}
            continue
        if len(guarded_ends) == 2:
            idx = chain_of.get((("piece", pid), *sorted(guarded_ends)))
            if idx is None:
                failures.append(f"sprig {pid} is on no complete chain")
                continue
            assignments[pid] = {"alternative": "iii", "chain": idx}
            continue
        idx = next((i for i, c in enumerate(chains) if pid in c.stubs), None)
        if idx is None:
            failures.append(f"sprig {pid} caps no complete chain")
            continue
        assignments[pid] = {"alternative": "ii", "chain": idx}

    # every opposed pair must lie on a complete chain
    for kind, orients in (("node", node_orients), ("piece", piece_orients)):
        for ident, f in sorted(orients.items()):
            half = len(f) // 2
            for a, b in zip(f[:half], f[half:]):
                if ((kind, ident), min(a, b), max(a, b)) not in chain_of:
                    failures.append(
                        f"{kind} {ident} opposed pair ({a},{b}) lies on 0 chains"
                    )

    return OrientationCertificate(
        node_orientations=node_orients,
        piece_orientations=piece_orients,
        chains=tuple(chains),
        sprig_assignments=assignments,
        orientable=not failures,
        failures=tuple(failures),
    )


def _opposed(seq, member):
    """The member half a turn round the cyclic orientation `seq`."""
    i = seq.index(member)
    return seq[(i + len(seq) // 2) % len(seq)]


# -- independent certificate checker -------------------------------------------------


def verify_certificate(shrub: ShrubGraph, cert: OrientationCertificate):
    """Re-derives every certified fact from the raw incidence structure.

    Deliberately shares no code with orient_all beyond the data model: star
    orders, cactus parity, rigidity, orientation contents, cyclic order and
    the full chain conditions are all recomputed literally.
    """
    failures = []

    def order_of(j):
        return sum(
            2 if shrub.pieces[a.piece].is_leaf else 1 for a in j.at
        )

    def on_leaf(j):
        return any(shrub.pieces[a.piece].is_leaf for a in j.at)

    guarded = {}
    for j in shrub.junctions:
        odd_bud = order_of(j) % 2 == 1 and not on_leaf(j)
        guarded[j.bud] = len(j.at) >= 2 and not odd_bud

    def component_pieces(cut_bud, start_piece):
        comp = {start_piece}
        frontier = [start_piece]
        while frontier:
            p = frontier.pop()
            for j in shrub.junctions:
                if j.bud == cut_bud:
                    continue
                ids = [a.piece for a in j.at]
                if p in ids:
                    for q in ids:
                        if q not in comp:
                            comp.add(q)
                            frontier.append(q)
        return comp

    def has_odd_cactus_in(comp, cut_bud):
        leaves = [p for p in comp if shrub.pieces[p].is_leaf]
        remaining = set(leaves)
        while remaining:
            seed = remaining.pop()
            group = {seed}
            changed = True
            while changed:
                changed = False
                for j in shrub.junctions:
                    if j.bud == cut_bud:
                        continue
                    ids = [
                        a.piece
                        for a in j.at
                        if a.piece in comp and shrub.pieces[a.piece].is_leaf
                    ]
                    if any(i in group for i in ids):
                        for i in ids:
                            if i not in group:
                                group.add(i)
                                changed = True
            remaining -= group
            hits = 0
            for j in shrub.junctions:
                if j.bud == cut_bud:
                    continue
                if any(a.piece in group for a in j.at):
                    hits += sum(
                        1
                        for a in j.at
                        if a.piece in comp and shrub.pieces[a.piece].is_sprig
                    )
            if hits % 2 == 1:
                return True
        return False

    def rigid_piece(bud, piece):
        if shrub.pieces[piece].is_sprig:
            return True
        comp = component_pieces(bud, piece)
        return has_odd_cactus_in(comp, bud)

    def rigid_node_on(piece, bud):
        others = [
            a.piece
            for j in shrub.junctions
            if j.bud == bud
            for a in j.at
            if a.piece != piece
        ]
        return sum(1 for p in others if rigid_piece(bud, p)) % 2 == 1

    # orientation contents and cyclic order
    for bud, f in cert.node_orientations.items():
        j = shrub.junction(bud)
        incident = [a.piece for a in j.at]
        if not guarded.get(bud, False):
            failures.append(f"node {bud} is not a guarded node")
        if len(f) == 0 or len(f) % 2 == 1:
            failures.append(f"node {bud} orientation size {len(f)}")
        if [p for p in incident if p in f] != list(f):
            failures.append(f"node {bud} orientation order mismatch")
        for p in incident:
            is_r = rigid_piece(bud, p)
            if is_r and p not in f:
                failures.append(f"node {bud} misses rigid piece {p}")
            if not is_r and p in f:
                failures.append(f"node {bud} includes bland piece {p}")
    for pid, f in cert.piece_orientations.items():
        piece = shrub.pieces[pid]
        if piece.is_sprig:
            ends = sorted(
                shrub.sprig_end_bud(pid, s) for s in END_SITES
            )
            if sorted(f) != ends:
                failures.append(f"sprig {pid} orientation must be its two ends")
            if not all(guarded.get(b, False) for b in f):
                failures.append(f"sprig {pid} oriented with unguarded end")
            continue
        juncs = sorted(
            (a.site, j.bud)
            for j in shrub.junctions
            for a in j.at
            if a.piece == pid
        )
        cyclic = [b for _, b in juncs]
        if [b for b in cyclic if b in f] != list(f):
            failures.append(f"leaf {pid} orientation order mismatch")
        if len(f) == 0 or len(f) % 2 == 1:
            failures.append(f"leaf {pid} orientation size {len(f)}")
        for b in cyclic:
            is_r = guarded.get(b, False) and rigid_node_on(pid, b)
            if is_r and b not in f:
                failures.append(f"leaf {pid} misses rigid node {b}")
            if not is_r and b in f:
                failures.append(f"leaf {pid} includes non-rigid node {b}")

    def far_end(pid, near_bud):
        b0 = shrub.sprig_end_bud(pid, "end0")
        b1 = shrub.sprig_end_bud(pid, "end1")
        return b1 if b0 == near_bud else b0

    def opposed_in(seq, member):
        i = list(seq).index(member)
        return seq[(i + len(seq) // 2) % len(seq)]

    # chain conditions
    for ci, chain in enumerate(cert.chains):
        els = chain.elements
        if len(set(els)) != len(els):
            failures.append(f"chain {ci} repeats a link")
        if len(els) == 1:
            kind, bud = els[0]
            if kind != "node":
                failures.append(f"chain {ci} degenerate link must be a node")
                continue
            f = cert.node_orientations.get(bud, ())
            s0, s1 = chain.stubs
            if s0 not in f or s1 not in f or opposed_in(f, s0) != s1:
                failures.append(f"chain {ci} stubs not opposed at node {bud}")
            for s in chain.stubs:
                if not shrub.pieces[s].is_sprig or guarded.get(
                    far_end(s, bud), False
                ):
                    failures.append(f"chain {ci} stub {s} is not dangling")
            continue
        if len(els) < 3:
            failures.append(f"chain {ci} has fewer than three links")
        for (ka, ia), (kb, ib) in zip(els, els[1:]):
            if ka == kb:
                failures.append(f"chain {ci} does not alternate")
                continue
            bud = ia if ka == "node" else ib
            pid = ib if ka == "node" else ia
            if pid not in [a.piece for a in shrub.junction(bud).at]:
                failures.append(f"chain {ci}: {pid} not incident to {bud}")
        for idx in range(1, len(els) - 1):
            kind, ident = els[idx]
            f = (
                cert.node_orientations.get(ident)
                if kind == "node"
                else cert.piece_orientations.get(ident)
            )
            left = els[idx - 1][1]
            right = els[idx + 1][1]
            if f is None or left not in f or right not in f:
                failures.append(f"chain {ci} interior {kind} {ident} unoriented")
            elif opposed_in(f, left) != right:
                failures.append(
                    f"chain {ci} neighbors not opposed at {kind} {ident}"
                )
        for end_idx, neighbor_idx, stub in (
            (0, 1, chain.stubs[0]),
            (-1, -2, chain.stubs[1]),
        ):
            kind, bud = els[end_idx]
            if kind != "node":
                failures.append(f"chain {ci} end is not a node")
                continue
            f = cert.node_orientations.get(bud, ())
            neighbor = els[neighbor_idx][1]
            if neighbor not in f or opposed_in(f, neighbor) != stub:
                failures.append(f"chain {ci} stub {stub} not opposed at {bud}")
            if not shrub.pieces[stub].is_sprig or guarded.get(
                far_end(stub, bud), False
            ):
                failures.append(f"chain {ci} stub {stub} is not dangling")

    # no two chains may consume the same opposed pair
    pair_seen = {}
    for ci, chain in enumerate(cert.chains):
        els = chain.elements
        for i, (kind, ident) in enumerate(els):
            left = chain.stubs[0] if i == 0 else els[i - 1][1]
            right = chain.stubs[1] if i == len(els) - 1 else els[i + 1][1]
            key = ((kind, ident), min(left, right), max(left, right))
            if key in pair_seen and pair_seen[key] != ci:
                failures.append(
                    f"chains {pair_seen[key]} and {ci} share pair {key}"
                )
            pair_seen[key] = ci

    # every sprig must carry a verified alternative
    for pid in shrub.sprig_ids():
        a = cert.sprig_assignments.get(pid)
        if a is None:
            failures.append(f"sprig {pid} has no alternative")
            continue
        b0 = shrub.sprig_end_bud(pid, "end0")
        b1 = shrub.sprig_end_bud(pid, "end1")
        g0, g1 = guarded.get(b0, False), guarded.get(b1, False)
        alternative, index = a["alternative"], a["chain"]
        if alternative == "i":
            if g0 or g1:
                failures.append(f"sprig {pid}: endpoint is guarded, not free")
            continue
        if index is None or not (0 <= index < len(cert.chains)):
            failures.append(f"sprig {pid} cites missing chain {index}")
            continue
        chain = cert.chains[index]
        if alternative == "ii":
            if pid not in chain.stubs:
                failures.append(f"sprig {pid} not a stub of chain {index}")
            if g0 and g1:
                failures.append(f"sprig {pid} cannot be a stub: both ends guarded")
        elif alternative == "iii":
            if ("piece", pid) not in chain.elements:
                failures.append(f"sprig {pid} not a link of chain {index}")
        else:
            failures.append(f"sprig {pid} unknown alternative {alternative}")

    return (not failures, tuple(failures))


# -- geometric layout -----------------------------------------------------------------


class LayoutError(Exception):
    def __init__(self, reason: str, detail=None):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class LeafPlacement:
    piece: int
    frame: bool  # the outer disk of a frame layout
    k_layout: int = 0
    affine: AffineMap = None
    center: tuple = None
    radius: Fraction = None


@dataclass(frozen=True)
class SprigPlacement:
    piece: int
    start: tuple  # None marks the end at infinity (the ray runs toward +x)
    end: tuple


@dataclass(frozen=True)
class MaximalSegment:
    start: tuple  # None marks the end at infinity (the ray runs toward +x)
    end: tuple
    pieces: tuple  # constituent sprig ids and (leaf, entry bud, exit bud) diameters


@dataclass
class ShrubLayout:
    mode: str  # "frame" | "punctured"
    placements: dict  # piece id -> placement
    junction_points: dict  # bud -> exact plane point
    base_bud: int = None  # the puncture sent to infinity (punctured mode)
    frame_piece: int = None
    maximal_segments: tuple = ()
    aux_sprigs: tuple = ()
    punctures: tuple = ()  # bud ids (in the augmented shrub) removed from analyticity


def _cmul(a, b):
    """Complex multiplication of plane vectors (rotation composition)."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _leaf_k_layout(pid: int, k: int) -> int:
    """The cusp count a leaf with k cusps is laid out with: k rounded up to
    a multiple of 4, refused above K_MAX before any curve is implicitized."""
    k_layout = max(4, ((k + 3) // 4) * 4)
    if k_layout > K_MAX:
        raise LayoutError(
            f"leaf {pid} has {k} cusps, which a layout rounds up to {k_layout}, "
            f"above K_MAX = {K_MAX}",
            detail=pid,
        )
    return k_layout


_SLOT_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _leaf_affine(center, radius: Fraction, k_layout: int, slot: int, direction):
    """Affine placing a leaf of layout cusp count so that its axis cusp of
    index `slot` sits at center + radius*direction."""
    base = _cmul(direction, _conj_unit(slot))
    s = Fraction(radius, k_layout)
    col0 = (s * base[0], s * base[1])
    col1 = (-s * base[1], s * base[0])
    return AffineMap(
        ((col0[0], col1[0]), (col0[1], col1[1])),
        (Fraction(center[0]), Fraction(center[1])),
    )


def _conj_unit(slot: int):
    u = _SLOT_UNITS[slot % 4]
    return (Fraction(u[0]), Fraction(-u[1]))


def _axis_cusp_raw(k_layout: int, slot: int):
    u = _SLOT_UNITS[slot % 4]
    return (Fraction(k_layout * u[0]), Fraction(k_layout * u[1]))


def layout_shrub(shrub: ShrubGraph) -> ShrubLayout:
    """Exact-rational geometric realization of a shrub.

    Pure cactuses are drawn in frame mode: one designated leaf becomes the
    outer disk (everything outside the unit circle plus infinity) and all
    other leaves are nested hypocycloids inside it. Shrubs with sprigs go to
    punctured mode: odd cactuses are first balanced with auxiliary sprigs,
    the augmented shrub is oriented, and one base bud is sent to infinity:
    every sprig at the base becomes a horizontal ray and the rest of its
    component hangs off the ray's finite end, with the chart origin kept
    clear of all pieces. Complete chains run along straight lines, and the
    boundary splits into maximal segments whose endpoints are punctures
    (an endpoint of None means the segment escapes to infinity).
    """
    # leaf balls touching at one point must be tangent along one line, and
    # two tangent disks leave only that line free, which the direction fan
    # never offers (t + 1/5 = ±1 has no solution in `fan_ts`)
    for j in shrub.junctions:
        leaves = sorted(a.piece for a in j.at if shrub.pieces[a.piece].is_leaf)
        if len(leaves) > 2:
            raise LayoutError("more than two leaves meet at one point", detail=j.bud)
        if len(leaves) == 2 and len(j.at) > 2:
            raise LayoutError(
                f"leaves {leaves[0]} and {leaves[1]} meet a sprig at one point",
                detail=j.bud,
            )
    if not shrub.sprig_ids():
        return _layout_frame(shrub)
    return _layout_punctured(shrub)


# direction of every infinite ray; the base bud sits at +infinity on the
# horizontal axis of each ray's line
_RAY_DIR = (Fraction(1), Fraction(0))


def _leaf_buds(shrub: ShrubGraph, pid: int):
    """The junction buds of a leaf in cusp order; there are four exact
    quarter-turn slots, so a leaf takes four junctions at most."""
    buds = [bud for _, bud in shrub.cusp_buds(pid)]
    if len(buds) > 4:
        raise LayoutError(
            "leaf carries more junctions than exact cusp slots", detail=pid
        )
    return buds


def _place_leaf(shrub, pid, entry_bud, entry, direction, radius, slots):
    """A leaf with its entry cusp at `entry` and its body along +direction.

    `slots` maps every junction bud of the leaf to its quarter-turn cusp
    slot, in increasing slot order. Returns the placement and a
    (bud, point, outward unit) triple for every other junction, in slot
    order.
    """
    center = (entry[0] + radius * direction[0], entry[1] + radius * direction[1])
    k_layout = _leaf_k_layout(pid, shrub.pieces[pid].k)
    aff = _leaf_affine(center, radius, k_layout, slots[entry_bud], _neg(direction))
    placement = LeafPlacement(
        piece=pid,
        frame=False,
        k_layout=k_layout,
        affine=aff,
        center=center,
        radius=radius,
    )
    exits = []
    for bud, slot in slots.items():
        point = aff.apply(_axis_cusp_raw(k_layout, slot))
        if bud == entry_bud:
            if point != entry:
                raise AssertionError("entry cusp landed off the junction")
            continue
        exits.append((bud, point, _unit_from_center(center, point, radius)))
    return placement, exits


def _layout_frame(shrub: ShrubGraph) -> ShrubLayout:
    counts = {pid: len(shrub.cusp_buds(pid)) for pid in shrub.leaf_ids()}
    root = max(counts, key=lambda pid: (counts[pid], -pid))
    placements = {root: LeafPlacement(piece=root, frame=True)}
    junction_points = {}
    root_buds = [bud for _, bud in shrub.cusp_buds(root)]
    n = max(1, len(root_buds))
    s0 = min(Fraction(1, 4), Fraction(1, 2 * n))

    def circle_direction(i):
        angle = math.pi * (2 * i + 1) / (2 * n)  # half-angle in (0, pi)
        if abs(angle - math.pi / 2) < 1e-12:
            return (Fraction(-1), Fraction(0))
        t = Fraction(math.tan(angle)).limit_denominator(64)
        return rational_circle_point(t)

    def place(pid, entry_bud, entry, direction, radius):
        # consecutive slots, starting with the entry cusp at slot 0
        order = _leaf_buds(shrub, pid)
        i = order.index(entry_bud)
        slots = {bud: slot for slot, bud in enumerate(order[i:] + order[:i])}
        placements[pid], exits = _place_leaf(
            shrub, pid, entry_bud, entry, direction, radius, slots
        )
        for bud, point, out_dir in exits:
            junction_points[bud] = point
            for other in shrub.pieces_at(bud):
                if other != pid:
                    place(other, bud, point, out_dir, radius / 4)

    for i, bud in enumerate(root_buds):
        q = circle_direction(i)
        junction_points[bud] = q
        for pid in shrub.pieces_at(bud):
            if pid != root:
                place(pid, bud, q, _neg(q), s0)

    # inner leaves stay inside the unit circle, and those glued to the frame
    # touch it exactly at their entry junction
    tangent = {pid for bud in root_buds for pid in shrub.pieces_at(bud)}
    inner = {pid: p for pid, p in placements.items() if pid != root}
    for pid, p in inner.items():
        norm2 = p.center[0] ** 2 + p.center[1] ** 2
        if pid in tangent:
            if norm2 != (1 - p.radius) ** 2:
                raise AssertionError("frame child is not tangent to the circle")
        elif norm2 >= (1 - p.radius) ** 2:
            raise LayoutError(f"leaf {pid} reaches the frame circle", detail=pid)
    _check_collisions(shrub, inner, junction_points)
    return ShrubLayout(
        mode="frame",
        placements=placements,
        junction_points=junction_points,
        frame_piece=root,
        punctures=(),
    )


def _neg(v):
    return (-v[0], -v[1])


def _unit_from_center(center, point, radius):
    return (
        (point[0] - center[0]) / radius,
        (point[1] - center[1]) / radius,
    )


# punctured mode ----------------------------------------------------------------


def augment_with_parity_sprigs(shrub: ShrubGraph):
    """Attach one auxiliary free sprig at each odd cactus representative.

    Returns (augmented shrub, aux sprig ids, aux junction buds).
    The augmented shrub has no odd cactuses, so it can be oriented.
    """
    pieces = list(shrub.pieces)
    # keep implicit tip junctions so bud ids stay stable across augmentation
    junctions = list(shrub.junctions)
    next_bud = max((j.bud for j in junctions), default=-1) + 1
    aux_ids = []
    aux_buds = []
    for ref in required_puncture_set(shrub):
        if ref["kind"] != "cactus_cusp":
            continue
        pieces.append(Piece(kind="sprig"))
        pid = len(pieces) - 1
        aux_ids.append(pid)
        junctions.append(
            Junction(
                bud=next_bud,
                at=(
                    Attachment(ref["leaf"], ref["cusp"]),
                    Attachment(pid, "end0"),
                ),
            )
        )
        aux_buds.append(next_bud)
        next_bud += 1
    return ShrubGraph(pieces, junctions), tuple(aux_ids), tuple(aux_buds)


def _layout_punctured(shrub: ShrubGraph) -> ShrubLayout:
    aug, aux_ids, aux_buds = augment_with_parity_sprigs(shrub)
    cert = orient_all(aug)
    if not cert.orientable:
        raise LayoutError(
            "shrub is not orientable", detail=cert.failures
        )
    odd_buds = sorted(b["bud"] for b in classify_buds(aug) if b["odd"])
    original_bud_ids = {j.bud for j in shrub.junctions}
    original_odd = [b for b in odd_buds if b in original_bud_ids]
    # base point sent to infinity: the first odd bud of the original shrub,
    # or the free tip of the first auxiliary stub when only odd cactuses
    # forced the punctures (odd buds carry no leaf, so everything at the
    # base is a sprig and can become a ray)
    if not original_odd and not aux_ids:
        raise LayoutError("punctured layout needs at least one puncture")
    if original_odd:
        base_bud = original_odd[0]
    else:
        base_bud = aug.sprig_end_bud(aux_ids[0], "end1")

    placements = {}
    # None is the point at infinity; only the base bud lives there
    junction_points = {base_bud: None}

    fan_ts = [
        Fraction(0),
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(1),
        Fraction(-1),
        Fraction(3),
        Fraction(-3),
        Fraction(1, 7),
        Fraction(-1, 7),
        Fraction(7),
        Fraction(-7),
    ]
    # the twist keeps every fan direction off the incoming line
    twist = Fraction(1, 5)

    def fresh_directions(count, base_dir, taken):
        """Rational unit vectors, pairwise non-parallel, avoiding `taken`."""
        out = []
        if count == 0:
            return out
        for t in fan_ts:
            cand = _cmul(base_dir, rational_circle_point(t + twist))
            if any(_parallel(cand, d) for d in taken + out):
                continue
            out.append(cand)
            if len(out) == count:
                return out
        raise LayoutError("direction fan exhausted at a crowded junction")

    def visit_junction(bud, come_from_piece, in_dir, depth):
        """Place every other piece at this junction; in_dir points along the
        travel direction into the junction. Two leaves meet only with no
        sprig (`layout_shrub` refuses the rest), so a leaf arriving at a leaf
        hands it in_dir, as the chain through them does."""
        point = junction_points[bud]
        j = aug.junction(bud)
        others = [a.piece for a in j.at if a.piece != come_from_piece]
        f = cert.node_orientations.get(bud)
        dirs = {}

        def taken():
            return list(dirs.values()) + [in_dir]

        # the chain through the incoming piece continues straight
        if f is not None and come_from_piece in f:
            dirs[_opposed(f, come_from_piece)] = in_dir
        # the other leaf continues along in_dir, tangent to the arriving one
        if aug.pieces[come_from_piece].is_leaf:
            for p in others:
                if aug.pieces[p].is_leaf:
                    dirs[p] = in_dir

        if f is not None:
            half = len(f) // 2
            unresolved = [
                i
                for i in range(half)
                if f[i] not in dirs
                and f[i + half] not in dirs
                and f[i] != come_from_piece
                and f[i + half] != come_from_piece
            ]
            fresh = fresh_directions(len(unresolved), in_dir, taken())
            for i, d in zip(unresolved, fresh):
                dirs[f[i]] = d
                dirs[f[i + half]] = _neg(d)
        plain = [p for p in others if p not in dirs]
        for pid, d in zip(
            plain, fresh_directions(len(plain), in_dir, taken())
        ):
            dirs[pid] = d
        for pid in others:
            place_piece(pid, bud, point, dirs[pid], depth)

    def place_sprig(pid, near_bud, near, far, direction, depth):
        """The sprig from `near` (None at infinity) to `far`, then every
        piece at its far end."""
        far_bud = aug.far_end(pid, near_bud)
        forward = aug.sprig_end_bud(pid, "end0") == near_bud
        placements[pid] = SprigPlacement(
            piece=pid,
            start=near if forward else far,
            end=far if forward else near,
        )
        junction_points[far_bud] = far
        visit_junction(far_bud, pid, direction, depth)

    def place_piece(pid, from_bud, point, direction, depth):
        if aug.pieces[pid].is_sprig:
            length = Fraction(1, 4**depth)
            far = (
                point[0] + length * direction[0],
                point[1] + length * direction[1],
            )
            place_sprig(pid, from_bud, point, far, direction, depth + 1)
            return
        slots = _embed_leaf_slots(
            _leaf_buds(aug, pid), cert.piece_orientations.get(pid)
        )
        if slots is None:
            raise LayoutError(
                "leaf junction order cannot respect its opposed pairs",
                detail=pid,
            )
        radius = Fraction(1, 2 * 4**depth)
        placements[pid], exits = _place_leaf(
            aug, pid, from_bud, point, direction, radius, slots
        )
        for bud, cusp_point, out_dir in exits:
            junction_points[bud] = cusp_point
            visit_junction(bud, pid, out_dir, depth + 1)

    # every sprig at the base becomes a horizontal ray running to +infinity;
    # each one gets its own widely separated line, so rays never meet, the
    # origin stays clear, and components stay inside small anchor clusters
    for idx, pid in enumerate(sorted(aug.pieces_at(base_bud))):
        anchor = (Fraction(2), Fraction(4 * idx + 2))
        place_sprig(pid, base_bud, None, anchor, _neg(_RAY_DIR), 1)

    if len(junction_points) != len(aug.junctions):
        raise LayoutError("layout did not reach every junction")

    segments = _collect_maximal_segments(aug, cert, junction_points, aux_ids)
    _check_collisions(aug, placements, junction_points)
    # every odd bud of the augmented shrub ends an arc (the auxiliary stub
    # tips included), and each auxiliary junction cuts its chain in two
    punctures = tuple(sorted(set(odd_buds) | set(aux_buds)))
    return ShrubLayout(
        mode="punctured",
        placements=placements,
        junction_points=junction_points,
        base_bud=base_bud,
        maximal_segments=segments,
        aux_sprigs=tuple(aux_ids),
        punctures=punctures,
    )


def _parallel(a, b):
    return a[0] * b[1] - a[1] * b[0] == 0


def _embed_leaf_slots(order, orientation):
    """Assign quarter-turn cusp slots to the leaf's junctions, in cusp
    order: the first fixed spread that puts each opposed pair of the leaf's
    orientation on opposite slots. Returns bud -> slot in increasing slot
    order, or None when no spread works."""
    for spread in _SLOT_SPREADS[len(order)]:
        slot = dict(zip(order, spread))
        if all(
            (slot[b] - slot[_opposed(orientation, b)]) % 4 == 2
            for b in orientation or ()
        ):
            return slot
    return None


# the slot spreads of a leaf's one to four junctions, with no rotation: a
# rotation turns every slot alike, the three spreads of three junctions are
# the cyclic shifts of one gap pattern, and two opposed junctions need (0, 2)
_SLOT_SPREADS = {
    1: ((0,),),
    2: ((0, 2),),
    3: ((0, 1, 2), (0, 1, 3), (0, 2, 3)),
    4: ((0, 1, 2, 3),),
}


def _collect_maximal_segments(aug, cert, junction_points, aux_ids):
    """Straight factor segments: chains realized as collinear runs, plus
    lone sprigs with both ends free. Auxiliary stubs are cut off their
    chain at the junction and emitted as separate one-sprig segments. An
    endpoint of None is the base bud at infinity."""
    segments = []
    for chain in cert.chains:
        first_node = chain.elements[0][1]
        last_node = chain.elements[-1][1]
        s0, s1 = chain.stubs
        waypoints = []
        pieces = []
        if s0 in aux_ids:
            start = junction_points[first_node]
        else:
            start = junction_points[aug.far_end(s0, first_node)]  # an odd bud
            pieces.append(("sprig", s0))
            waypoints.append(start)
        waypoints.append(junction_points[first_node])
        for kind, ident in chain.elements:
            if kind == "node":
                waypoints.append(junction_points[ident])
            else:
                if aug.pieces[ident].is_sprig:
                    pieces.append(("sprig", ident))
                else:
                    pieces.append(("diameter", ident))
        if s1 in aux_ids:
            end = junction_points[last_node]
        else:
            end = junction_points[aug.far_end(s1, last_node)]
            pieces.append(("sprig", s1))
            waypoints.append(end)
        for w in waypoints:
            if w is None:
                continue
            if not _collinear_run(start, end, w):
                raise AssertionError("chain waypoints are not collinear")
        segments.append(
            MaximalSegment(
                start=start,
                end=end,
                pieces=tuple(pieces),
            )
        )

    claimed = {
        ident for seg in segments for kind, ident in seg.pieces if kind == "sprig"
    }
    # lone sprigs with both ends free, then the auxiliary stubs, which stay
    # in the drawn boundary as their own segments from the cutting junction
    # to the free tip
    lone = [
        pid
        for pid, assign in cert.sprig_assignments.items()
        if assign["alternative"] == "i" and pid not in aux_ids
    ]
    for pid in lone + list(aux_ids):
        b0, b1 = aug.sprig_ends(pid)
        segments.append(
            MaximalSegment(
                start=junction_points[b0],
                end=junction_points[b1],
                pieces=(("sprig", pid),),
            )
        )
        claimed.add(pid)
    missing = set(aug.sprig_ids()) - claimed
    if missing:
        raise LayoutError(
            "sprigs not covered by any maximal segment", detail=sorted(missing)
        )
    return tuple(segments)


def _collinear(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0


def _collinear_run(start, end, w):
    """Collinearity against a segment whose None end lies at +x infinity."""
    if start is None:
        return w[1] == end[1]
    if end is None:
        return w[1] == start[1]
    return _collinear(start, end, w)


def _check_collisions(shrub, placements, junction_points):
    """Exact pairwise separation of leaf balls and sprig segments, plus
    clearance of the chart origin from every drawn piece. Two pieces
    that share a junction may meet at its point only: leaves as tangent
    balls, sprigs as spans leaving it. A ray, which runs from its anchor
    toward +x, is checked as the segment from the anchor to x = far_x;
    every drawn piece lies left of far_x, so each test answers as the ray
    would."""
    shared_bud = {}  # (a, b) with a < b -> the junction both pieces touch
    for j in shrub.junctions:
        for a in j.at:
            for b in j.at:
                if a.piece < b.piece:
                    shared_bud[(a.piece, b.piece)] = j.bud
    items = sorted(placements)
    leaves = [p for p in placements.values() if isinstance(p, LeafPlacement)]
    far_x = 1 + max(
        [abs(q[0]) for q in junction_points.values() if q is not None]
        + [abs(p.center[0]) + p.radius for p in leaves],
        default=0,
    )
    origin = (Fraction(0), Fraction(0))
    for pid in items:
        p = placements[pid]
        if isinstance(p, LeafPlacement):
            if _dist2(p.center, origin) <= p.radius**2:
                raise LayoutError(f"leaf {pid} covers the chart origin", detail=pid)
        elif _point_segment_dist2(origin, *_sprig_span(p, far_x)) == 0:
            raise LayoutError(f"sprig {pid} passes the chart origin", detail=pid)
    for i, a in enumerate(items):
        pa = placements[a]
        for b in items[i + 1:]:
            pb = placements[b]
            adjacent = (a, b) in shared_bud
            shared = junction_points[shared_bud[(a, b)]] if adjacent else None
            if isinstance(pa, LeafPlacement) and isinstance(pb, LeafPlacement):
                d2 = _dist2(pa.center, pb.center)
                lim = (pa.radius + pb.radius) ** 2
                if adjacent:
                    if d2 != lim:
                        raise AssertionError("adjacent leaves are not tangent")
                elif d2 <= lim:
                    raise LayoutError(f"leaves {a} and {b} overlap", detail=(a, b))
            elif isinstance(pa, LeafPlacement) or isinstance(pb, LeafPlacement):
                leaf, seg = (pa, pb) if isinstance(pa, LeafPlacement) else (pb, pa)
                # an adjacent sprig leaves the tangency cusp pointing outward
                if not _span_outside_ball(_sprig_span(seg, far_x), leaf, shared):
                    raise LayoutError(
                        f"sprig {seg.piece} crosses the disk of leaf {leaf.piece}",
                        detail=(seg.piece, leaf.piece),
                    )
            else:
                sa, sb = _sprig_span(pa, far_x), _sprig_span(pb, far_x)
                if not adjacent:
                    if _segments_intersect(*sa, *sb):
                        raise LayoutError(f"sprigs {a} and {b} cross", detail=(a, b))
                elif _spans_overlap_beyond_point(sa, sb, shared):
                    raise LayoutError(
                        f"sprigs {a} and {b} overlap beyond their junction",
                        detail=(a, b),
                    )


def _dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _sprig_span(p, far_x):
    """End points (a, b) of a sprig placement; a ray from anchor a toward
    +x ends at (far_x, a_y)."""
    a, b = (p.end, p.start) if p.start is None else (p.start, p.end)
    return (a, (far_x, a[1])) if b is None else (a, b)


def _span_outside_ball(span, leaf, allow_touch):
    c, r = leaf.center, leaf.radius
    if _point_segment_dist2(c, *span) > r * r:
        return True
    # touching is fine only at the shared cusp, from which the span must run
    # monotonically away from the center
    v = _dir_away(span, allow_touch)
    if v is None:
        return False
    w = (allow_touch[0] - c[0], allow_touch[1] - c[1])
    return v[0] * w[0] + v[1] * w[1] >= 0


def _point_segment_dist2(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] ** 2 + ab[1] ** 2
    if denom == 0:
        return ap[0] ** 2 + ap[1] ** 2
    t = (ap[0] * ab[0] + ap[1] * ab[1]) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    q = (a[0] + t * ab[0], a[1] + t * ab[1])
    return _dist2(p, q)


def _segments_intersect(a, b, c, d):
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 0) - (v < 0)

    def on_seg(p, q, r):
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)):
        if orient(p, q, r) == 0 and on_seg(p, q, r):
            return True
    return False


def _dir_away(span, shared):
    """Direction from `shared` toward the span's other end, or None when
    `shared` is not an endpoint of the span (or is None, the bud at
    infinity)."""
    a, b = span
    if a == shared:
        return (b[0] - a[0], b[1] - a[1])
    if b == shared:
        return (a[0] - b[0], a[1] - b[1])
    return None


def _spans_overlap_beyond_point(sa, sb, shared):
    """Adjacent sprigs may meet only at their shared junction point; a
    shared point of None (the bud at infinity) demands plane disjointness."""
    if not _segments_intersect(*sa, *sb):
        return False
    # straight spans leaving one point meet again only if they run the same
    # way along one line; opposite collinear continuations are legitimate
    va = _dir_away(sa, shared)
    vb = _dir_away(sb, shared)
    if va is None or vb is None:
        return True
    if _parallel(va, vb):
        return va[0] * vb[0] + va[1] * vb[1] > 0
    return False
