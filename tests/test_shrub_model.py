"""Shrub incidence, classification, orientation, and layout."""
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubfield.shrub_model import (
    _embed_leaf_slots,
    Attachment,
    BudClassification,
    Junction,
    LayoutError,
    Piece,
    ShrubError,
    ShrubGraph,
    augment_with_parity_sprigs,
    cactuses,
    classify_buds,
    find_odd_cactuses,
    is_very_simple,
    layout_shrub,
    odd_object_recount,
    orient_all,
    parity_check,
    random_very_simple_shrub,
    required_puncture_set,
    rigid_pieces,
    validate,
    verify_certificate,
)


def leaf(k=4):
    return Piece(kind="leaf", k=k)


def sprig():
    return Piece(kind="sprig")


def shrub(pieces, junctions):
    return ShrubGraph(
        pieces,
        [Junction(bud=i, at=tuple(at)) for i, at in enumerate(junctions)],
    )


# -- incidence and validation ---------------------------------------------------


def test_free_sprig_ends_become_implicit_tips():
    sh = ShrubGraph([sprig()], [])
    assert len(sh.junctions) == 2
    assert all(j.implicit for j in sh.junctions)
    assert {j.at[0].site for j in sh.junctions} == {"end0", "end1"}


def test_json_round_trip_preserves_structure():
    obj = {
        "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}],
        "junctions": [
            {
                "bud": 0,
                "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}],
            }
        ],
    }
    sh = ShrubGraph.from_json(json.dumps(obj))
    assert sh.pieces == [leaf(4), sprig()]
    # implicit tips never serialize, so the file comes back as it was read
    assert sh.to_json() == obj
    assert len(sh.junctions) == 2


def test_two_leaves_sharing_two_cusps_is_rejected():
    with pytest.raises(ShrubError, match="cycle.*share"):
        shrub(
            [leaf(), leaf()],
            [
                [Attachment(0, 0), Attachment(1, 0)],
                [Attachment(0, 1), Attachment(1, 1)],
            ],
        )


def test_out_of_range_cusp_site_is_rejected():
    with pytest.raises(ShrubError, match="leaf 0 has no cusp 7"):
        ShrubGraph([leaf(4)], [Junction(bud=0, at=(Attachment(0, 7),))])


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_leaf_with_fewer_than_three_cusps_is_rejected(k):
    with pytest.raises(ShrubError) as info:
        ShrubGraph([leaf(k)], [])
    assert str(info.value) == f"leaf 0 has k = {k}; a leaf needs at least 3 cusps"


def test_disconnected_pieces_are_rejected():
    with pytest.raises(ShrubError, match="not connected"):
        shrub([leaf(), leaf()], [])


def test_duplicate_site_use_is_rejected():
    with pytest.raises(ShrubError, match=r"site \(0, 0\) appears in junctions 0 and 1"):
        shrub(
            [leaf(), leaf(), leaf()],
            [
                [Attachment(0, 0), Attachment(1, 0)],
                [Attachment(0, 0), Attachment(2, 0)],
            ],
        )


def test_structurally_invalid_file_is_refused_when_read():
    # every key and type is in form; the gluing closes a cycle
    obj = {
        "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}],
        "junctions": [
            {"bud": 0, "at": [{"piece": 0, "site": 0}, {"piece": 1, "site": "end0"}]},
            {"bud": 1, "at": [{"piece": 0, "site": 2}, {"piece": 1, "site": "end1"}]},
        ],
    }
    with pytest.raises(ShrubError, match="cycle"):
        ShrubGraph.from_json(json.dumps(obj))


def test_duplicate_bud_identifiers_join_the_other_failures():
    with pytest.raises(ShrubError, match="at least 3 cusps; duplicate bud identifiers"):
        ShrubGraph(
            [leaf(), leaf(), leaf(2)],
            [
                Junction(bud=0, at=(Attachment(0, 0), Attachment(1, 0))),
                Junction(bud=0, at=(Attachment(0, 1), Attachment(2, 0))),
            ],
        )


# -- star orders and buds ---------------------------------------------------------


def test_free_sprig_end_is_an_odd_tip_of_order_one():
    cls = classify_buds(ShrubGraph([sprig()], []))
    for info in cls.buds.values():
        assert info.order == 1
        assert info.odd_bud
        assert info.tip
        assert not info.node


def test_two_sprig_junction_has_order_two_and_is_a_node():
    sh = shrub(
        [sprig(), sprig()],
        [[Attachment(0, "end0"), Attachment(1, "end0")]],
    )
    info = classify_buds(sh).buds[0]
    assert info.order == 2
    assert info.node
    assert not info.odd_bud


def test_leaf_cusp_with_sprig_has_order_three_but_is_not_odd():
    sh = shrub(
        [leaf(), sprig()],
        [[Attachment(0, 0), Attachment(1, "end0")]],
    )
    info = classify_buds(sh).buds[0]
    assert info.order == 3
    assert info.on_leaf
    assert not info.odd_bud
    assert info.node


def test_three_sprigs_meeting_off_leaf_form_an_odd_bud():
    sh = shrub(
        [sprig(), sprig(), sprig()],
        [
            [
                Attachment(0, "end0"),
                Attachment(1, "end0"),
                Attachment(2, "end0"),
            ]
        ],
    )
    info = classify_buds(sh).buds[0]
    assert info.order == 3
    assert info.odd_bud
    assert info.node


# -- cactuses and parity ----------------------------------------------------------


def test_lone_leaf_is_one_even_cactus_with_no_punctures():
    sh = ShrubGraph([leaf()], [])
    cs = cactuses(sh)
    assert len(cs) == 1 and not cs[0].odd
    assert required_puncture_set(sh) == []


def test_single_sprig_needs_both_endpoints_punctured():
    sh = ShrubGraph([sprig()], [])
    refs = required_puncture_set(sh)
    assert len(refs) == 2
    assert all(r.kind == "bud" for r in refs)


def test_leaf_with_one_sprig_is_an_odd_cactus():
    sh = shrub([leaf(), sprig()], [[Attachment(0, 0), Attachment(1, "end0")]])
    odd = find_odd_cactuses(sh)
    assert len(odd) == 1
    assert odd[0].attachments == 1
    refs = required_puncture_set(sh)
    kinds = sorted(r.kind for r in refs)
    assert kinds == ["bud", "cactus_cusp"]
    # the representative avoids the cusp already used by the junction
    rep = next(r for r in refs if r.kind == "cactus_cusp")
    assert rep.leaf == 0 and rep.cusp != 0


def full_leaf_in_an_odd_cactus():
    """k=3 leaf 0 glued at cusp 0 to k=4 leaf 1, sprigs on leaf 0's cusps 1
    and 2 and on leaf 1's cusp 2: leaf 0 has no cusp left for a puncture."""
    return shrub(
        [leaf(3), leaf(4), sprig(), sprig(), sprig()],
        [
            [Attachment(0, 0), Attachment(1, 0)],
            [Attachment(0, 1), Attachment(2, "end0")],
            [Attachment(0, 2), Attachment(3, "end0")],
            [Attachment(1, 2), Attachment(4, "end0")],
        ],
    )


def test_odd_cactus_puncture_moves_to_a_leaf_with_a_free_cusp():
    sh = full_leaf_in_an_odd_cactus()
    assert validate(sh).ok
    rep = next(r for r in required_puncture_set(sh) if r.kind == "cactus_cusp")
    assert (rep.leaf, rep.cusp) == (1, 1)
    aug, aux_ids, _ = augment_with_parity_sprigs(sh)
    assert validate(aug).ok
    assert verify_certificate(aug, orient_all(aug))[0]
    assert layout_shrub(sh).aux_sprigs == aux_ids


def test_odd_cactus_without_a_free_cusp_is_rejected():
    sh = shrub(
        [leaf(3), sprig(), sprig(), sprig()],
        [[Attachment(0, c), Attachment(c + 1, "end0")] for c in range(3)],
    )
    assert validate(sh).ok
    with pytest.raises(ShrubError, match=r"odd cactus of leaves \[0\]"):
        required_puncture_set(sh)
    with pytest.raises(ShrubError, match="no free cusp"):
        layout_shrub(sh)


def test_two_leaves_joined_by_a_sprig_have_two_odd_cactuses_no_odd_buds():
    sh = shrub(
        [leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(2, "end0")],
            [Attachment(1, 0), Attachment(2, "end1")],
        ],
    )
    assert classify_buds(sh).odd_buds == []
    assert len(find_odd_cactuses(sh)) == 2


def test_leaf_adjacency_merges_cactuses():
    sh = shrub(
        [leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(1, 0)],
            [Attachment(1, 1), Attachment(2, "end0")],
        ],
    )
    cs = cactuses(sh)
    assert len(cs) == 1
    assert cs[0].leaves == (0, 1)
    assert cs[0].attachments == 1 and cs[0].odd


def test_parity_check_counts_loops_twice():
    total, even = parity_check([(0, 0), (0, 1)])
    assert total == 4 and even
    with pytest.raises(ValueError):
        parity_check([(0, 1)], vertex_count=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_odd_objects_match_degree_parity_recount(seed):
    rng = random.Random(seed)
    sh = random_very_simple_shrub(rng)
    direct = len(classify_buds(sh).odd_buds) + len(find_odd_cactuses(sh))
    assert odd_object_recount(sh) == direct


def test_odd_object_recount_on_unbalanced_shrub():
    sh = shrub([leaf(), sprig()], [[Attachment(0, 0), Attachment(1, "end0")]])
    # one odd bud (the tip) plus one odd cactus
    assert odd_object_recount(sh) == 2


# -- rigidity ----------------------------------------------------------------------


def test_sprigs_are_always_rigid():
    sh = shrub(
        [leaf(), sprig()], [[Attachment(0, 0), Attachment(1, "end0")]]
    )
    assert rigid_pieces(sh, 0) == [1]


def test_leaf_is_rigid_when_an_odd_cactus_lies_beyond():
    # leafA - sprig - leafB with an auxiliary stub on each leaf
    base = shrub(
        [leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(2, "end0")],
            [Attachment(1, 0), Attachment(2, "end1")],
        ],
    )
    aug, aux_ids, aux_buds = augment_with_parity_sprigs(base)
    assert is_very_simple(aug)
    # at the leafA junction with the middle sprig, leafA spans a component
    # containing exactly one odd cactus (itself, via its auxiliary stub)
    assert 0 in rigid_pieces(aug, 0)
    # the lone leaf of a balanced two-attachment cactus is bland at a tip
    lone = shrub(
        [leaf(), sprig(), sprig()],
        [
            [Attachment(0, 0), Attachment(1, "end0")],
            [Attachment(0, 2), Attachment(2, "end0")],
        ],
    )
    # from the cusp-0 junction the leaf spans the sprig at cusp 2: odd
    assert rigid_pieces(lone, 0) == [0, 1]


def test_a_leaf_is_rigid_for_an_odd_cactus_beyond_its_own():
    # not very simple: leaf 2 is a one-attachment cactus, reached from bud 3
    # only through leaf 0, whose own part beyond bud 3 has two attachments
    sh = shrub(
        [leaf(), sprig(), leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(1, "end0")],
            [Attachment(1, "end1"), Attachment(2, 0)],
            [Attachment(0, 1), Attachment(4, "end0")],
            [Attachment(0, 2), Attachment(3, 0)],
        ],
    )
    assert not is_very_simple(sh)
    assert rigid_pieces(sh, 3) == [0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_guarded_nodes_of_very_simple_shrubs_have_even_rigid_counts(seed):
    # so a leaf is rigid at a node exactly when the other rigid pieces there
    # are odd in number, and orient_all reads leaf orientations off the
    # node table
    sh = random_very_simple_shrub(random.Random(seed), max_pieces=7)
    for bud, info in classify_buds(sh).buds.items():
        if info.node and not info.odd_bud:
            assert len(rigid_pieces(sh, bud)) % 2 == 0


# -- orientations -------------------------------------------------------------------


def leaf_two_opposed_sprigs():
    return shrub(
        [leaf(), sprig(), sprig()],
        [
            [Attachment(0, 0), Attachment(1, "end0")],
            [Attachment(0, 2), Attachment(2, "end0")],
        ],
    )


def test_orient_all_requires_a_very_simple_shrub():
    unbalanced = shrub(
        [leaf(), sprig()], [[Attachment(0, 0), Attachment(1, "end0")]]
    )
    with pytest.raises(ShrubError):
        orient_all(unbalanced)


def test_through_diameter_chain_with_two_stubs():
    sh = leaf_two_opposed_sprigs()
    cert = orient_all(sh)
    assert cert.orientable
    assert cert.node_orientations == {0: (0, 1), 1: (0, 2)}
    assert cert.piece_orientations == {0: (0, 1)}
    assert len(cert.chains) == 1
    chain = cert.chains[0]
    assert chain.elements == (("node", 0), ("piece", 0), ("node", 1))
    assert sorted(chain.stubs) == [1, 2]
    assert not chain.degenerate
    assert cert.sprig_assignments[1].alternative == "ii"
    assert cert.sprig_assignments[2].alternative == "ii"
    ok, fails = verify_certificate(sh, cert)
    assert ok, fails


def test_sprig_between_two_guarded_nodes_is_a_link():
    base = shrub(
        [leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(2, "end0")],
            [Attachment(1, 0), Attachment(2, "end1")],
        ],
    )
    aug, aux_ids, _ = augment_with_parity_sprigs(base)
    cert = orient_all(aug)
    assert cert.orientable
    # the middle sprig is oriented by its two endpoints
    assert set(cert.piece_orientations[2]) == {0, 1}
    assert cert.sprig_assignments[2].alternative == "iii"
    # one chain spans stub-diameter-sprig-diameter-stub
    assert len(cert.chains) == 1
    assert ("piece", 2) in cert.chains[0].elements
    assert len(cert.chains[0].elements) == 7
    ok, fails = verify_certificate(aug, cert)
    assert ok, fails


def test_node_with_two_dangling_sprigs_forms_a_degenerate_chain():
    sh = shrub(
        [sprig(), sprig()],
        [[Attachment(0, "end0"), Attachment(1, "end0")]],
    )
    cert = orient_all(sh)
    assert cert.orientable
    assert len(cert.chains) == 1
    chain = cert.chains[0]
    assert chain.degenerate
    assert chain.elements == (("node", 0),)
    assert sorted(chain.stubs) == [0, 1]
    assert all(
        a.alternative == "ii" for a in cert.sprig_assignments.values()
    )
    ok, fails = verify_certificate(sh, cert)
    assert ok, fails


def test_four_sprigs_at_one_node_form_two_degenerate_chains():
    sh = ShrubGraph.from_json(X)
    cert = orient_all(sh)
    assert cert.orientable, cert.failures
    assert [(c.elements, c.stubs) for c in cert.chains] == [
        ((("node", 0),), (0, 2)),
        ((("node", 0),), (1, 3)),
    ]
    assert all(c.degenerate for c in cert.chains)
    ok, fails = verify_certificate(sh, cert)
    assert ok, fails


def test_sprig_with_no_guarded_endpoint_is_free():
    sh = ShrubGraph([sprig()], [])
    cert = orient_all(sh)
    assert cert.sprig_assignments[0].alternative == "i"
    ok, fails = verify_certificate(sh, cert)
    assert ok, fails


def test_checker_catches_a_tampered_node_orientation():
    sh = leaf_two_opposed_sprigs()
    cert = orient_all(sh)
    cert.node_orientations[0] = ()
    ok, fails = verify_certificate(sh, cert)
    assert not ok
    assert any("misses rigid piece" in f or "size" in f for f in fails)


def test_checker_catches_a_wrong_alternative():
    sh = leaf_two_opposed_sprigs()
    cert = orient_all(sh)
    from shrubfield.shrub_model import SprigAssignment

    cert.sprig_assignments[1] = SprigAssignment(alternative="i")
    ok, fails = verify_certificate(sh, cert)
    assert not ok


def test_checker_catches_a_dropped_chain():
    sh = leaf_two_opposed_sprigs()
    cert = orient_all(sh)
    tampered = type(cert)(
        node_orientations=cert.node_orientations,
        piece_orientations=cert.piece_orientations,
        chains=(),
        sprig_assignments=cert.sprig_assignments,
        orientable=True,
        failures=(),
    )
    ok, fails = verify_certificate(sh, tampered)
    assert not ok


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_shrubs_orient_and_pass_the_checker(seed):
    rng = random.Random(seed)
    sh = random_very_simple_shrub(rng)
    assert validate(sh).ok
    assert is_very_simple(sh)
    cert = orient_all(sh)
    assert cert.orientable, cert.failures
    ok, fails = verify_certificate(sh, cert)
    assert ok, fails
    for pid in sh.sprig_ids():
        assert cert.sprig_assignments[pid].alternative in ("i", "ii", "iii")


def test_certificate_serializes_to_json():
    cert = orient_all(leaf_two_opposed_sprigs())
    obj = cert.to_json()
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text)["orientable"] is True
    # only the JSON form spells a link as a "kind:id" label
    assert obj["chains"][0]["elements"] == ["node:0", "piece:0", "node:1"]


# -- layout --------------------------------------------------------------------------


def test_lone_leaf_layout_uses_the_frame():
    lay = layout_shrub(ShrubGraph([leaf()], []))
    assert lay.mode == "frame"
    assert lay.placements[0].frame
    assert lay.maximal_segments == ()


def test_two_leaf_layout_is_tangent_inside_the_frame():
    sh = shrub([leaf(), leaf()], [[Attachment(0, 0), Attachment(1, 0)]])
    lay = layout_shrub(sh)
    assert lay.mode == "frame"
    inner = next(p for p in lay.placements.values() if not p.frame)
    c, r = inner.center, inner.radius
    # internally tangent to the unit circle, origin strictly outside
    assert c[0] ** 2 + c[1] ** 2 == (1 - r) ** 2
    assert c[0] ** 2 + c[1] ** 2 > r * r
    # the junction point lies on the unit circle and on the inner leaf
    q = lay.junction_points[0]
    assert q[0] ** 2 + q[1] ** 2 == 1
    assert (q[0] - c[0]) ** 2 + (q[1] - c[1]) ** 2 == r * r


def test_three_leaf_chain_layout_picks_the_busiest_leaf_as_frame():
    sh = shrub(
        [leaf(), leaf(), leaf()],
        [
            [Attachment(0, 0), Attachment(1, 2)],
            [Attachment(1, 0), Attachment(2, 2)],
        ],
    )
    lay = layout_shrub(sh)
    assert lay.mode == "frame"
    assert lay.frame_piece == 1  # two junctions beat one
    inners = [p for p in lay.placements.values() if not p.frame]
    assert len(inners) == 2
    a, b = inners
    d2 = (a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
    assert d2 > (a.radius + b.radius) ** 2  # siblings strictly apart
    for p in inners:
        assert p.center[0] ** 2 + p.center[1] ** 2 == (1 - p.radius) ** 2


def test_four_leaf_path_layout_nests_a_grandchild_exactly():
    sh = shrub(
        [leaf(), leaf(), leaf(), leaf()],
        [
            [Attachment(0, 0), Attachment(1, 2)],
            [Attachment(1, 0), Attachment(2, 2)],
            [Attachment(2, 0), Attachment(3, 2)],
        ],
    )
    lay = layout_shrub(sh)
    assert lay.mode == "frame"
    child = lay.placements[2]
    grandchild = lay.placements[3]
    assert grandchild.radius == child.radius / 4
    d2 = (child.center[0] - grandchild.center[0]) ** 2 + (
        child.center[1] - grandchild.center[1]
    ) ** 2
    assert d2 == (child.radius + grandchild.radius) ** 2  # tangent, exactly


def test_lone_sprig_layout_is_one_ray_to_infinity():
    lay = layout_shrub(ShrubGraph([sprig()], []))
    assert lay.mode == "punctured"
    assert len(lay.maximal_segments) == 1
    seg = lay.maximal_segments[0]
    assert seg.start is None  # the base bud sits at infinity
    assert seg.end is not None
    assert seg.pieces == (("sprig", 0),)
    assert lay.junction_points[lay.base_bud] is None


def test_aligned_sprig_pair_fuses_into_one_segment():
    sh = shrub(
        [sprig(), sprig()],
        [[Attachment(0, "end0"), Attachment(1, "end0")]],
    )
    lay = layout_shrub(sh)
    assert len(lay.maximal_segments) == 1
    seg = lay.maximal_segments[0]
    assert set(seg.pieces) == {("sprig", 0), ("sprig", 1)}
    # one tip is the base at infinity; the shared node lies on the ray's line
    assert seg.start is None
    node_pt = lay.junction_points[0]
    assert node_pt[1] == seg.end[1]


def test_through_diameter_layout_cuts_auxiliary_stubs():
    base = shrub(
        [leaf(), leaf(), sprig()],
        [
            [Attachment(0, 0), Attachment(2, "end0")],
            [Attachment(1, 0), Attachment(2, "end1")],
        ],
    )
    lay = layout_shrub(base)
    assert lay.mode == "punctured"
    assert len(lay.aux_sprigs) == 2
    assert len(lay.maximal_segments) == 3
    main = [s for s in lay.maximal_segments if len(s.pieces) > 1]
    assert len(main) == 1
    kinds = [k for k, _ in main[0].pieces]
    assert kinds == ["diameter", "sprig", "diameter"]
    # the main chain is cut at the punctured representative cusps
    pts = {lay.junction_points[b] for b in lay.punctures}
    assert main[0].start in pts and main[0].end in pts
    # no auxiliary sprig appears in the main chain, but each keeps its own
    # whisker segment in the drawn boundary
    for k, ident in main[0].pieces:
        assert ident not in lay.aux_sprigs
    whisker_ids = {
        ident
        for s in lay.maximal_segments
        if len(s.pieces) == 1
        for k, ident in s.pieces
    }
    assert whisker_ids == set(lay.aux_sprigs)


def test_layout_junction_points_are_exact_rationals():
    sh = leaf_two_opposed_sprigs()
    lay = layout_shrub(sh)
    for bud, pt in lay.junction_points.items():
        if bud == lay.base_bud:
            assert pt is None
            continue
        assert isinstance(pt[0], Fraction) and isinstance(pt[1], Fraction)
    seg = lay.maximal_segments[0]
    # the chain runs straight along its ray's horizontal line
    assert seg.start is None
    for px, py in (seg.end, lay.junction_points[0], lay.junction_points[1]):
        assert py == seg.end[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_layouts_put_segment_endpoints_on_punctures(seed):
    rng = random.Random(seed)
    sh = random_very_simple_shrub(rng, max_pieces=6)
    try:
        lay = layout_shrub(sh)
    except LayoutError:
        return  # structured refusal is an accepted outcome
    if lay.mode != "punctured":
        return
    pts = {lay.junction_points[b] for b in lay.punctures}
    for seg in lay.maximal_segments:
        assert seg.start in pts
        assert seg.end in pts


def _layout_text(value):
    """Canonical text of a layout value: exact rationals as p/q, the point
    at infinity as inf."""
    if value is None:
        return "inf"
    # a map first, so that a tuple-like AffineMap still prints as a map
    if hasattr(value, "matrix"):
        return "A" + _layout_text(value.matrix) + _layout_text(value.offset)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_layout_text(v) for v in value) + ")"
    return str(value)


def _layout_fingerprint(lay):
    lines = [
        f"{lay.mode} base {lay.base_bud} frame {lay.frame_piece} "
        f"aux {_layout_text(lay.aux_sprigs)} punctures {_layout_text(lay.punctures)}"
    ]
    for pid, p in sorted(lay.placements.items()):
        if hasattr(p, "k_layout"):
            lines.append(
                f"leaf {pid} {p.frame} {p.k_layout} {_layout_text(p.affine)} "
                f"{_layout_text(p.center)} {_layout_text(p.radius)}"
            )
        else:
            lines.append(
                f"sprig {pid} {_layout_text(p.start)} {_layout_text(p.end)} "
                f"{pid in lay.aux_sprigs}"
            )
    for bud, point in sorted(lay.junction_points.items()):
        lines.append(f"bud {bud} {_layout_text(point)}")
    # "True True" stands where the digest recorded two flags that every
    # segment had, marking both of its endpoints as punctures
    for seg in lay.maximal_segments:
        lines.append(
            f"segment {_layout_text(seg.start)} {_layout_text(seg.end)} "
            f"True True {seg.pieces!r}"
        )
    return "\n".join(lines)


def test_random_layouts_are_pinned():
    """Every layout (or refusal) of three generated shrubs per seed, for
    seeds 0..99: 238 punctured, 54 frame, 8 refused."""
    texts = []
    modes = {}
    for seed in range(100):
        rng = random.Random(seed)
        for index in range(3):
            try:
                text = _layout_fingerprint(layout_shrub(random_very_simple_shrub(rng)))
            except LayoutError as exc:
                text = f"LayoutError {exc.reason} {exc.detail!r}"
            modes[text.split()[0]] = modes.get(text.split()[0], 0) + 1
            texts.append(f"# {seed} {index}\n{text}")
    assert modes == {"punctured": 238, "frame": 54, "LayoutError": 8}
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == (
        "3d3d429de8065cc749430f8689bb5a0e5c7e14cc4b4766c22c8e3461bb597418"
    )


# four free sprigs meet at one point
X = {
    "pieces": [{"sprig": {}}, {"sprig": {}}, {"sprig": {}}, {"sprig": {}}],
    "junctions": [
        {
            "bud": 0,
            "at": [
                {"piece": 0, "site": "end0"},
                {"piece": 1, "site": "end0"},
                {"piece": 2, "site": "end0"},
                {"piece": 3, "site": "end0"},
            ],
        }
    ],
}

THREE_LEAVES_AT_ONE_CUSP = {
    "pieces": [{"leaf": {"k": 4}}, {"leaf": {"k": 4}}, {"leaf": {"k": 4}}],
    "junctions": [
        {
            "bud": 0,
            "at": [
                {"piece": 0, "site": 0},
                {"piece": 1, "site": 0},
                {"piece": 2, "site": 0},
            ],
        }
    ],
}

# two tangent leaves leave only their common tangent line free at the
# cusp, so no direction is left for the sprig
TWO_LEAVES_AND_SPRIG = {
    "pieces": [{"leaf": {"k": 4}}, {"leaf": {"k": 4}}, {"sprig": {}}],
    "junctions": [
        {
            "bud": 0,
            "at": [
                {"piece": 0, "site": 0},
                {"piece": 1, "site": 0},
                {"piece": 2, "site": "end0"},
            ],
        }
    ],
}

# four sprigs meet at bud 0 and a k = 5 leaf hangs off one of them, so
# the layout takes its sprig directions from the direction fan
STAR = {
    "pieces": [
        {"sprig": {}},
        {"sprig": {}},
        {"sprig": {}},
        {"leaf": {"k": 5}},
        {"sprig": {}},
    ],
    "junctions": [
        {
            "bud": 0,
            "at": [
                {"piece": 0, "site": "end1"},
                {"piece": 1, "site": "end0"},
                {"piece": 2, "site": "end0"},
                {"piece": 4, "site": "end0"},
            ],
        },
        {"bud": 1, "at": [{"piece": 0, "site": "end0"}, {"piece": 3, "site": 0}]},
    ],
}

# two sprigs leave one cusp of a leaf: they form a straight chain, and the
# fan offers the leaf no direction perpendicular to it
VEE = {
    "pieces": [{"leaf": {"k": 4}}, {"sprig": {}}, {"sprig": {}}],
    "junctions": [
        {
            "bud": 0,
            "at": [
                {"piece": 0, "site": 0},
                {"piece": 1, "site": "end0"},
                {"piece": 2, "site": "end0"},
            ],
        }
    ],
}


def test_three_leaves_at_one_point_are_refused():
    # very simple and orientable, but three disks cannot all be tangent at
    # one point
    sh = ShrubGraph.from_json(THREE_LEAVES_AT_ONE_CUSP)
    assert is_very_simple(sh) and orient_all(sh).orientable
    with pytest.raises(LayoutError, match="^more than two leaves meet at one point$"):
        layout_shrub(sh)


def test_two_leaves_and_a_sprig_at_one_point_are_refused():
    with pytest.raises(
        LayoutError, match="^leaves 0 and 1 meet a sprig at one point$"
    ) as refused:
        layout_shrub(ShrubGraph.from_json(TWO_LEAVES_AND_SPRIG))
    assert refused.value.detail == 0


@pytest.mark.parametrize(
    "pair, slots",
    [
        ((10, 11), {10: 0, 11: 2, 12: 3}),
        ((11, 12), {10: 0, 11: 1, 12: 3}),
        ((10, 12), {10: 0, 11: 1, 12: 2}),
    ],
)
def test_three_junctions_put_their_opposed_pair_on_opposite_slots(pair, slots):
    got = _embed_leaf_slots([10, 11, 12], pair)
    assert got == slots and list(got) == [10, 11, 12]
    assert (got[pair[0]] - got[pair[1]]) % 4 == 2


def test_two_junctions_take_opposite_slots():
    assert _embed_leaf_slots([4, 7], None) == {4: 0, 7: 2}
    assert _embed_leaf_slots([4, 7], (4, 7)) == {4: 0, 7: 2}


def test_four_junctions_refuse_an_adjacent_opposed_pair():
    assert _embed_leaf_slots([0, 1, 2, 3], (0, 1)) is None
    assert _embed_leaf_slots([0, 1, 2, 3], (0, 1, 2, 3)) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_crowded_junction_layout_is_pinned():
    lay = layout_shrub(ShrubGraph.from_json(STAR))
    assert lay.mode == "punctured"
    digest = hashlib.sha256(_layout_fingerprint(lay).encode()).hexdigest()
    assert digest == (
        "e34ce2a449af8590a4c08c373759f173839652382233f84e66e0685e29cafc9b"
    )


def test_collision_refusal_names_the_pieces():
    with pytest.raises(LayoutError, match=r"^sprig [12] crosses the disk of leaf 0$"):
        layout_shrub(ShrubGraph.from_json(VEE))
