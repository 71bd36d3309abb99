import math

import numpy as np
import pytest

from refground.config import PipelineConfig
from refground.geometry import BoundingBox, CameraIntrinsics
from refground.language import phrase_to_graph, tag, tokenize
from refground.lexicon import default_lexicon
from refground.oracle import oracle_classify
from refground.render import NO_HIT, gt_detections, render_scene
from refground.simulator import (
    Detection,
    ErrorConfig,
    FrameContext,
    GenerationError,
    RoomSpec,
    SceneObject,
    apply_errors,
    caption_for,
    derive_relations,
    emit_instructions,
    generate_room,
    instruction,
    look_at_pose,
    object_graph,
    plan_trajectory,
)

CONFIG = PipelineConfig()
COPIES = {"cup": 2, "table": 1, "desk": 1, "lamp": 1, "sofa": 1}


def manual_room(objects, extents=(6.0, 6.0, 2.5)):
    return RoomSpec(extents, tuple(objects), seed=0, copies={})


def box_obj(oid, cls, x, y, sx, sy, sz, color="red", material="plastic", support=None, z=0.0):
    return SceneObject(
        oid, cls, color, material, (x, y, z), (x + sx, y + sy, z + sz), support
    )


# -- room generation ------------------------------------------------------------


def test_generate_room_deterministic():
    a = generate_room(42, COPIES, CONFIG)
    b = generate_room(42, COPIES, CONFIG)
    assert a.to_dict() == b.to_dict()


def test_generate_room_copies_and_separation():
    room = generate_room(7, COPIES, CONFIG)
    cups = room.objects_of("cup")
    assert len(cups) == 2
    (a, b) = cups
    ax, ay, _ = a.centroid
    bx, by, _ = b.centroid
    assert math.hypot(ax - bx, ay - by) >= 1.0


def test_generate_room_within_extents():
    room = generate_room(3, COPIES, CONFIG)
    ex, ey, ez = room.extents
    for obj in room.objects:
        assert 0 <= obj.box_min[0] and obj.box_max[0] <= ex
        assert 0 <= obj.box_min[1] and obj.box_max[1] <= ey
        assert obj.box_max[2] <= ez


def test_generate_room_support_containment():
    room = generate_room(5, COPIES, CONFIG)
    by_id = {o.id: o for o in room.objects}
    supported = [o for o in room.objects if o.support is not None]
    assert supported, "expected supported objects in this recipe"
    for obj in supported:
        sup = by_id[obj.support]
        assert obj.box_min[2] == pytest.approx(sup.box_max[2])
        assert sup.box_min[0] <= obj.box_min[0] and obj.box_max[0] <= sup.box_max[0]
        assert sup.box_min[1] <= obj.box_min[1] and obj.box_max[1] <= sup.box_max[1]


def test_generate_room_floor_objects_keep_clearance():
    room = generate_room(9, COPIES, CONFIG)
    floor = [o for o in room.objects if o.support is None]
    for i, a in enumerate(floor):
        for b in floor[i + 1 :]:
            gap_x = max(a.box_min[0] - b.box_max[0], b.box_min[0] - a.box_max[0])
            gap_y = max(a.box_min[1] - b.box_max[1], b.box_min[1] - a.box_max[1])
            assert max(gap_x, gap_y) > 0, f"{a.cls} and {b.cls} interpenetrate"


def test_packing_infeasible_raises():
    with pytest.raises(GenerationError):
        generate_room(1, {"sofa": 5}, PipelineConfig(room_x=3.0, room_y=3.0))


def test_copies_bounds_validated():
    with pytest.raises(GenerationError):
        generate_room(0, {"cup": 6}, CONFIG)
    with pytest.raises(GenerationError):
        generate_room(0, {"spaceship": 1}, CONFIG)


# -- relations -------------------------------------------------------------------


def test_is_on_from_support():
    table = box_obj(0, "table", 1.0, 1.0, 1.0, 0.7, 0.75)
    cup = box_obj(1, "cup", 1.4, 1.2, 0.1, 0.1, 0.12, support=0, z=0.75)
    rel = derive_relations(manual_room([table, cup]), 0.75)
    assert ("is-on", 0) in rel[1]
    assert all(kind != "is-near" for kind, _ in rel[1] if _ == 0)


def test_is_near_is_symmetric():
    a = box_obj(0, "lamp", 1.0, 1.0, 0.3, 0.3, 0.4)
    b = box_obj(1, "chair", 1.5, 1.0, 0.45, 0.45, 0.9)
    rel = derive_relations(manual_room([a, b]), tau_near=0.75)
    assert ("is-near", 1) in rel[0] and ("is-near", 0) in rel[1]


def test_distant_objects_not_near():
    a = box_obj(0, "lamp", 0.5, 0.5, 0.3, 0.3, 0.4)
    b = box_obj(1, "chair", 3.5, 3.5, 0.45, 0.45, 0.9)
    rel = derive_relations(manual_room([a, b]), tau_near=0.75)
    assert rel[0] == [] and rel[1] == []


def test_caption_prefers_is_on():
    table = box_obj(0, "table", 1.0, 1.0, 1.0, 0.7, 0.75, color="white", material="wooden")
    cup = box_obj(
        1, "cup", 1.4, 1.2, 0.1, 0.1, 0.12, color="red", material="plastic", support=0, z=0.75
    )
    room = manual_room([table, cup])
    rel = derive_relations(room, 0.75)
    assert caption_for(room, cup, rel) == "a red plastic cup on top of a table"
    g = object_graph(room, cup, rel)
    assert phrase_to_graph(caption_for(room, cup, rel), default_lexicon()) == g


# -- trajectory --------------------------------------------------------------------


def test_trajectory_count_and_bounds():
    room = generate_room(4, COPIES, CONFIG)
    poses = plan_trajectory(room, CONFIG, 8)
    assert len(poses) == 8
    ex, ey, _ = room.extents
    for pose in poses:
        x, y, z = pose.translation
        assert 0 < x < ex and 0 < y < ey and z > 0


def test_trajectory_deterministic():
    room = generate_room(4, COPIES, CONFIG)
    a = plan_trajectory(room, CONFIG, 8)
    b = plan_trajectory(room, CONFIG, 8)
    assert all(np.array_equal(p.matrix(), q.matrix()) for p, q in zip(a, b))


def test_trajectory_requires_four_waypoints():
    room = generate_room(4, COPIES, CONFIG)
    with pytest.raises(ValueError):
        plan_trajectory(room, CONFIG, 3)


def test_look_at_pose_points_at_target():
    pose = look_at_pose((0.0, 0.0, 2.0), (2.0, 1.0, 0.0))
    target_cam = pose.rotation.T @ (np.array([2.0, 1.0, 0.0]) - pose.translation)
    assert target_cam[2] > 0
    assert abs(target_cam[0]) < 1e-9 and abs(target_cam[1]) < 1e-9


def test_trajectory_surface_coverage():
    cfg = PipelineConfig()
    covered = total = 0
    for seed in (11, 22):
        copies = {"cup": 2, "table": 1, "desk": 1, "counter": 1, "lamp": 1, "sofa": 1}
        room = generate_room(seed, copies, cfg)
        poses = plan_trajectory(room, cfg, cfg.n_waypoints)
        K = cfg.intrinsics()
        renders = [render_scene(room, p, K, cfg.max_range) for p in poses]
        for obj in room.objects:
            bmin, bmax = np.array(obj.box_min), np.array(obj.box_max)
            xs = np.linspace(bmin[0] + 0.01, bmax[0] - 0.01, 4)
            ys = np.linspace(bmin[1] + 0.01, bmax[1] - 0.01, 4)
            pts = [(x, y, bmax[2] - 0.005) for x in xs for y in ys]
            zb = bmax[2] - 0.25 * (bmax[2] - bmin[2])
            pts += [(x, bmin[1] + 0.005, zb) for x in xs] + [(x, bmax[1] - 0.005, zb) for x in xs]
            pts += [(bmin[0] + 0.005, y, zb) for y in ys] + [(bmax[0] - 0.005, y, zb) for y in ys]
            for p in pts:
                total += 1
                for pose, (depth, _) in zip(poses, renders):
                    pc = pose.rotation.T @ (np.array(p) - pose.translation)
                    if pc[2] <= 0.05 or pc[2] > cfg.max_range:
                        continue
                    u = K.fx * pc[0] / pc[2] + K.cx
                    v = K.fy * pc[1] / pc[2] + K.cy
                    ui, vi = int(u), int(v)
                    if not (0 <= ui < K.width and 0 <= vi < K.height):
                        continue
                    if abs(float(depth[vi, ui]) - pc[2]) < 0.08:
                        covered += 1
                        break
    assert covered / total >= 0.95


# -- rendering ---------------------------------------------------------------------


def test_render_frontal_wall_depth():
    room = manual_room([], extents=(6.0, 6.0, 2.5))
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((4.0, 3.0, 1.2), (6.0, 3.0, 1.2))  # facing the x=6 wall, 2 m away
    depth, _ = render_scene(room, pose, K, max_range=10.0)
    assert abs(float(depth[64, 64]) - 2.0) < 1e-6


def test_render_empty_scene_all_zero():
    room = manual_room([])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=32.0, cy=32.0, width=64, height=64)
    pose = look_at_pose((3.0, 3.0, 1.2), (5.0, 3.0, 1.0))
    depth, winner = render_scene(room, pose, K, max_range=10.0, include_structure=False)
    assert not depth.any()
    assert (winner == NO_HIT).all()


def test_render_occlusion_reports_nearer_box():
    near = box_obj(0, "chair", 2.5, 2.7, 0.6, 0.6, 1.0)
    far = box_obj(1, "sofa", 4.0, 2.5, 1.0, 1.0, 1.0)
    room = manual_room([near, far])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((1.0, 3.0, 1.0), (4.5, 3.0, 0.5))
    depth, winner = render_scene(room, pose, K, max_range=10.0)
    center = float(depth[64, 64])
    assert winner[64, 64] == 0
    assert center == pytest.approx(1.5, abs=0.1)
    assert not (winner == 1)[60:68, 60:68].any()


def test_render_beyond_max_range_is_invalid():
    room = manual_room([])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=32.0, cy=32.0, width=64, height=64)
    pose = look_at_pose((1.0, 3.0, 1.2), (6.0, 3.0, 1.2))  # wall 5 m ahead
    depth, winner = render_scene(room, pose, K, max_range=2.0)
    assert float(depth[32, 32]) == 0.0
    assert winner[32, 32] == NO_HIT


# -- detections --------------------------------------------------------------------


def _captions(room):
    rel = derive_relations(room, 0.75)
    return {o.id: caption_for(room, o, rel) for o in room.objects}


def test_fully_occluded_object_not_detected():
    near = box_obj(0, "sofa", 2.0, 2.0, 1.6, 1.0, 1.2)
    hidden = box_obj(1, "cup", 4.2, 2.4, 0.1, 0.1, 0.12)
    room = manual_room([near, hidden])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((0.5, 2.5, 0.6), (4.3, 2.45, 0.1))
    _, winner = render_scene(room, pose, K, 10.0)
    dets = gt_detections(room, winner, _captions(room), min_pixels=25)
    assert all(d.gt_object_id != 1 for d in dets)


def test_detection_caption_and_clamping():
    table = box_obj(0, "table", 2.0, 2.0, 1.1, 0.7, 0.75, color="white", material="wooden")
    cup = box_obj(1, "cup", 2.4, 2.3, 0.12, 0.12, 0.14, support=0, z=0.75)
    room = manual_room([table, cup])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((2.5, 0.8, 1.8), (2.5, 2.4, 0.6))
    _, winner = render_scene(room, pose, K, 10.0)
    dets = gt_detections(room, winner, _captions(room), min_pixels=25)
    by_id = {d.gt_object_id: d for d in dets}
    assert by_id[1].caption == "a red plastic cup on top of a table"
    for d in dets:
        assert 0 <= d.bbox.u_min < d.bbox.u_max <= K.width
        assert 0 <= d.bbox.v_min < d.bbox.v_max <= K.height


def test_min_pixels_threshold():
    tiny = box_obj(0, "cup", 3.0, 3.0, 0.1, 0.1, 0.12)
    room = manual_room([tiny])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((0.5, 3.0, 1.5), (3.0, 3.0, 0.1))
    _, winner = render_scene(room, pose, K, 10.0)
    few = gt_detections(room, winner, _captions(room), min_pixels=10_000)
    assert few == []


def test_detections_match_per_object_scan_of_winner_map():
    """One pass over the map gives each object's tight box, as a scan per object would."""
    rng = np.random.default_rng(5)
    objects = [box_obj(i, "cup", 0.5 * i, 1.0, 0.1, 0.1, 0.1) for i in range(6)]
    room = manual_room(objects)
    captions = {o.id: f"a cup {o.id}" for o in objects}
    for _ in range(40):
        winner = rng.choice(np.arange(-2, 6), size=(30, 48), p=rng.dirichlet(np.ones(8) * 0.3))
        for min_pixels in (0, 1, 25):
            want = []
            for idx, obj in enumerate(objects):
                ys, xs = np.nonzero(winner == idx)
                if xs.size and xs.size >= min_pixels:
                    bbox = BoundingBox(float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1))
                    want.append(Detection(bbox, captions[obj.id], obj.id))
            assert gt_detections(room, winner, captions, min_pixels) == want


# -- error models -------------------------------------------------------------------


def ctx(frame=0, bank=(), stream=0):
    return FrameContext(frame, 128, 128, bank, stream)


DETS = [
    Detection(BoundingBox(20.0, 20.0, 40.0, 44.0), "a red cup", 0),
    Detection(BoundingBox(70.0, 60.0, 100.0, 90.0), "a sofa", 1),
]


def test_identity_error_config():
    assert apply_errors(DETS, ctx(), ErrorConfig()) == DETS


def test_all_deleted_at_p_fn_one():
    assert apply_errors(DETS, ctx(), ErrorConfig(p_fn=1.0)) == []


def test_errors_deterministic_per_seed_and_frame():
    cfg = ErrorConfig(mu_c=0.2, sigma_c=0.04, mu_s=0.2, sigma_s=0.04, p_fn=0.15, seed=5)
    assert apply_errors(DETS, ctx(3), cfg) == apply_errors(DETS, ctx(3), cfg)
    assert apply_errors(DETS, ctx(3), cfg) != apply_errors(DETS, ctx(4), cfg)


def test_centroid_shift_statistics():
    cfg = ErrorConfig(mu_c=0.2, sigma_c=0.04, seed=11)
    det = Detection(BoundingBox(40.0, 40.0, 80.0, 80.0), "a cup", 0)
    area = det.bbox.area
    shifts = []
    for frame in range(10_000):
        (out,) = apply_errors([det], ctx(frame), cfg)
        du = out.bbox.center[0] - det.bbox.center[0]
        dv = out.bbox.center[1] - det.bbox.center[1]
        shifts.append(math.hypot(du, dv))
    assert np.mean(shifts) / math.sqrt(area) == pytest.approx(0.2, abs=0.01)


def test_shape_distortion_statistics():
    cfg = ErrorConfig(mu_s=0.2, sigma_s=0.04, seed=12)
    det = Detection(BoundingBox(50.0, 50.0, 70.0, 70.0), "a cup", 0)
    changes = []
    for frame in range(10_000):
        (out,) = apply_errors([det], ctx(frame), cfg)
        changes.append(abs(out.bbox.width / det.bbox.width - 1.0))
    assert np.mean(changes) == pytest.approx(0.2, abs=0.01)


def test_false_negative_rate():
    cfg = ErrorConfig(p_fn=0.15, seed=13)
    det = Detection(BoundingBox(50.0, 50.0, 70.0, 70.0), "a cup", 0)
    deleted = sum(not apply_errors([det], ctx(frame), cfg) for frame in range(10_000))
    assert deleted / 10_000 == pytest.approx(0.15, abs=0.01)


def test_false_positive_rate_and_payload():
    bank = ((BoundingBox(10.0, 10.0, 30.0, 30.0), "a blue lamp"),)
    cfg = ErrorConfig(p_fp=0.15, seed=14)
    injected = 0
    for frame in range(10_000):
        out = apply_errors([DETS[0]], ctx(frame, bank=bank), cfg)
        extra = [d for d in out if d.gt_object_id is None]
        injected += len(extra)
        for d in extra:
            assert d.caption == "a blue lamp"
    assert injected / 10_000 == pytest.approx(0.15, abs=0.01)


def test_false_positive_per_detection_mode():
    bank = ((BoundingBox(10.0, 10.0, 30.0, 30.0), "a blue lamp"),)
    cfg = ErrorConfig(p_fp=1.0, seed=15, fp_per_detection=True)
    out = apply_errors(DETS, ctx(0, bank=bank), cfg)
    assert sum(d.gt_object_id is None for d in out) == len(DETS)


def test_boxes_clamped_to_frame():
    cfg = ErrorConfig(mu_c=0.9, sigma_c=0.2, seed=16)
    det = Detection(BoundingBox(0.0, 0.0, 127.0, 127.0), "a sofa", 0)
    for frame in range(50):
        for out in apply_errors([det], ctx(frame), cfg):
            assert 0 <= out.bbox.u_min < out.bbox.u_max <= 128
            assert 0 <= out.bbox.v_min < out.bbox.v_max <= 128


def test_error_config_validation():
    with pytest.raises(ValueError):
        ErrorConfig(p_fn=1.5)
    with pytest.raises(ValueError):
        ErrorConfig(sigma_c=-0.1)


# -- instructions --------------------------------------------------------------------


def test_instructions_cover_types_and_parse():
    room = generate_room(6, COPIES, CONFIG)
    relations = derive_relations(room, 0.75)
    lexicon = default_lexicon()
    cases = emit_instructions(room, relations)
    types = {c.re_type for c in cases}
    assert {"self", "self+rel", "bare", "missing"} <= types
    for case in cases:
        assert phrase_to_graph(case.text, lexicon) == case.graph


@pytest.mark.parametrize(
    "args, text",
    [
        (("pick up", "dining table"), "pick up a dining table"),
        (("grab", "armchair", ("color", "orange")), "grab an orange armchair"),
        (
            ("bring me", "cup", ("material", "wooden"), ("is-on", "dining table")),
            "bring me the wooden cup on the dining table",
        ),
    ],
)
def test_instruction_templates_match_tagger_and_parser(args, text):
    lexicon = default_lexicon()
    got, labels, graph = instruction(*args)
    assert got == text
    assert list(labels) == [str(lab) for lab in tag(tokenize(text), lexicon)]
    assert graph == phrase_to_graph(text, lexicon)


def test_instruction_expected_states_match_oracle():
    room = generate_room(6, COPIES, CONFIG)
    relations = derive_relations(room, 0.75)
    graphs = {
        cls: [object_graph(room, o, relations) for o in room.objects_of(cls)]
        for cls in room.classes()
    }
    for case in emit_instructions(room, relations):
        state, _ = oracle_classify(case.graph, graphs.get(case.target_class, []))
        assert case.expected_state == state.value


def test_bare_instruction_on_multicopy_class_is_ambiguous():
    room = generate_room(8, COPIES, CONFIG)
    relations = derive_relations(room, 0.75)
    cases = emit_instructions(room, relations)
    bare_cup = [c for c in cases if c.re_type == "bare" and c.target_class == "cup"]
    assert bare_cup and bare_cup[0].expected_state == "inform-ambiguity"


def test_missing_probe_targets_absent_class():
    room = generate_room(6, COPIES, CONFIG)
    cases = emit_instructions(room, derive_relations(room, 0.75))
    probe = [c for c in cases if c.re_type == "missing"]
    assert probe and probe[0].target_class not in room.classes()
    assert probe[0].expected_state == "inform-missing"


def test_instruction_case_round_trip():
    room = generate_room(6, COPIES, CONFIG)
    cases = emit_instructions(room, derive_relations(room, 0.75))
    from refground.simulator import InstructionCase

    for case in cases:
        assert InstructionCase.from_dict(case.to_dict()) == case


def test_room_spec_round_trip():
    room = generate_room(6, COPIES, CONFIG)
    assert RoomSpec.from_dict(room.to_dict()).to_dict() == room.to_dict()
