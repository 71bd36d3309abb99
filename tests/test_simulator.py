import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refground.config import ConfigError, PipelineConfig
from refground.geometry import BoundingBox, CameraIntrinsics
from refground.graph import ObjectGraph
from refground.language import phrase_to_graph, realize, tag, tokenize
from refground.lexicon import COLORS, MATERIALS, default_lexicon
from refground.oracle import oracle_classify
from refground.render import NO_HIT, gt_detections
from refground.simulator import (
    Detection,
    GenerationError,
    PALETTE,
    RoomSpec,
    SceneObject,
    apply_errors,
    emit_instructions,
    generate_room,
    instruction,
    look_at_pose,
    plan_trajectory,
    scene_graphs,
    _SURFACE_CLEARANCE,
    _uniform_draws,
    _xy_boxes_clash,
)

from conftest import render_view

CONFIG = PipelineConfig()
COPIES = {"cup": 2, "table": 1, "desk": 1, "lamp": 1, "sofa": 1}


def manual_room(objects, extents=(6.0, 6.0, 2.5)):
    return RoomSpec(extents, tuple(objects), seed=0, copies={})


def box_obj(oid, cls, x, y, sx, sy, sz, color="red", material="plastic", support=None, z=0.0):
    return SceneObject(
        oid, cls, color, material, (x, y, z), (x + sx, y + sy, z + sz), support
    )


# -- room generation ------------------------------------------------------------


BOUNDS = st.floats(-1e300, 1e300)  # finite, and so is any difference of two


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bounds=st.lists(st.tuples(BOUNDS, BOUNDS), min_size=1, max_size=6))
@example(seed=0, bounds=[(1.5, 1.5), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])  # lo == hi
@example(seed=1, bounds=[(2.0, -3.0), (0.5, 0.25), (1e300, -1e300), (0.3, 0.1)])  # lo > hi
def test_uniform_draws_equal_generator_uniform(seed, bounds):
    """generate_room's draws are Generator.uniform's, bit for bit and in stream order.

    Where Generator.uniform refuses the bounds (numpy 2 refuses a span
    hi - lo with its sign bit set, and draws nothing), generate_room never
    draws: it skips a position whose range is empty, and every class's size
    range has lo < hi.
    """
    assert all(lo < hi for spec in PALETTE.values() for lo, hi in (spec.size_x, spec.size_y, spec.size_z))
    uniform = _uniform_draws(np.random.default_rng(seed))
    reference = np.random.default_rng(seed)
    for lo, hi in bounds:
        try:
            want = reference.uniform(lo, hi)
        except ValueError:
            assert math.copysign(1.0, hi - lo) < 0
            continue
        got = uniform(lo, hi)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (lo, hi, got, want)


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


# Reference: generate_room as it stood with one placement loop for the floor
# and one for supporters, kept unedited but for its name.
def reference_generate_room(
    seed: int, copies: dict[str, int], config: PipelineConfig, min_extent: float = 0.0
) -> RoomSpec:
    """Rejection-sample a room holding `copies`; deterministic under the seed.

    The floor is config.room_x by config.room_y, each side at least
    min_extent. Floor objects are placed largest first with pairwise
    clearance; supported objects go on supporter surfaces, at most one
    object of a class per supporter. Same-class copies keep the configured
    centroid separation.
    """
    for cls_name, count in copies.items():
        if cls_name not in PALETTE:
            raise GenerationError(f"unknown object class {cls_name!r}")
        if not 1 <= count <= 5:
            raise GenerationError(f"copies for {cls_name!r} must be in 1..5, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    uniform = _uniform_draws(rng)
    ex, ey = max(min_extent, config.room_x), max(min_extent, config.room_y)

    order: list[str] = []
    for cls_name in sorted(copies):
        order.extend([cls_name] * copies[cls_name])
    floor_classes = [c for c in order if not PALETTE[c].supported]
    small_classes = [c for c in order if PALETTE[c].supported]
    floor_classes.sort(key=lambda c: -(PALETTE[c].size_x[1] * PALETTE[c].size_y[1]))

    attr_combos: dict[str, list[tuple[str, str]]] = {}
    for cls_name, count in sorted(copies.items()):
        pairs = [(c, m) for c in COLORS for m in MATERIALS]
        idx = rng.permutation(len(pairs))[:count]
        attr_combos[cls_name] = [pairs[i] for i in idx]

    objects: list[SceneObject] = []

    def size_for(cls_name: str) -> tuple[float, float, float]:
        spec = PALETTE[cls_name]
        return uniform(*spec.size_x), uniform(*spec.size_y), uniform(*spec.size_z)

    def next_attrs(cls_name: str) -> tuple[str, str]:
        return attr_combos[cls_name].pop(0)

    def separation_ok(candidate_min, candidate_max, cls_name: str) -> bool:
        cx = 0.5 * (candidate_min[0] + candidate_max[0])
        cy = 0.5 * (candidate_min[1] + candidate_max[1])
        half = 0.5 * max(candidate_max[0] - candidate_min[0], candidate_max[1] - candidate_min[1])
        for other in objects:
            if other.cls != cls_name:
                continue
            ox, oy, _ = other.centroid
            other_half = 0.5 * max(*other.footprint)
            # big same-class bodies need extra spacing or their BEV groups touch
            required = max(config.min_separation, half + other_half + 0.6)
            if math.hypot(cx - ox, cy - oy) < required:
                return False
        return True

    for cls_name in floor_classes:
        placed = False
        for _ in range(config.max_attempts):
            sx, sy, sz = size_for(cls_name)
            lo_x, hi_x = config.wall_margin, ex - config.wall_margin - sx
            lo_y, hi_y = config.wall_margin, ey - config.wall_margin - sy
            if hi_x <= lo_x or hi_y <= lo_y:
                continue
            x0 = uniform(lo_x, hi_x)
            y0 = uniform(lo_y, hi_y)
            bmin, bmax = (x0, y0, 0.0), (x0 + sx, y0 + sy, sz)
            clash = any(
                _xy_boxes_clash(bmin, bmax, o.box_min, o.box_max, config.floor_clearance)
                for o in objects
                if o.support is None
            )
            if clash or not separation_ok(bmin, bmax, cls_name):
                continue
            color, material = next_attrs(cls_name)
            objects.append(SceneObject(len(objects), cls_name, color, material, bmin, bmax))
            placed = True
            break
        if not placed:
            raise GenerationError(
                f"could not place {cls_name!r} after {config.max_attempts} attempts "
                f"(room {ex}x{ey} m, {len(objects)} objects placed)"
            )

    supporters = [o for o in objects if PALETTE[o.cls].supporter]
    surface_load: dict[int, set[str]] = {s.id: set() for s in supporters}

    for cls_name in small_classes:
        if not supporters:
            raise GenerationError(f"{cls_name!r} needs a supporter but the room has none")
        placed = False
        for sup_idx in rng.permutation(len(supporters)):
            supporter = supporters[int(sup_idx)]
            if cls_name in surface_load[supporter.id]:
                continue  # one object per class per surface
            for _ in range(200):
                sx, sy, sz = size_for(cls_name)
                # keep small objects away from the surface edge when room
                # allows: bbox pixels then land on the supporter, not the floor
                free_x = (supporter.box_max[0] - supporter.box_min[0] - sx) / 2.0
                free_y = (supporter.box_max[1] - supporter.box_min[1] - sy) / 2.0
                inset_x = max(config.support_inset, min(0.20, free_x - 0.01))
                inset_y = max(config.support_inset, min(0.20, free_y - 0.01))
                lo_x = supporter.box_min[0] + inset_x
                hi_x = supporter.box_max[0] - inset_x - sx
                lo_y = supporter.box_min[1] + inset_y
                hi_y = supporter.box_max[1] - inset_y - sy
                if hi_x <= lo_x or hi_y <= lo_y:
                    break
                x0 = uniform(lo_x, hi_x)
                y0 = uniform(lo_y, hi_y)
                z0 = supporter.box_max[2]
                bmin, bmax = (x0, y0, z0), (x0 + sx, y0 + sy, z0 + sz)
                clash = any(
                    _xy_boxes_clash(bmin, bmax, o.box_min, o.box_max, _SURFACE_CLEARANCE)
                    for o in objects
                    if o.support == supporter.id
                )
                if clash or not separation_ok(bmin, bmax, cls_name):
                    continue
                color, material = next_attrs(cls_name)
                objects.append(
                    SceneObject(len(objects), cls_name, color, material, bmin, bmax, supporter.id)
                )
                surface_load[supporter.id].add(cls_name)
                placed = True
                break
            if placed:
                break
        if not placed:
            raise GenerationError(
                f"could not place supported object {cls_name!r} on any of "
                f"{len(supporters)} supporters"
            )

    return RoomSpec((ex, ey, config.room_z), tuple(objects), seed, dict(copies))


ROOM_RECIPES = [
    COPIES,
    {"cup": 3, "book": 2, "table": 2, "counter": 1},
    {"chair": 3, "lamp": 2, "desk": 1, "bowl": 1},
    {"cup": 5, "book": 5, "laptop": 2, "plant": 2, "dining table": 1, "desk": 1},
    dict.fromkeys(
        ("cup", "book", "lamp", "bowl", "laptop", "plant", "chair", "armchair", "sofa", "table", "desk", "counter"), 1
    ),
    {"sofa": 5},
    {"cup": 5, "table": 1},
    {"bowl": 1},
]
ROOM_CONFIGS = [
    CONFIG,
    PipelineConfig(room_x=3.0, room_y=3.0, max_attempts=300),
    PipelineConfig(room_x=6.5, room_y=6.5),  # the false-positive bank's room
    PipelineConfig(support_inset=0.2),  # some sizes do not fit some supporters
]


def generation_outcome(generate, seed, copies, config):
    """The room as a dict, or the GenerationError's message."""
    try:
        return generate(seed, copies, config).to_dict()
    except GenerationError as exc:
        return str(exc)


def test_generate_room_matches_two_loop_reference():
    """Rooms and failure messages equal the two-loop code's, draw for draw,
    over placed rooms and every kind of placement failure."""
    failures = {"floor": 0, "supported": 0, "no supporter": 0}
    for config in ROOM_CONFIGS:
        for seed in range(25):
            for copies in ROOM_RECIPES:
                got = generation_outcome(generate_room, seed, copies, config)
                assert got == generation_outcome(reference_generate_room, seed, copies, config)
                if isinstance(got, str):
                    kind = (
                        "no supporter" if "needs a supporter" in got
                        else "supported" if "supported object" in got
                        else "floor"
                    )
                    failures[kind] += 1
    assert all(failures.values()), failures


# -- ground-truth graphs --------------------------------------------------------


def _horizontal_distance(a, b):
    ax, ay, _ = a.centroid
    bx, by, _ = b.centroid
    return math.hypot(ax - bx, ay - by)


def derive_relations(room: RoomSpec, tau_near: float) -> dict[int, list[tuple[str, int]]]:
    """Relational attributes from scene metadata: is-on via support,
    is-near via horizontal centroid distance below tau_near."""
    rel: dict[int, list[tuple[str, int]]] = {o.id: [] for o in room.objects}
    by_id = {o.id: o for o in room.objects}
    for obj in room.objects:
        if obj.support is not None and obj.support in by_id:
            rel[obj.id].append(("is-on", obj.support))
    for a in room.objects:
        for b in room.objects:
            if a.id >= b.id:
                continue
            if a.support == b.id or b.support == a.id:
                continue
            if _horizontal_distance(a, b) < tau_near:
                rel[a.id].append(("is-near", b.id))
                rel[b.id].append(("is-near", a.id))
    return {oid: sorted(edges) for oid, edges in rel.items()}


def preferred_relation(
    room: RoomSpec, obj: SceneObject, relations: dict[int, list[tuple[str, int]]]
) -> tuple[str, SceneObject] | None:
    """The one relational attribute used in captions: is-on wins, else the
    nearest is-near neighbor."""
    by_id = {o.id: o for o in room.objects}
    edges = relations.get(obj.id, [])
    ons = [other for kind, other in edges if kind == "is-on"]
    if ons:
        return "is-on", by_id[ons[0]]
    nears = [by_id[other] for kind, other in edges if kind == "is-near"]
    if nears:
        nears.sort(key=lambda o: (_horizontal_distance(obj, o), o.id))
        return "is-near", nears[0]
    return None


def object_graph(
    room: RoomSpec, obj: SceneObject, relations: dict[int, list[tuple[str, int]]]
) -> ObjectGraph:
    """Full ground-truth graph: class, color, material, one relational edge."""
    rel_attrs = []
    preferred = preferred_relation(room, obj, relations)
    if preferred is not None:
        kind, landmark = preferred
        rel_attrs.append((kind, ObjectGraph.build(landmark.cls)))
    return ObjectGraph.build(obj.cls, [("color", obj.color), ("material", obj.material)], rel_attrs)


def reference_scene_graphs(room: RoomSpec, tau_near: float) -> dict[int, ObjectGraph]:
    """Reference: the relations table and its readers that scene_graphs replaced."""
    relations = derive_relations(room, tau_near)
    return {o.id: object_graph(room, o, relations) for o in room.objects}


def edge(g: ObjectGraph) -> tuple[str, str] | None:
    """The graph's one relational edge as (kind, landmark class), or None."""
    assert len(g.rel_attrs) <= 1
    return next(((kind, child.root) for kind, child in g.rel_attrs), None)


@pytest.mark.parametrize("tau_near", [0.3, 0.75, 1.5, 3.0])
def test_scene_graphs_match_reference_on_seeded_rooms(tau_near):
    recipes = [
        COPIES,
        {"cup": 3, "book": 2, "table": 2, "counter": 1},
        {"chair": 3, "lamp": 2, "desk": 1, "bowl": 1},
    ]
    for seed in range(12):
        room = generate_room(seed, recipes[seed % len(recipes)], CONFIG)
        assert scene_graphs(room, tau_near) == reference_scene_graphs(room, tau_near)


def test_scene_graphs_break_a_distance_tie_by_id():
    # a chair and a sofa exactly 0.5 m either side of the lamp: the lower id wins
    lamp = box_obj(0, "lamp", 2.0, 2.0, 0.25, 0.25, 0.4)
    for chair_id, sofa_id, winner in ((1, 2, "chair"), (2, 1, "sofa")):
        chair = box_obj(chair_id, "chair", 2.5, 2.0, 0.25, 0.25, 0.9)
        sofa = box_obj(sofa_id, "sofa", 1.5, 2.0, 0.25, 0.25, 0.9)
        for objects in ([lamp, chair, sofa], [sofa, chair, lamp]):
            room = manual_room(objects)
            assert edge(scene_graphs(room, 0.75)[0]) == ("is-near", winner)
            assert scene_graphs(room, 0.75) == reference_scene_graphs(room, 0.75)


def test_scene_graphs_prefer_is_on_over_a_closer_floor_neighbour():
    table = box_obj(0, "table", 1.0, 1.0, 1.0, 0.7, 0.75)
    cup = box_obj(1, "cup", 1.85, 1.3, 0.1, 0.1, 0.12, support=0, z=0.75)
    chair = box_obj(2, "chair", 2.05, 1.25, 0.2, 0.2, 0.9)  # 0.25 m from the cup, table 0.4 m
    room = manual_room([table, cup, chair])
    graphs = scene_graphs(room, 0.75)
    assert edge(graphs[1]) == ("is-on", "table")
    unsupported = dataclasses.replace(cup, support=None)
    assert edge(scene_graphs(manual_room([table, unsupported, chair]), 0.75)[1]) == ("is-near", "chair")
    assert graphs == reference_scene_graphs(room, 0.75)


def test_scene_graphs_with_a_support_missing_from_the_room():
    room = RoomSpec.from_dict(
        {
            "extents": [6.0, 6.0, 2.5],
            "seed": 0,
            "objects": [
                box_obj(0, "lamp", 1.0, 1.0, 0.3, 0.3, 0.4).to_dict(),
                box_obj(1, "cup", 1.3, 1.0, 0.1, 0.1, 0.12, support=9, z=0.75).to_dict(),
            ],
        }
    )
    graphs = scene_graphs(room, 0.75)
    assert edge(graphs[1]) == ("is-near", "lamp")
    assert graphs == reference_scene_graphs(room, 0.75)


def test_scene_graphs_never_take_an_object_resting_on_this_one_as_landmark():
    desk = box_obj(0, "desk", 1.0, 1.0, 1.0, 0.6, 0.75)
    book = box_obj(1, "book", 1.4, 1.2, 0.2, 0.15, 0.05, support=0, z=0.75)
    lamp = box_obj(2, "lamp", 2.3, 1.1, 0.3, 0.3, 0.4)  # farther from the desk than the book
    room = manual_room([desk, book, lamp])
    graphs = scene_graphs(room, 1.5)
    assert edge(graphs[0]) == ("is-near", "lamp")
    assert edge(scene_graphs(manual_room([desk, book]), 1.5)[0]) is None
    assert graphs == reference_scene_graphs(room, 1.5)


def test_is_on_from_support():
    table = box_obj(0, "table", 1.0, 1.0, 1.0, 0.7, 0.75)
    cup = box_obj(1, "cup", 1.4, 1.2, 0.1, 0.1, 0.12, support=0, z=0.75)
    graphs = scene_graphs(manual_room([table, cup]), 0.75)
    assert edge(graphs[1]) == ("is-on", "table")
    assert edge(graphs[0]) is None  # the cup resting on it is not its is-near landmark


def test_is_near_is_symmetric():
    a = box_obj(0, "lamp", 1.0, 1.0, 0.3, 0.3, 0.4)
    b = box_obj(1, "chair", 1.5, 1.0, 0.45, 0.45, 0.9)
    graphs = scene_graphs(manual_room([a, b]), tau_near=0.75)
    assert edge(graphs[0]) == ("is-near", "chair") and edge(graphs[1]) == ("is-near", "lamp")


def test_distant_objects_not_near():
    a = box_obj(0, "lamp", 0.5, 0.5, 0.3, 0.3, 0.4)
    b = box_obj(1, "chair", 3.5, 3.5, 0.45, 0.45, 0.9)
    graphs = scene_graphs(manual_room([a, b]), tau_near=0.75)
    assert graphs[0].rel_attrs == () and graphs[1].rel_attrs == ()
    # centroids exactly tau_near apart are not near either
    c = box_obj(1, "chair", 1.25, 0.5, 0.25, 0.25, 0.9)
    room = manual_room([box_obj(0, "lamp", 0.5, 0.5, 0.25, 0.25, 0.4), c])
    assert scene_graphs(room, tau_near=0.75)[0].rel_attrs == ()
    assert scene_graphs(room, tau_near=0.75) == reference_scene_graphs(room, 0.75)


def test_caption_prefers_is_on():
    table = box_obj(0, "table", 1.0, 1.0, 1.0, 0.7, 0.75, color="white", material="wooden")
    cup = box_obj(
        1, "cup", 1.4, 1.2, 0.1, 0.1, 0.12, color="red", material="plastic", support=0, z=0.75
    )
    g = scene_graphs(manual_room([table, cup]), 0.75)[1]
    assert realize(g) == "a red plastic cup on top of a table"
    assert phrase_to_graph(realize(g), default_lexicon()) == g


# -- trajectory --------------------------------------------------------------------


def test_trajectory_count_and_bounds():
    room = generate_room(4, COPIES, CONFIG)
    poses = plan_trajectory(room, dataclasses.replace(CONFIG, n_waypoints=8))
    assert len(poses) == 8
    ex, ey, _ = room.extents
    for pose in poses:
        x, y, z = pose.translation
        assert 0 < x < ex and 0 < y < ey and z > 0


def test_trajectory_deterministic():
    room = generate_room(4, COPIES, CONFIG)
    a = plan_trajectory(room, dataclasses.replace(CONFIG, n_waypoints=8))
    b = plan_trajectory(room, dataclasses.replace(CONFIG, n_waypoints=8))
    assert all(np.array_equal(p.matrix(), q.matrix()) for p, q in zip(a, b))


def test_trajectory_requires_four_waypoints():
    room = generate_room(4, COPIES, CONFIG)
    with pytest.raises(ValueError):
        plan_trajectory(room, dataclasses.replace(CONFIG, n_waypoints=3))


def test_look_at_pose_points_at_target():
    pose = look_at_pose((0.0, 0.0, 2.0), (2.0, 1.0, 0.0))
    target_cam = pose.rotation.T @ (np.array([2.0, 1.0, 0.0]) - pose.translation)
    assert target_cam[2] > 0
    assert abs(target_cam[0]) < 1e-9 and abs(target_cam[1]) < 1e-9


def reference_look_at_pose(eye, target):
    """Reference: look_at_pose with np.cross, kept to compare bytes."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(right) < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=1), eye


def test_look_at_pose_matches_cross_product_bytes():
    rng = np.random.default_rng(8)
    cases = [((1.0, 2.0, 3.0), (1.0, 2.0, 0.5)), ((1.0, 2.0, 0.5), (1.0, 2.0, 3.0))]  # vertical
    for _ in range(400):
        eye = rng.normal(size=3)
        direction = rng.normal(size=3)
        kind = rng.integers(4)
        if kind == 1:  # straight up or down
            direction[:2] = 0.0
        elif kind == 2:  # one component exactly zero
            direction[rng.integers(3)] = 0.0
        target = eye + direction
        if kind == 3:  # components that cancel to -0.0 in target - eye
            zero = rng.random(3) < 0.5
            zero[rng.integers(3)] = False
            eye, target = np.where(zero, 0.0, eye), np.where(zero, -0.0, target)
        cases.append((eye, target))
    for eye, target in cases:
        pose = look_at_pose(eye, target)
        rotation, translation = reference_look_at_pose(eye, target)
        assert pose.rotation.tobytes() == rotation.tobytes()
        assert pose.translation.tobytes() == translation.tobytes()


def test_trajectory_surface_coverage():
    cfg = PipelineConfig()
    covered = total = 0
    for seed in (11, 22):
        copies = {"cup": 2, "table": 1, "desk": 1, "counter": 1, "lamp": 1, "sofa": 1}
        room = generate_room(seed, copies, cfg)
        poses = plan_trajectory(room, cfg)
        K = cfg.intrinsics()
        renders = [render_view(room, p, K, cfg.max_range) for p in poses]
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
    depth, _ = render_view(room, pose, K, max_range=10.0)
    assert abs(float(depth[64, 64]) - 2.0) < 1e-6


def test_render_empty_scene_all_zero():
    room = manual_room([])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=32.0, cy=32.0, width=64, height=64)
    pose = look_at_pose((3.0, 3.0, 1.2), (5.0, 3.0, 1.0))
    depth, winner = render_view(room, pose, K, max_range=10.0, include_structure=False)
    assert not depth.any()
    assert (winner == NO_HIT).all()


def test_render_occlusion_reports_nearer_box():
    near = box_obj(0, "chair", 2.5, 2.7, 0.6, 0.6, 1.0)
    far = box_obj(1, "sofa", 4.0, 2.5, 1.0, 1.0, 1.0)
    room = manual_room([near, far])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((1.0, 3.0, 1.0), (4.5, 3.0, 0.5))
    depth, winner = render_view(room, pose, K, max_range=10.0)
    center = float(depth[64, 64])
    assert winner[64, 64] == 0
    assert center == pytest.approx(1.5, abs=0.1)
    assert not (winner == 1)[60:68, 60:68].any()


def test_render_beyond_max_range_is_invalid():
    room = manual_room([])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=32.0, cy=32.0, width=64, height=64)
    pose = look_at_pose((1.0, 3.0, 1.2), (6.0, 3.0, 1.2))  # wall 5 m ahead
    depth, winner = render_view(room, pose, K, max_range=2.0)
    assert float(depth[32, 32]) == 0.0
    assert winner[32, 32] == NO_HIT


# -- detections --------------------------------------------------------------------


def _captions(room):
    return {oid: realize(g) for oid, g in scene_graphs(room, 0.75).items()}


def _whole_frame(room, winner):
    """Every object's scan rectangle as the whole frame."""
    h, w = winner.shape
    return np.array([(0, w, 0, h)] * len(room.objects))


def test_fully_occluded_object_not_detected():
    near = box_obj(0, "sofa", 2.0, 2.0, 1.6, 1.0, 1.2)
    hidden = box_obj(1, "cup", 4.2, 2.4, 0.1, 0.1, 0.12)
    room = manual_room([near, hidden])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((0.5, 2.5, 0.6), (4.3, 2.45, 0.1))
    _, winner = render_view(room, pose, K, 10.0)
    dets = gt_detections(room, winner, _captions(room), 25, _whole_frame(room, winner))
    assert all(d.gt_object_id != 1 for d in dets)


def test_detection_caption_and_clamping():
    table = box_obj(0, "table", 2.0, 2.0, 1.1, 0.7, 0.75, color="white", material="wooden")
    cup = box_obj(1, "cup", 2.4, 2.3, 0.12, 0.12, 0.14, support=0, z=0.75)
    room = manual_room([table, cup])
    K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)
    pose = look_at_pose((2.5, 0.8, 1.8), (2.5, 2.4, 0.6))
    _, winner = render_view(room, pose, K, 10.0)
    dets = gt_detections(room, winner, _captions(room), 25, _whole_frame(room, winner))
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
    _, winner = render_view(room, pose, K, 10.0)
    few = gt_detections(room, winner, _captions(room), 10_000, _whole_frame(room, winner))
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
            assert gt_detections(room, winner, captions, min_pixels, _whole_frame(room, winner)) == want


# -- error models -------------------------------------------------------------------


CS, SD, FN, FP = (frozenset({model}) for model in ("cs", "sd", "fn", "fp"))


def noisy(dets, frame, config, models, bank=()):
    return apply_errors(dets, frame, 128, 128, config, models, bank)


DETS = [
    Detection(BoundingBox(20.0, 20.0, 40.0, 44.0), "a red cup", 0),
    Detection(BoundingBox(70.0, 60.0, 100.0, 90.0), "a sofa", 1),
]


def test_no_models_leave_detections_as_they_are():
    assert noisy(DETS, 0, PipelineConfig(seed=0), frozenset()) == DETS


def test_all_deleted_at_p_fn_one():
    assert noisy(DETS, 0, PipelineConfig(seed=0, p_fn=1.0), FN) == []


def test_models_with_zero_parameters_do_not_run():
    config = PipelineConfig(seed=0, mu_c=0.0, sigma_c=0.0, mu_s=0.0, sigma_s=0.0, p_fn=0.0, p_fp=0.0)
    bank = ((BoundingBox(10.0, 10.0, 30.0, 30.0), "a blue lamp"),)
    assert noisy(DETS, 0, config, frozenset({"cs", "sd", "fn", "fp"}), bank) == DETS


def test_false_positives_refuse_an_empty_bank():
    with pytest.raises(ValueError, match="observation bank is empty"):
        noisy(DETS, 0, PipelineConfig(seed=0, p_fp=1.0), FP)
    # a model that does not run needs no bank
    assert noisy(DETS, 0, PipelineConfig(seed=0, p_fp=0.0), FP) == DETS
    assert noisy(DETS, 0, PipelineConfig(seed=0, p_fp=1.0), frozenset()) == DETS


def test_errors_deterministic_per_seed_and_frame():
    cfg = PipelineConfig(mu_c=0.2, sigma_c=0.04, mu_s=0.2, sigma_s=0.04, p_fn=0.15, seed=5)
    models = frozenset({"cs", "sd", "fn"})
    assert noisy(DETS, 3, cfg, models) == noisy(DETS, 3, cfg, models)
    assert noisy(DETS, 3, cfg, models) != noisy(DETS, 4, cfg, models)


def test_centroid_shift_statistics():
    cfg = PipelineConfig(mu_c=0.2, sigma_c=0.04, seed=11)
    det = Detection(BoundingBox(40.0, 40.0, 80.0, 80.0), "a cup", 0)
    area = det.bbox.area
    shifts = []
    for frame in range(10_000):
        (out,) = noisy([det], frame, cfg, CS)
        du = out.bbox.center[0] - det.bbox.center[0]
        dv = out.bbox.center[1] - det.bbox.center[1]
        shifts.append(math.hypot(du, dv))
    assert np.mean(shifts) / math.sqrt(area) == pytest.approx(0.2, abs=0.01)


def test_shape_distortion_statistics():
    cfg = PipelineConfig(mu_s=0.2, sigma_s=0.04, seed=12)
    det = Detection(BoundingBox(50.0, 50.0, 70.0, 70.0), "a cup", 0)
    changes = []
    for frame in range(10_000):
        (out,) = noisy([det], frame, cfg, SD)
        changes.append(abs(out.bbox.width / det.bbox.width - 1.0))
    assert np.mean(changes) == pytest.approx(0.2, abs=0.01)


def test_false_negative_rate():
    cfg = PipelineConfig(p_fn=0.15, seed=13)
    det = Detection(BoundingBox(50.0, 50.0, 70.0, 70.0), "a cup", 0)
    deleted = sum(not noisy([det], frame, cfg, FN) for frame in range(10_000))
    assert deleted / 10_000 == pytest.approx(0.15, abs=0.01)


def test_false_positive_rate_and_payload():
    bank = ((BoundingBox(10.0, 10.0, 30.0, 30.0), "a blue lamp"),)
    cfg = PipelineConfig(p_fp=0.15, seed=14)
    injected = 0
    for frame in range(10_000):
        out = noisy([DETS[0]], frame, cfg, FP, bank)
        extra = [d for d in out if d.gt_object_id is None]
        injected += len(extra)
        for d in extra:
            assert d.caption == "a blue lamp"
    assert injected / 10_000 == pytest.approx(0.15, abs=0.01)


def test_false_positive_per_detection_mode():
    bank = ((BoundingBox(10.0, 10.0, 30.0, 30.0), "a blue lamp"),)
    cfg = PipelineConfig(p_fp=1.0, seed=15, fp_per_detection=True)
    out = noisy(DETS, 0, cfg, FP, bank)
    assert sum(d.gt_object_id is None for d in out) == len(DETS)


def test_boxes_clamped_to_frame():
    cfg = PipelineConfig(mu_c=0.9, sigma_c=0.2, seed=16)
    det = Detection(BoundingBox(0.0, 0.0, 127.0, 127.0), "a sofa", 0)
    for frame in range(50):
        for out in noisy([det], frame, cfg, CS):
            assert 0 <= out.bbox.u_min < out.bbox.u_max <= 128
            assert 0 <= out.bbox.v_min < out.bbox.v_max <= 128


def test_noise_models_refuse_out_of_range_parameters_without_validate():
    with pytest.raises(ConfigError, match="p_fn must lie in"):
        PipelineConfig(p_fn=1.5).noise_models("all")
    with pytest.raises(ConfigError, match="sigma_c must be non-negative"):
        PipelineConfig(sigma_c=-0.1).noise_models("all")


def test_noise_models_refuse_an_unknown_preset():
    with pytest.raises(ConfigError, match="unknown noise preset 'loud'"):
        PipelineConfig().noise_models("loud")


# -- instructions --------------------------------------------------------------------


def test_instructions_cover_types_and_parse():
    room = generate_room(6, COPIES, CONFIG)
    lexicon = default_lexicon()
    cases = emit_instructions(room, scene_graphs(room, 0.75))
    types = {c.re_type for c in cases}
    assert {"self", "self+rel", "bare", "missing"} <= types
    for case in cases:
        assert phrase_to_graph(case.text, lexicon) == case.graph


@pytest.mark.parametrize(
    "args, text",
    [
        (("pick up", "dining table", None, None), "pick up a dining table"),
        (("grab", "armchair", ("color", "orange"), None), "grab an orange armchair"),
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
    assert list(labels) == tag(tokenize(text), lexicon)
    assert graph == phrase_to_graph(text, lexicon)


def test_instruction_expected_states_match_oracle():
    room = generate_room(6, COPIES, CONFIG)
    relations = derive_relations(room, 0.75)
    graphs = {
        cls: [object_graph(room, o, relations) for o in room.objects_of(cls)]
        for cls in room.classes()
    }
    for case in emit_instructions(room, scene_graphs(room, 0.75)):
        state, _ = oracle_classify(case.graph, graphs.get(case.target_class, []))
        assert case.expected_state == state.value


def test_bare_instruction_on_multicopy_class_is_ambiguous():
    room = generate_room(8, COPIES, CONFIG)
    cases = emit_instructions(room, scene_graphs(room, 0.75))
    bare_cup = [c for c in cases if c.re_type == "bare" and c.target_class == "cup"]
    assert bare_cup and bare_cup[0].expected_state == "inform-ambiguity"


def test_missing_probe_targets_absent_class():
    room = generate_room(6, COPIES, CONFIG)
    cases = emit_instructions(room, scene_graphs(room, 0.75))
    probe = [c for c in cases if c.re_type == "missing"]
    assert probe and probe[0].target_class not in room.classes()
    assert probe[0].expected_state == "inform-missing"


def test_instruction_case_round_trip():
    room = generate_room(6, COPIES, CONFIG)
    cases = emit_instructions(room, scene_graphs(room, 0.75))
    from refground.simulator import InstructionCase

    for case in cases:
        assert InstructionCase.from_dict(case.to_dict()) == case


def test_room_spec_round_trip():
    room = generate_room(6, COPIES, CONFIG)
    assert RoomSpec.from_dict(room.to_dict()).to_dict() == room.to_dict()


def test_room_spec_refuses_two_objects_with_one_id():
    # each object's graph and caption is looked up by its id
    objects = [box_obj(0, "cup", 1.0, 1.0, 0.1, 0.1, 0.1), box_obj(0, "cup", 4.0, 4.0, 0.1, 0.1, 0.1)]
    with pytest.raises(ValueError, match=r"object ids must be unique, got \[0, 0\]"):
        RoomSpec.from_dict(manual_room(objects).to_dict())


def test_room_spec_refuses_an_object_on_itself():
    # its is-on edge would caption it "on top of" its own class
    cup = box_obj(0, "cup", 1.0, 1.0, 0.1, 0.1, 0.1, support=0)
    with pytest.raises(ValueError, match=r"object 0 is its own support"):
        RoomSpec.from_dict(manual_room([cup]).to_dict())
