"""The culled renderer against a frozen copy of the dense one, to the byte;
batched pixel rectangles and the detections that read them against their
references."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refground.config import PipelineConfig
from refground.evaluation import DIALOGUE_MULTI, _generate_with_retries
from refground.episodes import trajectory_frames
from refground.geometry import BoundingBox, CameraIntrinsics
from refground.language import realize
from refground.render import (
    NO_HIT, STRUCTURE_ID, _pixel_rects, gt_detections, render_scene, render_setup, scene_boxes,
)
from refground.simulator import Detection, RoomSpec, SceneObject, look_at_pose, plan_trajectory, scene_graphs

from conftest import render_view, view_setup

RANGES = (1.0, 2.0, 2.4, 10.0)
K = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=64.0, width=128, height=128)


def dense_render_scene(room, pose, intrinsics, max_range=10.0, include_structure=True):
    """The renderer before culling: every pixel's ray against every box at once."""
    return dense_render_with_hits(room, pose, intrinsics, max_range, include_structure)[:2]


def dense_render_with_hits(room, pose, intrinsics, max_range=10.0, include_structure=True):
    """dense_render_scene's depth and winner, plus each pixel's nearest hit in float64."""
    w, h = intrinsics.width, intrinsics.height
    us = (np.arange(w) + 0.5 - intrinsics.cx) / intrinsics.fx
    vs = (np.arange(h) + 0.5 - intrinsics.cy) / intrinsics.fy
    uu, vv = np.meshgrid(us, vs)
    dirs_cam = np.stack([uu.ravel(), vv.ravel(), np.ones(w * h)], axis=1)
    dirs = dirs_cam @ pose.rotation.T
    dirs = np.where(np.abs(dirs) < 1e-12, 1e-12, dirs)
    origin = pose.translation

    mins, maxs, ids = scene_boxes(room, include_structure)
    if len(ids) == 0:
        zero = np.zeros((h, w), dtype=np.float32)
        return zero, np.full((h, w), NO_HIT, dtype=np.int64), np.full(h * w, np.inf)
    inv = 1.0 / dirs  # (N, 3)
    t1 = (mins[None, :, :] - origin) * inv[:, None, :]
    t2 = (maxs[None, :, :] - origin) * inv[:, None, :]
    tnear = np.minimum(t1, t2).max(axis=2)
    tfar = np.maximum(t1, t2).min(axis=2)
    hit = (tnear <= tfar) & (tfar > 1e-9)
    tval = np.where(tnear > 1e-9, tnear, tfar)  # camera inside a box: exit face
    tval = np.where(hit, tval, np.inf)

    best = np.argmin(tval, axis=1)
    depth = tval[np.arange(tval.shape[0]), best]
    nearest = depth
    winner = ids[best]
    miss = ~np.isfinite(depth) | (depth > max_range)
    depth = np.where(miss, 0.0, depth)
    winner = np.where(miss, NO_HIT, winner)
    return depth.reshape(h, w).astype(np.float32), winner.reshape(h, w), nearest


def assert_same_render(room, pose, intrinsics=K, ranges=RANGES, include_structure=True):
    for max_range in ranges:
        depth, winner = render_view(room, pose, intrinsics, max_range, include_structure)
        want_depth, want_winner = dense_render_scene(room, pose, intrinsics, max_range, include_structure)
        assert depth.dtype == want_depth.dtype and winner.dtype == want_winner.dtype
        assert depth.tobytes() == want_depth.tobytes(), f"depth differs at max_range={max_range}"
        assert winner.tobytes() == want_winner.tobytes(), f"winner differs at max_range={max_range}"


def manual_room(boxes, extents=(6.0, 6.0, 2.5)):
    objects = [SceneObject(i, "box", "red", "plastic", lo, hi) for i, (lo, hi) in enumerate(boxes)]
    return RoomSpec(extents, tuple(objects), seed=0, copies={})


def counting_room(config):
    return _generate_with_retries("counting", config.seed * 100000 + 3 * 1000, "cup", 3, config)


def dialogue_room(config):
    return _generate_with_retries("dialogue", config.seed * 100000 + 50000 + 1, DIALOGUE_MULTI[1], 3, config)


@pytest.mark.parametrize("make_room", [counting_room, dialogue_room])
def test_trajectory_frames_match_dense(make_room):
    """Every pose, rendered alone and through one shared set-up with its
    batched rows, as the dense renderer; the set-up's ray grid is never written."""
    config = PipelineConfig()
    room = make_room(config)
    intrinsics = config.intrinsics()
    poses = plan_trajectory(room, config)
    setup = render_setup(room, intrinsics)
    rays = setup.rays.tobytes()
    depths = [depth for _, depth, _ in trajectory_frames(room, config)]
    for max_range in RANGES:
        for pose, rows, depth in zip(poses, _pixel_rects(setup, poses, max_range), depths):
            want_depth, want_winner = dense_render_scene(room, pose, intrinsics, max_range)
            for own_setup, own_rows in (view_setup(room, pose, intrinsics, max_range), (setup, rows)):
                got_depth, got_winner = render_scene(
                    room, pose, intrinsics, max_range, setup=own_setup, rects=own_rows
                )
                assert got_depth.tobytes() == want_depth.tobytes() and got_winner.tobytes() == want_winner.tobytes()
            if max_range == config.max_range:
                assert depth.tobytes() == want_depth.tobytes()
    assert setup.rays.tobytes() == rays and not setup.rays.flags.writeable


@pytest.mark.parametrize("make_room", [counting_room, dialogue_room])
def test_trajectory_rects_equal_their_single_pose_rows(make_room):
    config = PipelineConfig()
    room = make_room(config)
    poses = plan_trajectory(room, config)
    intrinsics = config.intrinsics()
    for max_range in RANGES:
        batch = _pixel_rects(render_setup(room, intrinsics), poses, max_range)
        assert batch.shape == (len(poses), len(room.objects) + 5, 4)
        for pose, rows in zip(poses, batch):
            assert rows.tobytes() == _pixel_rects(render_setup(room, intrinsics), [pose], max_range)[0].tobytes()


def test_rects_of_a_mixed_batch_render_as_dense():
    """A pose inside the room and one above the walls in one batch; the second
    misses the shell pass, so its structure rows go through the box loop."""
    room = counting_room(PipelineConfig())
    ex, ey, ez = room.extents
    poses = [
        look_at_pose((0.5 * ex, 0.5 * ey, 1.2), (ex, 0.5 * ey, 0.5)),
        look_at_pose((0.5 * ex, -1.0, ez + 1.5), (0.5 * ex, 0.5 * ey, 0.0)),
    ]
    setup = render_setup(room, K)
    rays = setup.rays.tobytes()
    for max_range in (2.4, 10.0):
        batch = _pixel_rects(setup, poses, max_range)
        for pose, rows in zip(poses, batch):
            assert rows.tobytes() == _pixel_rects(render_setup(room, K), [pose], max_range)[0].tobytes()
            want_depth, want_winner = dense_render_scene(room, pose, K, max_range)
            for own_setup, own_rows in (
                (setup, rows), (render_setup(room, K), rows), view_setup(room, pose, K, max_range)
            ):
                depth, winner = render_scene(room, pose, K, max_range, setup=own_setup, rects=own_rows)
                assert depth.tobytes() == want_depth.tobytes() and winner.tobytes() == want_winner.tobytes()
        assert (batch[1, len(room.objects):, 0] < batch[1, len(room.objects):, 1]).any()
    assert setup.rays.tobytes() == rays


def test_without_structure_matches_dense():
    config = PipelineConfig()
    room = counting_room(config)
    for pose in plan_trajectory(room, replace(config, n_waypoints=4)):
        assert_same_render(room, pose, include_structure=False)


def test_empty_scene_matches_dense():
    pose = look_at_pose((3.0, 3.0, 1.2), (5.0, 3.0, 1.0))
    assert_same_render(manual_room([]), pose, include_structure=False)


EYE = (1.0, 3.0, 1.2)  # looking along +x, so camera depth is x - 1

SCENES = {
    # the ray starts inside the box and takes its exit face
    "camera_inside_box": [((0.5, 2.5, 0.8), (1.6, 3.5, 1.6))],
    # boxes that reach behind and in front of the camera plane x = 1
    "straddles_camera_plane": [
        ((0.2, 3.4, 0.0), (2.0, 3.8, 1.5)),
        ((0.5, 2.6, 1.0), (1.8, 2.95, 1.3)),
        ((0.99, 3.0, 1.25), (1.01, 3.0001, 1.2500001)),
    ],
    "behind_camera": [((0.2, 2.5, 0.5), (0.8, 3.5, 2.0))],
    # front faces at camera depth 2.0 + eps, against max_range 2.0
    "at_and_beyond_max_range": [
        ((3.0, 2.0, 0.5), (3.5, 2.3, 2.0)),
        ((3.0 + 1e-12, 2.3, 0.5), (3.5, 2.6, 2.0)),
        ((3.0 + 1e-9, 2.6, 0.5), (3.5, 2.9, 2.0)),
        ((3.0 + 1e-6, 2.9, 0.5), (3.5, 3.2, 2.0)),
        ((3.0 + 1e-3, 3.2, 0.5), (3.5, 3.5, 2.0)),
        ((3.0 - 1e-12, 3.5, 0.5), (3.5, 3.8, 2.0)),
    ],
    # world +y is image left: the first box crosses the left frame edge, the
    # second ends just outside the right one
    "touches_frame_edge": [((2.0, 3.5, 1.0), (2.5, 4.5, 1.4)), ((2.0, 1.8, 1.0), (2.5, 2.12, 1.4))],
    # coincident front faces: the first box in scene order wins the tie
    "coincident_faces": [
        ((2.5, 2.6, 0.8), (3.0, 3.1, 1.6)),
        ((2.5, 2.9, 0.9), (3.2, 3.4, 1.5)),
        ((2.5, 2.6, 0.8), (3.0, 3.1, 1.6)),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_edge_scene_matches_dense(name):
    room = manual_room(SCENES[name])
    pose = look_at_pose(EYE, (4.0, 3.0, 1.2))
    assert_same_render(room, pose, ranges=RANGES + (2.0 + 1e-12, 2.0 - 1e-12))
    assert_same_render(room, pose, ranges=RANGES, include_structure=False)


def test_edge_scenes_show_their_case():
    pose = look_at_pose(EYE, (4.0, 3.0, 1.2))

    def objects_only(name, max_range=10.0):
        room = manual_room(SCENES[name])
        return render_view(room, pose, K, max_range, include_structure=False)

    depth, winner = objects_only("camera_inside_box")
    assert (winner == 0).all() and depth.max() <= 0.6 + 1e-6
    _, winner = objects_only("behind_camera")
    assert (winner == NO_HIT).all()
    depth, winner = objects_only("at_and_beyond_max_range", 2.0)
    assert set(np.unique(winner)) == {NO_HIT, 0, 5}
    _, winner = objects_only("touches_frame_edge")
    assert (winner[:, 0] == 0).any() and set(np.unique(winner)) == {NO_HIT, 0}
    _, winner = objects_only("coincident_faces")
    assert set(np.unique(winner)) == {NO_HIT, 0, 1}


def test_random_scenes_match_dense():
    """Random boxes near random off-center cameras, some inside or grazing a box."""
    rng = np.random.default_rng(7)
    intrinsics = CameraIntrinsics(fx=40.0, fy=55.0, cx=21.0, cy=30.5, width=48, height=40)
    for _ in range(60):
        eye = rng.uniform(0.5, 5.5, 3)
        lo = eye + rng.uniform(-2.0, 1.5, (5, 3))
        boxes = [(tuple(a), tuple(a + rng.uniform(0.05, 1.2, 3))) for a in lo]
        room = manual_room(boxes)
        pose = look_at_pose(eye, eye + rng.normal(size=3))
        assert_same_render(room, pose, intrinsics, ranges=(0.5, 2.4, 10.0))


def test_nearest_hit_at_exactly_max_range():
    """A box edge on the central ray, with max_range set to that hit's float64 depth.

    The hit is kept (t <= max_range) although the box's nearest corner may
    round to just beyond max_range in camera coordinates: the far clip
    plane's padding keeps the box.
    """
    rng = np.random.default_rng(11)
    intrinsics = CameraIntrinsics(fx=110.0, fy=110.0, cx=16.5, cy=16.5, width=33, height=33)
    for _ in range(60):
        eye = np.array([1.0, 1.0, 1.2]) + rng.uniform(0.0, 0.3, 3)
        angle = rng.uniform(0.1, 1.4)
        forward = np.array([np.cos(angle), np.sin(angle), 0.0])
        edge = eye + rng.uniform(1.0, 3.0) * forward  # a vertical edge on the optical axis
        room = manual_room([((edge[0], edge[1], 0.0), (edge[0] + 0.5, edge[1] + 0.5, 2.5))])
        pose = look_at_pose(eye, eye + forward)
        _, _, nearest = dense_render_with_hits(room, pose, intrinsics, include_structure=False)
        assert_same_render(room, pose, intrinsics, ranges=(float(nearest.min()),), include_structure=False)


# -- the room shell pass: camera strictly inside the room ---------------------

EXTENTS = (6.0, 6.0, 2.5)
SHELL_ROOM = manual_room(
    [
        ((1.0, 1.0, -0.05), (3.0, 3.0, 0.0)),  # a rug flush with the floor's top face
        ((6.0, 2.0, 0.5), (6.05, 3.0, 1.5)),  # a poster flush with the x = ex wall's inner face
        ((2.5, 4.0, 0.0), (3.5, 4.6, 0.9)),  # a table
    ],
    EXTENTS,
)
# odd size with the principal point on the middle pixel: in axis-aligned
# views, the middle row and column have world ray components of exactly 0
SHELL_K = CameraIntrinsics(fx=40.0, fy=40.0, cx=16.5, cy=16.5, width=33, height=33)
SHELL_RAY_LEN = float(np.sqrt(1.0 + 2 * (16.0 / 40.0) ** 2))  # the corner ray, per unit of depth
CENTER = np.array([3.0, 3.0, 1.25])


def face_eyes():
    """(axis, side, gap) for an eye `gap` inside each of the room's six faces."""
    for axis in range(3):
        for side in (0, 1):
            for gap in (1e-12, 1e-9 * SHELL_RAY_LEN, 1e-6 * SHELL_RAY_LEN, 1e-3):
                yield axis, side, gap


@pytest.mark.parametrize("axis, side, gap", list(face_eyes()))
def test_eye_near_a_face_matches_dense(axis, side, gap):
    eye = CENTER.copy()
    eye[axis] = EXTENTS[axis] - gap if side else gap
    outward = np.zeros(3)
    outward[axis] = 1.0 if side else -1.0
    tilt = np.array([0.3, -0.2, 0.25])
    tilt[axis] = 0.0
    # straight at the face, tilted toward it, along it, and back into the room
    for direction in (outward, outward + tilt, tilt, CENTER - eye):
        pose = look_at_pose(eye, eye + direction)
        assert_same_render(SHELL_ROOM, pose, SHELL_K, ranges=(0.5, 2.4, 10.0))


@pytest.mark.parametrize(
    "target",
    [
        (9.0, 3.0, 1.25), (-3.0, 3.0, 1.25), (3.0, 9.0, 1.25), (3.0, -3.0, 1.25),
        (3.0, 3.0, -5.0), (3.0, 3.0, 9.0),
    ],
)
def test_axis_aligned_views_match_dense(target):
    """Rays along the axes, with world components clamped to 1e-12."""
    for eye in (CENTER, (0.7, 5.5, 0.3), (5.9, 0.1, 2.4)):
        pose = look_at_pose(eye, np.asarray(eye) + (np.asarray(target) - CENTER))
        assert_same_render(SHELL_ROOM, pose, SHELL_K, ranges=(0.5, 2.4, 10.0))


def test_straight_down_and_into_corners_matches_dense():
    poses = [
        look_at_pose((2.0, 2.0, 2.2), (2.0, 2.0, 0.0)),
        look_at_pose((6.0 - 1e-3, 2.5, 2.0), (6.0 - 1e-3, 2.5, 0.0)),  # down along a wall
    ]
    for corner in [(x, y, z) for x in (0.0, 6.0) for y in (0.0, 6.0) for z in (0.0, 2.5)]:
        poses.append(look_at_pose(CENTER, corner))
        near = 0.9 * np.asarray(corner) + 0.1 * CENTER  # close to the corner, looking into it
        poses.append(look_at_pose(near, corner))
    for pose in poses:
        assert_same_render(SHELL_ROOM, pose, SHELL_K, ranges=(0.5, 2.4, 10.0))


def test_structure_loses_ties_to_flush_objects():
    _, winner = render_view(SHELL_ROOM, look_at_pose((2.0, 2.0, 2.2), (2.0, 2.0, 0.0)), SHELL_K, 10.0)
    assert winner[16, 16] == 0  # the rug, not the floor it lies flush with
    _, winner = render_view(SHELL_ROOM, look_at_pose((3.0, 2.5, 1.0), (6.0, 2.5, 1.0)), SHELL_K, 10.0)
    assert winner[16, 16] == 1  # the poster, not the wall behind it


def test_rays_leaving_exactly_over_the_top_of_a_wall():
    """Dyadic rays from (2, 3, 1.5) along +x: row 8 has direction (1, -u, 1/4),
    so it reaches the x = 6 wall at t = 4 exactly as it reaches z = 2.5; the
    slab test counts that as a hit and so must the shell pass."""
    intrinsics = CameraIntrinsics(fx=32.0, fy=32.0, cx=16.5, cy=16.5, width=33, height=33)
    room = manual_room([], EXTENTS)
    pose = look_at_pose((2.0, 3.0, 1.5), (6.0, 3.0, 1.5))
    assert_same_render(room, pose, intrinsics, ranges=(2.4, 4.0, 10.0))
    depth, winner = render_view(room, pose, intrinsics, 10.0)
    assert (winner[:8] == NO_HIT).all()
    assert (winner[8] == STRUCTURE_ID).all() and (depth[8] == 4.0).all()


def interior(extent):
    return st.floats(0.0, extent, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(
    eye=st.tuples(*(interior(e) for e in EXTENTS)),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: np.linalg.norm(d) > 0.1),
)
def test_random_interior_views_match_dense(eye, direction):
    pose = look_at_pose(eye, np.add(eye, direction))
    assert_same_render(SHELL_ROOM, pose, SHELL_K, ranges=(0.5, 2.4, 10.0))


# -- detections read the rectangles -------------------------------------------


def bincount_detections(room, winner, captions, min_pixels):
    """Each object's tight box by one pass over the whole map."""
    h, w = winner.shape
    n = len(room.objects)
    ys, xs = np.nonzero(winner >= 0)
    ids = winner[ys, xs]
    pixels = np.bincount(ids, minlength=n)
    rows = np.bincount(ids * h + ys, minlength=n * h).reshape(n, h) > 0
    cols = np.bincount(ids * w + xs, minlength=n * w).reshape(n, w) > 0
    detections = []
    for idx, obj in enumerate(room.objects):
        if pixels[idx] < max(min_pixels, 1):
            continue
        u0, u1 = cols[idx].argmax(), w - cols[idx, ::-1].argmax()
        v0, v1 = rows[idx].argmax(), h - rows[idx, ::-1].argmax()
        bbox = BoundingBox(float(u0), float(v0), float(u1), float(v1))
        detections.append(Detection(bbox, captions[obj.id], obj.id))
    return detections


def assert_rect_detections_match(room, pose, intrinsics, max_range, include_structure=True):
    captions = {o.id: f"box {o.id}" for o in room.objects}
    setup, rects = view_setup(room, pose, intrinsics, max_range, include_structure)
    _, winner = render_scene(room, pose, intrinsics, max_range, setup=setup, rects=rects)
    for min_pixels in (0, 1, 25):
        want = bincount_detections(room, winner, captions, min_pixels)
        assert gt_detections(room, winner, captions, min_pixels, rects) == want
    return winner


@pytest.mark.parametrize("make_room", [counting_room, dialogue_room])
def test_trajectory_detections_match_bincount(make_room):
    config = PipelineConfig()
    room = make_room(config)
    intrinsics = config.intrinsics()
    captions = {oid: realize(g) for oid, g in scene_graphs(room, config.tau_near).items()}
    poses = plan_trajectory(room, config)
    frames = list(trajectory_frames(room, config))
    assert sum(len(detections) for _, _, detections in frames) > 0
    for pose, (_, _, detections) in zip(poses, frames):
        _, winner = render_view(room, pose, intrinsics, config.max_range)
        assert detections == bincount_detections(room, winner, captions, config.min_pixels)
        for max_range in (2.4, 10.0):
            assert_rect_detections_match(room, pose, intrinsics, max_range)


def test_frame_edge_clipped_detection_matches_bincount():
    room = manual_room(SCENES["touches_frame_edge"])
    pose = look_at_pose(EYE, (4.0, 3.0, 1.2))
    for include_structure in (True, False):
        winner = assert_rect_detections_match(room, pose, K, 10.0, include_structure)
        assert (winner[:, 0] == 0).any()  # the box reaches the left edge of the frame


def test_render_refuses_intrinsics_other_than_its_setups():
    """The set-up fixes the frame size and focal length; intrinsics that
    disagree with it are refused, equal ones in another object are not."""
    config = PipelineConfig()
    room = counting_room(config)
    pose = plan_trajectory(room, config)[0]
    setup, rects = view_setup(room, pose, K, config.max_range)
    want_depth, want_winner = render_scene(room, pose, K, config.max_range, setup=setup, rects=rects)
    depth, winner = render_scene(room, pose, replace(K), config.max_range, setup=setup, rects=rects)
    assert depth.tobytes() == want_depth.tobytes() and winner.tobytes() == want_winner.tobytes()
    for other in (replace(K, fx=120.0), replace(K, width=96, cx=48.0)):
        with pytest.raises(ValueError) as info:
            render_scene(room, pose, other, config.max_range, setup=setup, rects=rects)
        assert str(other) in str(info.value) and str(K) in str(info.value)
