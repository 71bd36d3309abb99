import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refground import evaluation, pipeline
from refground.config import NOISE_PRESETS, PipelineConfig
from refground.geometry import (
    DEPTH_MAGIC,
    BoundingBox,
    CameraIntrinsics,
    DepthFrame,
    GridSpec,
    Pose,
    bbox_cloud_arrays,
    read_depth_file,
    to_world,
    voxelize_bev_arrays,
    write_depth_file,
)

from conftest import cell_center

K_SIMPLE = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)


def identity_pose():
    return Pose(np.eye(3), np.zeros(3))


def yaw_pose(angle, t=(0.0, 0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    return Pose(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.array(t))


# -- backproject --------------------------------------------------------------


def backproject(u: float, v: float, d: float, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Reference: image point (u, v) with depth d to camera-space (x, y, z); z equals d."""
    if d <= 0:
        raise ValueError(f"depth must be positive, got {d}")
    return np.array(
        [(u - intrinsics.cx) * d / intrinsics.fx, (v - intrinsics.cy) * d / intrinsics.fy, d]
    )


def test_backproject_principal_ray():
    assert np.allclose(backproject(50.0, 50.0, 2.0, K_SIMPLE), [0.0, 0.0, 2.0])


def test_backproject_unit_intrinsics():
    K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    assert np.allclose(backproject(3.0, 4.0, 1.0, K), [3.0, 4.0, 1.0])


def test_backproject_arithmetic():
    assert np.allclose(backproject(150.0, 50.0, 2.0, K_SIMPLE), [2.0, 0.0, 2.0])


def test_backproject_rejects_invalid_depth():
    with pytest.raises(ValueError):
        backproject(10.0, 10.0, 0.0, K_SIMPLE)


# -- to_world -----------------------------------------------------------------


def test_to_world_identity():
    p = np.array([0.3, -0.2, 1.5])
    assert np.allclose(to_world(p, identity_pose()), p)


def test_to_world_translation():
    pose = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(to_world(np.array([0.0, 0.0, 1.0]), pose), [1.0, 0.0, 1.0])


def test_to_world_yaw_hand_check():
    pose = yaw_pose(math.pi / 2)
    # hand multiply: Rz(90) @ (1,0,0) = (0,1,0)
    assert np.allclose(to_world(np.array([1.0, 0.0, 0.0]), pose), [0.0, 1.0, 0.0], atol=1e-12)


def test_to_world_composition_identity():
    p = backproject(72.0, 31.0, 1.7, K_SIMPLE)
    assert np.allclose(to_world(p, identity_pose()), p)


def test_rigidity_pairwise_distances():
    rng = np.random.default_rng(3)
    cloud = rng.uniform(-2, 2, size=(40, 3))
    pose = yaw_pose(0.83, t=(0.4, -1.2, 0.7))
    moved = to_world(cloud, pose)
    d0 = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
    d1 = np.linalg.norm(moved[:, None, :] - moved[None, :, :], axis=2)
    assert np.max(np.abs(d0 - d1)) < 1e-9


def test_to_world_matches_matmul_bytes_on_small_clouds():
    # Small clouds are where other forms of the product (a contiguous copy
    # of rotation.T, column sums, einsum) round differently.
    rng = np.random.default_rng(21)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pose = Pose(q * np.sign(np.linalg.det(q)), rng.normal(size=3))
        for n in range(1, 6):
            cam = rng.uniform(-2.0, 2.0, (n, 3))
            want = cam @ pose.rotation.T + pose.translation
            assert to_world(cam, pose).tobytes() == want.tobytes()


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))
    reflect = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(reflect, np.zeros(3))


@pytest.mark.parametrize("bottom", [[5.0, 1.0, 2.0, 9.0], [0.0, 0.0, 0.0, 9.0], [0.0, 0.0, 1e-12, 1.0], [0.0, 0.0, 0.0, np.nan]])
def test_pose_from_matrix_refuses_a_bottom_row_other_than_0_0_0_1(bottom):
    m = np.eye(4)
    m[:3, 3] = [1.0, 2.0, 3.0]
    pose = Pose.from_matrix(m)
    assert pose.rotation.tobytes() == m[:3, :3].tobytes()
    assert pose.translation.tobytes() == m[:3, 3].tobytes()
    m[3] = bottom
    with pytest.raises(ValueError, match="bottom row must be 0 0 0 1"):
        Pose.from_matrix(m)


def reference_pose_error(rotation, translation):
    """Reference: the numpy form of Pose's checks; the message it raises, or None."""
    R, t = np.asarray(rotation, dtype=np.float64), np.asarray(translation, dtype=np.float64)
    if not np.all(np.abs(R) <= 1 + 1e-6) or not np.all(np.isfinite(t)):
        return "rotation entries must lie in [-1, 1] and translation must be finite"
    if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-6:
        return "rotation is not orthonormal within 1e-6"
    if abs(np.linalg.det(R) - 1.0) > 1e-6:
        return "rotation must be proper (det +1)"
    return None


def pose_error(rotation, translation):
    try:
        Pose(rotation, translation)
    except ValueError as exc:
        return str(exc)
    return None


def test_pose_checks_match_numpy_form():
    rng = np.random.default_rng(12)
    flip = np.diag([1.0, 1.0, -1.0])
    cases = [
        (np.eye(3), [0.0, 0.0, np.inf]),
        (np.eye(3), [np.nan, 0.0, 0.0]),
        (np.where(np.eye(3) > 0, np.nan, 0.0), np.zeros(3)),
        (np.eye(3) * (1 + 2e-6), np.zeros(3)),
        (np.eye(3)[[1, 0, 2]], np.zeros(3)),  # a swap of two axes: det -1
    ]
    for scale in (0.0, 1e-8, 1e-7, 1e-5, 1e-3):
        for _ in range(60):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            rotation = q * np.sign(np.linalg.det(q)) @ (flip if rng.random() < 0.2 else np.eye(3))
            cases.append((rotation + scale * rng.normal(size=(3, 3)), rng.normal(size=3)))
    errors = [reference_pose_error(r, t) for r, t in cases]
    assert {None, *(e for e in errors if e)} == {
        None,
        "rotation entries must lie in [-1, 1] and translation must be finite",
        "rotation is not orthonormal within 1e-6",
        "rotation must be proper (det +1)",
    }
    assert [pose_error(r, t) for r, t in cases] == errors


# -- soft mask ----------------------------------------------------------------

K_UNIT = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=100, height=100)
# sigma_frac 0.25 gives sigma_u 5 and sigma_v 10; the center (20.5, 40.5) is a pixel center
BOX = BoundingBox(10.5, 20.5, 30.5, 60.5)
UC, VC = BOX.center


def mask_weights(bbox, sigma_frac=0.25):
    """The cloud's weight at each pixel center of the box: with unit
    intrinsics, unit depth and the identity pose, a point's (x, y) is its
    pixel center (u + 0.5, v + 0.5)."""
    frame = DepthFrame(100, 100, np.ones((100, 100), dtype=np.float32), 10.0)
    pts, w = bbox_cloud_arrays(bbox, frame, K_UNIT, identity_pose(), sigma_frac, 1)
    return {(x, y): weight for (x, y, _), weight in zip(pts.tolist(), w.tolist())}


def test_soft_mask_peak_at_center():
    assert mask_weights(BOX)[UC, VC] == pytest.approx(1.0 / (2 * 5.0 * 10.0))


def test_soft_mask_one_sigma():
    w = mask_weights(BOX)
    assert w[UC + 5.0, VC] == pytest.approx(w[UC, VC] * math.exp(-0.5))
    assert w[UC, VC + 10.0] == pytest.approx(w[UC, VC] * math.exp(-0.5))


def test_soft_mask_symmetry():
    w = mask_weights(BOX)
    for k in (1.0, 3.0, 9.0):
        assert w[UC + k, VC] == pytest.approx(w[UC - k, VC])
        assert w[UC, VC + 2 * k] == pytest.approx(w[UC, VC - 2 * k])


def test_soft_mask_strictly_decreasing_along_ray():
    w = mask_weights(BOX)
    values = [w[UC + k, VC + 2 * k] for k in range(10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_soft_mask_rejects_bad_sigma():
    with pytest.raises(ValueError):
        mask_weights(BOX, sigma_frac=0.0)


# -- bbox cloud ---------------------------------------------------------------


def flat_depth(value=2.0, w=100, h=100):
    return DepthFrame(w, h, np.full((h, w), value, dtype=np.float32), 10.0)


def test_single_pixel_bbox_center_weight():
    bbox = BoundingBox(40.0, 40.0, 41.0, 41.0)
    pts, w = bbox_cloud_arrays(bbox, flat_depth(), K_SIMPLE, identity_pose(), 0.25, 1)
    assert pts.shape == (1, 3) and w.shape == (1,)
    sigma = 0.25 * 1.0
    assert w[0] == pytest.approx(1.0 / (2 * sigma * sigma))


def test_flat_wall_cloud():
    bbox = BoundingBox(30.0, 30.0, 70.0, 70.0)
    pts, w = bbox_cloud_arrays(bbox, flat_depth(2.0), K_SIMPLE, identity_pose(), 0.25, 1)
    assert np.allclose(pts[:, 2], 2.0)
    # weights peak at the pixel nearest the bbox center
    centers = pts[:, :2]
    uc = backproject(*BoundingBox(30, 30, 70, 70).center, 2.0, K_SIMPLE)[:2]
    nearest = np.argmin(np.linalg.norm(centers - uc, axis=1))
    assert nearest == np.argmax(w)


def test_zeroed_depth_yields_empty_cloud():
    bbox = BoundingBox(30.0, 30.0, 70.0, 70.0)
    frame = DepthFrame(100, 100, np.zeros((100, 100), dtype=np.float32), 10.0)
    pts, w = bbox_cloud_arrays(bbox, frame, K_SIMPLE, identity_pose(), 0.25, 1)
    assert pts.shape == (0, 3) and w.shape == (0,)


def test_bbox_fully_outside_frame_is_empty():
    bbox = BoundingBox(150.0, 150.0, 160.0, 160.0)
    pts, w = bbox_cloud_arrays(bbox, flat_depth(), K_SIMPLE, identity_pose(), 0.25, 1)
    assert len(pts) == 0


def test_stride_subsamples():
    bbox = BoundingBox(30.0, 30.0, 50.0, 50.0)
    full, _ = bbox_cloud_arrays(bbox, flat_depth(), K_SIMPLE, identity_pose(), 0.25, 1)
    strided, _ = bbox_cloud_arrays(bbox, flat_depth(), K_SIMPLE, identity_pose(), 0.25, 2)
    assert 0 < len(strided) < len(full)


def reference_pixel_indices(box, stride):
    """Reference: integer pixel columns/rows whose centers fall inside the box."""
    us = np.arange(int(np.floor(box.u_min)), int(np.ceil(box.u_max)), stride)
    vs = np.arange(int(np.floor(box.v_min)), int(np.ceil(box.v_max)), stride)
    us = us[(us + 0.5 >= box.u_min) & (us + 0.5 < box.u_max)]
    vs = vs[(vs + 0.5 >= box.v_min) & (vs + 0.5 < box.v_max)]
    return us, vs


def reference_soft_mask(u, v, box, sigma_u, sigma_v):
    """Reference: 2D Gaussian soft mask centered on the box, peak 1/(2*sigma_u*sigma_v)."""
    uc, vc = box.center
    du = (np.asarray(u, dtype=np.float64) - uc) / sigma_u
    dv = (np.asarray(v, dtype=np.float64) - vc) / sigma_v
    return (1.0 / (2.0 * sigma_u * sigma_v)) * np.exp(-0.5 * (du * du + dv * dv))


def reference_bbox_cloud(bbox, depth, intrinsics, pose, sigma_frac, stride):
    """Reference: the meshgrid form of bbox_cloud_arrays, kept to compare bytes."""
    box = bbox.clamp(depth.width, depth.height)
    if box is None:
        return np.empty((0, 3)), np.empty(0)
    us, vs = reference_pixel_indices(box, stride)
    if us.size == 0 or vs.size == 0:
        return np.empty((0, 3)), np.empty(0)
    uu, vv = np.meshgrid(us, vs)
    d = depth.depth[vv, uu].astype(np.float64)
    valid = d > 0
    if not np.any(valid):
        return np.empty((0, 3)), np.empty(0)
    ucent = uu[valid] + 0.5
    vcent = vv[valid] + 0.5
    dval = d[valid]
    cam = np.stack(
        [
            (ucent - intrinsics.cx) * dval / intrinsics.fx,
            (vcent - intrinsics.cy) * dval / intrinsics.fy,
            dval,
        ],
        axis=1,
    )
    world = cam @ pose.rotation.T + pose.translation
    weights = reference_soft_mask(ucent, vcent, box, sigma_frac * box.width, sigma_frac * box.height)
    return world, weights


def assert_same_bytes(got, want):
    """Equal result tuples: arrays in dtype, shape and bytes, other values by ==."""
    assert len(got) == len(want)
    for g, r in zip(got, want):
        if isinstance(r, np.ndarray):
            assert (g.dtype, g.shape, g.tobytes()) == (r.dtype, r.shape, r.tobytes())
        else:
            assert g == r


def random_pose(data):
    q = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
    if np.linalg.norm(q) < 1e-3:
        return identity_pose()
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    translation = data.draw(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    return Pose(rotation, np.array(translation))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_bbox_cloud_matches_reference_bytes(data):
    width, height = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 14))
    intrinsics = CameraIntrinsics(
        fx=data.draw(st.floats(0.5, 200)),
        fy=data.draw(st.floats(0.5, 200)),
        cx=data.draw(st.floats(0, width, exclude_max=True)),
        cy=data.draw(st.floats(0, height, exclude_max=True)),
        width=width,
        height=height,
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.05, 9.5, (height, width)).astype(np.float32)
    holes = rng.random((height, width)) < data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    depth = DepthFrame(width, height, np.where(holes, np.float32(0.0), values), 10.0)
    u0 = data.draw(st.floats(-4, width + 2))
    v0 = data.draw(st.floats(-4, height + 2))
    u1 = u0 + data.draw(st.floats(0.01, width + 6))
    v1 = v0 + data.draw(st.floats(0.01, height + 6))
    sigma_frac, stride = data.draw(st.floats(0.05, 1.0)), data.draw(st.integers(1, 3))
    args = (BoundingBox(u0, v0, u1, v1), depth, intrinsics, random_pose(data), sigma_frac, stride)
    assert_same_bytes(bbox_cloud_arrays(*args), reference_bbox_cloud(*args))


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_bbox_cloud_matches_reference_on_pixel_edges_and_centers(stride):
    # box edges on pixel edges, on pixel centers and between, inside and beyond a 10 x 8 frame
    rng = np.random.default_rng(stride)
    intrinsics = CameraIntrinsics(fx=9.0, fy=7.0, cx=4.5, cy=3.5, width=10, height=8)
    depth = DepthFrame(10, 8, rng.uniform(0.5, 3.0, (8, 10)).astype(np.float32), 10.0)
    pose = yaw_pose(0.3, (0.5, -1.0, 0.2))
    for lo in (-1.0, 0.0, 2.5, 3.0, 3.25, 3.75):
        for hi in (4.5, 5.0, 5.5, 6.25, 8.0, 11.0):
            for bbox in (BoundingBox(lo, 1.0, hi, 6.5), BoundingBox(2.0, lo, 7.5, hi)):
                args = (bbox, depth, intrinsics, pose, 0.25, stride)
                assert_same_bytes(bbox_cloud_arrays(*args), reference_bbox_cloud(*args))


def test_bbox_cloud_all_zero_depth_matches_reference():
    frame = DepthFrame(100, 100, np.zeros((100, 100), dtype=np.float32), 10.0)
    pose = yaw_pose(0.4, (1.0, 2.0, 0.5))
    args = (BoundingBox(-3.5, 10.25, 20.75, 40.5), frame, K_SIMPLE, pose, 0.25, 1)
    assert_same_bytes(bbox_cloud_arrays(*args), reference_bbox_cloud(*args))


def test_bbox_cloud_matches_reference_bytes_on_eval_detections(tmp_path, monkeypatch):
    config = PipelineConfig(seed=3)
    evaluation.simulate_counting_dataset(tmp_path, config, rooms_per_count=1)
    calls = []

    def recorded(*args):
        calls.append(args)
        return bbox_cloud_arrays(*args)

    monkeypatch.setattr(pipeline, "bbox_cloud_arrays", recorded)
    per_preset = []
    for preset in NOISE_PRESETS:
        before = len(calls)
        evaluation.eval_counting(tmp_path, config, preset)
        per_preset.append(len(calls) - before)
    assert min(per_preset) > 0
    for args in calls:
        assert_same_bytes(bbox_cloud_arrays(*args), reference_bbox_cloud(*args))


def test_cloud_matches_scalar_backproject():
    rng = np.random.default_rng(4)
    frame = DepthFrame(100, 100, rng.uniform(0.5, 3.0, (100, 100)).astype(np.float32), 10.0)
    pose = yaw_pose(1.1, t=(0.3, -0.7, 1.2))
    bbox = BoundingBox(20.3, 61.8, 27.9, 66.2)
    pts, _ = bbox_cloud_arrays(bbox, frame, K_SIMPLE, pose, 0.25, 1)
    us, vs = reference_pixel_indices(bbox, 1)
    expected = [
        to_world(backproject(u + 0.5, v + 0.5, float(frame.depth[v, u]), K_SIMPLE), pose)
        for v in vs
        for u in us
    ]
    assert pts.shape == (len(expected), 3)
    assert np.allclose(pts, expected, rtol=0, atol=1e-12)


# -- voxelize -----------------------------------------------------------------

GRID = GridSpec(0.0, 0.0, 0.5, 10, 10)


def voxelize(points, weights):
    return voxelize_bev_arrays(np.asarray(points, dtype=float), np.asarray(weights, dtype=float), GRID)


def test_voxelize_single_point():
    cells, means, counts, dropped = voxelize([[1.1, 2.2, 0.0]], [0.4])
    assert dropped == 0
    assert cells.tolist() == [[2, 4]]
    assert means.tolist() == [0.4] and counts.tolist() == [1]


def test_voxelize_mean_of_two():
    cells, means, counts, _ = voxelize([[1.1, 2.2, 0.0], [1.2, 2.3, 0.5]], [0.2, 0.4])
    assert cells.tolist() == [[2, 4]] and counts.tolist() == [2]
    assert means[0] == pytest.approx(0.3)


def test_voxelize_boundary_goes_to_higher_cell():
    cells, _, _, _ = voxelize([[0.5, 0.0, 0.0]], [1.0])
    assert cells.tolist() == [[1, 0]]


def test_voxelize_conserves_points():
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(-1, 6, 300), rng.uniform(-1, 6, 300), np.zeros(300)])
    _, _, counts, dropped = voxelize(pts, rng.uniform(0.1, 1, 300))
    assert counts.sum() + dropped == 300


def test_voxelize_sorted_by_cell():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0, 5, 50), rng.uniform(0, 5, 50), np.zeros(50)])
    cells = [tuple(c) for c in voxelize(pts, np.ones(50))[0].tolist()]
    assert cells == sorted(cells)


def reference_voxelize(points, weights, grid):
    """Reference: the np.unique form of voxelize_bev_arrays, kept to compare bytes."""
    if len(points) == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 0
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    ix = np.floor((pts[:, 0] - grid.origin_x) / grid.cell_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - grid.origin_y) / grid.cell_size).astype(np.int64)
    inside = (ix >= 0) & (ix < grid.d1) & (iy >= 0) & (iy < grid.d2)
    dropped = int((~inside).sum())
    if not np.any(inside):
        return np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), dropped
    key = ix[inside] * grid.d2 + iy[inside]
    uniq, inverse = np.unique(key, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=w[inside])
    cells = np.stack([uniq // grid.d2, uniq % grid.d2], axis=1)
    return cells, sums / counts, counts, dropped


def grid_coordinate(origin, cell_size, cells):
    """Exact cell boundaries of one axis, a little beyond it, or anywhere around it."""
    boundary = st.integers(-1, cells + 1).map(lambda k: origin + k * cell_size)
    return st.one_of(boundary, st.floats(origin - 2 * cell_size, origin + (cells + 2) * cell_size))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_voxelize_matches_reference_bytes(data):
    d1, d2 = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    size = data.draw(st.sampled_from([0.05, 0.25, 0.3, 1.0]))
    origin_x = data.draw(st.sampled_from([0.0, -1.2, 3.7]))
    origin_y = data.draw(st.sampled_from([0.0, -0.6, 2.1]))
    grid = GridSpec(origin_x, origin_y, size, d1, d2)
    n = data.draw(st.integers(0, 40))
    xs = data.draw(st.lists(grid_coordinate(grid.origin_x, size, d1), min_size=n, max_size=n))
    ys = data.draw(st.lists(grid_coordinate(grid.origin_y, size, d2), min_size=n, max_size=n))
    points = np.column_stack([xs, ys, np.zeros(n)]).reshape(n, 3)
    weights = np.array(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    got = voxelize_bev_arrays(points, weights, grid)
    assert_same_bytes(got, reference_voxelize(points, weights, grid))


@pytest.mark.parametrize("d1, d2", [(1, 7), (7, 1), (1, 1), (5, 4)])
def test_voxelize_window_spans_whole_grid(d1, d2):
    grid = GridSpec(-0.5, 0.25, 0.5, d1, d2)
    far = (grid.origin_x + d1 * 0.5 - 1e-9, grid.origin_y + d2 * 0.5 - 1e-9)
    points = np.array([[grid.origin_x, grid.origin_y, 0.0], [*far, 1.0], [*far, 2.0]])
    weights = np.array([0.3, 0.7, 0.2])
    got = voxelize_bev_arrays(points, weights, grid)
    assert_same_bytes(got, reference_voxelize(points, weights, grid))
    assert got[0].tolist() == ([[0, 0]] if d1 == d2 == 1 else [[0, 0], [d1 - 1, d2 - 1]])


def test_voxelize_single_point_matches_reference():
    points, weights = np.array([[1.0, 2.5, 0.0]]), np.array([0.25])
    assert_same_bytes(voxelize(points, weights), reference_voxelize(points, weights, GRID))


# -- depth files ----------------------------------------------------------------


def test_depth_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    frame = DepthFrame(17, 9, rng.uniform(0, 5, (9, 17)).astype(np.float32), max_range=10.0)
    path = tmp_path / "frame.depth"
    write_depth_file(path, frame)
    back = read_depth_file(path, 10.0)
    assert back.width == 17 and back.height == 9
    assert np.array_equal(back.depth, frame.depth)
    # bit-exact file round trip
    write_depth_file(tmp_path / "again.depth", back)
    assert (tmp_path / "again.depth").read_bytes() == path.read_bytes()


def three_write_depth_bytes(frame) -> bytes:
    """The writer's bytes as first written: magic, header and a float32 copy, one write each."""
    return DEPTH_MAGIC + struct.pack("<II", frame.width, frame.height) + frame.depth.astype("<f4").tobytes(order="C")


@pytest.mark.parametrize("source", ["float32", "float64", "float32_transposed"])
def test_depth_file_bytes_match_the_three_write_writer(tmp_path, source):
    rng = np.random.default_rng(5)
    depth = {
        "float32": rng.uniform(0, 5, (9, 17)).astype(np.float32),
        "float64": rng.uniform(0, 5, (9, 17)),
        "float32_transposed": rng.uniform(0, 5, (17, 9)).astype(np.float32).T,
    }[source]
    frame = DepthFrame(17, 9, depth, max_range=10.0)
    path = tmp_path / "frame.depth"
    write_depth_file(path, frame)
    assert path.read_bytes() == three_write_depth_bytes(frame)


def test_depth_file_bad_magic(tmp_path):
    path = tmp_path / "bad.depth"
    path.write_bytes(b"NOTDEPTH" + b"\x00" * 16)
    with pytest.raises(OSError, match=r"bad\.depth: bad magic b'NOTDEPTH'$"):
        read_depth_file(path, 10.0)


def test_depth_file_truncated(tmp_path):
    path = tmp_path / "short.depth"
    frame = DepthFrame(4, 4, np.zeros((4, 4), dtype=np.float32), 10.0)
    write_depth_file(path, frame)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(OSError, match=r"short\.depth: expected 80 bytes, found 72$"):
        read_depth_file(path, 10.0)


@pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (0, 0)])
def test_depth_file_with_no_pixels_names_its_size(tmp_path, width, height):
    # the header's size matches the file, so only the frame can refuse it; no max_range is to blame
    path = tmp_path / "empty.depth"
    path.write_bytes(DEPTH_MAGIC + struct.pack("<II", width, height))
    message = f"depth frame is {width}x{height}; width and height must be at least 1$"
    with pytest.raises(OSError, match=rf"empty\.depth: {message}"):
        read_depth_file(path, 10.0)
    with pytest.raises(ValueError, match=f"^{message}"):
        DepthFrame(width, height, np.zeros((height, width), dtype=np.float32), 10.0)


def test_each_depth_read_gets_its_own_buffer_and_the_frame_views_it(tmp_path):
    path = tmp_path / "frame.depth"
    write_depth_file(path, DepthFrame(5, 3, np.full((3, 5), 2.5, dtype=np.float32), 10.0))
    first, second = read_depth_file(path, 10.0), read_depth_file(path, 10.0)
    buffer = first.depth
    while isinstance(buffer, np.ndarray):
        buffer = buffer.base
    assert isinstance(buffer.obj, bytearray)  # a view of the buffer the file was read into, not a copy
    assert first.depth.flags.writeable
    assert not np.shares_memory(first.depth, second.depth)  # a frame someone holds never changes
    assert first.depth.dtype == np.float32 and first.depth.shape == (3, 5)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count open descriptors")
def test_depth_reads_leave_no_descriptor_open(tmp_path):
    good = tmp_path / "good.depth"
    write_depth_file(good, DepthFrame(4, 3, np.full((3, 4), 2.0, dtype=np.float32), 10.0))
    data = good.read_bytes()
    refused = {  # the refusal -> the file's bytes
        "bad magic": b"NOTDEPTH" + data[8:],
        "truncated header": data[:12],
        "expected 64 bytes, found 60": data[:-4],
        "depth values must lie in": data,  # a 2.0 m frame read with max_range 1.0
    }
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        read_depth_file(good, 10.0)
    assert len(os.listdir("/proc/self/fd")) == before
    for refusal, content in refused.items():
        path = tmp_path / "refused.depth"
        path.write_bytes(content)
        for _ in range(50):
            with pytest.raises(OSError, match=refusal):
                read_depth_file(path, 1.0)
        assert len(os.listdir("/proc/self/fd")) == before, refusal


# -- type validation ------------------------------------------------------------


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=20.0, cy=0.0, width=10, height=10)


def test_bbox_validation_and_clamp():
    with pytest.raises(ValueError):
        BoundingBox(5.0, 0.0, 5.0, 10.0)
    assert BoundingBox(-5.0, -5.0, 5.0, 5.0).clamp(100, 100) == BoundingBox(0.0, 0.0, 5.0, 5.0)
    assert BoundingBox(-10.0, -10.0, -1.0, -1.0).clamp(100, 100) is None


def test_depth_frame_validation():
    with pytest.raises(ValueError):
        DepthFrame(4, 4, np.full((4, 4), np.nan, dtype=np.float32), 10.0)
    with pytest.raises(ValueError):
        DepthFrame(4, 4, np.full((4, 4), 99.0, dtype=np.float32), max_range=10.0)


@pytest.mark.parametrize(
    "bad, max_range, message",
    [
        (np.nan, 10.0, "non-finite"),
        (np.inf, 10.0, "non-finite"),
        (np.inf, np.inf, "non-finite"),
        (-np.inf, 10.0, "non-finite"),
        (-0.5, 10.0, r"must lie in \[0, 10.0\]"),
        (10.5, 10.0, r"must lie in \[0, 10.0\]"),
    ],
)
def test_depth_frame_names_what_is_wrong(bad, max_range, message):
    depth = np.full((3, 5), 2.0, dtype=np.float32)
    depth[1, 3] = bad
    with pytest.raises(ValueError, match=message):
        DepthFrame(5, 3, depth, max_range)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.0, 0.0, 10, 10)
    for size in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^cell_size must be positive and finite$"):
            GridSpec(0.0, 0.0, size, 10, 10)
    for origin in ((float("nan"), 0.0), (0.0, float("-inf"))):
        with pytest.raises(ValueError, match="^grid origin must be finite$"):
            GridSpec(*origin, 0.5, 10, 10)
    grid = GridSpec(0.0, 0.0, 0.5, 10, 10)
    assert cell_center(grid, (0, 0)) == (0.25, 0.25)
    assert voxelize([[*cell_center(grid, (3, 7)), 0.0]], [1.0])[0].tolist() == [[3, 7]]
