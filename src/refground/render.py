"""Ray-cast depth rendering of box scenes and ground-truth detections.

Each pixel's ray is intersected with axis-aligned boxes (objects plus floor
and walls) by the slab method (Williams et al., "An Efficient and Robust
Ray-Box Intersection Algorithm", JGT 2005); the reported value is z-depth
along the optical axis, not ray length, so a frontal wall renders at
constant depth. Visibility for detections comes from the same pass: a
pixel belongs to the object whose intersection is nearest, the first box
in `scene_boxes` order on a tie.

Boxes are visited one at a time with a running nearest hit, and each box
is slab-tested only over the pixel rectangle its depth-clipped projection
can cover. Every ray direction has camera z = 1, so a hit at ray parameter
t lies at camera depth t, and only hits with 1e-9 < t <= max_range reach
the output. A hit also lies at least the box's distance D from the camera,
which bounds t from below by D / K, K being the longest ray per unit of
depth (the frame corner's, sqrt(1 + max u^2 + max v^2)). The box is
therefore clipped to the band z_lo <= z <= z_hi with
z_lo = D / K * (1 - 1e-6) - 1e-6 and z_hi = max_range * (1 + 1e-6) + 1e-6,
both padded outward; the band's vertices (in-band corners and the points
where the 12 edges cross the two planes) are projected, and their bounding
rectangle, floored, ceiled and padded by one pixel, contains every pixel
the box can win. A box whose clipped set is empty or off-frame is skipped;
a box that contains the camera or nearly touches it (z_lo <= 0) is tested
over the full frame. Pixels inside a rectangle run the same per-element
arithmetic as a dense test, so the output is the same to the byte.

The room shell (floor and four walls) takes one full-frame pass after the
objects when the camera is strictly inside the room: each of its six
distances to the floor, the wall planes and the top of the walls exceeds
1e-6 * K. Per axis the ray meets the inner face it points at, at
tx = (ex - ox) * ix if ix > 0 else (0 - ox) * ix, with ix = 1 / dx
(likewise y and z). A ray pointing down meets the shell at
min(tx, ty, tz); a ray pointing up meets a wall at min(tx, ty) if that is
<= tz, and otherwise leaves over the top. These are the very products the
slab test forms for the walls' inner faces and the floor's top face, and
the nearest shell box's t_near is one of them, so depth is the same to the
byte; the pass updates only where it is strictly nearer, so objects keep
their ties, as earlier boxes do. The margin keeps every such hit at
t >= 1e-6, above the 1e-9 below which the slab test would take a box's
exit face instead. A camera outside that interior (above the walls, say)
tests the five boxes in the loop like any other.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, Pose
from .simulator import Detection, RoomSpec

STRUCTURE_ID = -2  # walls and floor
NO_HIT = -1

_WALL_THICKNESS = 0.2


def scene_boxes(
    room: RoomSpec, include_structure: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mins (B, 3), maxs (B, 3), ids (B,)): objects first, then structure."""
    ex, ey, ez = room.extents
    mins, maxs, ids = [], [], []
    for idx, obj in enumerate(room.objects):
        mins.append(obj.box_min)
        maxs.append(obj.box_max)
        ids.append(idx)
    t = _WALL_THICKNESS
    structure = [
        ((-t, -t, -t), (ex + t, ey + t, 0.0)),  # floor
        ((-t, -t, 0.0), (0.0, ey + t, ez)),  # x = 0 wall
        ((ex, -t, 0.0), (ex + t, ey + t, ez)),  # x = ex wall
        ((-t, -t, 0.0), (ex + t, 0.0, ez)),  # y = 0 wall
        ((-t, ey, 0.0), (ex + t, ey + t, ez)),  # y = ey wall
    ]
    if include_structure:
        for bmin, bmax in structure:
            mins.append(bmin)
            maxs.append(bmax)
            ids.append(STRUCTURE_ID)
    if not mins:
        return np.empty((0, 3)), np.empty((0, 3)), np.empty(0, dtype=np.int64)
    return (
        np.asarray(mins, dtype=np.float64),
        np.asarray(maxs, dtype=np.float64),
        np.asarray(ids, dtype=np.int64),
    )


# Box corner k takes the max along axis a when bit (2 - a) of k is set; the
# 12 edges join corners that differ in one bit.
_CORNER_BITS = ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1).astype(bool)
_EDGES = np.array([(a, a | bit) for a in range(8) for bit in (1, 2, 4) if not a & bit])


def _pixel_rects(
    mins: np.ndarray,
    maxs: np.ndarray,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    ray_len: float,
    max_range: float,
) -> np.ndarray:
    """(B, 4) int rows (u0, u1, v0, v1): the half-open pixel rectangle each box can win.

    An empty row (u0 == u1) means the box cannot be hit within max_range;
    the module docstring gives the bound.
    """
    origin = pose.translation
    gap = np.maximum(np.maximum(mins - origin, origin - maxs), 0.0)
    z_lo = np.sqrt((gap * gap).sum(axis=1)) / ray_len * (1 - 1e-6) - 1e-6
    z_hi = max_range * (1 + 1e-6) + 1e-6
    # camera coordinates that invert the ray construction dirs = R @ d_cam
    corners = np.where(_CORNER_BITS, maxs[:, None, :], mins[:, None, :])
    cam = (corners - origin) @ np.linalg.inv(pose.rotation).T  # (B, 8, 3)
    a, b = cam[:, _EDGES[:, 0]], cam[:, _EDGES[:, 1]]  # (B, 12, 3)
    points, valid = [cam], [(cam[..., 2] >= z_lo[:, None]) & (cam[..., 2] <= z_hi)]
    for plane in (z_lo[:, None], z_hi):
        crosses = (a[..., 2] - plane) * (b[..., 2] - plane) < 0
        s = (plane - a[..., 2]) / np.where(crosses, b[..., 2] - a[..., 2], 1.0)
        p = a + s[..., None] * (b - a)
        p[..., 2] = plane
        points.append(p)
        valid.append(crosses)
    points = np.concatenate(points, axis=1)
    valid = np.concatenate(valid, axis=1) & (z_lo > 0)[:, None]
    z = np.where(valid, points[..., 2], 1.0)
    u = intrinsics.fx * points[..., 0] / z + intrinsics.cx
    v = intrinsics.fy * points[..., 1] / z + intrinsics.cy
    w, h = intrinsics.width, intrinsics.height
    u0 = np.clip(np.floor(np.where(valid, u, np.inf).min(axis=1)) - 1, 0, w)
    u1 = np.clip(np.ceil(np.where(valid, u, -np.inf).max(axis=1)) + 2, 0, w)
    v0 = np.clip(np.floor(np.where(valid, v, np.inf).min(axis=1)) - 1, 0, h)
    v1 = np.clip(np.ceil(np.where(valid, v, -np.inf).max(axis=1)) + 2, 0, h)
    rects = np.stack([u0, u1, v0, v1], axis=1).astype(np.int64)
    rects[(u0 >= u1) | (v0 >= v1)] = 0  # nothing in the band, or off-frame
    rects[z_lo <= 0] = (0, w, 0, h)  # contains the camera or nearly touches it
    return rects


def render_scene(
    room: RoomSpec,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    max_range: float,
    include_structure: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Render (depth (h, w) float32, winner (h, w) int64) for one view.

    winner holds the index of the nearest object per pixel, STRUCTURE_ID for
    walls/floor, NO_HIT where nothing is within max_range. Depth is 0 there.
    """
    w, h = intrinsics.width, intrinsics.height
    us = (np.arange(w) + 0.5 - intrinsics.cx) / intrinsics.fx
    vs = (np.arange(h) + 0.5 - intrinsics.cy) / intrinsics.fy
    # planar (3, h, w) rays, so the slab reductions below run over the leading axis
    dirs_cam = np.empty((3, h, w))
    dirs_cam[0] = us
    dirs_cam[1] = vs[:, None]
    dirs_cam[2] = 1.0
    dirs = pose.rotation @ dirs_cam.reshape(3, -1)
    dirs = np.where(np.abs(dirs) < 1e-12, 1e-12, dirs)
    origin = pose.translation
    inv = (1.0 / dirs).reshape(3, h, w)
    ray_len = float(np.sqrt(1.0 + np.abs(us).max() ** 2 + np.abs(vs).max() ** 2))

    mins, maxs, ids = scene_boxes(room, include_structure)
    extents = np.asarray(room.extents, dtype=np.float64)
    gaps = np.concatenate([origin, extents - origin])
    shell = include_structure and bool((gaps > 1e-6 * ray_len).all())
    n_loop = len(room.objects) if shell else len(ids)  # the shell pass replaces the structure boxes
    best = np.full((h, w), np.inf)
    winner = np.full((h, w), NO_HIT, dtype=np.int64)
    rects = _pixel_rects(mins[:n_loop], maxs[:n_loop], pose, intrinsics, ray_len, max_range)
    for box, (u0, u1, v0, v1) in enumerate(rects):
        if u0 == u1:
            continue
        inv_r = inv[:, v0:v1, u0:u1]
        t1 = (mins[box] - origin)[:, None, None] * inv_r
        t2 = (maxs[box] - origin)[:, None, None] * inv_r
        tnear = np.minimum(t1, t2).max(axis=0)
        tfar = np.maximum(t1, t2).min(axis=0)
        hit = (tnear <= tfar) & (tfar > 1e-9)
        tval = np.where(tnear > 1e-9, tnear, tfar)  # camera inside a box: exit face
        tval = np.where(hit, tval, np.inf)
        closer = tval < best[v0:v1, u0:u1]  # strict: the first box keeps a tie
        np.copyto(best[v0:v1, u0:u1], tval, where=closer)
        np.copyto(winner[v0:v1, u0:u1], ids[box], where=closer)

    if shell:
        # each axis's inner wall (or floor) face the ray points at
        o = origin[:, None, None]
        tx, ty, tz = np.where(inv > 0, extents[:, None, None] - o, 0.0 - o) * inv
        walls = np.minimum(tx, ty)
        # a rising ray that reaches the top of the walls first leaves the room
        tval = np.where(walls <= tz, walls, np.where(inv[2] < 0, tz, np.inf))
        closer = tval < best  # strict: objects keep a tie
        np.copyto(best, tval, where=closer)
        np.copyto(winner, STRUCTURE_ID, where=closer)

    miss = ~np.isfinite(best) | (best > max_range)
    depth = np.where(miss, 0.0, best)
    winner[miss] = NO_HIT
    return depth.astype(np.float32), winner


def gt_detections(
    room: RoomSpec, winner: np.ndarray, captions: dict[int, str], min_pixels: int
) -> list[Detection]:
    """Tight boxes around each object's visible pixels, with its caption.

    Visibility comes from render_scene's winner map: an occluded object wins
    no pixel and yields nothing; an object clipped by the frame edge gets a
    clamped box; one that wins fewer than min_pixels pixels is dropped.
    """
    # one pass over the map: each object's pixel count and occupied rows and columns
    h, w = winner.shape
    n = len(room.objects)
    ys, xs = np.nonzero(winner >= 0)
    ids = winner[ys, xs]
    pixels = np.bincount(ids, minlength=n)
    rows = np.bincount(ids * h + ys, minlength=n * h).reshape(n, h) > 0
    cols = np.bincount(ids * w + xs, minlength=n * w).reshape(n, w) > 0
    detections: list[Detection] = []
    for idx, obj in enumerate(room.objects):
        if pixels[idx] < max(min_pixels, 1):
            continue
        u0, u1 = cols[idx].argmax(), w - cols[idx, ::-1].argmax()
        v0, v1 = rows[idx].argmax(), h - rows[idx, ::-1].argmax()
        bbox = BoundingBox(float(u0), float(v0), float(u1), float(v1))
        detections.append(Detection(bbox, captions[obj.id], obj.id))
    return detections
