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

What depends only on the room and the camera, not the pose, is built once
per trajectory by `render_setup`: the boxes, ids and extents, the corner
ray length K and the planar (3, h * w) grid of camera rays. The grid is
read-only: a frame's world rays `R @ rays` are a fresh array, which the
frame overwrites with their inverses and then with shell face products.
The rectangles of a whole trajectory are worked out in one pass over its
poses (`_pixel_rects` with a leading frame axis); `trajectory_frames`
hands each frame the set-up and its rows. Per frame, each box's
`mins - origin` and `maxs - origin` are formed once, the 1e-12 clamp on
ray components runs only when some component is that small, and a pixel
is a miss when `not best <= max_range` (no hit leaves best at inf). An
object wins pixels only inside its rectangle, so `gt_detections` scans
each object's rectangle of the winner map, not the whole frame.

The room shell (floor and four walls) takes one full-frame pass after the
objects when the set-up holds it (boxes beyond the objects) and the camera
is strictly inside the room: each of its six distances to the floor, the
wall planes and the top of the walls exceeds 1e-6 * K. Per axis the ray meets the inner face it points at, at
tx = (ex - ox) * ix if ix > 0 else (0 - ox) * ix, with ix = 1 / dx
(likewise y and z). Inside the room ex - ox > 0 > 0 - ox, and ix is
finite and nonzero, so the two products have opposite signs and tx is
simply max((ex - ox) * ix, (0 - ox) * ix). A ray pointing down meets the
shell at min(tx, ty, tz); a ray pointing up meets a wall at min(tx, ty)
if that is <= tz, and otherwise leaves over the top. These are the very
products the slab test forms for the walls' inner faces and the floor's
top face, and the nearest shell box's t_near is one of them, so depth is
the same to the byte; the pass updates only where it is strictly nearer,
so objects keep their ties, as earlier boxes do. The margin keeps every
such hit at t >= 1e-6, above the 1e-9 below which the slab test would
take a box's exit face instead. A camera outside that interior (above the
walls, say) tests the five boxes in the loop like any other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, Pose
from .simulator import Detection, RoomSpec

STRUCTURE_ID = -2  # walls and floor
NO_HIT = -1

_WALL_THICKNESS = 0.2


def scene_boxes(
    room: RoomSpec, include_structure: bool
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


class RenderSetup(NamedTuple):
    """What every render of one room through one camera shares, whatever the
    pose; render_setup builds it."""

    intrinsics: CameraIntrinsics
    mins: np.ndarray  # (B, 3) scene_boxes
    maxs: np.ndarray  # (B, 3)
    ids: np.ndarray  # (B,)
    n_objects: int  # the boxes after these are the floor and walls
    extents: np.ndarray  # (3,)
    ray_len: float  # longest ray per unit of depth, the frame corner's
    rays: np.ndarray  # (3, h * w) camera rays, planar; read-only


def render_setup(room: RoomSpec, intrinsics: CameraIntrinsics) -> RenderSetup:
    """The boxes of scene_boxes(room, True) and the camera rays at the pixel
    centres, each with camera z = 1."""
    w, h = intrinsics.width, intrinsics.height
    us = (np.arange(w) + 0.5 - intrinsics.cx) / intrinsics.fx
    vs = (np.arange(h) + 0.5 - intrinsics.cy) / intrinsics.fy
    ray_len = float(np.sqrt(1.0 + np.abs(us).max() ** 2 + np.abs(vs).max() ** 2))
    rays = np.empty((3, h, w))
    rays[0] = us
    rays[1] = vs[:, None]
    rays[2] = 1.0
    rays = rays.reshape(3, -1)
    rays.flags.writeable = False
    mins, maxs, ids = scene_boxes(room, True)
    extents = np.asarray(room.extents, dtype=np.float64)
    return RenderSetup(intrinsics, mins, maxs, ids, len(room.objects), extents, ray_len, rays)


def _pixel_rects(setup: RenderSetup, poses: list[Pose], max_range: float) -> np.ndarray:
    """(F, B, 4) int rows (u0, u1, v0, v1): per pose, the half-open pixel
    rectangle each box of the set-up can win.

    An empty row (u0 == u1) means the box cannot be hit within max_range;
    the module docstring gives the bound.
    """
    mins, maxs, intrinsics = setup.mins, setup.maxs, setup.intrinsics
    origin = np.array([pose.translation for pose in poses])[:, None, :]  # (F, 1, 3)
    gap = np.maximum(np.maximum(mins - origin, origin - maxs), 0.0)
    z_lo = np.sqrt((gap * gap).sum(axis=2)) / setup.ray_len * (1 - 1e-6) - 1e-6
    z_hi = max_range * (1 + 1e-6) + 1e-6
    # camera coordinates that invert the ray construction dirs = R @ d_cam
    to_cam = np.linalg.inv(np.array([pose.rotation for pose in poses])).transpose(0, 2, 1)
    corners = np.where(_CORNER_BITS, maxs[:, None, :], mins[:, None, :])
    cam = (corners - origin[:, None]) @ to_cam[:, None]  # (F, B, 8, 3)
    a, b = cam[:, :, _EDGES[:, 0]], cam[:, :, _EDGES[:, 1]]  # (F, B, 12, 3)
    points, valid = [cam], [(cam[..., 2] >= z_lo[..., None]) & (cam[..., 2] <= z_hi)]
    for plane in (z_lo[..., None], z_hi):
        crosses = (a[..., 2] - plane) * (b[..., 2] - plane) < 0
        s = (plane - a[..., 2]) / np.where(crosses, b[..., 2] - a[..., 2], 1.0)
        p = a + s[..., None] * (b - a)
        p[..., 2] = plane
        points.append(p)
        valid.append(crosses)
    points = np.concatenate(points, axis=2)
    valid = np.concatenate(valid, axis=2) & (z_lo > 0)[..., None]
    z = np.where(valid, points[..., 2], 1.0)
    u = intrinsics.fx * points[..., 0] / z + intrinsics.cx
    v = intrinsics.fy * points[..., 1] / z + intrinsics.cy
    w, h = intrinsics.width, intrinsics.height
    u0 = np.clip(np.floor(np.where(valid, u, np.inf).min(axis=2)) - 1, 0, w)
    u1 = np.clip(np.ceil(np.where(valid, u, -np.inf).max(axis=2)) + 2, 0, w)
    v0 = np.clip(np.floor(np.where(valid, v, np.inf).min(axis=2)) - 1, 0, h)
    v1 = np.clip(np.ceil(np.where(valid, v, -np.inf).max(axis=2)) + 2, 0, h)
    rects = np.stack([u0, u1, v0, v1], axis=2).astype(np.int64)
    rects[(u0 >= u1) | (v0 >= v1)] = 0  # nothing in the band, or off-frame
    rects[z_lo <= 0] = (0, w, 0, h)  # contains the camera or nearly touches it
    return rects


def render_scene(
    room: RoomSpec,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    max_range: float,
    *,
    setup: RenderSetup,
    rects: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Render (depth (h, w) float32, winner (h, w) int64) for one view.

    winner holds the index of the nearest object per pixel, STRUCTURE_ID for
    walls/floor, NO_HIT where nothing is within max_range. Depth is 0 there.
    setup is render_setup(room, intrinsics) and rects this pose's rows of
    _pixel_rects over it; intrinsics other than the set-up's are refused.
    """
    if intrinsics is not setup.intrinsics and intrinsics != setup.intrinsics:
        raise ValueError(f"intrinsics {intrinsics} differ from the set-up's {setup.intrinsics}")
    w, h = setup.intrinsics.width, setup.intrinsics.height
    dirs = pose.rotation @ setup.rays  # a fresh array: the only one written below
    if np.abs(dirs).min() < 1e-12:
        np.copyto(dirs, 1e-12, where=np.abs(dirs) < 1e-12)
    inv = np.divide(1.0, dirs, out=dirs).reshape(3, h, w)
    origin = pose.translation

    extents = setup.extents
    gaps = np.concatenate([origin, extents - origin])
    shell = len(setup.ids) > setup.n_objects and bool((gaps > 1e-6 * setup.ray_len).all())
    n_loop = setup.n_objects if shell else len(setup.ids)  # the shell pass replaces the structure boxes
    best = np.full((h, w), np.inf)
    winner = np.full((h, w), NO_HIT, dtype=np.int64)
    lo, hi, ids = setup.mins - origin, setup.maxs - origin, setup.ids
    for box, (u0, u1, v0, v1) in enumerate(rects[:n_loop].tolist()):
        if u0 == u1:
            continue
        inv_r = inv[:, v0:v1, u0:u1]
        t1 = lo[box][:, None, None] * inv_r
        t2 = hi[box][:, None, None] * inv_r
        tnear = np.minimum(t1, t2).max(axis=0)
        tfar = np.maximum(t1, t2, out=t1).min(axis=0)
        hit = (tnear <= tfar) & (tfar > 1e-9)
        tval = np.where(tnear > 1e-9, tnear, tfar)  # camera inside a box: exit face
        best_r = best[v0:v1, u0:u1]
        closer = tval < best_r  # strict: the first box keeps a tie
        closer &= hit
        np.copyto(best_r, tval, where=closer)
        np.copyto(winner[v0:v1, u0:u1], ids[box], where=closer)

    if shell:
        # each axis's inner wall (or floor) face the ray points at: the
        # positive one of the two face products
        falling = inv[2] < 0
        faces = (extents - origin)[:, None, None] * inv
        np.maximum(faces, np.multiply((0.0 - origin)[:, None, None], inv, out=inv), out=faces)
        tx, ty, tz = faces
        walls = np.minimum(tx, ty, out=tx)
        np.minimum(walls, tz, out=walls, where=falling)  # the floor or a wall, whichever is nearer
        # a rising ray that reaches the top of the walls first leaves the room
        np.copyto(walls, np.inf, where=walls > tz)
        closer = walls < best  # strict: objects keep a tie
        np.copyto(best, walls, where=closer)
        np.copyto(winner, STRUCTURE_ID, where=closer)

    miss = ~(best <= max_range)  # also inf: nothing hit
    np.copyto(best, 0.0, where=miss)
    np.copyto(winner, NO_HIT, where=miss)
    return best.astype(np.float32), winner


def gt_detections(
    room: RoomSpec,
    winner: np.ndarray,
    captions: dict[int, str],
    min_pixels: int,
    rects: np.ndarray,
) -> list[Detection]:
    """Tight boxes around each object's visible pixels, with its caption.

    Visibility comes from render_scene's winner map: an occluded object wins
    no pixel and yields nothing; an object clipped by the frame edge gets a
    clamped box; one that wins fewer than min_pixels pixels is dropped.
    An object wins pixels only inside its row of the rects render_scene
    took, so each object is scanned there.
    """
    n = len(room.objects)
    detections: list[Detection] = []
    for idx, (obj, (u0, u1, v0, v1)) in enumerate(zip(room.objects, rects[:n].tolist())):
        if u0 == u1:
            continue
        mine = winner[v0:v1, u0:u1] == idx
        if np.count_nonzero(mine) < max(min_pixels, 1):
            continue
        cols, rows = mine.any(axis=0).nonzero()[0], mine.any(axis=1).nonzero()[0]
        bbox = BoundingBox(
            float(u0 + cols[0]), float(v0 + rows[0]), float(u0 + cols[-1] + 1), float(v0 + rows[-1] + 1)
        )
        detections.append(Detection(bbox, captions[obj.id], obj.id))
    return detections
