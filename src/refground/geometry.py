"""Pinhole back-projection, rigid transforms, soft-mask weighting, BEV binning.

Conventions: camera frame is +x right, +y down, +z forward (optical axis);
world frame is +z up. Pixel (u, v) refers to the continuous image plane;
integer pixel indices sample at their centers (u + 0.5, v + 0.5). The
bird's-eye view projects world (x, y) onto the ground plane.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):  # NaN too
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the frame")


@dataclass(frozen=True, eq=False)
class Pose:
    """Camera-to-world rigid transform: p_world = rotation @ p_cam + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        m = R.tolist()  # the checks run on Python floats: 3x3 is too small for numpy to pay
        if not all(abs(x) <= 1 + 1e-6 for row in m for x in row) or not all(map(math.isfinite, t.tolist())):
            raise ValueError("rotation entries must lie in [-1, 1] and translation must be finite")
        (a, b, c), (d, e, f), (g, h, i) = m
        if (  # R.T @ R against the identity: the six column dot products of (a, d, g), (b, e, h), (c, f, i)
            abs(a * a + d * d + g * g - 1) > 1e-6
            or abs(a * b + d * e + g * h) > 1e-6
            or abs(a * c + d * f + g * i) > 1e-6
            or abs(b * b + e * e + h * h - 1) > 1e-6
            or abs(b * c + e * f + h * i) > 1e-6
            or abs(c * c + f * f + i * i - 1) > 1e-6
        ):
            raise ValueError("rotation is not orthonormal within 1e-6")
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > 1e-6:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError("pose matrix must be 4x4")
        if m[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
            raise ValueError(f"pose matrix bottom row must be 0 0 0 1, got {' '.join(map(str, m[3].tolist()))}")
        return cls(m[:3, :3], m[:3, 3])


@dataclass(frozen=True)
class BoundingBox:
    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError(f"degenerate bounding box {self!r}")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))

    def clamp(self, width: int, height: int) -> "BoundingBox | None":
        """Clip to the frame; None when nothing remains."""
        u0, v0 = max(self.u_min, 0.0), max(self.v_min, 0.0)
        u1, v1 = min(self.u_max, float(width)), min(self.v_max, float(height))
        if u0 >= u1 or v0 >= v1:
            return None
        return BoundingBox(u0, v0, u1, v1)


@dataclass(frozen=True, eq=False)
class DepthFrame:
    """Row-major z-depth in meters; 0.0 marks invalid (no return)."""

    width: int
    height: int
    depth: np.ndarray
    max_range: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1:  # before any reduction: an empty map has no max
            raise ValueError(f"depth frame is {self.width}x{self.height}; width and height must be at least 1")
        d = np.asarray(self.depth, dtype=np.float32).reshape(self.height, self.width)
        top = d.max()
        if not (0 <= d.min() and top <= self.max_range and top < np.inf):  # false for NaN too
            if not np.all(np.isfinite(d)):
                raise ValueError("depth frame contains non-finite values")
            raise ValueError(f"depth values must lie in [0, {self.max_range}]")
        object.__setattr__(self, "depth", d)


@dataclass(frozen=True)
class GridSpec:
    """2D occupancy grid: d1 cells along x, d2 along y, cell_size meters each."""

    origin_x: float
    origin_y: float
    cell_size: float
    d1: int
    d2: int

    def __post_init__(self):
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError("cell_size must be positive and finite")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValueError("grid origin must be finite")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("grid dimensions must be >= 1")


def to_world(p_cam: np.ndarray, pose: Pose) -> np.ndarray:
    """Apply the rigid transform; accepts a single (3,) point or an (N, 3) batch."""
    p = np.asarray(p_cam, dtype=np.float64)
    return p @ pose.rotation.T + pose.translation


def _pixel_range(lo: float, hi: float, stride: int) -> tuple[int, int]:
    """Start and stop of the every-`stride`-th pixel from floor(lo) whose
    center (index + 0.5) lies in [lo, hi)."""
    start, stop = math.floor(lo), math.ceil(hi)
    if start + 0.5 < lo:
        start += stride
    if stop - 1 + 0.5 >= hi:
        stop -= 1
    return start, stop


def bbox_cloud_arrays(
    bbox: BoundingBox,
    depth: DepthFrame,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    sigma_frac: float,
    stride: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Back-project every valid-depth pixel in the box to a weighted world point.

    Returns (points (N, 3), weights (N,)); a weight is the clipped box's 2D
    Gaussian soft mask at the pixel center, peak 1/(2*sigma_u*sigma_v) with
    sigma = sigma_frac * box side, which favours box centers over boundaries
    and background. Pixels with invalid depth are skipped; an all-invalid
    box yields empty arrays (no evidence).

    The box is read as a strided view of the frame. Every per-point term
    depends on the pixel's column or its row alone, so it is computed once
    per column or row and gathered.
    """
    if sigma_frac <= 0:
        raise ValueError("sigma_frac must be positive")
    u0, v0 = max(bbox.u_min, 0.0), max(bbox.v_min, 0.0)  # the box clipped to the frame
    u1, v1 = min(bbox.u_max, float(depth.width)), min(bbox.v_max, float(depth.height))
    if u0 >= u1 or v0 >= v1:
        return np.empty((0, 3)), np.empty(0)
    u_lo, u_hi = _pixel_range(u0, u1, stride)
    v_lo, v_hi = _pixel_range(v0, v1, stride)
    if u_lo >= u_hi or v_lo >= v_hi:
        return np.empty((0, 3)), np.empty(0)
    d = depth.depth[v_lo:v_hi:stride, u_lo:u_hi:stride]
    valid = d > 0
    rows, cols = np.nonzero(valid)  # row-major: the box's pixels in reading order
    if rows.size == 0:
        return np.empty((0, 3)), np.empty(0)
    ucent = np.arange(u_lo, u_hi, stride) + 0.5
    vcent = np.arange(v_lo, v_hi, stride) + 0.5
    dval = d[valid].astype(np.float64)
    cam = np.empty((rows.size, 3))
    cam[:, 0] = (ucent - intrinsics.cx)[cols] * dval / intrinsics.fx
    cam[:, 1] = (vcent - intrinsics.cy)[rows] * dval / intrinsics.fy
    cam[:, 2] = dval
    world = to_world(cam, pose)
    sigma_u, sigma_v = sigma_frac * (u1 - u0), sigma_frac * (v1 - v0)
    du = (ucent - 0.5 * (u0 + u1)) / sigma_u
    dv = (vcent - 0.5 * (v0 + v1)) / sigma_v
    weights = (1.0 / (2.0 * sigma_u * sigma_v)) * np.exp(-0.5 * ((du * du)[cols] + (dv * dv)[rows]))
    return world, weights


def voxelize_bev_arrays(
    points: np.ndarray, weights: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Top-down BEV projection of weighted world points onto the grid.

    Returns (cells (M, 2), mean weights (M,), point counts (M,), dropped):
    each occupied cell with the arithmetic mean weight and the number of
    its member points, and the number of out-of-grid points. Cells are
    keyed by floor((coord - origin) / cell_size); boundary points land in
    the higher-index cell. Output rows are sorted by (x, y).

    The in-grid points are counted into the window of cells they span,
    never larger than the grid, so the occupied cells come out in (x, y)
    order with no sort, and weights add up per cell in input order. The
    window's bounds also show whether any point left the grid.
    """
    if len(points) == 0:
        return np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 0
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    ix = np.floor((pts[:, 0] - grid.origin_x) / grid.cell_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - grid.origin_y) / grid.cell_size).astype(np.int64)
    x0, x1, y0, y1 = ix.min(), ix.max(), iy.min(), iy.max()
    dropped = 0
    if x0 < 0 or y0 < 0 or x1 >= grid.d1 or y1 >= grid.d2:  # the window leaves the grid
        inside = (ix >= 0) & (ix < grid.d1) & (iy >= 0) & (iy < grid.d2)
        dropped = len(ix) - int(np.count_nonzero(inside))
        if dropped == len(ix):
            return np.empty((0, 2), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), dropped
        ix, iy, w = ix[inside], iy[inside], w[inside]
        x0, y0, y1 = ix.min(), iy.min(), iy.max()
    ny = int(y1 - y0) + 1
    local = (ix - x0) * ny + (iy - y0)
    counts = np.bincount(local)
    sums = np.bincount(local, weights=w)
    occupied = np.flatnonzero(counts)
    counts = counts[occupied]
    cells = np.stack([occupied // ny + x0, occupied % ny + y0], axis=1)
    return cells, sums[occupied] / counts, counts, dropped


DEPTH_MAGIC = b"DORODPTH"


def write_depth_file(path: str | Path, frame: DepthFrame) -> None:
    """DORODPTH format: magic, uint32 LE width/height, float32 LE row-major data."""
    data = np.ascontiguousarray(frame.depth, dtype="<f4")  # no copy for a C-ordered float32 map
    with open(path, "wb") as fh:
        fh.write(DEPTH_MAGIC + struct.pack("<II", frame.width, frame.height))
        fh.write(data)


def read_depth_file(path: str | Path, max_range: float) -> DepthFrame:
    """Read a DORODPTH file with one unbuffered read into a buffer of the file's
    size; the frame's depth is a float32 view of that buffer past the header, not a copy."""
    with open(path, "rb", buffering=0) as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]  # a short read leaves a shorter file
    if raw[:8] != DEPTH_MAGIC:
        raise OSError(f"{path}: bad magic {bytes(raw[:8])!r}")
    if len(raw) < 16:
        raise OSError(f"{path}: truncated header")
    width, height = struct.unpack_from("<II", raw, 8)
    expected = 16 + 4 * width * height
    if len(raw) != expected:
        raise OSError(f"{path}: expected {expected} bytes, found {len(raw)}")
    depth = np.frombuffer(raw, dtype="<f4", offset=16)
    try:
        return DepthFrame(width, height, depth, max_range=max_range)
    except ValueError as exc:  # e.g. written under a larger max_range than configured
        largest = f": largest depth {float(depth.max())}, configured max_range {max_range}" if depth.size else ""
        raise OSError(f"{path}: {exc}{largest}") from exc
