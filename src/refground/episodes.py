"""Observation stream layout: one directory per episode.

    episode_00000/
        room.json            ground-truth scene
        episode.jsonl        one record per frame: index, pose (16 row-major
                             numbers), intrinsics, detections, depth file name
        instructions.jsonl   evaluation labels
        frame_00000.depth    DORODPTH binary depth frames

All JSON is written with sorted keys and plain Python floats so reruns with
the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    DepthFormatError,
    DepthFrame,
    Pose,
    read_depth_file,
    write_depth_file,
)
from .language import realize
from .render import _pixel_rects, gt_detections, render_scene, render_setup
from .simulator import (
    Detection,
    InstructionCase,
    RoomSpec,
    emit_instructions,
    plan_trajectory,
    scene_graphs,
)


class DatasetError(ValueError):
    """Episode directory is missing required files or has malformed records."""


def dump_json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


@dataclass(frozen=True)
class FrameRecord:
    index: int
    pose: Pose
    intrinsics: CameraIntrinsics
    detections: tuple[Detection, ...]
    depth_path: Path

    def load_depth(self, max_range: float) -> DepthFrame:
        """The frame's depth map; a map whose size differs from the intrinsics is refused."""
        depth = read_depth_file(self.depth_path, max_range=max_range)
        k = self.intrinsics
        if (depth.width, depth.height) != (k.width, k.height):
            raise DepthFormatError(
                f"{self.depth_path}: depth is {depth.width}x{depth.height}, "
                f"the frame's intrinsics {k.width}x{k.height}"
            )
        return depth


def _detection_dict(det: Detection) -> dict:
    return {
        "bbox": [det.bbox.u_min, det.bbox.v_min, det.bbox.u_max, det.bbox.v_max],
        "caption": det.caption,
        "gt_id": det.gt_object_id,
    }


def _detection_from_dict(d: dict, k: CameraIntrinsics) -> Detection:
    u0, v0, u1, v1 = (float(x) for x in d["bbox"])
    if not (0 <= u0 < u1 <= k.width and 0 <= v0 < v1 <= k.height):
        raise ValueError(f"bbox {d['bbox']} is not a box inside the {k.width}x{k.height} frame")
    if not isinstance(d["caption"], str):
        raise TypeError(f"caption must be a string, got {d['caption']!r}")
    return Detection(BoundingBox(u0, v0, u1, v1), d["caption"], d.get("gt_id"))


def trajectory_frames(room: RoomSpec, config: PipelineConfig, graphs: dict | None = None):
    """Yield (pose, depth, detections) for each of the config.n_waypoints
    poses of the room's camera loop.

    depth is the rendered float32 map, detections the visible objects with
    captions. graphs is scene_graphs(room, config.tau_near), computed when
    not given.
    """
    if graphs is None:
        graphs = scene_graphs(room, config.tau_near)
    captions = {oid: realize(g) for oid, g in graphs.items()}
    intrinsics = config.intrinsics()
    poses = plan_trajectory(room, config)
    setup = render_setup(room, intrinsics)
    all_rects = _pixel_rects(setup, poses, config.max_range)
    for pose, rects in zip(poses, all_rects):
        depth, winner = render_scene(room, pose, intrinsics, config.max_range, setup=setup, rects=rects)
        detections = gt_detections(room, winner, captions, config.min_pixels, rects)
        yield pose, depth, detections


def simulate_episode(out_dir: str | Path, room: RoomSpec, config: PipelineConfig) -> Path:
    """Render every trajectory pose of one generated room; write depth frames and all episode files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "room.json").write_text(dump_json_line(room.to_dict()) + "\n", encoding="utf-8")
    k = config.intrinsics()
    intrinsics = asdict(k)
    graphs = scene_graphs(room, config.tau_near)
    frame_lines = []
    for index, (pose, depth, detections) in enumerate(trajectory_frames(room, config, graphs=graphs)):
        depth_name = f"frame_{index:05d}.depth"
        write_depth_file(out / depth_name, DepthFrame(k.width, k.height, depth, config.max_range))
        frame_lines.append(
            dump_json_line(
                {
                    "frame": index,
                    "pose": pose.matrix().reshape(-1).tolist(),
                    "intrinsics": intrinsics,
                    "detections": [_detection_dict(d) for d in detections],
                    "depth_file": depth_name,
                }
            )
        )
    (out / "episode.jsonl").write_text("\n".join(frame_lines) + "\n", encoding="utf-8")
    instructions = emit_instructions(room, graphs)
    (out / "instructions.jsonl").write_text(
        "\n".join(dump_json_line(case.to_dict()) for case in instructions) + "\n",
        encoding="utf-8",
    )
    return out


def read_json_lines(path: Path, parse) -> list:
    """parse(record) for every non-blank UTF-8 JSON line of path; a missing
    file, or a line that fails to decode or parse, is a DatasetError."""
    if not path.exists():
        raise DatasetError(f"{path.parent}: missing {path.name}")
    out = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line.decode("utf-8"))))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return out


def load_room(episode_dir: str | Path) -> RoomSpec:
    """The one JSON line of room.json that simulate_episode writes."""
    path = Path(episode_dir) / "room.json"
    rooms = read_json_lines(path, RoomSpec.from_dict)
    if len(rooms) != 1:
        raise DatasetError(f"{path}: expected one room record, found {len(rooms)}")
    return rooms[0]


def load_instructions(episode_dir: str | Path) -> list[InstructionCase]:
    return read_json_lines(Path(episode_dir) / "instructions.jsonl", InstructionCase.from_dict)


def load_episode(episode_dir: str | Path) -> list[FrameRecord]:
    episode_dir = Path(episode_dir)

    def frame(rec: dict) -> FrameRecord:
        pose = Pose.from_matrix(np.asarray(rec["pose"], dtype=np.float64).reshape(4, 4))
        k = rec["intrinsics"]
        intrinsics = CameraIntrinsics(
            k["fx"], k["fy"], k["cx"], k["cy"], int(k["width"]), int(k["height"])
        )
        detections = tuple(_detection_from_dict(d, intrinsics) for d in rec["detections"])
        index = int(rec["frame"])
        if index < 0:  # it seeds the frame's noise draws
            raise ValueError(f"frame index {index} is negative")
        return FrameRecord(index, pose, intrinsics, detections, episode_dir / rec["depth_file"])

    return read_json_lines(episode_dir / "episode.jsonl", frame)
