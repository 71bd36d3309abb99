"""Observation stream layout: one directory per episode.

    episode_00000/
        room.json            ground-truth scene
        episode.jsonl        one record per frame: index, pose (16 row-major
                             numbers), intrinsics, detections, depth file name
        instructions.jsonl   evaluation labels
        frame_00000.depth    DORODPTH binary depth frames

All JSON is written with sorted keys and plain Python floats so reruns with
the same seed produce byte-identical files. A record loads only if writing
the loaded value back gives the same JSON values (`json_diff`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
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
            raise OSError(
                f"{self.depth_path}: depth is {depth.width}x{depth.height}, "
                f"the frame's intrinsics {k.width}x{k.height}"
            )
        return depth


def _frame_dict(frame: FrameRecord) -> dict:
    """The episode.jsonl record of one frame; its depth file is named by its index."""
    k = frame.intrinsics
    (r0, r1, r2), (t0, t1, t2) = frame.pose.rotation.tolist(), frame.pose.translation.tolist()
    return {
        "frame": frame.index,
        "pose": [*r0, t0, *r1, t1, *r2, t2, 0.0, 0.0, 0.0, 1.0],
        "intrinsics": {"cx": k.cx, "cy": k.cy, "fx": k.fx, "fy": k.fy, "height": k.height, "width": k.width},
        "detections": [
            {"bbox": [d.bbox.u_min, d.bbox.v_min, d.bbox.u_max, d.bbox.v_max], "caption": d.caption,
             "gt_id": d.gt_object_id}
            for d in frame.detections
        ],
        "depth_file": f"frame_{frame.index:05d}.depth",
    }


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
    graphs = scene_graphs(room, config.tau_near)
    frame_lines = []
    for index, (pose, depth, detections) in enumerate(trajectory_frames(room, config, graphs=graphs)):
        frame = FrameRecord(index, pose, k, tuple(detections), out / f"frame_{index:05d}.depth")
        write_depth_file(frame.depth_path, DepthFrame(k.width, k.height, depth, config.max_range))
        frame_lines.append(dump_json_line(_frame_dict(frame)))
    (out / "episode.jsonl").write_text("\n".join(frame_lines) + "\n", encoding="utf-8")
    instructions = emit_instructions(room, graphs)
    (out / "instructions.jsonl").write_text(
        "\n".join(dump_json_line(case.to_dict()) for case in instructions) + "\n",
        encoding="utf-8",
    )
    return out


def json_diff(written, record) -> list | None:
    """None when record holds the JSON values of written, else the key path of
    the first that differs: a boolean is never a number, a JSON int stands for
    the float of its value, and an object holds exactly the written keys."""
    kind = type(written)
    if kind is not dict and kind is not list:
        same_kind = type(record) is kind or kind is float and type(record) is int
        return None if same_kind and record == written else []
    if type(record) is not kind or len(record) != len(written) or kind is dict and record.keys() != written.keys():
        return []
    for key in written.keys() if kind is dict else range(len(written)):
        w, r = written[key], record[key]
        if r is w or type(w) is float and type(r) is float and r == w:
            continue  # float(), int() and str() keep a value of their type; an equal float leaf needs no recursion
        where = json_diff(w, r)
        if where is not None:
            return [key, *where]
    return None


def read_json_lines(path: Path, parse, write, unique: str | None = None) -> list:
    """parse(record) for every non-blank UTF-8 JSON line of path; a missing file,
    a line that fails to decode or parse, whose loaded value write() does not give
    back as read, or whose `unique` field repeats an earlier line's, is a DatasetError."""
    if not path.exists():
        raise DatasetError(f"{path.parent}: missing {path.name}")
    out = []
    first_line: dict = {}  # unique field value -> the line that gave it
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            out.append(parse(record))
            where = json_diff(write(out[-1]), record)
            if where is not None:
                raise ValueError(f"field {'.'.join(map(str, where)) or '(the record)'} changes when written back")
            if unique is not None:
                value = out[-1][unique]
                if first_line.setdefault(value, lineno) != lineno:
                    raise ValueError(f"{unique} {value!r} already listed on line {first_line[value]}")
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
    return out


def load_room(episode_dir: str | Path) -> RoomSpec:
    """The one JSON line of room.json that simulate_episode writes."""
    path = Path(episode_dir) / "room.json"
    rooms = read_json_lines(path, RoomSpec.from_dict, RoomSpec.to_dict)
    if len(rooms) != 1:
        raise DatasetError(f"{path}: expected one room record, found {len(rooms)}")
    return rooms[0]


def load_instructions(episode_dir: str | Path) -> list[InstructionCase]:
    path = Path(episode_dir) / "instructions.jsonl"
    return read_json_lines(path, InstructionCase.from_dict, InstructionCase.to_dict)


def load_episode(episode_dir: str | Path) -> list[FrameRecord]:
    episode_dir = Path(episode_dir)
    seen: set[int] = set()

    def frame(rec: dict) -> FrameRecord:
        pose = Pose.from_matrix(np.asarray(rec["pose"], dtype=np.float64).reshape(4, 4))
        json_k = rec["intrinsics"]
        fx, fy, cx, cy = (float(json_k[key]) for key in ("fx", "fy", "cx", "cy"))
        k = CameraIntrinsics(fx, fy, cx, cy, int(json_k["width"]), int(json_k["height"]))
        detections = []
        for d in rec["detections"]:
            u0, v0, u1, v1 = map(float, d["bbox"])
            if not (0 <= u0 < u1 <= k.width and 0 <= v0 < v1 <= k.height):
                raise ValueError(f"bbox {d['bbox']} is not a box inside the {k.width}x{k.height} frame")
            gt_id = None if d["gt_id"] is None else int(d["gt_id"])
            detections.append(Detection(BoundingBox(u0, v0, u1, v1), str(d["caption"]), gt_id))
        index = rec["frame"]  # it seeds the frame's noise draws
        if type(index) is not int or index < 0 or index in seen:
            raise ValueError(f"frame index {index!r} is not a non-negative integer unused by an earlier frame")
        seen.add(index)
        return FrameRecord(index, pose, k, tuple(detections), episode_dir / str(rec["depth_file"]))

    return read_json_lines(episode_dir / "episode.jsonl", frame, _frame_dict)
