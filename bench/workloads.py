"""The three benchmark workloads.

All three are closed loops with one caller. A workload is set up from the
seed alone, then runs rounds; each round makes timed calls into the
program ("ops") and checks their outputs outside the timer. The first
`base_rounds` rounds always run, whatever `--seconds` says: quality and the
output digest are taken from them, so both are the same for a seed however
fast the program is. Later rounds repeat the base inputs (count_noise,
ground_session) or draw fresh ones (simulate) until the time is up, always
stopping on a multiple of `period` rounds so that the mix of inputs stays
fixed. Repeated ops must reproduce their first outputs exactly.

Every op has a key naming its input. The share of ops whose key was seen
before in the process, and the throughput of the ops on first-seen keys,
are printed with each run, so a gain that comes from a cache kept across
calls shows as such.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from refground import evaluation, pipeline
from refground.aggregation import AggregationSession
from refground.config import PipelineConfig
from refground.discriminator import outcome_to_dict
from refground.episodes import load_episode, load_instructions, load_room
from refground.geometry import read_depth_file
from refground.simulator import RoomSpec

from layers import COUNT_PRESETS, OP_SPAN

GROUND_PRESETS = ("none", "cs+sd+fn")
SETUPS = 3  # set-ups per process, each with its own inputs; setup_s is their median


class CheckError(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One op that passed its checks."""

    round: int  # index of the round it ran in
    units: int  # work units it did
    seconds: float  # time inside the timed program call
    first: bool  # no earlier op in the process ran its input


@dataclass
class Tally:
    """Ops of one kind of round (untraced or traced)."""

    attempted: int = 0
    failed: int = 0
    round: int = 0  # the round being run; the measuring loop sets it
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(op.units for op in self.ops)

    @property
    def busy(self) -> float:
        """Seconds inside timed program calls."""
        return sum(op.seconds for op in self.ops)


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """A PipelineConfig seed for one input, derived from the workload seed."""
    return zlib.crc32(f"{seed}:{tag}:{index}".encode("utf-8")) % 1_000_000


def tree_digest(root: Path) -> str:
    """sha256 over every file below root: relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def json_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def timed_call(tracer, fn, *args, **kwargs):
    """Call into the program; return (result, seconds). Traced calls get a bench.op span."""
    if tracer is None:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start
    tracer.begin_op()
    start = time.perf_counter()
    span = tracer.open(OP_SPAN)
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.close(span)
    return result, time.perf_counter() - start


def run_op(tally: Tally, units: int, op, first: bool) -> None:
    """Run one op, which returns its program time, and book it.

    An op fails when it raises, including a failed output check.
    """
    tally.attempted += units
    try:
        seconds = op()
    except Exception as exc:  # the loop must go on and report the failure
        tally.failed += units
        tally.errors.append(f"{type(exc).__name__}: {exc}")
        return
    tally.ops.append(Op(tally.round, units, seconds, first))


class Workload:
    """Books ops by input key: how many repeat an input seen before in the process."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.seen: set = set()
        self.ops = 0
        self.repeated = 0

    def run_op(self, tally: Tally, units: int, key, op) -> None:
        self.ops += 1
        first = key not in self.seen
        self.repeated += int(not first)
        self.seen.add(key)
        run_op(tally, units, op, first)

    def repeat_share(self) -> float:
        return self.repeated / self.ops


def reference_render(room: RoomSpec, frame, max_range: float, min_pixels: int):
    """Depth (float32) and detections of one frame, rendered here, not by refground.render.

    This is the renderer of the commit that added the benchmark, kept with
    its arithmetic and box order so that its output is bit-identical: every
    pixel's ray meets the room's object boxes, then a floor and four walls
    0.2 thick, by the slab method; the nearest hit wins, a ray that starts
    inside a box takes its exit face, and hits beyond max_range read as
    misses (depth 0). An object is detected when it wins at least
    `min_pixels` pixels; its box bounds those pixels. Detections are
    (object id, (u_min, v_min, u_max, v_max)) in room order.
    """
    k = frame.intrinsics
    ex, ey, ez = room.extents
    t = 0.2
    lo = [o.box_min for o in room.objects] + [
        (-t, -t, -t), (-t, -t, 0.0), (ex, -t, 0.0), (-t, -t, 0.0), (-t, ey, 0.0)
    ]
    hi = [o.box_max for o in room.objects] + [
        (ex + t, ey + t, 0.0), (0.0, ey + t, ez), (ex + t, ey + t, ez), (ex + t, 0.0, ez), (ex + t, ey + t, ez)
    ]
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    uu, vv = np.meshgrid((np.arange(k.width) + 0.5 - k.cx) / k.fx, (np.arange(k.height) + 0.5 - k.cy) / k.fy)
    rays = np.stack([uu.ravel(), vv.ravel(), np.ones(k.width * k.height)], axis=1) @ frame.pose.rotation.T
    inv = 1.0 / np.where(np.abs(rays) < 1e-12, 1e-12, rays)
    origin = frame.pose.translation
    a = (lo[None, :, :] - origin) * inv[:, None, :]
    b = (hi[None, :, :] - origin) * inv[:, None, :]
    near, far = np.minimum(a, b).max(axis=2), np.maximum(a, b).min(axis=2)
    dist = np.where(near > 1e-9, near, far)
    dist = np.where((near <= far) & (far > 1e-9), dist, np.inf)
    nearest = np.argmin(dist, axis=1)
    depth = dist[np.arange(len(dist)), nearest]
    miss = ~np.isfinite(depth) | (depth > max_range)
    depth = np.where(miss, 0.0, depth).reshape(k.height, k.width).astype(np.float32)
    winner = np.where(miss, -1, nearest).reshape(k.height, k.width)
    detections = []
    for index, obj in enumerate(room.objects):
        ys, xs = np.nonzero(winner == index)
        if xs.size >= min_pixels:
            box = (float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1))
            detections.append((obj.id, box))
    return depth, detections


class Simulate(Workload):
    """Fresh counting rooms written by evaluation.simulate_counting_dataset, one per op.

    A one-room call always draws the first counting target (a cup); the
    instance count cycles 1, 2, 3, so `period` is 3. Quality is the share
    of checked frames of the base rooms whose depth bytes and detections
    equal `reference_render`'s; a room's checked frames are one in
    `CHECK_EVERY`, so the check costs a fraction of a render.
    """

    name = "simulate"
    calibration = "numpy_large"  # the renderer's work
    base_rounds = 18
    period = 3
    CHECK_EVERY = 3

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.visible = 0.0
        self.frames = 0
        self.frames_equal = 0
        self.frames_checked = 0
        self.digests: list[str] = []
        self.round_digests: dict[int, str] = {}

    def setup(self, index: int) -> Path:
        # Warm-up: three rooms that are never measured.
        out = self.work / f"setup{index}"
        config = PipelineConfig(seed=derive_seed(self.seed, "simulate-warmup", index))
        evaluation.simulate_counting_dataset(out, config, rooms_per_count=1)
        return out

    def round(self, index: int, tally: Tally, tracer=None) -> None:
        out = self.work / f"room{index:05d}{'' if tracer is None else '.traced'}"
        config = PipelineConfig(seed=derive_seed(self.seed, "simulate", index))
        count = 1 + index % 3

        def op() -> float:
            _, seconds = timed_call(
                tracer,
                evaluation.simulate_counting_dataset,
                out,
                config,
                rooms_per_count=1,
                counts=(count,),
            )
            visible, frames = self._check(out, config)
            digest = tree_digest(out)
            # the untraced and the traced run of a round write the same room
            if self.round_digests.setdefault(index, digest) != digest:
                raise CheckError(f"{out}: differs from the other run of round {index}")
            if tracer is None and index < self.base_rounds:
                self.visible += visible
                self.frames += frames
                self._compare(out, config, index)
                self.digests.append(digest)
            return seconds

        self.run_op(tally, 1, index, op)
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _check(out: Path, config: PipelineConfig) -> tuple[float, int]:
        """Re-read the episode and its depth files.

        Returns the summed per-frame share of the room's objects detected,
        and the frame count.
        """
        manifest = evaluation.load_manifest(out)
        if len(manifest) != 1:
            raise CheckError(f"{out}: expected one room, manifest has {len(manifest)}")
        episode = out / manifest[0]["dir"]
        frames = load_episode(episode)
        if len(frames) != config.n_waypoints:
            raise CheckError(f"{episode}: {len(frames)} frames, expected {config.n_waypoints}")
        for frame in frames:
            depth = read_depth_file(frame.depth_path, max_range=config.max_range)
            if (depth.width, depth.height) != (config.frame_width, config.frame_height):
                raise CheckError(f"{frame.depth_path}: frame is {depth.width}x{depth.height}")
        objects = len(load_room(episode).objects)
        return sum(len(f.detections) / objects for f in frames), len(frames)

    def _compare(self, out: Path, config: PipelineConfig, index: int) -> None:
        """Count the checked frames of a written room that equal reference_render's."""
        episode = out / evaluation.load_manifest(out)[0]["dir"]
        room = load_room(episode)
        for frame in load_episode(episode)[index % self.CHECK_EVERY :: self.CHECK_EVERY]:
            depth, detections = reference_render(room, frame, config.max_range, config.min_pixels)
            written = read_depth_file(frame.depth_path, max_range=config.max_range).depth
            found = [
                (d.gt_object_id, (d.bbox.u_min, d.bbox.v_min, d.bbox.u_max, d.bbox.v_max))
                for d in frame.detections
            ]
            self.frames_checked += 1
            self.frames_equal += int(written.tobytes() == depth.tobytes() and found == detections)

    def quality(self) -> float:
        """Share of checked base-room frames equal to reference_render's (depth bytes, detections)."""
        return self.frames_equal / self.frames_checked

    def digest(self) -> dict:
        return {"rooms": json_digest(self.digests)}

    def extra_metrics(self) -> dict:
        return {"sim_visible_share": (self.visible / self.frames, "share")}


class CountNoise(Workload):
    """evaluation.eval_counting on counting datasets, once per noise preset per pass.

    Each set-up simulates its own dataset from the seed and the set-up's
    index, and a pass evaluates every dataset under every preset. Each op
    is one eval_counting call; its units are (episode, preset) evaluations.
    """

    name = "count_noise"
    calibration = "numpy_small"  # per-episode numpy calls on a few hundred points
    rooms_per_count = 3
    base_rounds = SETUPS * len(COUNT_PRESETS)  # one pass: every dataset under every preset
    period = base_rounds

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.sets: list[tuple[Path, PipelineConfig, int]] = []  # dataset, config, episodes
        self.f1: dict[str, list[float]] = {}
        self.records: dict[tuple[str, int], str] = {}

    def setup(self, index: int) -> Path:
        out = self.work / f"setup{index}"
        config = PipelineConfig(seed=derive_seed(self.seed, "count_noise", index))
        evaluation.simulate_counting_dataset(out, config, rooms_per_count=self.rooms_per_count)
        self.sets.append((out, config, len(evaluation.load_manifest(out))))
        return out

    def round(self, index: int, tally: Tally, tracer=None) -> None:
        which = index % len(self.sets)
        preset = COUNT_PRESETS[index // len(self.sets) % len(COUNT_PRESETS)]
        dataset, config, episodes = self.sets[which]

        def op() -> float:
            result, seconds = timed_call(tracer, evaluation.eval_counting, dataset, config, preset)
            if len(result.records) != episodes:
                raise CheckError(f"{preset}: {len(result.records)} records for {episodes} episodes")
            digest = json_digest(result.records)
            first = self.records.setdefault((preset, which), digest)
            if digest != first:
                raise CheckError(f"{preset}: eval records differ from the first pass")
            if tracer is None and index < self.base_rounds:
                self.f1.setdefault(preset, []).append(result.average)
            return seconds

        self.run_op(tally, episodes, (preset, which), op)

    def quality(self) -> float:
        """Mean over the five presets of the average counting F1 (each averaged over datasets)."""
        return sum(sum(v) / len(v) for v in self.f1.values()) / len(self.f1)

    def digest(self) -> dict:
        return {"records": json_digest(sorted(f"{k[0]}:{k[1]}:{v}" for k, v in self.records.items()))}

    def extra_metrics(self) -> dict:
        return {f"count_f1.{p}": (sum(v) / len(v), "F1") for p, v in self.f1.items()}


@dataclass
class _Episode:
    name: str
    config: PipelineConfig
    room: RoomSpec
    instructions: list
    sessions: dict[str, Path]


class GroundSession(Workload):
    """pipeline.ground_in_session on sessions loaded from their dumps.

    Each set-up simulates its own dialogue dataset from the seed and the
    set-up's index, and builds and round-trips its sessions. Each op grounds
    one instruction in one session. A round is a pass over every (session,
    instruction) pair of every dataset with freshly loaded sessions, so no
    session object sees an instruction twice. The oracle check runs outside
    the timer.
    """

    name = "ground_session"
    calibration = "numpy_small"  # region scores, merge and fusion: numpy calls on small arrays
    n_rooms = 8
    base_rounds = 1
    period = 1

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.lexicon = PipelineConfig().lexicon()
        self.episodes: list[_Episode] = []
        self.outcomes: dict[tuple[int, str, int], str] = {}  # first outcome digest per op key
        self.graded = 0
        self.state_hits = 0
        self.qa_hits = 0

    def setup(self, index: int) -> Path:
        out = self.work / f"setup{index}"
        config = PipelineConfig(seed=derive_seed(self.seed, "ground_session", index))
        data = evaluation.simulate_dialogue_dataset(out / "data", config, n_rooms=self.n_rooms)
        for entry in evaluation.load_manifest(data):
            episode_dir = data / entry["dir"]
            sessions = {}
            for preset in GROUND_PRESETS:
                path = out / "sessions" / f"{entry['dir']}.{preset}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                session = pipeline.session_for_episode(episode_dir, config, preset, self.lexicon)
                session.dump(path)
                again = path.with_suffix(".again")
                AggregationSession.load(path).dump(again)
                if again.read_bytes() != path.read_bytes():
                    raise CheckError(f"{path}: session changes on a dump/load round trip")
                again.unlink()
                sessions[preset] = path
            self.episodes.append(
                _Episode(
                    entry["dir"],
                    config,
                    load_room(episode_dir),
                    load_instructions(episode_dir),
                    sessions,
                )
            )
        return out

    def round(self, index: int, tally: Tally, tracer=None) -> None:
        for position, episode in enumerate(self.episodes):
            for preset in GROUND_PRESETS:
                session = AggregationSession.load(episode.sessions[preset])
                for number, case in enumerate(episode.instructions):
                    key = (position, preset, number)
                    self._op(tally, tracer, index, key, episode, session, case)

    def _op(self, tally, tracer, index, key, episode, session, case) -> None:
        config = episode.config
        seed = pipeline.query_seed_for(config.seed, f"{episode.name}:{case.text}")

        def op() -> float:
            (outcome, graph), seconds = timed_call(
                tracer, pipeline.ground_in_session, session, case.text, config, self.lexicon, seed
            )
            digest = json_digest(outcome_to_dict(outcome))
            reference = pipeline.oracle_outcome(episode.room, graph, config, seed)
            if self.outcomes.setdefault(key, digest) != digest:
                raise CheckError(f"{episode.name}: {case.text!r}: outcome differs from the first pass")
            if index == 0 and tracer is None:
                self.graded += 1
                self.state_hits += int(outcome.state is reference.state)
                self.qa_hits += int(
                    evaluation._candidate_signature(outcome) == evaluation._candidate_signature(reference)
                )
            return seconds

        self.run_op(tally, 1, key, op)

    def quality(self) -> float:
        """Share of first-pass instructions whose candidate signature matches the oracle (QA)."""
        return self.qa_hits / self.graded

    def digest(self) -> dict:
        return {"outcomes": json_digest(sorted(f"{e}:{p}:{i}:{d}" for (e, p, i), d in self.outcomes.items()))}

    def extra_metrics(self) -> dict:
        return {"ground_state_acc": (self.state_hits / self.graded, "share")}


WORKLOADS = {w.name: w for w in (Simulate, CountNoise, GroundSession)}
