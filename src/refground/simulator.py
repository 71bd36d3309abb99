"""Deterministic synthetic rooms, camera trajectories, and detector noise.

Rooms are axis-aligned boxes on a flat floor: large classes stand on the
floor, small classes rest on supporter surfaces (tables, desks, counters).
Every random choice flows from numpy SeedSequence streams, so identical
seeds reproduce rooms, poses, captions, and noise draws bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import BoundingBox, Pose
from .graph import ObjectGraph
from .language import LANDMARK_SYMBOL, ROOT_SYMBOL, article, realize
from .lexicon import COLORS, MATERIALS, OBJECT_CLASSES
from .oracle import oracle_classify

if TYPE_CHECKING:  # config imports ErrorConfig from here
    from .config import PipelineConfig


class GenerationError(RuntimeError):
    """Scene placement failed; carries diagnostics about the failing object."""


@dataclass(frozen=True)
class ClassSpec:
    """Size ranges in meters and placement role for one object class."""

    name: str
    size_x: tuple[float, float]
    size_y: tuple[float, float]
    size_z: tuple[float, float]
    supported: bool = False  # placed on a supporter surface
    supporter: bool = False  # other objects may rest on it


PALETTE: dict[str, ClassSpec] = {
    spec.name: spec
    for spec in [
        ClassSpec("cup", (0.09, 0.13), (0.09, 0.13), (0.10, 0.16), supported=True),
        ClassSpec("book", (0.16, 0.24), (0.12, 0.20), (0.04, 0.07), supported=True),
        ClassSpec("laptop", (0.30, 0.38), (0.22, 0.28), (0.16, 0.24), supported=True),
        ClassSpec("bowl", (0.16, 0.24), (0.16, 0.24), (0.08, 0.12), supported=True),
        ClassSpec("plant", (0.20, 0.30), (0.20, 0.30), (0.18, 0.28), supported=True),
        ClassSpec("lamp", (0.30, 0.40), (0.30, 0.40), (0.36, 0.48)),
        ClassSpec("chair", (0.42, 0.52), (0.42, 0.52), (0.80, 0.95)),
        ClassSpec("armchair", (0.65, 0.80), (0.65, 0.80), (0.72, 0.88)),
        ClassSpec("sofa", (1.40, 1.80), (0.72, 0.90), (0.70, 0.85)),
        ClassSpec("table", (0.95, 1.25), (0.62, 0.82), (0.70, 0.76), supporter=True),
        ClassSpec("dining table", (1.25, 1.60), (0.82, 1.00), (0.72, 0.78), supporter=True),
        ClassSpec("desk", (1.00, 1.30), (0.56, 0.72), (0.72, 0.78), supporter=True),
        ClassSpec("counter", (1.20, 1.60), (0.52, 0.66), (0.85, 0.95), supporter=True),
    ]
}
assert set(PALETTE) == set(OBJECT_CLASSES)


@dataclass(frozen=True)
class SceneObject:
    id: int
    cls: str
    color: str
    material: str
    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]
    support: int | None = None

    @property
    def centroid(self) -> tuple[float, float, float]:
        return tuple(0.5 * (a + b) for a, b in zip(self.box_min, self.box_max))

    @property
    def footprint(self) -> tuple[float, float]:
        return (self.box_max[0] - self.box_min[0], self.box_max[1] - self.box_min[1])

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "class": self.cls,
            "color": self.color,
            "material": self.material,
            "box_min": list(self.box_min),
            "box_max": list(self.box_max),
            "support": self.support,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneObject":
        names = (d["class"], d["color"], d["material"])
        if not all(isinstance(name, str) and name.strip() for name in names):
            raise ValueError(f"object class, color and material must be non-empty strings, got {names!r}")
        corners = [tuple(float(v) for v in d[key]) for key in ("box_min", "box_max")]
        if any(len(corner) != 3 for corner in corners):
            raise ValueError(f"box_min and box_max must hold three numbers, got {corners!r}")
        support = None if d.get("support") is None else int(d["support"])
        return cls(int(d["id"]), *names, *corners, support)


@dataclass(frozen=True)
class RoomSpec:
    extents: tuple[float, float, float]
    objects: tuple[SceneObject, ...]
    seed: int
    copies: dict[str, int] = field(default_factory=dict)

    def objects_of(self, cls: str) -> list[SceneObject]:
        return [o for o in self.objects if o.cls == cls]

    def classes(self) -> list[str]:
        return sorted({o.cls for o in self.objects})

    def to_dict(self) -> dict:
        return {
            "extents": list(self.extents),
            "objects": [o.to_dict() for o in self.objects],
            "seed": self.seed,
            "copies": dict(sorted(self.copies.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RoomSpec":
        return cls(
            tuple(float(v) for v in d["extents"]),
            tuple(SceneObject.from_dict(o) for o in d["objects"]),
            int(d["seed"]),
            {k: int(v) for k, v in d.get("copies", {}).items()},
        )


_SURFACE_CLEARANCE = 0.05  # edge gap between two objects on one supporter


def _overlap_1d(a0, a1, b0, b1, clearance):
    return a0 - clearance < b1 and b0 - clearance < a1


def _xy_boxes_clash(amin, amax, bmin, bmax, clearance: float) -> bool:
    return _overlap_1d(amin[0], amax[0], bmin[0], bmax[0], clearance) and _overlap_1d(
        amin[1], amax[1], bmin[1], bmax[1], clearance
    )


def _horizontal_distance(a: SceneObject, b: SceneObject) -> float:
    ax, ay, _ = a.centroid
    bx, by, _ = b.centroid
    return math.hypot(ax - bx, ay - by)


def generate_room(
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
        return (
            float(rng.uniform(*spec.size_x)),
            float(rng.uniform(*spec.size_y)),
            float(rng.uniform(*spec.size_z)),
        )

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
            x0 = float(rng.uniform(lo_x, hi_x))
            y0 = float(rng.uniform(lo_y, hi_y))
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
                x0 = float(rng.uniform(lo_x, hi_x))
                y0 = float(rng.uniform(lo_y, hi_y))
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


# -- relations and captions ---------------------------------------------------


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


def caption_for(
    room: RoomSpec, obj: SceneObject, relations: dict[int, list[tuple[str, int]]]
) -> str:
    return realize(object_graph(room, obj, relations))


# -- trajectory ---------------------------------------------------------------


def look_at_pose(eye: Sequence[float], target: Sequence[float]) -> Pose:
    """Camera-to-world pose looking from eye toward target (y down, z forward)."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.array([1.0, 0.0, 0.0])
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)
    return Pose(rotation, eye)


def plan_trajectory(room: RoomSpec, config: PipelineConfig, n_waypoints: int) -> list[Pose]:
    """Inset perimeter loop plus jittered interior poses, all oriented toward
    the room center.

    Poses fly at cam_height, the loop runs traj_margin in from the walls,
    and every look-at point lies at look_height (all config keys).
    look_frac places the floor look-at point partway along the ray from the
    camera to the (jittered) center; smaller values pitch the camera down
    more steeply, which keeps each detection's background pixels landing
    close behind the object instead of far across the room.
    """
    if n_waypoints < 4:
        raise ValueError("n_waypoints must be at least 4")
    rng = np.random.default_rng(np.random.SeedSequence([room.seed, 202]))
    cam_height, margin = config.cam_height, config.traj_margin
    look_height, look_frac = config.look_height, config.look_frac
    ex, ey, _ = room.extents
    cx, cy = ex / 2.0, ey / 2.0
    x0, x1 = margin, ex - margin
    y0, y1 = margin, ey - margin
    perimeter = 2 * ((x1 - x0) + (y1 - y0))

    n_ring = max(4, int(round(0.75 * n_waypoints)))
    n_interior = n_waypoints - n_ring
    poses: list[Pose] = []

    def aim(px: float, py: float) -> tuple[float, float, float]:
        gx = cx + float(rng.uniform(-0.5, 0.5))
        gy = cy + float(rng.uniform(-0.5, 0.5))
        return (px + look_frac * (gx - px), py + look_frac * (gy - py), look_height)

    for i in range(n_ring):
        t = ((i + float(rng.uniform(-0.2, 0.2))) % n_ring) / n_ring * perimeter
        if t < (x1 - x0):
            px, py = x0 + t, y0
        elif t < (x1 - x0) + (y1 - y0):
            px, py = x1, y0 + (t - (x1 - x0))
        elif t < 2 * (x1 - x0) + (y1 - y0):
            px, py = x1 - (t - (x1 - x0) - (y1 - y0)), y1
        else:
            px, py = x0, y1 - (t - 2 * (x1 - x0) - (y1 - y0))
        poses.append(look_at_pose((px, py, cam_height), aim(px, py)))

    for _ in range(n_interior):
        angle = float(rng.uniform(0, 2 * math.pi))
        radius = min(ex, ey) / 4.0
        px = cx + radius * math.cos(angle)
        py = cy + radius * math.sin(angle)
        target = (
            cx - 1.2 * radius * math.cos(angle) + float(rng.uniform(-0.3, 0.3)),
            cy - 1.2 * radius * math.sin(angle) + float(rng.uniform(-0.3, 0.3)),
            look_height,
        )
        poses.append(look_at_pose((px, py, cam_height), target))
    return poses


# -- detector error models ----------------------------------------------------


@dataclass(frozen=True)
class Detection:
    bbox: BoundingBox
    caption: str
    gt_object_id: int | None = None


@dataclass(frozen=True)
class ErrorConfig:
    """Parameters of the four detector error models; zeros disable a model."""

    mu_c: float = 0.0
    sigma_c: float = 0.0
    mu_s: float = 0.0
    sigma_s: float = 0.0
    p_fn: float = 0.0
    p_fp: float = 0.0
    seed: int = 0
    fp_per_detection: bool = False

    def __post_init__(self):
        if not (0 <= self.p_fn <= 1 and 0 <= self.p_fp <= 1):
            raise ValueError("deletion/injection probabilities must lie in [0, 1]")
        if self.sigma_c < 0 or self.sigma_s < 0:
            raise ValueError("sigmas must be non-negative")

    @property
    def shifts(self) -> bool:
        return self.mu_c != 0 or self.sigma_c != 0

    @property
    def distorts(self) -> bool:
        return self.mu_s != 0 or self.sigma_s != 0


@dataclass(frozen=True)
class FrameContext:
    """Per-frame data needed by the error models."""

    frame_index: int
    width: int
    height: int
    bank: tuple[tuple[BoundingBox, str], ...] = ()
    stream_seed: int = 0


def apply_errors(
    detections: Sequence[Detection], ctx: FrameContext, cfg: ErrorConfig
) -> list[Detection]:
    """Centroid shift, shape distortion, false negatives, false positives.

    Shift magnitude is drawn from N(mu_c, sigma_c) scaled by sqrt(bbox area)
    and applied along a uniformly chosen quadrant diagonal; distortion scales
    the box about its center by 1 +/- |N(mu_s, sigma_s)|. False positives
    overlay a bounding box and caption drawn from another room's observation
    bank; their pixels pick up the current frame's depth downstream.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, ctx.stream_seed, ctx.frame_index, 303])
    )
    out: list[Detection] = []
    for det in detections:
        box = det.bbox
        if cfg.shifts:
            magnitude = float(rng.normal(cfg.mu_c, cfg.sigma_c)) * math.sqrt(box.area)
            quadrant = int(rng.integers(4))
            su, sv = [(1, 1), (1, -1), (-1, 1), (-1, -1)][quadrant]
            du = su * magnitude / math.sqrt(2.0)
            dv = sv * magnitude / math.sqrt(2.0)
            box = BoundingBox(box.u_min + du, box.v_min + dv, box.u_max + du, box.v_max + dv)
        if cfg.distorts:
            magnitude = abs(float(rng.normal(cfg.mu_s, cfg.sigma_s)))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            factor = max(0.05, 1.0 + sign * magnitude)
            uc, vc = box.center
            half_w, half_h = factor * box.width / 2.0, factor * box.height / 2.0
            box = BoundingBox(uc - half_w, vc - half_h, uc + half_w, vc + half_h)
        clamped = box.clamp(ctx.width, ctx.height)
        if clamped is None:
            continue  # box pushed fully outside the frame
        if cfg.p_fn > 0 and rng.random() < cfg.p_fn:
            continue
        out.append(Detection(clamped, det.caption, det.gt_object_id))

    if cfg.p_fp > 0 and ctx.bank:
        rolls = len(detections) if cfg.fp_per_detection else 1
        for _ in range(rolls):
            if rng.random() < cfg.p_fp:
                bbox, caption = ctx.bank[int(rng.integers(len(ctx.bank)))]
                clamped = bbox.clamp(ctx.width, ctx.height)
                if clamped is not None:
                    out.append(Detection(clamped, caption, None))
    return out


# -- instructions -------------------------------------------------------------

INSTRUCTION_VERBS = (
    "bring me",
    "bring",
    "take",
    "fetch",
    "pick up",
    "grab",
    "find",
    "get me",
    "please bring",
)

_CUE_FOR_KIND = {"is-on": "on", "is-near": "near", "is-at": "at"}


@dataclass(frozen=True)
class InstructionCase:
    text: str
    target_class: str
    expected_state: str
    re_type: str
    target_id: int | None = None
    graph: ObjectGraph | None = None

    def to_dict(self) -> dict:
        from .graph import to_dict as graph_to_dict

        return {
            "text": self.text,
            "target_class": self.target_class,
            "expected_state": self.expected_state,
            "re_type": self.re_type,
            "target_id": self.target_id,
            "graph": None if self.graph is None else graph_to_dict(self.graph),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstructionCase":
        from .graph import from_dict as graph_from_dict

        if not isinstance(d["text"], str):
            raise TypeError(f"instruction text must be a string, got {d['text']!r}")
        return cls(
            d["text"],
            d["target_class"],
            d["expected_state"],
            d["re_type"],
            d.get("target_id"),
            None if d.get("graph") is None else graph_from_dict(d["graph"]),
        )


def _span(symbol: str, phrase: str) -> list[str]:
    return [f"B-{symbol}"] + [f"I-{symbol}"] * (len(phrase.split()) - 1)


def instruction(
    verb: str,
    cls: str,
    attr: tuple[str, str] | None = None,
    rel: tuple[str, str] | None = None,
) -> tuple[str, tuple[str, ...], ObjectGraph]:
    """One templated instruction: its text, gold BIO labels and canonical graph.

    Templates: bare "<verb> a <cls>"; self "<verb> a <value> <cls>" for
    attr=(kind, value); self+rel "<verb> the <value> <cls> <cue> the
    <landmark>" for attr plus rel=(relation kind, landmark class).
    """
    labels = ["O"] * len(verb.split())
    if attr is None:
        labels += ["O"] + _span(ROOT_SYMBOL, cls)
        return f"{verb} {article(cls)} {cls}", tuple(labels), ObjectGraph.build(cls)
    kind, value = attr
    labels += ["O"] + _span(kind, value) + _span(ROOT_SYMBOL, cls)
    if rel is None:
        text = f"{verb} {article(value)} {value} {cls}"
        g = ObjectGraph.build(cls, [attr])
    else:
        rel_kind, landmark = rel
        cue = _CUE_FOR_KIND[rel_kind]
        text = f"{verb} the {value} {cls} {cue} the {landmark}"
        labels += _span(rel_kind, cue) + ["O"] + _span(LANDMARK_SYMBOL, landmark)
        g = ObjectGraph.build(cls, [attr], [(rel_kind, ObjectGraph.build(landmark))])
    return text, tuple(labels), g


def emit_instructions(
    room: RoomSpec,
    relations: dict[int, list[tuple[str, int]]],
) -> list[InstructionCase]:
    """Three referring-expression types per class plus missing/mismatch probes.

    Expected states come from the brute-force grounding oracle over the
    ground-truth object graphs, so they serve directly as evaluation labels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([room.seed, 404]))
    cases: list[InstructionCase] = []
    class_graphs: dict[str, list[ObjectGraph]] = {}
    for cls_name in room.classes():
        class_graphs[cls_name] = [
            object_graph(room, o, relations) for o in room.objects_of(cls_name)
        ]

    def add(re_type: str, cls_name: str, target_id: int | None, attr=None, rel=None):
        verb = INSTRUCTION_VERBS[int(rng.integers(len(INSTRUCTION_VERBS)))]
        text, _, g = instruction(verb, cls_name, attr, rel)
        state, _ = oracle_classify(g, class_graphs.get(cls_name, []))
        cases.append(InstructionCase(text, cls_name, state.value, re_type, target_id, g))

    for cls_name in room.classes():
        instances = room.objects_of(cls_name)
        target = instances[int(rng.integers(len(instances)))]

        attr_kind = "color" if rng.random() < 0.5 else "material"
        value = target.color if attr_kind == "color" else target.material
        add("self", cls_name, target.id, (attr_kind, value))

        with_rel = [
            o for o in instances if preferred_relation(room, o, relations) is not None
        ]
        if with_rel:
            rel_target = with_rel[int(rng.integers(len(with_rel)))]
            kind, landmark = preferred_relation(room, rel_target, relations)
            attr_kind = "color" if rng.random() < 0.5 else "material"
            value = rel_target.color if attr_kind == "color" else rel_target.material
            add("self+rel", cls_name, rel_target.id, (attr_kind, value), (kind, landmark.cls))

        add("bare", cls_name, target.id)

    absent = sorted(set(OBJECT_CLASSES) - set(room.classes()))
    if absent:
        add("missing", absent[int(rng.integers(len(absent)))], None)

    probe_classes = [c for c in room.classes()]
    if probe_classes:
        cls_name = probe_classes[int(rng.integers(len(probe_classes)))]
        used_colors = {o.color for o in room.objects_of(cls_name)}
        unused = sorted(set(COLORS) - used_colors)
        if unused:
            add("mismatch", cls_name, None, ("color", unused[int(rng.integers(len(unused)))]))
    return cases
