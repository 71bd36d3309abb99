"""Deterministic synthetic rooms, camera trajectories, and detector noise.

Rooms are axis-aligned boxes on a flat floor: large classes stand on the
floor, small classes rest on supporter surfaces (tables, desks, counters).
Every random choice flows from numpy SeedSequence streams, so identical
seeds reproduce rooms, poses, captions, and noise draws bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import PipelineConfig
from .geometry import BoundingBox, Pose
from .graph import ObjectGraph, from_dict as graph_from_dict, to_dict as graph_to_dict
from .language import LANDMARK_SYMBOL, ROOT_SYMBOL, article, bio_span
from .lexicon import COLORS, MATERIALS, OBJECT_CLASSES
from .oracle import oracle_classify


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


def json_floats(values, name: str) -> tuple[float, ...]:
    """values as floats, each a JSON number: a string or a boolean, which
    float() would take, is refused."""
    if not all(type(v) in (int, float) for v in values):
        raise TypeError(f"{name} must be JSON numbers, got {values!r}")
    return tuple(map(float, values))


@dataclass(frozen=True)
class SceneObject:
    id: int
    cls: str
    color: str
    material: str
    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]
    support: int | None

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
        if not all(-math.inf < lo < hi < math.inf for lo, hi in zip(*corners)):
            raise ValueError(f"box_min must lie below box_max on every axis, both finite, got {corners!r}")
        support = d.get("support")
        if type(d["id"]) is not int or not (support is None or type(support) is int):
            raise TypeError(f"object id must be an integer and support an integer or null, got {d['id']!r} and {support!r}")
        return cls(id=d["id"], cls=names[0], color=names[1], material=names[2],
                   box_min=corners[0], box_max=corners[1], support=support)


@dataclass(frozen=True)
class RoomSpec:
    extents: tuple[float, float, float]
    objects: tuple[SceneObject, ...]
    seed: int
    copies: dict[str, int]

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
        objects = tuple(SceneObject.from_dict(o) for o in d["objects"])
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):  # scene_graphs and captions are keyed by id
            raise ValueError(f"object ids must be unique, got {ids}")
        for o in objects:
            if o.support == o.id:  # scene_graphs would put it on top of itself
                raise ValueError(f"object {o.id} is its own support")
        return cls(
            json_floats(d["extents"], "extents"),
            objects,
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


def _uniform_draws(rng: np.random.Generator):
    """uniform(lo, hi): the value of rng.uniform(lo, hi), by the formula
    Generator.uniform evaluates (lo + (hi - lo) * next double), from the
    same stream at a fraction of the call's cost. Bounds with hi < lo,
    which Generator.uniform refuses, are never drawn here."""
    random = rng.random

    def uniform(lo: float, hi: float) -> float:
        return lo + (hi - lo) * random()

    return uniform


def generate_room(seed: int, copies: dict[str, int], config: PipelineConfig) -> RoomSpec:
    """Rejection-sample a room holding `copies`; deterministic under the seed.

    The floor is config.room_x by config.room_y. Floor objects are placed
    largest first with pairwise clearance; supported objects go on
    supporter surfaces, at most one object of a class per supporter.
    Same-class copies keep the configured centroid separation.
    """
    for cls_name, count in copies.items():
        if cls_name not in PALETTE:
            raise GenerationError(f"unknown object class {cls_name!r}")
        if not 1 <= count <= 5:
            raise GenerationError(f"copies for {cls_name!r} must be in 1..5, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    uniform = _uniform_draws(rng)
    ex, ey = config.room_x, config.room_y

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

    def place(cls_name: str, attempts: int, surface: SceneObject | None) -> bool:
        """Make up to `attempts` tries to put one `cls_name` on the floor
        (surface None) or on `surface`; append it to `objects` on success."""
        spec = PALETTE[cls_name]
        if surface is None:
            x_min, y_min, z0, x_max, y_max = 0.0, 0.0, 0.0, ex, ey
            clearance, support = config.floor_clearance, None
        else:
            (x_min, y_min, _), (x_max, y_max, z0) = surface.box_min, surface.box_max
            clearance, support = _SURFACE_CLEARANCE, surface.id
        peers = [o for o in objects if o.support == support]
        if surface is not None and any(o.cls == cls_name for o in peers):
            return False  # one object per class per surface
        kin = [(*o.centroid[:2], 0.5 * max(*o.footprint)) for o in objects if o.cls == cls_name]
        for _ in range(attempts):
            sx, sy, sz = uniform(*spec.size_x), uniform(*spec.size_y), uniform(*spec.size_z)
            if surface is None:
                inset_x = inset_y = config.wall_margin
            else:
                # keep small objects away from the surface edge when room
                # allows: bbox pixels then land on the supporter, not the floor
                inset_x = max(config.support_inset, min(0.20, (x_max - x_min - sx) / 2.0 - 0.01))
                inset_y = max(config.support_inset, min(0.20, (y_max - y_min - sy) / 2.0 - 0.01))
            lo_x, hi_x = x_min + inset_x, x_max - inset_x - sx
            lo_y, hi_y = y_min + inset_y, y_max - inset_y - sy
            if hi_x <= lo_x or hi_y <= lo_y:
                if surface is None:
                    continue
                return False  # a supporter too small for this size is given up
            x0 = uniform(lo_x, hi_x)
            y0 = uniform(lo_y, hi_y)
            bmin, bmax = (x0, y0, z0), (x0 + sx, y0 + sy, z0 + sz)
            if any(_xy_boxes_clash(bmin, bmax, o.box_min, o.box_max, clearance) for o in peers):
                continue
            cx, cy = 0.5 * (x0 + bmax[0]), 0.5 * (y0 + bmax[1])
            half = 0.5 * max(bmax[0] - x0, bmax[1] - y0)
            # big same-class bodies need extra spacing or their BEV groups touch
            if any(
                math.hypot(cx - ox, cy - oy) < max(config.min_separation, half + other_half + 0.6)
                for ox, oy, other_half in kin
            ):
                continue
            color, material = attr_combos[cls_name].pop(0)
            objects.append(SceneObject(len(objects), cls_name, color, material, bmin, bmax, support))
            return True
        return False

    for cls_name in floor_classes:
        if not place(cls_name, config.max_attempts, None):
            raise GenerationError(
                f"could not place {cls_name!r} after {config.max_attempts} attempts "
                f"(room {ex}x{ey} m, {len(objects)} objects placed)"
            )

    supporters = [o for o in objects if PALETTE[o.cls].supporter]
    for cls_name in small_classes:
        if not supporters:
            raise GenerationError(f"{cls_name!r} needs a supporter but the room has none")
        if not any(place(cls_name, 200, supporters[i]) for i in rng.permutation(len(supporters))):
            raise GenerationError(
                f"could not place supported object {cls_name!r} on any of "
                f"{len(supporters)} supporters"
            )

    return RoomSpec((ex, ey, config.room_z), tuple(objects), seed, dict(copies))


# -- ground-truth graphs -----------------------------------------------------


def scene_graphs(room: RoomSpec, tau_near: float) -> dict[int, ObjectGraph]:
    """Each object's ground-truth graph by id: class, color, material and at
    most one relational edge.

    The edge is is-on the object's supporter when that id is in the room.
    Otherwise it is is-near the closest other object by horizontal centroid
    distance (ties to the lower id) among those closer than tau_near, never
    an object that rests on this one. These graphs are the one source of
    detection captions, instruction labels and oracle records.
    """
    by_id = {o.id: o for o in room.objects}
    graphs = {}
    for obj in room.objects:
        rel_attrs = []
        if obj.support in by_id:
            rel_attrs.append(("is-on", ObjectGraph(by_id[obj.support].cls)))
        else:
            ox, oy, _ = obj.centroid
            nears = []
            for other in room.objects:
                if other.id == obj.id or other.support == obj.id:
                    continue
                x, y, _ = other.centroid
                distance = math.hypot(ox - x, oy - y)
                if distance < tau_near:
                    nears.append((distance, other.id, other.cls))
            if nears:
                rel_attrs.append(("is-near", ObjectGraph(min(nears)[2])))
        graphs[obj.id] = ObjectGraph(
            obj.cls, [("color", obj.color), ("material", obj.material)], rel_attrs
        )
    return graphs


# -- trajectory ---------------------------------------------------------------


def look_at_pose(eye: Sequence[float], target: Sequence[float]) -> Pose:
    """Camera-to-world pose looking from eye toward target (y down, z forward)."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-9:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    f0, f1, f2 = forward.tolist()
    # right = forward x (0, 0, 1) and down = forward x right, term for term
    # as np.cross computes them: the * 0.0 and * 1.0 terms keep its signed zeros
    right = np.array([f1 * 1.0 - f2 * 0.0, f2 * 0.0 - f0 * 1.0, f0 * 0.0 - f1 * 0.0])
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        right, norm = np.array([1.0, 0.0, 0.0]), 1.0
    r0, r1, r2 = (right / norm).tolist()
    d0, d1, d2 = f1 * r2 - f2 * r1, f2 * r0 - f0 * r2, f0 * r1 - f1 * r0
    rotation = np.array([[r0, d0, f0], [r1, d1, f1], [r2, d2, f2]])  # columns right, down, forward
    return Pose(rotation, eye)


def plan_trajectory(room: RoomSpec, config: PipelineConfig) -> list[Pose]:
    """config.n_waypoints poses: an inset perimeter loop plus jittered
    interior poses, all oriented toward the room center.

    Poses fly at cam_height, the loop runs traj_margin in from the walls,
    and every look-at point lies at look_height (all config keys).
    look_frac places the floor look-at point partway along the ray from the
    camera to the (jittered) center; smaller values pitch the camera down
    more steeply, which keeps each detection's background pixels landing
    close behind the object instead of far across the room.
    """
    rng = np.random.default_rng(np.random.SeedSequence([room.seed, 202]))
    cam_height, margin = config.cam_height, config.traj_margin
    look_height, look_frac = config.look_height, config.look_frac
    ex, ey, _ = room.extents
    cx, cy = ex / 2.0, ey / 2.0
    x0, x1 = margin, ex - margin
    y0, y1 = margin, ey - margin
    perimeter = 2 * ((x1 - x0) + (y1 - y0))

    n_ring = max(4, int(round(0.75 * config.n_waypoints)))
    n_interior = config.n_waypoints - n_ring
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
    gt_object_id: int | None


def apply_errors(
    detections: Sequence[Detection],
    frame_index: int,
    width: int,
    height: int,
    config: PipelineConfig,
    models: frozenset[str],
    bank: tuple[tuple[BoundingBox, str], ...],
    stream_seed: int,
) -> list[Detection]:
    """Centroid shift, shape distortion, false negatives, false positives.

    `models` names the error models to run (`cs`, `sd`, `fn`, `fp`; see
    `NOISE_PRESETS`); `config` gives their parameters, and a model whose
    parameters are zero does not run. Shift magnitude is drawn from
    N(mu_c, sigma_c) scaled by sqrt(bbox area) and applied along a uniformly
    chosen quadrant diagonal; distortion scales the box about its center by
    1 +/- |N(mu_s, sigma_s)|. False positives overlay a bounding box and
    caption drawn from another room's observation `bank`; their pixels pick
    up the current frame's depth downstream. An empty bank is refused when
    false positives run.
    """
    shifts = "cs" in models and (config.mu_c != 0 or config.sigma_c != 0)
    distorts = "sd" in models and (config.mu_s != 0 or config.sigma_s != 0)
    p_fn = config.p_fn if "fn" in models else 0.0
    p_fp = config.p_fp if "fp" in models else 0.0
    if p_fp > 0 and not bank:
        raise ValueError("the false-positive model runs, but its observation bank is empty")
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, stream_seed, frame_index, 303])
    )
    out: list[Detection] = []
    for det in detections:
        box = det.bbox
        if shifts:
            magnitude = float(rng.normal(config.mu_c, config.sigma_c)) * math.sqrt(box.area)
            quadrant = int(rng.integers(4))
            su, sv = [(1, 1), (1, -1), (-1, 1), (-1, -1)][quadrant]
            du = su * magnitude / math.sqrt(2.0)
            dv = sv * magnitude / math.sqrt(2.0)
            box = BoundingBox(box.u_min + du, box.v_min + dv, box.u_max + du, box.v_max + dv)
        if distorts:
            magnitude = abs(float(rng.normal(config.mu_s, config.sigma_s)))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            factor = max(0.05, 1.0 + sign * magnitude)
            uc, vc = box.center
            half_w, half_h = factor * box.width / 2.0, factor * box.height / 2.0
            box = BoundingBox(uc - half_w, vc - half_h, uc + half_w, vc + half_h)
        clamped = box.clamp(width, height)
        if clamped is None:
            continue  # box pushed fully outside the frame
        if p_fn > 0 and rng.random() < p_fn:
            continue
        out.append(Detection(clamped, det.caption, det.gt_object_id))

    if p_fp > 0:
        rolls = len(detections) if config.fp_per_detection else 1
        for _ in range(rolls):
            if rng.random() < p_fp:
                bbox, caption = bank[int(rng.integers(len(bank)))]
                clamped = bbox.clamp(width, height)
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
    target_id: int | None
    graph: ObjectGraph | None

    def to_dict(self) -> dict:
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


def instruction(
    verb: str,
    cls: str,
    attr: tuple[str, str] | None,
    rel: tuple[str, str] | None,
) -> tuple[str, tuple[str, ...], ObjectGraph]:
    """One templated instruction: its text, gold BIO labels and canonical graph.

    Templates: bare "<verb> a <cls>"; self "<verb> a <value> <cls>" for
    attr=(kind, value); self+rel "<verb> the <value> <cls> <cue> the
    <landmark>" for attr plus rel=(relation kind, landmark class).
    """
    labels = ["O"] * len(verb.split())
    if attr is None:
        labels += ["O"] + bio_span(ROOT_SYMBOL, len(cls.split()))
        return f"{verb} {article(cls)} {cls}", tuple(labels), ObjectGraph(cls)
    kind, value = attr
    labels += ["O"] + bio_span(kind, len(value.split())) + bio_span(ROOT_SYMBOL, len(cls.split()))
    if rel is None:
        text = f"{verb} {article(value)} {value} {cls}"
        g = ObjectGraph(cls, [attr])
    else:
        rel_kind, landmark = rel
        cue = _CUE_FOR_KIND[rel_kind]
        text = f"{verb} the {value} {cls} {cue} the {landmark}"
        labels += bio_span(rel_kind, len(cue.split())) + ["O"]
        labels += bio_span(LANDMARK_SYMBOL, len(landmark.split()))
        g = ObjectGraph(cls, [attr], [(rel_kind, ObjectGraph(landmark))])
    return text, tuple(labels), g


def emit_instructions(room: RoomSpec, graphs: dict[int, ObjectGraph]) -> list[InstructionCase]:
    """Three referring-expression types per class plus missing/mismatch probes.

    `graphs` are the room's ground-truth graphs by object id (`scene_graphs`).
    Expected states come from the brute-force grounding oracle over them, so
    they serve directly as evaluation labels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([room.seed, 404]))
    cases: list[InstructionCase] = []
    class_graphs = {c: [graphs[o.id] for o in room.objects_of(c)] for c in room.classes()}

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

        with_rel = [o for o in instances if graphs[o.id].rel_attrs]
        if with_rel:
            rel_target = with_rel[int(rng.integers(len(with_rel)))]
            kind, landmark = graphs[rel_target.id].rel_attrs[0]
            attr_kind = "color" if rng.random() < 0.5 else "material"
            value = rel_target.color if attr_kind == "color" else rel_target.material
            add("self+rel", cls_name, rel_target.id, (attr_kind, value), (kind, landmark.root))

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
