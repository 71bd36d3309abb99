"""Flat key-value pipeline configuration.

Every under-specified constant in the system lives here with its default:
grid geometry, soft-mask width, merge threshold, scene and trajectory
parameters, detector error rates, and the query template suffix lists.
List values use '|' as separator because suffixes may contain commas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .geometry import CameraIntrinsics, GridSpec
from .lexicon import Lexicon, default_lexicon, key_value_lines, load_lexicon

# preset name -> detector error models it runs: centroid shift, shape
# distortion, false negatives, false positives
NOISE_PRESETS = {
    "none": frozenset(),
    "cs": frozenset({"cs"}),
    "cs+sd": frozenset({"cs", "sd"}),
    "cs+sd+fn": frozenset({"cs", "sd", "fn"}),
    "fp": frozenset({"fp"}),
    "all": frozenset({"cs", "sd", "fn", "fp"}),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of the pipeline, checked once when built; a changed
    value is a new config (`dataclasses.replace`), checked in turn."""

    # occupancy grid and aggregation
    cell_size: float = 0.05
    region_dx: int = 10
    region_dy: int = 10
    gamma: float = 0.05
    sigma_frac: float = 0.25
    stride: int = 1
    # room generation
    room_x: float = 5.0
    room_y: float = 5.0
    room_z: float = 2.5
    wall_margin: float = 0.55
    min_separation: float = 1.0
    floor_clearance: float = 0.45
    support_inset: float = 0.06
    tau_near: float = 0.75
    max_attempts: int = 4000
    # camera and trajectory
    frame_width: int = 128
    frame_height: int = 128
    focal_px: float = 110.0
    cam_height: float = 2.2
    n_waypoints: int = 12
    traj_margin: float = 0.45
    look_height: float = 0.0
    look_frac: float = 0.42
    max_range: float = 2.4
    min_pixels: int = 25
    # detector error models (Table-style parameters)
    mu_c: float = 0.2
    sigma_c: float = 0.04
    mu_s: float = 0.2
    sigma_s: float = 0.04
    p_fn: float = 0.15
    p_fp: float = 0.15
    fp_per_detection: bool = False
    # seeds and files
    seed: int = 7
    lexicon_path: str = ""
    # query templates
    mismatch_suffixes: tuple[str, ...] = ("— is that okay?", "— should I take it instead?")
    wh_suffixes: tuple[str, ...] = ("Which one did you mean?", "Which one should I take?")
    acknowledgements: tuple[str, ...] = ("Okay.", "Sure.", "On it.")

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not (value == 0 or 1e-9 <= abs(value) <= 1e9):
                raise ConfigError(f"config key {f.name} must be 0 or a finite magnitude in [1e-9, 1e9]")
        positive = [
            "cell_size",
            "gamma",
            "sigma_frac",
            "room_x",
            "room_y",
            "room_z",
            "tau_near",
            "focal_px",
            "cam_height",
            "max_range",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"config key {name} must be positive")
        for name in ("region_dx", "region_dy", "frame_width", "frame_height",
                     "min_pixels", "stride", "max_attempts"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"config key {name} must be >= 1")
        if int(self.n_waypoints) < 4:  # plan_trajectory's ring takes at least four poses
            raise ConfigError("config key n_waypoints must be >= 4")
        # beyond this numpy cannot even address the grid; below it, a grid too
        # large for memory fails to allocate (MemoryError)
        if max(self.room_x, self.room_y) / self.cell_size > 1e8:
            raise ConfigError("config keys room_x, room_y and cell_size give a grid side over 1e8 cells")
        # with look_frac 0 a ring pose aims straight down its own (x, y)
        if self.look_frac == 0 and abs(self.look_height - self.cam_height) < 1e-9:
            raise ConfigError("config key look_frac = 0 with look_height = cam_height aims poses at their eye")
        if not 0 < self.gamma < 1:
            raise ConfigError("config key gamma must lie in (0, 1)")
        for name in ("p_fn", "p_fp"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"config key {name} must lie in [0, 1]")
        for name in ("sigma_c", "sigma_s", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"config key {name} must be non-negative")
        for name in ("mismatch_suffixes", "wh_suffixes", "acknowledgements"):
            if not getattr(self, name):
                raise ConfigError(f"config key {name} must list at least one entry")
        if "\0" in self.lexicon_path:  # no file system can open it
            raise ConfigError("config key lexicon_path must not contain a NUL byte")

    # -- derived objects ---------------------------------------------------

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            fx=self.focal_px,
            fy=self.focal_px,
            cx=self.frame_width / 2.0,
            cy=self.frame_height / 2.0,
            width=self.frame_width,
            height=self.frame_height,
        )

    def grid_spec(self) -> GridSpec:
        return GridSpec(
            0.0,
            0.0,
            self.cell_size,
            int(math.ceil(self.room_x / self.cell_size)),
            int(math.ceil(self.room_y / self.cell_size)),
        )

    def noise_models(self, preset: str) -> frozenset[str]:
        """The error models `preset` runs."""
        if preset not in NOISE_PRESETS:
            raise ConfigError(f"unknown noise preset {preset!r}; choose from {sorted(NOISE_PRESETS)}")
        return NOISE_PRESETS[preset]

    def lexicon(self) -> Lexicon:
        return load_lexicon(self.lexicon_path) if self.lexicon_path else default_lexicon()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _coerce(name: str, kind, raw: str, lineno: int):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        return tuple(part.strip() for part in raw.split("|") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {name}: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key = value config file with line-precise error messages."""
    kinds = {f.name: type(f.default) for f in fields(PipelineConfig)}
    values = {}
    try:
        for lineno, key, value in key_value_lines(path, ConfigError):
            if key not in kinds:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, kinds[key], value, lineno)
        return PipelineConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
