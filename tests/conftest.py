from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from refground.config import PipelineConfig
from refground.geometry import GridSpec
from refground.graph import ObjectGraph
from refground.lexicon import COLORS, MATERIALS, OBJECT_CLASSES, default_lexicon
from refground.render import _pixel_rects, render_scene, render_setup, scene_boxes


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


def cell_center(grid: GridSpec, cell: tuple[int, int]) -> tuple[float, float]:
    """World (x, y) of a grid cell's center."""
    return (
        grid.origin_x + (cell[0] + 0.5) * grid.cell_size,
        grid.origin_y + (cell[1] + 0.5) * grid.cell_size,
    )


def view_setup(room, pose, intrinsics, max_range, include_structure=True):
    """(set-up, pixel rectangles) that render_scene takes for one view outside
    a trajectory; without the structure the set-up holds the objects only."""
    setup = render_setup(room, intrinsics)
    if not include_structure:
        mins, maxs, ids = scene_boxes(room, False)
        setup = setup._replace(mins=mins, maxs=maxs, ids=ids)
    return setup, _pixel_rects(setup, [pose], max_range)[0]


def render_view(room, pose, intrinsics, max_range, include_structure=True):
    """render_scene of one view, through view_setup."""
    setup, rects = view_setup(room, pose, intrinsics, max_range, include_structure)
    return render_scene(room, pose, intrinsics, max_range, setup=setup, rects=rects)


def save_config(config: PipelineConfig, path: Path) -> None:
    """Write every key of config in the `key = value` form load_config reads."""
    lines = ["# refground pipeline configuration"]
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {'|'.join(value) if isinstance(value, tuple) else value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_expressible_graph(rng: np.random.Generator, depth: int = 0, budget: int = 3) -> ObjectGraph:
    """A random graph the lexicon can express unambiguously.

    Depth <= 2 relational nesting, <= 3 attributes total, and at most one
    relational edge per node so the realized phrase parses back uniquely.
    """
    classes = sorted(OBJECT_CLASSES)
    cls = classes[int(rng.integers(len(classes)))]
    self_attrs = []
    if budget > 0 and rng.random() < 0.7:
        kind = "color" if rng.random() < 0.5 else "material"
        values = sorted(COLORS if kind == "color" else MATERIALS)
        self_attrs.append((kind, values[int(rng.integers(len(values)))]))
        budget -= 1
    rel_attrs = []
    if depth < 2 and budget > 0 and rng.random() < 0.55:
        child = random_expressible_graph(rng, depth + 1, budget - 1)
        while child.root == cls:
            child = random_expressible_graph(rng, depth + 1, budget - 1)
        relation = ("is-on", "is-near", "is-at")[int(rng.integers(3))]
        rel_attrs.append((relation, child))
    return ObjectGraph.build(cls, self_attrs, rel_attrs)
