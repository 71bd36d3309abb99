"""Detector error models and their effect on instance counting.

Four error models emulate a practical object detector on top of the
simulator's ground-truth boxes: centroid shift, shape distortion, false
negatives, and false positives overlaid from a different room's
observations. The demo reproduces their statistics, then compares instance
counting across noise presets on a small dataset.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from refground import Detection, apply_errors
from refground.config import PipelineConfig
from refground.geometry import BoundingBox
from refground.evaluation import eval_counting, simulate_counting_dataset

print("=== error model statistics (10k draws) ===")
det = Detection(BoundingBox(40.0, 40.0, 80.0, 80.0), "a cup", 0)
area = det.bbox.area
shift_cfg = PipelineConfig(mu_c=0.2, sigma_c=0.04, seed=1)
fn_cfg = PipelineConfig(p_fn=0.15, seed=2)
shifts, deleted = [], 0
for frame in range(10_000):
    (out,) = apply_errors([det], frame, 128, 128, shift_cfg, frozenset({"cs"}), bank=(), stream_seed=0)
    shifts.append(
        math.hypot(out.bbox.center[0] - det.bbox.center[0], out.bbox.center[1] - det.bbox.center[1])
    )
    if not apply_errors([det], frame, 128, 128, fn_cfg, frozenset({"fn"}), bank=(), stream_seed=0):
        deleted += 1
print(f"  centroid shift: mean |shift| / sqrt(area) = {np.mean(shifts)/math.sqrt(area):.4f}"
      f"  (configured mu_c = 0.2)")
print(f"  false negatives: deletion rate = {deleted/10_000:.4f}  (configured p_fn = 0.15)")

print("\n=== instance counting under noise presets ===")
config = PipelineConfig()
print(f"  {'preset':<10} {'count=1':>8} {'count=2':>8} {'count=3':>8} {'avg':>8}")
with tempfile.TemporaryDirectory() as tmp:
    dataset = Path(tmp) / "counting"
    simulate_counting_dataset(dataset, config, rooms_per_count=16, counts=(1, 2, 3))
    for preset in ("none", "cs", "cs+sd", "cs+sd+fn", "fp"):
        result = eval_counting(dataset, config, preset)
        row = " ".join(f"{result.per_count[c]:>8.3f}" for c in (1, 2, 3))
        print(f"  {preset:<10} {row} {result.average:>8.3f}")
print(
    "\nfalse positives mint phantom object graphs of unrelated classes; on the"
    " full acceptance dataset (50 rooms per count) the fp preset is reliably"
    " the worst column."
)
