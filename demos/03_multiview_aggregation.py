"""Multi-view aggregation on the bird's-eye-view occupancy grid.

Every detection's bounding box is back-projected into a weighted world
point cloud (a Gaussian soft mask favors box centers), flattened into grid
cells, and accumulated per object graph. Region scores normalize the cell
mass into a distribution; greedy non-maximal merging groups neighboring
high-score regions into object instances; fusing the per-graph maps
deduplicates graphs that describe the same physical object.
"""

import tempfile
from pathlib import Path

import numpy as np

from refground import generate_room, realize
from refground.config import PipelineConfig
from refground.aggregation import merge_regions
from refground.episodes import load_episode, simulate_episode
from refground.pipeline import build_session

config = PipelineConfig()
room = generate_room(35, {"cup": 3, "table": 1, "desk": 1, "counter": 1, "sofa": 1}, config)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "ep"
    simulate_episode(out, room, config)
    frames = load_episode(out)
    session = build_session(frames, config, config.lexicon())
print(f"accumulated {sum(len(f.detections) for f in frames)} detections over {len(frames)} frames")

print("\n=== registered object graphs ===")
for oid, graph in session.registry.items():
    _, freq = session.occupancy(oid)
    print(f"  oid {oid}: {realize(graph)!r} ({np.count_nonzero(freq)} occupied cells)")

oid = session.registry.oids_for_root("cup")[0]
scores = session.region_scores(oid, config.region_dx, config.region_dy)
print(f"\n=== region scores for oid {oid} (percent, y up) ===")
for row in (scores.T[::-1] * 100).round(0).astype(int):
    print("  " + " ".join(f"{v:3d}" if v else "  ." for v in row))

labels = merge_regions(scores, config.gamma)
print(f"\nmerged labels (gamma={config.gamma}): {labels}")

print("\n=== fused instances per class ===")
for root in room.classes():
    records = session.fuse_across_graphs(root, config.region_dx, config.region_dy, config.gamma)
    truth = len(room.objects_of(root))
    print(f"  {root}: {len(records)} instances (ground truth {truth})")
    for record in records:
        x, y = record.centroid
        print(f"      {realize(record.graph)!r} near ({x:.2f}, {y:.2f}), score {record.score:.2f}")

true_cups = [(o.centroid[0], o.centroid[1]) for o in room.objects_of("cup")]
print(f"\ntrue cup positions: {[(round(x, 2), round(y, 2)) for x, y in true_cups]}")
