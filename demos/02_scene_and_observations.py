"""Synthetic rooms, camera trajectories, and RGB-D style observations.

The simulator places axis-aligned furniture and tabletop objects in a room,
derives each object's ground-truth graph from the layout, plans an
inward-looking camera loop, and renders per-view depth frames plus
ground-truth detections whose captions describe each object in lexicon words.
"""

import tempfile
from itertools import islice
from pathlib import Path

from refground import generate_room, scene_graphs
from refground.config import PipelineConfig
from refground.episodes import load_episode, simulate_episode, trajectory_frames
from refground.language import realize

config = PipelineConfig()
copies = {"cup": 2, "table": 1, "desk": 1, "lamp": 1, "sofa": 1, "book": 1}
room = generate_room(2024, copies, config)

print("=== room layout ===")
for obj in room.objects:
    x, y, _ = obj.centroid
    base = f"on object {obj.support}" if obj.support is not None else "on the floor"
    print(f"  #{obj.id} {obj.color} {obj.material} {obj.cls:<12} at ({x:.2f}, {y:.2f}) {base}")

graphs = scene_graphs(room, config.tau_near)
print("\n=== captions from scene metadata ===")
for oid, g in graphs.items():
    print(f"  #{oid}: {realize(g)!r}")

print("\n=== trajectory and rendered views ===")
# the same trajectory -> render -> detect loop writes episodes and builds
# the false-positive bank; it renders lazily, so only four views are drawn here
for index, (pose, depth, detections) in enumerate(islice(trajectory_frames(room, config), 4)):
    valid = depth[depth > 0]
    x, y, z = pose.translation
    print(
        f"  view {index}: camera ({x:.1f}, {y:.1f}, {z:.1f}),"
        f" depth {valid.min():.2f}..{valid.max():.2f} m,"
        f" {len(detections)} detections:"
        f" {[d.caption.split()[-1] for d in detections]}"
    )

print("\n=== episode files on disk ===")
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "episode_00000"
    simulate_episode(out, room, config)
    for path in sorted(out.iterdir())[:6]:
        print(f"  {path.name:<22} {path.stat().st_size:>8} bytes")
    frames = load_episode(out)
print(f"  ... {len(frames)} frames total; rerunning with the same seed is byte-identical")
