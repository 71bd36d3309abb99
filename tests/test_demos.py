import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 05_detector_noise.py takes several seconds; tools/outputs.py runs it.
DEMOS = (
    "01_phrase_to_graph.py",
    "02_scene_and_observations.py",
    "03_multiview_aggregation.py",
    "04_disambiguation_dialogue.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # the demo removed what it wrote
