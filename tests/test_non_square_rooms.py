"""End to end on non-square rooms: noise-free counting and dialogue at
6.5 x 4.0 m and at 4.0 x 6.5 m.

Every other end-to-end check runs a 5 x 5 m room on a square grid, where an
x/y swap between the paths that write the grid and the paths that read it
could cancel out. Here the grid is 130 x 80 cells one way and 80 x 130 the
other, so such a swap misplaces mass, and the noise-free bounds of C3
(per-count F1 of 1.0) and of C6/C7 (state accuracy and AA at least 0.95, QA
at least 0.90) must still hold.
"""

import pytest

from refground.config import PipelineConfig
from refground.evaluation import evaluate_dataset, simulate_counting_dataset, simulate_dialogue_dataset


@pytest.mark.parametrize("room_x, room_y", [(6.5, 4.0), (4.0, 6.5)])
def test_noise_free_bounds_hold_on_a_non_square_room(tmp_path, room_x, room_y):
    config = PipelineConfig(room_x=room_x, room_y=room_y)
    grid = config.grid_spec()
    assert (grid.d1, grid.d2) == ((130, 80) if room_x > room_y else (80, 130))
    counting_dir = simulate_counting_dataset(tmp_path / "counting", config, rooms_per_count=4)
    dialogue_dir = simulate_dialogue_dataset(tmp_path / "dialogue", config, n_rooms=6)
    counting = evaluate_dataset(counting_dir, config, "none").counting
    dialogue = evaluate_dataset(dialogue_dir, config, "none").dialogue
    assert counting.per_count == {1: 1.0, 2: 1.0, 3: 1.0}
    assert dialogue.n_pairs > 0
    assert dialogue.state_accuracy >= 0.95 and dialogue.aa_f1 >= 0.95 and dialogue.qa >= 0.90
