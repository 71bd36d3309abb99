"""End to end: instruction in, clarifying question out.

Grounding an instruction against the aggregated instance graphs lands in
one of four dialogue states: a unique match is confirmed, a single
non-matching instance triggers a mismatch question, several candidates
trigger an ambiguity question listing each one, and an absent class is
reported as missing.
"""

import tempfile
from pathlib import Path

from refground import generate_room
from refground.config import PipelineConfig
from refground.episodes import load_instructions, simulate_episode
from refground.pipeline import ground_in_session, query_seed_for, session_for_episode

config = PipelineConfig()
lexicon = config.lexicon()
room = generate_room(77, {"cup": 2, "table": 1, "counter": 1, "lamp": 1, "book": 1}, config)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "ep"
    simulate_episode(out, room, config)
    session = session_for_episode(out, config, "none", lexicon)
    cases = load_instructions(out)

print("the room contains:")
for obj in room.objects:
    where = f"(on #{obj.support})" if obj.support is not None else ""
    print(f"  #{obj.id} {obj.color} {obj.material} {obj.cls} {where}")

print("\n=== instructions and generated queries ===")
for case in cases:
    seed = query_seed_for(config.seed, f"{out.name}:{case.text}")
    outcome, _ = ground_in_session(session, case.text, config, lexicon, seed)
    flag = "ok" if outcome.state.value == case.expected_state else "STATE MISMATCH"
    print(f"  user:  {case.text!r}")
    print(f"  robot: {outcome.query!r}")
    print(f"         state={outcome.state.value} expected={case.expected_state} [{flag}]\n")
