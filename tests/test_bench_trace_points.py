"""The benchmark's trace points still name functions that exist and are called.

`bench/layers.py` patches refground module attributes by name; a renamed or
bypassed function would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

from refground import aggregation, episodes, evaluation, pipeline, render
from refground.aggregation import AggregationSession
from refground.config import PipelineConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
PATCHED = (aggregation, episodes, evaluation, pipeline, render, AggregationSession)


def load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_install_traces_every_layer_and_unpatch_restores(tmp_path, monkeypatch):
    layers, tracer_module = load_bench("layers", monkeypatch), load_bench("tracer", monkeypatch)
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracer_module.Tracer()
    layers.install(tracer)
    try:
        config = PipelineConfig()
        data = evaluation.simulate_counting_dataset(tmp_path, config, rooms_per_count=1, counts=(2,))
        evaluation.eval_counting(data, config, "fp")
        lexicon = config.lexicon()
        session = pipeline.session_for_episode(data / "episode_00000", config, "none", lexicon)
        _, graph = pipeline.ground_in_session(session, "bring a cup", config, lexicon, 0)
        room = episodes.load_room(data / "episode_00000")
        pipeline.oracle_outcome(room, graph, config, 0)
        # a cold fusion of the root with the most graphs (a gamma not fused before), then its repeat
        root = max(sorted({g.root for _, g in session.registry.items()}), key=lambda r: len(session.registry.oids_for_root(r)))
        for _ in range(2):
            session.fuse_across_graphs(root, config.region_dx, config.region_dy, 0.07)
    finally:
        tracer.unpatch()
    after = [dict(vars(owner)) for owner in PATCHED]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before))
    names = {span.name for span in tracer.spans}
    assert names >= {
        "evaluation.simulate_counting_dataset",
        "evaluation.eval_counting",
        "simulator.generate_room",
        "simulator.apply_errors",
        "episodes.simulate_episode",
        "render.render_scene",
        "episodes.depth_write",
        "episodes.depth_read",
        "episodes.load_episode",
        "pipeline.session",
        "pipeline.bank",
        "pipeline.ground",
        "language.parse",
        "geometry.cloud",
        "geometry.voxelize",
        "aggregation.accumulate",
        "aggregation.region_scores",
        "aggregation.merge",
        "aggregation.fuse",
        "discriminator.classify",
        "discriminator.query",
        layers.ORACLE_SPAN,
    }
    # the bank's generate_room goes through pipeline, the dataset's through evaluation
    bank = next(s for s in tracer.spans if s.name == "pipeline.bank")
    assert any(s.name == "simulator.generate_room" and s.parent == bank.sid for s in tracer.spans)

    # what region_scores_per_fused_graph counts: region scoring and merging run only inside
    # a fusion, a cold fusion scores and merges each graph of its root once, a repeat none
    by_id = {span.sid: span for span in tracer.spans}

    def under_fuse(span):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "aggregation.fuse":
                return True
        return False

    assert all(under_fuse(s) for s in tracer.spans if s.name in ("aggregation.region_scores", "aggregation.merge"))
    cold, warm = [s for s in tracer.spans if s.name == "aggregation.fuse"][-2:]
    assert cold.counts["graphs"] == len(session.registry.oids_for_root(root)) >= 2
    for name in ("aggregation.region_scores", "aggregation.merge"):
        assert sum(s.parent == cold.sid for s in tracer.spans if s.name == name) == cold.counts["graphs"]
        assert not any(s.parent == warm.sid for s in tracer.spans if s.name == name)
