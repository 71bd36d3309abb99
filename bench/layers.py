"""Trace points in refground and the per-layer metrics derived from them.

Each traced function is patched at the module attribute where its caller
looks it up: `pipeline` and `episodes` import names such as
`bbox_cloud_arrays` and `render_scene` directly, so patching the defining
module alone would miss those calls. Methods are wrapped on
`AggregationSession`, which catches calls made through `self`.

Span names are `<layer>.<function>`; the layer is the refground module
that owns the function. The benchmark wraps each timed call into the
program in a `bench.op` span.
"""

from __future__ import annotations

import os
import weakref

from refground import aggregation, episodes, evaluation, pipeline, render
from refground.aggregation import AggregationSession

OP_SPAN = "bench.op"
ORACLE_SPAN = "oracle.outcome"
COUNT_PRESETS = ("none", "cs", "cs+sd", "cs+sd+fn", "fp")
LAYERS = (
    "render",
    "simulator",
    "episodes",
    "geometry",
    "language",
    "aggregation",
    "pipeline",
    "discriminator",
    "evaluation",
    "bench",
)


def _arg(args, kwargs, index: int, name: str, default=None):
    """Positional argument `index`, else keyword `name`; cheaper than binding a signature."""
    return args[index] if len(args) > index else kwargs.get(name, default)


def install(tracer) -> None:
    """Patch every trace point; `tracer.unpatch()` undoes it."""
    fused_roots: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def count_render(span, args, kwargs, result):
        room, intrinsics = _arg(args, kwargs, 0, "room"), _arg(args, kwargs, 2, "intrinsics")
        boxes = len(render.scene_boxes(room, _arg(args, kwargs, 4, "include_structure", True))[2])
        span.counts["slab_tests"] = intrinsics.width * intrinsics.height * boxes

    def count_file_bytes(span, args, kwargs, result):
        span.counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))

    def count_cloud(span, args, kwargs, result):
        span.counts["points"] = len(result[0])

    def count_voxelize(span, args, kwargs, result):
        span.counts["points_in"] = len(_arg(args, kwargs, 0, "points"))
        span.counts["cells"] = len(result[0])
        span.counts["dropped"] = result[3]

    def count_accumulate(span, args, kwargs, result):
        span.counts["cells"] = len(_arg(args, kwargs, 2, "cells"))

    def count_fuse(span, args, kwargs, result):
        session, root = args[0], _arg(args, kwargs, 1, "root")
        span.counts["graphs"] = len(session.registry.oids_for_root(root))
        seen = fused_roots.setdefault(session, set())
        span.counts["repeats"] = int(root in seen)
        seen.add(root)

    def count_eval(span, args, kwargs, result):
        preset = _arg(args, kwargs, 2, "noise_preset", "none")
        span.counts[f"ms.{preset}"] = 1e3 * (span.end - span.start)
        span.counts[f"calls.{preset}"] = 1

    patch = tracer.patch
    patch(evaluation, "simulate_counting_dataset", "evaluation.simulate_counting_dataset")
    patch(evaluation, "eval_counting", "evaluation.eval_counting", count_eval)
    patch(evaluation, "generate_room", "simulator.generate_room")
    patch(pipeline, "generate_room", "simulator.generate_room")
    patch(pipeline, "apply_errors", "simulator.apply_errors")
    patch(evaluation, "simulate_episode", "episodes.simulate_episode")
    patch(episodes, "render_scene", "render.render_scene", count_render)
    patch(render, "render_scene", "render.render_scene", count_render)
    patch(episodes, "write_depth_file", "episodes.depth_write", count_file_bytes)
    patch(episodes, "read_depth_file", "episodes.depth_read", count_file_bytes)
    patch(pipeline, "load_episode", "episodes.load_episode")
    patch(evaluation, "session_for_episode", "pipeline.session")
    patch(evaluation, "build_observation_bank", "pipeline.bank")
    patch(pipeline, "ground_in_session", "pipeline.ground")
    patch(pipeline, "phrase_to_graph", "language.parse")
    patch(pipeline, "bbox_cloud_arrays", "geometry.cloud", count_cloud)
    patch(pipeline, "voxelize_bev_arrays", "geometry.voxelize", count_voxelize)
    patch(AggregationSession, "accumulate", "aggregation.accumulate", count_accumulate)
    patch(AggregationSession, "region_scores", "aggregation.region_scores")
    patch(aggregation, "merge_regions", "aggregation.merge")
    patch(AggregationSession, "fuse_across_graphs", "aggregation.fuse", count_fuse)
    patch(pipeline, "classify", "discriminator.classify")
    patch(pipeline, "generate_query", "discriminator.query")
    patch(pipeline, "oracle_outcome", ORACLE_SPAN)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, units: int, untraced_busy: float, traced_busy: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced rounds.

    `units` is the number of workload units the traced rounds completed;
    the two busy times are the summed op times of the untraced and of the
    traced rounds, which ran on the same inputs.
    """
    stats = tracer.summary(hide_under=frozenset({ORACLE_SPAN}))

    def calls(name) -> int:
        s = stats.get(name)
        return s.calls if s else 0

    def count(name, key) -> float:
        s = stats.get(name)
        return s.counts.get(key, 0) if s else 0

    def self_ms(name) -> float:
        s = stats.get(name)
        return _ratio(1e3 * s.self_total, s.calls) if s else 0.0

    def incl_ms(name) -> float:
        s = stats.get(name)
        return _ratio(1e3 * s.total, s.calls) if s else 0.0

    def per_op(value) -> float:
        return _ratio(value, units)

    m = {
        "render.frames": per_op(calls("render.render_scene")),
        "render.ms_per_frame": self_ms("render.render_scene"),
        "render.slab_tests": per_op(count("render.render_scene", "slab_tests")),
        "simulator.generate_room_ms": self_ms("simulator.generate_room"),
        "simulator.room_yield": _ratio(
            calls("episodes.simulate_episode"), calls("simulator.generate_room")
        ),
        "simulator.apply_errors_ms": self_ms("simulator.apply_errors"),
        "episodes.depth_write_ms": self_ms("episodes.depth_write"),
        "episodes.depth_bytes_written": per_op(count("episodes.depth_write", "bytes")),
        "episodes.depth_read_ms": self_ms("episodes.depth_read"),
        "episodes.depth_bytes_read": per_op(count("episodes.depth_read", "bytes")),
        "episodes.load_episode_ms": self_ms("episodes.load_episode"),
        "geometry.cloud_ms": self_ms("geometry.cloud"),
        "geometry.cloud_points": per_op(count("geometry.cloud", "points")),
        "geometry.voxelize_ms": self_ms("geometry.voxelize"),
        "geometry.cells_out": per_op(count("geometry.voxelize", "cells")),
        "geometry.dropped_ratio": _ratio(
            count("geometry.voxelize", "dropped"), count("geometry.voxelize", "points_in")
        ),
        "language.parse_ms": self_ms("language.parse"),
        "language.caption_cache_hit_ratio": _caption_cache_hit_ratio(tracer),
        "aggregation.accumulate_ms": self_ms("aggregation.accumulate"),
        "aggregation.cells_accumulated": per_op(count("aggregation.accumulate", "cells")),
        "aggregation.region_scores_ms": self_ms("aggregation.region_scores"),
        "aggregation.merge_ms": self_ms("aggregation.merge"),
        "aggregation.fuse_ms": self_ms("aggregation.fuse"),
        "aggregation.fuse_calls": per_op(calls("aggregation.fuse")),
        "aggregation.region_scores_per_fused_graph": _ratio(
            calls("aggregation.region_scores"), count("aggregation.fuse", "graphs")
        ),
        "aggregation.fuse_repeat_share": _ratio(
            count("aggregation.fuse", "repeats"), calls("aggregation.fuse")
        ),
        "pipeline.session_ms": self_ms("pipeline.session"),
        "pipeline.bank_builds": per_op(calls("pipeline.bank")),
        "pipeline.bank_ms": incl_ms("pipeline.bank"),
        "pipeline.ground_ms": self_ms("pipeline.ground"),
        "discriminator.classify_ms": self_ms("discriminator.classify"),
        "discriminator.query_ms": self_ms("discriminator.query"),
        "oracle.outcome_ms": incl_ms(ORACLE_SPAN),
    }
    for preset in COUNT_PRESETS:
        m[f"evaluation.eval_counting_ms.{preset.replace('+', '_')}"] = _ratio(
            count("evaluation.eval_counting", f"ms.{preset}"),
            count("evaluation.eval_counting", f"calls.{preset}"),
        )
    op_total = stats[OP_SPAN].total if OP_SPAN in stats else 0.0
    for layer in LAYERS:
        layer_self = sum(
            s.self_total
            for name, s in stats.items()
            if name.split(".")[0] == layer and name != ORACLE_SPAN
        )
        m[f"split.{layer}"] = _ratio(layer_self, op_total)
    m["trace.untraced_op_ms"] = per_op(1e3 * untraced_busy)
    m["trace.traced_op_ms"] = per_op(1e3 * traced_busy)
    m["trace.overhead_share"] = _ratio(traced_busy, untraced_busy) - 1.0
    m["trace.spans_per_op"] = per_op(len(tracer.spans))
    return m


def _caption_cache_hit_ratio(tracer) -> float:
    """1 - caption parses / detections, over session builds.

    Detections are counted as bbox->cloud calls plus failed caption parses;
    build_session's own skip counter (StreamStats) is not returned to callers.
    """
    spans = tracer.spans
    parses = failed = clouds = 0
    for span in spans:
        if span.parent is None or spans[span.parent].name != "pipeline.session":
            continue
        if span.name == "language.parse":
            parses += 1
            failed += int(span.error)
        elif span.name == "geometry.cloud":
            clouds += 1
    detections = clouds + failed
    return 1.0 - _ratio(parses, detections) if detections else 0.0
