"""Outside-in span tracing.

Spans are recorded around calls into the program by replacing module
attributes that the program resolves at call time (``pipeline`` calls
``decompose.fit_tight_box``, ``network`` calls its own ``_attention_fwd``,
and so on) and restoring them afterwards.  The program itself is not edited.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

from scenetok import (compact, decompose, ground, pipeline, projection,
                      storage, tracking)
from scenetok.fusion import network


class Tracer:
    """Keeps spans in memory: (op, name, parent index, start, end)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []
        self.fuse_params = None  # params of the fusion call in progress

    # -- span recording ---------------------------------------------------

    def _wrap(self, module, attr, name, after=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([self._op, span, parent, time.perf_counter(), None])
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[idx][4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts[self._op], args, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, op: int) -> None:
        """Wrap every layer boundary; spans are tagged with ``op``."""
        self._op = op
        w = self._wrap
        w(storage, "read_scene_bundle", "storage.read_scene_bundle")
        w(storage, "validate_bundle", "bundle.validate_bundle")
        w(storage, "write_tokens", "storage.write_tokens")
        w(pipeline, "tokenize_bundle", "pipeline.tokenize_bundle")
        w(pipeline, "assign_token_ids", "pipeline.assign_token_ids")
        w(ground, "fit_and_segment", "ground.fit_and_segment")
        w(ground, "tile_ground", "ground.tile_ground")
        w(decompose, "decompose_frame", "decompose.decompose_frame")
        w(decompose, "extract_agent_elements", "decompose.extract_agent_elements")
        w(decompose, "cluster_open_set", "decompose.cluster_open_set")
        w(decompose, "fit_tight_box", "decompose.fit_tight_box")
        w(tracking, "track_open_set", "tracking.track_open_set",
          after=_count_tracks)
        w(projection, "build_point_features", "projection.build_point_features")
        w(compact, "downsample", "compact.downsample")
        w(compact, "build_tokenized_scene", "compact.build_tokenized_scene")
        w(compact, "pool_image_features", "compact.pool_image_features")
        w(compact, "segment_sum", "pooling.segment_sum")
        w(network, "segment_sum", "pooling.segment_sum")
        w(network, "fusion_loss_and_grads", "fusion.loss_and_grads")
        w(network, "_encode_geometry_fwd", "fusion.encode_geometry")
        w(network, "_pooled_point_forward", "fusion.point_pool")
        w(network, "mlp2_forward", _mlp_name)
        w(network, "_fuse_fwd", self._fuse_name)
        w(network, "_attention_fwd", self._attention_name)
        w(network, "masked_softmax", "fusion.masked_softmax")
        w(network, "_masked_time_mean_fwd", "fusion.time_mean")
        w(network, "_fuse_bwd", "fusion.backward")
        w(network, "_encode_geometry_bwd", "fusion.backward")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._op = -1
        self.fuse_params = None

    def _fuse_name(self, args):
        self.fuse_params = args[2]
        return "fusion.fuse_scene"

    def _attention_name(self, args):
        p = self.fuse_params
        if p is not None and args[1] is p.time_block:
            return "fusion.time_attn"
        return "fusion.elem_attn"

    # -- per-op reductions ------------------------------------------------

    def op_times(self, op: int) -> tuple[dict, dict, dict]:
        """(self ms, inclusive ms, calls) per span name within one op."""
        self_ms: dict[str, float] = defaultdict(float)
        incl_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for op_id, name, parent, start, end in self.spans:
            if op_id != op:
                continue
            dur = (end - start) * 1e3
            self_ms[name] += dur
            incl_ms[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_ms[self.spans[parent][1]] -= dur
        return self_ms, incl_ms, calls


def _mlp_name(args):
    # The point MLP reads xyz rows, the box MLP 7-float box rows.
    return "fusion.point_mlp" if args[0].shape[-1] == 3 else "fusion.box_mlp"


def _count_tracks(counts, args, result):
    detections = sum(len(frame) for frame in args[0])
    counts["tracking.detections"] = counts.get("tracking.detections", 0) + detections
    counts["tracking.tracks"] = counts.get("tracking.tracks", 0) + len(result)


# Library stage -> the spans that run inside its timer in pipeline.tokenize_bundle.
STAGE_SPANS = {
    "ground": ["ground.fit_and_segment"],
    "decompose": ["decompose.decompose_frame", "decompose.fit_tight_box"],
    "track": ["tracking.track_open_set"],
    "compact": ["ground.tile_ground", "pipeline.assign_token_ids",
                "compact.downsample", "compact.build_tokenized_scene",
                "compact.pool_image_features"],
    "project": ["projection.build_point_features"],
    "fuse": ["fusion.encode_geometry", "fusion.fuse_scene"],
}
