"""Structured iterative pruning.

Output structures (Conv2D filters, FullyConnected neurons) are ranked by
the L2 norm of their weight slice; each stage removes the lowest-ranked
floor(fraction * original_count) structures per layer, fractions relative
to the original count. Masking zeroes the structures in fresh copies of
the touched constants; materializing removes them physically and slices
every consumer's input channels. Both walk the removals that
`_checked_removals`, the one check of a plan against a graph, returns.

Channel propagation rule: a removal travels from a layer's output through
channel-preserving ops (ReLU, MaxPool2D, AvgPool2D) and DepthwiseConv2D
(whose per-channel kernels and bias entries are removed along the way)
until it is absorbed by the input-channel axis of a Conv2D or, through
Flatten, by the matching column block of a FullyConnected layer. Layers
whose removals would reach Add, Concat, Softmax or a graph output are
excluded from pruning; this keeps cross-branch masks consistent and
always protects the final classifier.

Fine-tuning happens externally: export_checkpoint/import_checkpoint move
weights across the boundary as a manifest+blob pair whose blob is the
model blob of the same graph, packed and read by model_io.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (
    CHANNEL_PRESERVING_OPS,
    GraphIR,
    OpKind,
    OpNode,
    ShapeError,
    TensorSpec,
    infer_shapes,
)
from .model_io import (
    NUMBER, _field, pack_blob, pair_paths, read_blob, read_json, write_json, write_pair,
)

PRUNABLE_OPS = (OpKind.CONV2D, OpKind.FULLY_CONNECTED)
DEFAULT_SCHEDULE = (0.10, 0.05, 0.05)


class PruneError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class FilterScore:
    layer_id: str
    filter_index: int
    l2_norm: float


@dataclass
class PrunePlan:
    """Staged removal sets plus derived keep-masks (True = kept)."""

    schedule: list[float]
    original_counts: dict[str, int]
    stages: list[dict[str, list[int]]] = field(default_factory=list)

    def removed(self, layer_id: str) -> set[int]:
        out: set[int] = set()
        for stage in self.stages:
            out.update(stage.get(layer_id, []))
        return out

    @property
    def masks(self) -> dict[str, list[bool]]:
        return {
            layer: [i not in self.removed(layer) for i in range(count)]
            for layer, count in self.original_counts.items()
        }

    @property
    def complete(self) -> bool:
        return len(self.stages) >= len(self.schedule)

    def to_json(self) -> dict:
        return {
            "schedule": list(self.schedule),
            "basis": "original_count",
            "original_counts": dict(sorted(self.original_counts.items())),
            "stages": [
                {layer: list(idx) for layer, idx in sorted(stage.items())}
                for stage in self.stages
            ],
            "masks": {layer: mask for layer, mask in sorted(self.masks.items())},
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "PrunePlan":
        """Decode the JSON form; a malformed field raises PruneError naming it.

        "masks" is derived and not read; "basis", if given, must be "original_count".
        """
        where = "prune plan"
        schedule = _field(obj, "schedule", where, [NUMBER], PruneError)
        counts = _field(obj, "original_counts", where, dict, PruneError)
        stages = _field(obj, "stages", where, [dict], PruneError)
        for layer in counts:
            _field(counts, layer, f"{where} original_counts", int, PruneError)
        for i, stage in enumerate(stages, 1):
            for layer in stage:
                _field(stage, layer, f"{where} stage {i}", [int], PruneError)
        if obj.get("basis", "original_count") != "original_count":
            raise PruneError(f"{where}: key 'basis' must be 'original_count', got {obj['basis']!r}")
        return cls(schedule, counts, stages)

    @classmethod
    def load(cls, path: str | Path) -> "PrunePlan":
        return cls.from_json(read_json(path, PruneError))


def _validate_schedule(schedule) -> list[float]:
    schedule = [float(f) for f in schedule]
    if not schedule:
        raise PruneError("empty prune schedule")
    if any(not 0.0 < f < 1.0 for f in schedule):
        raise PruneError(f"schedule fractions must lie in (0, 1): {schedule}")
    if sum(schedule) >= 1.0:
        raise PruneError(f"schedule fractions must sum below 1: {schedule}")
    return schedule


# ---------------------------------------------------------------------------
# channel propagation


def _propagation_table(graph: GraphIR) -> dict[str, tuple[OpNode, list | None]]:
    """Every Conv2D/FullyConnected layer of `graph` with its downstream actions.

    Maps layer id -> (layer node, actions), where actions is a list of
    ("dw"|"conv_in"|"fc_in", consumer node, positions) with positions the
    Flatten spatial expansion factor for "fc_in" (1 when the input was
    already 2-D), or None when the layer is not prunable. The actions
    depend only on graph structure and the graph's Flatten spatial sizes,
    which channel removal leaves unchanged.
    """
    consumers = graph.consumer_map()
    return {
        node.id: (node, _propagation_actions(graph, consumers, node.outputs[0]))
        for node in graph.nodes
        if node.kind in PRUNABLE_OPS
    }


def _propagation_actions(g: GraphIR, consumers, output: str):
    """Walk one layer's `output` through its consumers on `g`."""
    actions = []
    # (tensor_id, flatten positions or None while still channel-shaped)
    queue: list[tuple[str, int | None]] = [(output, None)]
    seen: set[tuple[str, int | None]] = set()
    while queue:
        tid, positions = queue.pop(0)
        if (tid, positions) in seen:
            continue
        seen.add((tid, positions))
        if tid in g.graph_outputs:
            return None
        for consumer in consumers.get(tid, []):
            kind = consumer.kind
            if kind in (OpKind.ADD, OpKind.CONCAT, OpKind.SOFTMAX):
                return None
            if kind in CHANNEL_PRESERVING_OPS:
                queue.append((consumer.outputs[0], positions))
            elif kind == OpKind.DEPTHWISE_CONV2D:
                if positions is not None:
                    return None
                actions.append(("dw", consumer, None))
                queue.append((consumer.outputs[0], None))
            elif kind == OpKind.CONV2D:
                if positions is not None:
                    return None
                actions.append(("conv_in", consumer, None))
            elif kind == OpKind.FULLY_CONNECTED:
                actions.append(("fc_in", consumer, positions or 1))
            elif kind == OpKind.FLATTEN:
                if positions is not None:
                    return None
                shape = g.tensors[tid].shape
                spatial = int(np.prod(shape[1:-1])) if len(shape) > 2 else 1
                queue.append((consumer.outputs[0], spatial))
            else:
                return None
    return actions


def prunable_layers(graph: GraphIR) -> list[str]:
    """Conv2D/FullyConnected layers whose channel removals stay absorbable."""
    return [lid for lid, (_, actions) in _propagation_table(graph).items() if actions is not None]


def _prunable_weights(graph: GraphIR) -> dict[str, TensorSpec]:
    """Prunable layer id -> its weight tensor."""
    return {
        lid: graph.tensors[node.inputs[1]]
        for lid, (node, actions) in _propagation_table(graph).items()
        if actions is not None
    }


def rank_filters(graph: GraphIR) -> dict[str, list[FilterScore]]:
    """Per-layer L2 norms of every output structure, prunable layers only."""
    scores: dict[str, list[FilterScore]] = {}
    for layer_id, weight in _prunable_weights(graph).items():
        w = weight.data
        if w.dtype != np.float32:
            raise PruneError(f"layer {layer_id}: pruning requires Float32 weights")
        flat = np.asarray(w, dtype=np.float64).reshape(w.shape[0], -1)
        norms = np.sqrt((flat * flat).sum(axis=1))
        scores[layer_id] = [
            FilterScore(layer_id, i, float(n)) for i, n in enumerate(norms)
        ]
    return scores


def plan_next_stage(graph: GraphIR, plan: PrunePlan) -> PrunePlan:
    """Append one stage: rank current weights, remove the lowest-L2 unmasked.

    Ranking is recomputed on the graph as passed in, so weights fine-tuned
    between stages influence later removals.
    """
    if plan.complete:
        raise PruneError("prune plan already has all scheduled stages")
    fraction = plan.schedule[len(plan.stages)]
    scores = rank_filters(graph)
    stage: dict[str, list[int]] = {}
    for layer_id, layer_scores in scores.items():
        if layer_id not in plan.original_counts:
            raise PruneError(f"layer {layer_id} missing from plan's original counts")
        original = plan.original_counts[layer_id]
        count = math.floor(fraction * original)
        if count == 0:
            continue
        already = plan.removed(layer_id)
        live = [s for s in layer_scores if s.filter_index not in already]
        if count >= len(live):
            raise PruneError(f"layer {layer_id}: stage would remove all remaining filters")
        live.sort(key=lambda s: (s.l2_norm, s.filter_index))
        stage[layer_id] = sorted(s.filter_index for s in live[:count])
    return PrunePlan(
        schedule=list(plan.schedule),
        original_counts=dict(plan.original_counts),
        stages=[*[dict(s) for s in plan.stages], stage],
    )


def new_plan(graph: GraphIR, schedule=DEFAULT_SCHEDULE) -> PrunePlan:
    schedule = _validate_schedule(schedule)
    counts = {lid: int(w.shape[0]) for lid, w in _prunable_weights(graph).items()}
    return PrunePlan(schedule=schedule, original_counts=counts)


def _checked_removals(graph: GraphIR, plan: PrunePlan) -> list[tuple[OpNode, list[int], list]]:
    """The plan's removals on `graph`: (layer node, sorted removed indices,
    propagation actions) for each layer that has removals.

    The one check of a plan against a graph. Raises PruneError when a
    stage names a layer that `original_counts` lacks, or a counted layer
    is not a Conv2D/FullyConnected node of `graph`, has another filter
    count, has an index out of range, or has removals that cannot be
    absorbed in this graph.
    """
    table = _propagation_table(graph)
    for k, stage in enumerate(plan.stages, 1):
        for layer_id in sorted(stage):
            if layer_id not in plan.original_counts:
                raise PruneError(
                    f"prune plan stage {k}: layer {layer_id} is not in original_counts"
                )
    checked = []
    for layer_id, count in plan.original_counts.items():
        if layer_id not in table:
            raise PruneError(
                f"layer {layer_id}: in the prune plan but not a prunable layer of the model"
            )
        node, actions = table[layer_id]
        filters = graph.tensors[node.inputs[1]].shape[0]
        if filters != count:
            raise PruneError(f"layer {layer_id}: mask length {count} != filter count {filters}")
        removed = sorted(plan.removed(layer_id))
        outside = [i for i in removed if not 0 <= i < count]
        if outside:
            raise PruneError(f"layer {layer_id}: filter index {outside[0]} outside [0, {count})")
        if not removed:
            continue
        if actions is None:
            raise PruneError(f"layer {layer_id} is not prunable in this graph")
        checked.append((node, removed, actions))
    return checked


def apply_masks(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Zero removed structures; shapes unchanged.

    Besides the pruned layer's weight rows and bias entries, per-channel
    kernels and biases of depthwise consumers on the propagation path are
    zeroed too, so the masked graph computes exactly what the
    materialized one does. Copy-on-write: each touched constant is zeroed
    in a fresh copy, and every other constant stays shared with `graph`.
    """
    g = graph.copy()
    copied: set[str] = set()

    def own(tid: str) -> np.ndarray:
        t = g.tensors[tid]
        if tid not in copied:
            t.data = t.data.copy(order="K")
            copied.add(tid)
        return t.data

    for node, removed, actions in _checked_removals(graph, plan):
        for tid in node.inputs[1:]:  # weight rows and bias entries
            own(tid)[removed] = 0
        for action, consumer, _ in actions:
            if action == "dw":
                own(consumer.inputs[1])[:, :, :, removed] = 0
                if len(consumer.inputs) == 3:
                    own(consumer.inputs[2])[removed] = 0
    return g


def materialize(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Physically remove pruned structures and re-infer shapes.

    The plan is checked, and the propagation table built, on the input
    graph: removing channels changes neither graph structure nor Flatten
    spatial sizes.
    """
    g = graph.copy()

    def drop(tid: str, index: list[int], axis: int) -> None:
        t = g.tensors[tid]
        t.data = np.delete(t.data, index, axis=axis)
        t.shape = t.data.shape

    for node, removed, actions in _checked_removals(graph, plan):
        count = g.tensors[node.inputs[1]].shape[0]
        for tid in node.inputs[1:]:  # weight rows and bias entries
            drop(tid, removed, 0)
        for action, consumer, positions in actions:
            if action == "fc_in":  # columns p*C + c for every spatial position p
                cols = [p * count + c for p in range(positions) for c in removed]
                drop(consumer.inputs[1], cols, 1)
            else:  # dw and conv_in: the input-channel axis, and a depthwise bias
                drop(consumer.inputs[1], removed, 3)
                if action == "dw" and len(consumer.inputs) == 3:
                    drop(consumer.inputs[2], removed, 0)

    try:
        return infer_shapes(g)[0]
    except ShapeError as exc:
        raise PruneError(f"materialized graph invalid: {exc}") from None


# ---------------------------------------------------------------------------
# fine-tuning interface: checkpoint export/import


@dataclass
class Checkpoint:
    """Constant-tensor snapshot: its blob is the model blob of the same graph."""

    index: dict[str, dict]  # tensor id -> {offset, length, dtype, shape}
    blob: bytes

    def save(self, path: str | Path) -> tuple[Path, Path]:
        return write_pair(path, {"checkpoint_version": 1, "tensors": self.index}, self.blob)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        manifest_path, blob_path = pair_paths(path)
        base = manifest_path.with_suffix("")
        manifest = read_json(manifest_path, CheckpointError)
        if not isinstance(manifest, dict) or manifest.get("checkpoint_version") != 1:
            raise CheckpointError(f"unsupported checkpoint version in {base}")
        index = _field(manifest, "tensors", f"checkpoint {base}", dict, CheckpointError)
        return cls(index=index, blob=blob_path.read_bytes())


def export_checkpoint(graph: GraphIR) -> Checkpoint:
    blob, index = pack_blob(graph.tensors)
    for tid, entry in index.items():
        entry.update(dtype=graph.tensors[tid].dtype.value, shape=list(graph.tensors[tid].shape))
    return Checkpoint(index=index, blob=blob)


def import_checkpoint(graph: GraphIR, checkpoint: Checkpoint) -> GraphIR:
    """Replace constant tensors from a checkpoint, validating layout first."""
    g = graph.copy()
    expected = {tid for tid, t in g.tensors.items() if t.is_constant}
    for tid in sorted(expected):
        if tid not in checkpoint.index:
            raise CheckpointError(f"checkpoint missing tensor {tid}")
    for tid in sorted(checkpoint.index):
        if tid not in expected:
            raise CheckpointError(f"checkpoint has unknown tensor {tid}")
    for tid, t in g.tensors.items():
        if not t.is_constant:
            continue
        entry = checkpoint.index[tid]
        where = f"checkpoint tensor {tid}"
        dtype = _field(entry, "dtype", where, str, CheckpointError)
        if dtype != t.dtype.value:
            raise CheckpointError(f"tensor {tid}: checkpoint dtype {dtype} != {t.dtype.value}")
        shape = _field(entry, "shape", where, [int], CheckpointError)
        if shape != list(t.shape):
            raise CheckpointError(f"tensor {tid}: checkpoint shape {shape} != {list(t.shape)}")
        t.data = read_blob(checkpoint.blob, entry, t.dtype, t.shape, where, CheckpointError)
    return g
