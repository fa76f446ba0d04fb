"""Structured iterative pruning.

Output structures (Conv2D filters, FullyConnected neurons) are ranked by
the L2 norm of their weight slice; each stage removes the lowest-ranked
floor(fraction * original_count) structures per layer, fractions relative
to the original count. Masking zeroes the structures in fresh copies of
the touched constants; materializing removes them physically and slices
every consumer's input channels.

Channel propagation rule: a removal travels from a layer's output through
channel-preserving ops (ReLU, MaxPool2D, AvgPool2D) and DepthwiseConv2D
(whose per-channel kernels and bias entries are removed along the way)
until it is absorbed by the input-channel axis of a Conv2D or, through
Flatten, by the matching column block of a FullyConnected layer. Layers
whose removals would reach Add, Concat, Softmax or a graph output are
excluded from pruning; this keeps cross-branch masks consistent and
always protects the final classifier.

Fine-tuning happens externally: export_checkpoint/import_checkpoint move
weights across the boundary in the model blob layout.
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
    ShapeError,
    TensorSpec,
    infer_shapes,
)
from .model_io import _field, pack_tensor, read_json, unpack_tensor, write_json, write_pair

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
    basis: str = "original_count"

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
            "basis": self.basis,
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
        """Decode the JSON form; a malformed field raises PruneError naming it."""
        where = "prune plan"
        schedule = _field(obj, "schedule", where, list, PruneError)
        counts = _field(obj, "original_counts", where, dict, PruneError)
        stages = _field(obj, "stages", where, list, PruneError)
        try:
            return cls(
                schedule=[float(f) for f in schedule],
                original_counts={k: int(v) for k, v in counts.items()},
                stages=[
                    {layer: [int(i) for i in idx] for layer, idx in stage.items()}
                    for stage in stages
                ],
                basis=str(obj.get("basis", "original_count")),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise PruneError(f"{where}: malformed schedule, counts or stages: {exc}") from None

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


def _propagation_table(graph: GraphIR) -> dict[str, list | None]:
    """Downstream actions for every Conv2D/FullyConnected layer of `graph`.

    Maps layer id -> list of ("dw"|"conv_in"|"fc_in", node_id, positions)
    where positions is the Flatten spatial expansion factor for "fc_in"
    (1 when the input was already 2-D), or None when the layer is not
    prunable. Shapes are inferred once for the whole table; the actions
    depend only on graph structure and Flatten spatial sizes, which
    channel removal leaves unchanged.
    """
    g, _ = infer_shapes(graph)
    consumers = g.consumer_map()
    return {
        node.id: _propagation_actions(g, consumers, node.outputs[0])
        for node in g.nodes
        if node.kind in PRUNABLE_OPS
    }


def _propagation_actions(g: GraphIR, consumers, output: str):
    """Walk one layer's `output` through its consumers on shape-inferred `g`."""
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
                actions.append(("dw", consumer.id, None))
                queue.append((consumer.outputs[0], None))
            elif kind == OpKind.CONV2D:
                if positions is not None:
                    return None
                actions.append(("conv_in", consumer.id, None))
            elif kind == OpKind.FULLY_CONNECTED:
                actions.append(("fc_in", consumer.id, positions or 1))
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
    return [lid for lid, actions in _propagation_table(graph).items() if actions is not None]


def _prunable_weights(graph: GraphIR) -> dict[str, TensorSpec]:
    """Prunable layer id -> its weight tensor."""
    nodes = {n.id: n for n in graph.nodes}
    return {lid: graph.tensors[nodes[lid].inputs[1]] for lid in prunable_layers(graph)}


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
        basis=plan.basis,
    )


def new_plan(graph: GraphIR, schedule=DEFAULT_SCHEDULE) -> PrunePlan:
    schedule = _validate_schedule(schedule)
    counts = {lid: int(w.shape[0]) for lid, w in _prunable_weights(graph).items()}
    return PrunePlan(schedule=schedule, original_counts=counts)


def build_prune_plan(graph: GraphIR, schedule=DEFAULT_SCHEDULE) -> PrunePlan:
    """All stages at once (no fine-tuning between: weights never change)."""
    plan = new_plan(graph, schedule)
    for _ in plan.schedule:
        plan = plan_next_stage(graph, plan)
    return plan


def apply_masks(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Zero removed structures; shapes unchanged.

    Besides the pruned layer's weight rows and bias entries, per-channel
    kernels and biases of depthwise consumers on the propagation path are
    zeroed too, so the masked graph computes exactly what the
    materialized one does. Copy-on-write: each touched constant is zeroed
    in a fresh copy, and every other constant stays shared with `graph`.
    """
    g = graph.copy()
    nodes = {n.id: n for n in g.nodes}
    table = _propagation_table(graph)
    copied: set[str] = set()

    def own(tid: str) -> np.ndarray:
        t = g.tensors[tid]
        if tid not in copied:
            t.data = t.data.copy(order="K")
            copied.add(tid)
        return t.data

    for layer_id, count in plan.original_counts.items():
        node = nodes.get(layer_id)
        if node is None or node.kind not in PRUNABLE_OPS:
            raise PruneError(
                f"layer {layer_id}: in the prune plan but not a prunable layer of the model"
            )
        w = g.tensors[node.inputs[1]]
        if w.shape[0] != count:
            raise PruneError(
                f"layer {layer_id}: mask length {count} != filter count {w.shape[0]}"
            )
        removed = sorted(plan.removed(layer_id))
        outside = [i for i in removed if not 0 <= i < count]
        if outside:
            raise PruneError(f"layer {layer_id}: filter index {outside[0]} outside [0, {count})")
        if not removed:
            continue
        actions = table.get(layer_id)
        if actions is None:
            raise PruneError(f"layer {layer_id} is not prunable in this graph")
        own(node.inputs[1])[removed] = 0
        if len(node.inputs) == 3:
            own(node.inputs[2])[removed] = 0
        for action, consumer_id, _ in actions:
            if action == "dw":
                dw = nodes[consumer_id]
                own(dw.inputs[1])[:, :, :, removed] = 0
                if len(dw.inputs) == 3:
                    own(dw.inputs[2])[removed] = 0
    return g


def materialize(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Physically remove pruned structures and re-infer shapes.

    The propagation table comes from the input graph: removing channels
    changes neither graph structure nor Flatten spatial sizes.
    """
    g = graph.copy()
    nodes = {n.id: n for n in g.nodes}
    table = _propagation_table(graph)
    for layer_id, count in plan.original_counts.items():
        node = nodes[layer_id]
        w = g.tensors[node.inputs[1]]
        if w.shape[0] != count:
            raise PruneError(
                f"layer {layer_id}: plan count {count} != filter count {w.shape[0]}"
            )
        removed = sorted(plan.removed(layer_id))
        if not removed:
            continue
        actions = table.get(layer_id)
        if actions is None:
            raise PruneError(f"layer {layer_id} is not prunable in this graph")

        w.data = np.delete(w.data, removed, axis=0)
        w.shape = w.data.shape
        if len(node.inputs) == 3:
            b = g.tensors[node.inputs[2]]
            b.data = np.delete(b.data, removed, axis=0)
            b.shape = b.data.shape

        for action, consumer_id, positions in actions:
            consumer = nodes[consumer_id]
            cw = g.tensors[consumer.inputs[1]]
            if action == "dw":
                cw.data = np.delete(cw.data, removed, axis=3)
                cw.shape = cw.data.shape
                if len(consumer.inputs) == 3:
                    cb = g.tensors[consumer.inputs[2]]
                    cb.data = np.delete(cb.data, removed, axis=0)
                    cb.shape = cb.data.shape
            elif action == "conv_in":
                cw.data = np.delete(cw.data, removed, axis=3)
                cw.shape = cw.data.shape
            else:  # fc_in: columns p*C + c for every spatial position p
                cols = [p * count + c for p in range(positions) for c in removed]
                cw.data = np.delete(cw.data, cols, axis=1)
                cw.shape = cw.data.shape

    try:
        return infer_shapes(g)[0]
    except ShapeError as exc:
        raise PruneError(f"materialized graph invalid: {exc}") from None


# ---------------------------------------------------------------------------
# fine-tuning interface: checkpoint export/import


@dataclass
class Checkpoint:
    """Constant-tensor snapshot in the model blob layout."""

    index: dict[str, dict]  # tensor id -> {offset, length, dtype, shape}
    blob: bytes

    def save(self, path: str | Path) -> tuple[Path, Path]:
        path = Path(path)
        if path.suffix == ".json":
            path = path.with_suffix("")
        manifest = {"checkpoint_version": 1, "tensors": self.index}
        write_pair(path.with_suffix(".json"), manifest, path.with_suffix(".bin"), self.blob)
        return path.with_suffix(".json"), path.with_suffix(".bin")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        path = Path(path)
        if path.suffix == ".json":
            path = path.with_suffix("")
        manifest = read_json(path.with_suffix(".json"), CheckpointError)
        if not isinstance(manifest, dict) or manifest.get("checkpoint_version") != 1:
            raise CheckpointError(f"unsupported checkpoint version in {path}")
        index = _field(manifest, "tensors", f"checkpoint {path}", dict, CheckpointError)
        return cls(index=index, blob=path.with_suffix(".bin").read_bytes())


def export_checkpoint(graph: GraphIR) -> Checkpoint:
    blob = bytearray()
    index: dict[str, dict] = {}
    for tid, t in sorted(graph.tensors.items()):  # model blob layout order
        if not t.is_constant:
            continue
        payload = pack_tensor(t.data, t.dtype)
        index[tid] = {
            "offset": len(blob),
            "length": len(payload),
            "dtype": t.dtype.value,
            "shape": list(t.shape),
        }
        blob.extend(payload)
    return Checkpoint(index=index, blob=bytes(blob))


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
        offset = _field(entry, "offset", where, int, CheckpointError)
        length = _field(entry, "length", where, int, CheckpointError)
        if dtype != t.dtype.value:
            raise CheckpointError(f"tensor {tid}: checkpoint dtype {dtype} != {t.dtype.value}")
        if length != t.size_bytes:
            raise CheckpointError(
                f"tensor {tid}: checkpoint length {length} != expected {t.size_bytes}"
            )
        if offset < 0:
            raise CheckpointError(f"tensor {tid}: negative checkpoint offset {offset}")
        if offset + length > len(checkpoint.blob):
            raise CheckpointError(f"tensor {tid}: checkpoint blob too short")
        raw = checkpoint.blob[offset:offset + length]
        t.data = unpack_tensor(raw, t.dtype, t.shape)
    return g
