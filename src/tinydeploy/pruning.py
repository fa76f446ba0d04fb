"""Structured iterative pruning.

Output structures (Conv2D filters, FullyConnected neurons) are ranked by
the L2 norm of their weight slice; each stage removes the lowest-ranked
floor(fraction * original_count) structures per layer, fractions relative
to the original count. Masking zeroes the structures in fresh copies of
the touched constants; materializing removes them physically and also
cuts every consumer's input channels. Both read the cut list that
`_checked_cuts`, the one check of a plan against a graph, returns.

Channel propagation rule: a removal travels from a layer's output through
channel-preserving ops (ReLU, MaxPool2D, AvgPool2D) and DepthwiseConv2D
(whose per-channel kernels and bias entries are removed along the way)
until it is absorbed by the input-channel axis of a Conv2D or, through
Flatten, by the matching columns of a FullyConnected layer.

- Concat on the channel axis: a removal in input k continues at the same
  indices plus input k's channel offset; a Flatten after it cuts the
  columns p * C_total + offset + c for every spatial position p.
- Add: the layers whose outputs meet at an Add, closed over chains of
  Adds, form one coupled group. A group is ranked by its members' summed
  L2 norms and every member loses the same indices at each stage; the
  removal continues through the Add's output.

A walk stops, and its layer is excluded, at a Concat on another axis or
one that reads a tensor twice, at Softmax, at a graph output, or at any
other op. A group is excluded as a whole when one member's walk stops,
or when an Add operand does not trace back through ReLU, pools,
DepthwiseConv2D and Adds to the group's layers (it comes from the graph
input, a Concat or a constant). This always protects the final
classifier.

Fine-tuning happens externally: export_checkpoint/import_checkpoint move
weights across the boundary as a manifest+blob pair whose blob is the
model blob of the same graph, packed and read by model_io.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (
    CHANNEL_PRESERVING_OPS,
    DType,
    GraphIR,
    OpKind,
    OpNode,
    ShapeError,
    infer_shapes,
)
from .model_io import (
    BlobSpan, decode, pack_blob, pair_paths, read_blob, read_json, read_versioned, write_json,
    write_pair,
)

PRUNABLE_OPS = (OpKind.CONV2D, OpKind.FULLY_CONNECTED)
DEFAULT_SCHEDULE = (0.10, 0.05, 0.05)


class PruneError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class PrunePlan:
    """Staged removal sets plus derived keep-masks (True = kept); every
    plan, one read from a file too, has its schedule checked."""

    schedule: list[float]
    original_counts: dict[str, int]
    stages: list[dict[str, list[int]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        schedule = [float(f) for f in self.schedule]
        if not schedule:
            raise PruneError("prune plan: empty schedule")
        if any(not 0.0 < f < 1.0 for f in schedule):
            raise PruneError(f"prune plan: schedule fractions must lie in (0, 1): {schedule}")
        if sum(schedule) >= 1.0:
            raise PruneError(f"prune plan: schedule fractions must sum below 1: {schedule}")
        self.schedule = schedule

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

    def save(self, path: str | Path) -> None:
        write_json(path, {**vars(self), "basis": "original_count", "masks": self.masks})

    @classmethod
    def load(cls, path: str | Path) -> "PrunePlan":
        """Read a plan written by `save` with `model_io.decode`; a malformed
        field raises PruneError naming it. "masks" is derived and not
        read; "basis", if given, must be "original_count"."""
        obj = read_json(path, PruneError)
        if isinstance(obj, dict):
            obj = {k: v for k, v in obj.items() if k != "masks"}
            basis = obj.pop("basis", "original_count")
            if basis != "original_count":
                raise PruneError(f"prune plan: key 'basis' must be 'original_count', got {basis!r}")
        return decode(cls, obj, "prune plan", PruneError)


# ---------------------------------------------------------------------------
# channel propagation


def _propagation_table(graph: GraphIR) -> dict[str, tuple[OpNode, list | None, tuple[str, ...]]]:
    """Every Conv2D/FullyConnected layer of `graph` with its cuts and its
    coupled group.

    Maps layer id -> (layer node, cuts, group). Cuts is a list of
    (constant tensor id, axis, bases, masked): a removed filter c cuts
    index `base + c` of that axis for every base. They are the layer's
    own weight rows and bias entries (axis 0), each depthwise consumer's
    channels (weight axis 3, bias axis 0), each Conv2D consumer's input
    channels (weight axis 3) and each FullyConnected consumer's columns
    (weight axis 1). Masking zeroes the masked cuts, which are all but a
    consumer's inputs; materializing deletes every cut. Cuts are None
    when the layer is not prunable, and then for its whole group. The
    group is the layers, in graph order, whose outputs meet at an Add,
    closed over chains of Adds; a layer that meets no Add is alone. The
    table depends only on graph structure and the channel counts of
    Flatten and Concat inputs, which masking leaves unchanged; every
    index it yields is one of the unpruned graph.
    """
    consumers = graph.consumer_map()
    origins = _add_origins(graph)
    layers = [n for n in graph.nodes if n.kind in PRUNABLE_OPS]
    groups = {n.id: (n.id,) for n in layers}
    for sources in filter(None, origins.values()):
        members = set().union(*(groups[lid] for lid in sources))
        group = tuple(n.id for n in layers if n.id in members)
        groups.update(dict.fromkeys(group, group))
    cuts = {n.id: _propagation_cuts(graph, consumers, origins, n) for n in layers}
    return {
        n.id: (n, None if any(cuts[m] is None for m in groups[n.id]) else cuts[n.id],
               groups[n.id])
        for n in layers
    }


def _add_origins(graph: GraphIR) -> dict[str, frozenset[str] | None]:
    """Add output id -> the Conv2D/FullyConnected layers whose filters are
    its channels, index for index, traced back through ReLU, pools,
    DepthwiseConv2D and Adds; None when a channel of some operand comes
    from elsewhere (the graph input, a Concat, a constant)."""
    adds = [n for n in graph.nodes if n.kind == OpKind.ADD]
    producers = graph.producer_map() if adds else {}
    memo: dict[str, frozenset[str] | None] = {}

    def origin(tid: str) -> frozenset[str] | None:
        if tid not in memo:
            n = producers.get(tid)
            kind = n.kind if n is not None else None
            if kind in PRUNABLE_OPS:
                memo[tid] = frozenset([n.id])
            elif kind in CHANNEL_PRESERVING_OPS or kind == OpKind.DEPTHWISE_CONV2D:
                memo[tid] = origin(n.inputs[0])
            elif kind == OpKind.ADD:
                parts = [origin(t) for t in n.inputs]
                memo[tid] = None if None in parts else frozenset().union(*parts)
            else:
                memo[tid] = None
        return memo[tid]

    return {n.outputs[0]: origin(n.outputs[0]) for n in adds}


def _concat_offset(g: GraphIR, concat: OpNode, tid: str) -> int | None:
    """The channel offset of input `tid` in `concat`'s output, or None when
    the Concat is not on the channel axis or reads a tensor twice."""
    rank = len(g.tensors[tid].shape)
    if concat.attrs["axis"] % rank != rank - 1 or len(set(concat.inputs)) < len(concat.inputs):
        return None
    k = concat.inputs.index(tid)
    return sum(g.tensors[t].shape[-1] for t in concat.inputs[:k])


def _propagation_cuts(g: GraphIR, consumers, origins, layer: OpNode):
    """Walk `layer`'s output through its consumers on `g`."""
    cuts = [(tid, 0, (0,), True) for tid in layer.inputs[1:]]  # weight rows and bias entries
    # (tensor id, bases, flattened): removed filter c is the tensor's
    # channel, or after a Flatten its column, `base + c` for every base
    queue: deque[tuple[str, tuple[int, ...], bool]] = deque([(layer.outputs[0], (0,), False)])
    seen: set[tuple[str, tuple[int, ...], bool]] = set()
    while queue:
        state = queue.popleft()
        if state in seen:
            continue
        seen.add(state)
        tid, bases, flat = state
        if tid in g.graph_outputs:
            return None
        for consumer in consumers.get(tid, []):
            kind, out = consumer.kind, consumer.outputs[0]
            if kind in CHANNEL_PRESERVING_OPS:
                queue.append((out, bases, flat))
            elif kind == OpKind.ADD:
                if not origins[out]:  # an operand the group cannot cut alike
                    return None
                queue.append((out, bases, flat))
            elif kind == OpKind.FULLY_CONNECTED:
                cuts.append((consumer.inputs[1], 1, bases, False))
            elif flat:
                return None
            elif kind == OpKind.DEPTHWISE_CONV2D:
                cuts += [(tid, axis, bases, True) for tid, axis in zip(consumer.inputs[1:], (3, 0))]
                queue.append((out, bases, False))
            elif kind == OpKind.CONV2D:
                cuts.append((consumer.inputs[1], 3, bases, False))
            elif kind == OpKind.FLATTEN:
                shape = g.tensors[tid].shape
                spatial = int(np.prod(shape[1:-1])) if len(shape) > 2 else 1
                columns = tuple(p * shape[-1] + b for p in range(spatial) for b in bases)
                queue.append((out, columns, True))
            elif kind == OpKind.CONCAT and (offset := _concat_offset(g, consumer, tid)) is not None:
                queue.append((out, tuple(b + offset for b in bases), False))
            else:
                return None
    return cuts


def _prunable(graph: GraphIR) -> dict[str, tuple[OpNode, tuple[str, ...]]]:
    """Prunable layer id -> (its node, its coupled group)."""
    return {
        lid: (node, group)
        for lid, (node, cuts, group) in _propagation_table(graph).items()
        if cuts is not None
    }


def _l2_norms(graph: GraphIR, node: OpNode) -> np.ndarray:
    """The L2 norm of each output structure of a layer's Float32 weight."""
    w = graph.tensors[node.inputs[1]].data
    if w.dtype != np.float32:
        raise PruneError(f"layer {node.id}: pruning requires Float32 weights")
    flat = np.asarray(w, dtype=np.float64).reshape(w.shape[0], -1)
    return np.sqrt((flat * flat).sum(axis=1))


def plan_next_stage(graph: GraphIR, plan: PrunePlan) -> PrunePlan:
    """Append one stage: rank current weights, remove the lowest-L2 unmasked.

    A coupled group is ranked by its members' summed L2 norms, and every
    member loses the same indices. Ranking is recomputed on the graph as
    passed in, so weights fine-tuned between stages influence later
    removals.
    """
    if plan.complete:
        raise PruneError("prune plan already has all scheduled stages")
    fraction = plan.schedule[len(plan.stages)]
    prunable = _prunable(graph)
    stage: dict[str, list[int]] = {}
    for layer_id, (_, group) in prunable.items():
        if layer_id not in plan.original_counts:
            raise PruneError(f"layer {layer_id} missing from plan's original counts")
        count = math.floor(fraction * plan.original_counts[layer_id])
        if count == 0 or layer_id != group[0]:  # a group is ranked at its first layer
            continue
        norms = sum(_l2_norms(graph, prunable[m][0]) for m in group)
        already = set().union(*(plan.removed(m) for m in group))
        live = sorted((i for i in range(len(norms)) if i not in already),
                      key=lambda i: (norms[i], i))
        if count >= len(live):
            raise PruneError(f"layer {layer_id}: stage would remove all remaining filters")
        stage.update((m, sorted(live[:count])) for m in group)
    return PrunePlan(
        schedule=list(plan.schedule),
        original_counts=dict(plan.original_counts),
        stages=[*[dict(s) for s in plan.stages], stage],
    )


def new_plan(graph: GraphIR, schedule=DEFAULT_SCHEDULE) -> PrunePlan:
    counts = {
        lid: int(graph.tensors[node.inputs[1]].shape[0])
        for lid, (node, _) in _prunable(graph).items()
    }
    return PrunePlan(schedule=schedule, original_counts=counts)


def _checked_cuts(
    graph: GraphIR, plan: PrunePlan,
) -> dict[tuple[str, int], tuple[list[int], bool]]:
    """The plan's cuts on `graph`: (constant tensor id, axis) -> (sorted
    indices cut, masked), gathered from the propagation table's cuts of
    every layer that has removals. A consumer of a Concat is cut by
    several layers, at indices of the unpruned tensor.

    The one check of a plan against a graph. Raises PruneError when a
    stage names a layer that `original_counts` lacks, or a counted layer
    is not a Conv2D/FullyConnected node of `graph`, has another filter
    count, has an index out of range, has removals that cannot be
    absorbed in this graph, or removes other indices in some stage than
    another layer of its coupled group.
    """
    table = _propagation_table(graph)
    for k, stage in enumerate(plan.stages, 1):
        for layer_id in sorted(stage):
            if layer_id not in plan.original_counts:
                raise PruneError(
                    f"prune plan stage {k}: layer {layer_id} is not in original_counts"
                )
    cuts: dict[tuple[str, int], tuple[set[int], bool]] = {}
    for layer_id, count in plan.original_counts.items():
        if layer_id not in table:
            raise PruneError(
                f"layer {layer_id}: in the prune plan but not a prunable layer of the model"
            )
        node, layer_cuts, group = table[layer_id]
        filters = graph.tensors[node.inputs[1]].shape[0]
        if filters != count:
            raise PruneError(f"layer {layer_id}: mask length {count} != filter count {filters}")
        removed = sorted(plan.removed(layer_id))
        outside = [i for i in removed if not 0 <= i < count]
        if outside:
            raise PruneError(f"layer {layer_id}: filter index {outside[0]} outside [0, {count})")
        if not removed:
            continue
        if layer_cuts is None:
            raise PruneError(f"layer {layer_id} is not prunable in this graph")
        for k, stage in enumerate(plan.stages, 1):
            for other in group:
                if set(stage.get(other, ())) != set(stage.get(layer_id, ())):
                    first, second = sorted((layer_id, other), key=group.index)
                    raise PruneError(
                        f"prune plan stage {k}: layers {first} and {second} meet at an Add"
                        " but remove different filters"
                    )
        for tid, axis, bases, masked in layer_cuts:
            index = cuts.setdefault((tid, axis), (set(), masked))[0]
            index.update(b + c for b in bases for c in removed)
    return {key: (sorted(index), masked) for key, (index, masked) in cuts.items()}


def apply_masks(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Zero removed structures; shapes unchanged.

    Zeroes the masked cuts: the pruned layers' weight rows and bias
    entries, and the per-channel kernels and biases of depthwise
    consumers on the propagation path, so the masked graph computes
    exactly what the materialized one does. A consumer's input channels
    and columns are left alone. Copy-on-write: each touched constant is
    zeroed in a fresh copy, and every other constant stays shared with
    `graph`.
    """
    g = graph.copy()
    for (tid, axis), (index, masked) in _checked_cuts(graph, plan).items():
        if masked:
            t = g.tensors[tid]
            if t.data is graph.tensors[tid].data:
                t.data = t.data.copy(order="K")
            t.data[(slice(None),) * axis + (index,)] = 0
    return g


def materialize(graph: GraphIR, plan: PrunePlan) -> GraphIR:
    """Physically remove pruned structures and re-infer shapes.

    Deletes every cut, masked or not. The plan is checked, and the
    propagation table built, on the input graph: removing channels
    changes neither graph structure nor Flatten spatial sizes.
    """
    g = graph.copy()
    for (tid, axis), (index, _) in _checked_cuts(graph, plan).items():
        t = g.tensors[tid]
        t.data = np.delete(t.data, index, axis=axis)
        t.shape = t.data.shape
    try:
        return infer_shapes(g)[0]
    except ShapeError as exc:
        raise PruneError(f"materialized graph invalid: {exc}") from None


# ---------------------------------------------------------------------------
# fine-tuning interface: checkpoint export/import


@dataclass
class CheckpointEntry(BlobSpan):
    dtype: DType
    shape: list[int]


@dataclass
class CheckpointManifest:
    checkpoint_version: int
    tensors: dict  # id -> CheckpointEntry, which `Checkpoint.load` decodes naming the tensor


@dataclass
class Checkpoint:
    """Constant-tensor snapshot: its blob is the model blob of the same graph."""

    index: dict[str, CheckpointEntry]
    blob: bytes

    def save(self, path: str | Path) -> tuple[Path, Path]:
        return write_pair(path, CheckpointManifest(1, self.index), self.blob)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        manifest_path, blob_path = pair_paths(path)
        obj = read_versioned(manifest_path, "checkpoint_version", CheckpointError)
        manifest = decode(CheckpointManifest, obj, f"checkpoint {manifest_path.with_suffix('')}",
                          CheckpointError)
        index = {tid: decode(CheckpointEntry, entry, f"checkpoint tensor {tid}", CheckpointError)
                 for tid, entry in manifest.tensors.items()}
        return cls(index=index, blob=blob_path.read_bytes())


def export_checkpoint(graph: GraphIR) -> Checkpoint:
    blob, spans = pack_blob(tensors := graph.tensors)
    index = {tid: CheckpointEntry(s.offset, s.length, tensors[tid].dtype, list(tensors[tid].shape))
             for tid, s in spans.items()}
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
        entry, where = checkpoint.index[tid], f"checkpoint tensor {tid}"
        if entry.dtype != t.dtype:
            raise CheckpointError(
                f"tensor {tid}: checkpoint dtype {entry.dtype.value} != {t.dtype.value}")
        if entry.shape != list(t.shape):
            raise CheckpointError(
                f"tensor {tid}: checkpoint shape {entry.shape} != {list(t.shape)}")
        t.data = read_blob(checkpoint.blob, entry, t.dtype, t.shape, where, CheckpointError)
    return g
