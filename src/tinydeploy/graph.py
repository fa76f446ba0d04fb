"""Graph IR for small feed-forward ConvNets.

Activations are NHWC; graph shapes declare batch N=1, and a prepared
`executor.Program` runs any leading batch size. Conv2D weights are
(out, kh, kw, in), DepthwiseConv2D weights are (1, kh, kw, channels) and
FullyConnected weights are (out, in). Graphs are treated as immutable:
every transformation returns a new graph.

Shapes are established once per graph version, by `infer_shapes` in
`model_io.load_model`, the bundled-model builder and `pruning.materialize`;
every other transformation (`apply_masks`, `import_checkpoint`,
`quantize_graph`) keeps them, and every reader trusts them. A graph built
by hand goes through `infer_shapes` before any other call.

Graph copies share constants. `GraphIR.copy()`, and therefore
`infer_shapes`, copies structure only: new `OpNode`s (own `inputs`,
`outputs` and `attrs`) and new `TensorSpec`s, which share the input's
constant `data` arrays and `QuantParams` objects. The rule that keeps
this safe is copy-on-write: a transformation may set any field of a
TensorSpec it copied, but replaces `data` (and `quant`) instead of
writing into them. To change a few elements it writes into a fresh copy
of just that array, as `pruning.apply_masks` does.
"""
from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

import numpy as np


class DType(str, enum.Enum):
    FLOAT32 = "float32"
    INT8 = "int8"
    INT32 = "int32"

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.value)

    @property
    def size_bytes(self) -> int:
        return self.np_dtype.itemsize


class TensorKind(str, enum.Enum):
    INPUT = "input"
    WEIGHT = "weight"
    BIAS = "bias"
    ACTIVATION = "activation"
    OUTPUT = "output"


class OpKind(str, enum.Enum):
    CONV2D = "Conv2D"
    DEPTHWISE_CONV2D = "DepthwiseConv2D"
    FULLY_CONNECTED = "FullyConnected"
    RELU = "ReLU"
    MAX_POOL2D = "MaxPool2D"
    AVG_POOL2D = "AvgPool2D"
    ADD = "Add"
    CONCAT = "Concat"
    FLATTEN = "Flatten"
    SOFTMAX = "Softmax"


# Ops that carry constant weights and define output structures (filters/neurons):
# the ops with a MAC count.
WEIGHTED_OPS = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED)

# Ops whose output preserves per-channel identity of their input (used by
# pruning propagation).
CHANNEL_PRESERVING_OPS = (OpKind.RELU, OpKind.MAX_POOL2D, OpKind.AVG_POOL2D)

VALID_PADDINGS = ("VALID", "SAME")

QMIN, QMAX = -128, 127  # the Int8 code range


class ShapeError(ValueError):
    """Shape inference failed; message names the offending node."""


@dataclass
class QuantParams:
    """Affine quantization parameters: real = scale * (q - zero_point).

    Every field is a plain immutable value, so `==` compares two params,
    `model_io.json_text` writes them as a record and tensors may share one
    object. Per-tensor params hold a float scale, an int zero point and
    axis None; per-channel params hold a tuple of floats and a tuple of
    ints along the int `axis` of the tensor. Every scale is finite and
    positive and every zero point an Int8 code in [QMIN, QMAX].
    """

    scale: float | tuple[float, ...]
    zero_point: int | tuple[int, ...]
    granularity: str = "per_tensor"  # "per_tensor" | "per_channel"
    axis: int | None = None
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.granularity == "per_channel":
            if self.axis is None:
                raise ValueError("per_channel quantization requires an axis")
            scales = np.ravel(np.asarray(self.scale, dtype=np.float64))
            scale_ok = np.all(np.isfinite(scales) & (scales > 0))
            self.scale, self.axis = tuple(scales.tolist()), int(self.axis)
            self.zero_point = zero_points = tuple(int(z) for z in np.ravel(self.zero_point))
        elif self.granularity == "per_tensor":  # no numpy: one per activation
            self.scale, self.zero_point, self.axis = float(self.scale), int(self.zero_point), None
            scale_ok = 0 < self.scale < math.inf
            zero_points = (self.zero_point,)
        else:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        outside = [z for z in zero_points if not QMIN <= z <= QMAX]
        if outside:
            raise ValueError(f"zero point {outside[0]} outside Int8 range [{QMIN}, {QMAX}]")
        if not scale_ok:
            raise ValueError("scale must be finite and positive")
        self.symmetric = bool(self.symmetric)
        if self.symmetric and any(zero_points):
            raise ValueError("symmetric quantization requires zero_point 0")


@dataclass
class TensorSpec:
    id: str
    shape: tuple[int, ...]
    dtype: DType
    kind: TensorKind
    quant: QuantParams | None = None
    data: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.shape = tuple(int(d) for d in self.shape)
        if self.data is not None:
            self.data = np.ascontiguousarray(self.data, dtype=self.dtype.np_dtype)

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.dtype.size_bytes

    @property
    def is_constant(self) -> bool:
        return self.kind in (TensorKind.WEIGHT, TensorKind.BIAS)


@dataclass
class OpNode:
    id: str
    kind: OpKind
    attrs: dict = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


@dataclass
class GraphIR:
    name: str
    nodes: list[OpNode]
    tensors: dict[str, TensorSpec]
    graph_inputs: list[str]
    graph_outputs: list[str]

    def copy(self) -> "GraphIR":
        """Structure-only copy: new nodes, attrs dicts and TensorSpecs.

        Constant `data` arrays and `QuantParams` objects are shared with
        this graph, so the copy follows the module's copy-on-write rule.
        """
        tensors = {}
        for tid, t in self.tensors.items():
            # A bare shell with a copied __dict__ skips __post_init__, so
            # it keeps the very same data array, F-ordered or not.
            shell = object.__new__(TensorSpec)
            shell.__dict__.update(t.__dict__)
            tensors[tid] = shell
        return GraphIR(
            self.name,
            [OpNode(n.id, n.kind, dict(n.attrs), list(n.inputs), list(n.outputs))
             for n in self.nodes],
            tensors,
            list(self.graph_inputs),
            list(self.graph_outputs),
        )

    def producer_map(self) -> dict[str, OpNode]:
        """Map tensor id -> producing node (constants and inputs absent)."""
        out: dict[str, OpNode] = {}
        for n in self.nodes:
            for t in n.outputs:
                out[t] = n
        return out

    def consumer_map(self) -> dict[str, list[OpNode]]:
        out: dict[str, list[OpNode]] = {t: [] for t in self.tensors}
        for n in self.nodes:
            for t in n.inputs:
                out.setdefault(t, []).append(n)
        return out

    def is_quantized(self) -> bool:
        """True when every activation-like tensor carries INT8 quantization.

        Outputs produced by Softmax stay Float32 (Softmax runs in float).
        """
        softmax_outputs = {t for n in self.nodes if n.kind == OpKind.SOFTMAX for t in n.outputs}
        saw_int8 = False
        for t in self.tensors.values():
            if t.kind in (TensorKind.WEIGHT, TensorKind.BIAS) or t.id in softmax_outputs:
                continue
            if t.dtype != DType.INT8 or t.quant is None:
                return False
            saw_int8 = True
        return saw_int8


# Reader kind -> the kinds whose output it fuses with (`fused_successor`).
# Every reader but Add has one activation input, so a chain waits only on
# what its first node (or an Add) reads. Concat has no row: a pool fused
# into the Concat that reads it would wait for the Concat's other inputs.
_POOLING = (OpKind.MAX_POOL2D, OpKind.AVG_POOL2D, OpKind.CONCAT)
FUSES_AFTER = {
    OpKind.RELU: (*WEIGHTED_OPS, OpKind.ADD),
    OpKind.ADD: (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D),
    OpKind.SOFTMAX: (OpKind.FULLY_CONNECTED,),
    OpKind.FULLY_CONNECTED: (OpKind.FLATTEN,),
    OpKind.MAX_POOL2D: _POOLING,
    OpKind.AVG_POOL2D: _POOLING,
    OpKind.FLATTEN: _POOLING,
}


def fused_successor(
    graph: GraphIR, node: OpNode, consumers: dict[str, list[OpNode]]
) -> OpNode | None:
    """The node that `node` fuses with into one kernel, or None.

    `node`'s output must not be a graph output and must have one reader,
    which makes one of the FUSES_AFTER pairs: a weighted op or an Add
    with a ReLU, a Conv2D or DepthwiseConv2D with an Add, a
    FullyConnected with a Softmax, a MaxPool2D, AvgPool2D or Concat with
    a MaxPool2D, AvgPool2D or Flatten, or a Flatten with a
    FullyConnected. Pairs link into chains, such as Conv2D + Add + ReLU
    and Concat + MaxPool2D + Flatten + FullyConnected + Softmax, in
    which only the last output is read outside the chain; each node's
    kernel reads its producer's output without storing it. `consumers`
    is `graph.consumer_map()`.
    """
    out = node.outputs[0]
    readers = consumers.get(out, [])
    if out in graph.graph_outputs or len(readers) != 1:
        return None
    if node.kind in FUSES_AFTER.get(readers[0].kind, ()):
        return readers[0]
    return None


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# Per-kind (min_inputs, max_inputs, n_outputs).
_ARITY = {
    OpKind.CONV2D: (2, 3, 1),
    OpKind.DEPTHWISE_CONV2D: (2, 3, 1),
    OpKind.FULLY_CONNECTED: (2, 3, 1),
    OpKind.RELU: (1, 1, 1),
    OpKind.MAX_POOL2D: (1, 1, 1),
    OpKind.AVG_POOL2D: (1, 1, 1),
    OpKind.ADD: (2, 2, 1),
    OpKind.CONCAT: (2, None, 1),
    OpKind.FLATTEN: (1, 1, 1),
    OpKind.SOFTMAX: (1, 1, 1),
}

_WINDOW_OPS = (
    OpKind.CONV2D,
    OpKind.DEPTHWISE_CONV2D,
    OpKind.MAX_POOL2D,
    OpKind.AVG_POOL2D,
)


def _is_int(value) -> bool:
    """An int and not a bool, which isinstance counts as one (JSON true)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(graph: GraphIR) -> ValidationReport:
    """Check structural invariants; violations are data, not exceptions."""
    return ValidationReport(_checked_order(graph)[0])


def _checked_order(graph: GraphIR) -> tuple[list[str], list[str] | None]:
    """(violations, topological order); the order is None unless valid."""
    v: list[str] = []

    producers: dict[str, str] = {}
    for n in graph.nodes:
        for t in n.outputs:
            if t in producers:
                v.append(f"multiple producers {t} (nodes {producers[t]}, {n.id})")
            else:
                producers[t] = n.id

    for tid in graph.graph_inputs + graph.graph_outputs:
        if tid not in graph.tensors:
            v.append(f"unknown graph io tensor {tid}")

    for tid, t in graph.tensors.items():
        if tid != t.id:
            v.append(f"tensor key {tid} does not match id {t.id}")
        if any(d < 1 for d in t.shape):
            v.append(f"tensor {tid}: non-positive dimension in shape {t.shape}")
        if t.dtype == DType.INT8 and t.quant is None:
            v.append(f"tensor {tid}: Int8 without quantization parameters")
        q = t.quant
        if q is not None and q.granularity == "per_channel" and not (
            0 <= q.axis < len(t.shape) and len(q.scale) == len(q.zero_point) == t.shape[q.axis]
        ):
            v.append(f"tensor {tid}: {len(q.scale)} scales and {len(q.zero_point)} zero points "
                     f"along axis {q.axis} of shape {list(t.shape)}")
        if t.is_constant:
            if t.data is None:
                v.append(f"tensor {tid}: {t.kind.value} without constant data")
            elif t.data.size != t.num_elements:
                v.append(
                    f"tensor {tid}: data has {t.data.size} elements, shape implies {t.num_elements}"
                )
        elif t.data is not None:
            v.append(f"tensor {tid}: non-constant tensor carries data")

    seen_nodes: set[str] = set()
    for n in graph.nodes:
        if n.id in seen_nodes:
            v.append(f"duplicate node id {n.id}")
        seen_nodes.add(n.id)

        lo, hi, n_out = _ARITY[n.kind]
        if len(n.inputs) < lo or (hi is not None and len(n.inputs) > hi):
            v.append(f"node {n.id}: {n.kind.value} has {len(n.inputs)} inputs")
        if len(n.outputs) != n_out:
            v.append(f"node {n.id}: {n.kind.value} has {len(n.outputs)} outputs")

        for t in list(n.inputs) + list(n.outputs):
            if t not in graph.tensors:
                v.append(f"node {n.id}: unknown tensor {t}")

        for t in n.inputs:
            if t not in graph.tensors:
                continue
            spec = graph.tensors[t]
            if not spec.is_constant and t not in graph.graph_inputs and t not in producers:
                v.append(f"node {n.id}: dangling input {t}")

        if n.kind in _WINDOW_OPS:
            for key in ("kernel_h", "kernel_w", "stride_h", "stride_w"):
                val = n.attrs.get(key)
                if not _is_int(val) or val < 1:
                    v.append(f"node {n.id}: attr {key}={val!r} must be an integer >= 1")
            if n.attrs.get("padding") not in VALID_PADDINGS:
                v.append(f"node {n.id}: padding {n.attrs.get('padding')!r} not in {VALID_PADDINGS}")
        if n.kind == OpKind.CONCAT:
            axis = n.attrs.get("axis")
            if not _is_int(axis):
                v.append(f"node {n.id}: Concat requires integer axis attr")

    # Cycle check: Kahn's algorithm over the node dependency relation.
    if v:
        return v, None
    try:
        return v, topological_order(graph)
    except ValueError as exc:
        return [str(exc)], None


def checked_order(graph: GraphIR) -> list[str]:
    """Topological order of a valid graph; raises ShapeError naming its violations."""
    violations, order = _checked_order(graph)
    if violations:
        raise ShapeError("cannot infer shapes on invalid graph: " + "; ".join(violations))
    return order


def topological_order(graph: GraphIR) -> list[str]:
    """Node ids ordered so every node appears after all its producers.

    Deterministic: among ready nodes, original node order breaks ties.
    Raises ValueError when the graph has a cycle.
    """
    producer = {t: i for i, n in enumerate(graph.nodes) for t in n.outputs}
    deps = [{producer[t] for t in n.inputs if t in producer} for n in graph.nodes]
    order = priority_order(range(len(deps)), deps, lambda i: i)
    if order is None:
        raise ValueError("dependency cycle among nodes")
    return [graph.nodes[i].id for i in order]


def priority_order(items, dependencies, key) -> list | None:
    """Kahn's order of `items`, taking the ready item with the smallest
    `key` first; None when the items have a dependency cycle.

    `items` is a sequence of distinct items, `dependencies[item]` the
    set of items it waits for, and `key(item)` a sort key that no two
    items share. A heap of (key, position) pairs pops the smallest ready
    key without re-sorting the ready list at every step.
    """
    position = {item: i for i, item in enumerate(items)}
    keys = list(map(key, items))
    indeg = []
    dependents: list[list[int]] = [[] for _ in keys]
    for i, item in enumerate(items):
        deps = dependencies[item]
        indeg.append(len(deps))
        for dep in deps:
            dependents[position[dep]].append(i)
    ready = [(keys[i], i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(items[i])
        for dep in dependents[i]:
            indeg[dep] -= 1
            if indeg[dep] == 0:
                heapq.heappush(ready, (keys[dep], dep))
    return order if len(order) == len(keys) else None


def conv_output_hw(in_hw: tuple[int, int], kernel: tuple[int, int],
                   stride: tuple[int, int], padding: str) -> tuple[int, int]:
    """Spatial output size: VALID -> floor((in-k)/s)+1, SAME -> ceil(in/s)."""
    out = []
    for i, k, s in zip(in_hw, kernel, stride):
        if padding == "VALID":
            if k > i:
                raise ShapeError(f"kernel {k} larger than input {i} under VALID padding")
            out.append((i - k) // s + 1)
        else:
            out.append(-(-i // s))
    return out[0], out[1]


def same_padding_amounts(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """Zero padding split floor-left/ceil-right for SAME windows."""
    out = -(-in_size // stride)
    total = max((out - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def _window_output_hw(node: OpNode, data: tuple, weight: tuple | None = None) -> tuple[int, int]:
    """(Ho, Wo) of a windowed node over NHWC `data`, checking a convolution's `weight`."""
    if len(data) != 4:
        raise ShapeError(f"node {node.id}: expected NHWC input, got {data}")
    if weight is not None and len(weight) != 4:
        raise ShapeError(f"node {node.id}: expected 4-D weight, got {weight}")
    kernel = (node.attrs["kernel_h"], node.attrs["kernel_w"])
    stride = (node.attrs["stride_h"], node.attrs["stride_w"])
    if weight is not None and (weight[1], weight[2]) != kernel:
        raise ShapeError(
            f"node {node.id}: weight spatial dims {weight[1:3]} != kernel attrs {kernel}"
        )
    try:
        return conv_output_hw(data[1:3], kernel, stride, node.attrs["padding"])
    except ShapeError as exc:
        raise ShapeError(f"node {node.id}: {exc}") from None


def _node_output_shape(graph: GraphIR, node: OpNode) -> tuple[int, ...]:
    def ishape(i: int) -> tuple[int, ...]:
        return graph.tensors[node.inputs[i]].shape

    kind = node.kind
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D):
        data, weight = ishape(0), ishape(1)
        oh, ow = _window_output_hw(node, data, weight)
        if kind == OpKind.CONV2D:
            if weight[3] != data[3]:
                raise ShapeError(
                    f"node {node.id}: weight in-channels {weight[3]} != input channels {data[3]}"
                )
            out_c = weight[0]
        else:
            if weight[0] != 1 or weight[3] != data[3]:
                raise ShapeError(
                    f"node {node.id}: depthwise weight {weight} incompatible with input {data}"
                )
            out_c = data[3]
        if len(node.inputs) == 3 and ishape(2) != (out_c,):
            raise ShapeError(f"node {node.id}: bias shape {ishape(2)} != ({out_c},)")
        return (data[0], oh, ow, out_c)

    if kind == OpKind.FULLY_CONNECTED:
        data, weight = ishape(0), ishape(1)
        if len(data) != 2 or len(weight) != 2:
            raise ShapeError(f"node {node.id}: FullyConnected expects 2-D data/weight")
        if weight[1] != data[1]:
            raise ShapeError(
                f"node {node.id}: weight in-features {weight[1]} != input features {data[1]}"
            )
        if len(node.inputs) == 3 and ishape(2) != (weight[0],):
            raise ShapeError(f"node {node.id}: bias shape {ishape(2)} != ({weight[0]},)")
        return (data[0], weight[0])

    if kind in (OpKind.RELU, OpKind.SOFTMAX):
        return ishape(0)

    if kind in (OpKind.MAX_POOL2D, OpKind.AVG_POOL2D):
        data = ishape(0)
        return (data[0], *_window_output_hw(node, data), data[3])

    if kind == OpKind.ADD:
        a, b = ishape(0), ishape(1)
        if a != b:
            raise ShapeError(f"node {node.id}: Add operand shapes {a} != {b}")
        return a

    if kind == OpKind.CONCAT:
        shapes = [ishape(i) for i in range(len(node.inputs))]
        axis = node.attrs["axis"]
        rank = len(shapes[0])
        if not -rank <= axis < rank:
            raise ShapeError(f"node {node.id}: Concat axis {axis} out of range for rank {rank}")
        axis %= rank
        for s in shapes[1:]:
            if len(s) != rank or any(s[d] != shapes[0][d] for d in range(rank) if d != axis):
                raise ShapeError(f"node {node.id}: Concat shapes {shapes} differ off-axis")
        out = list(shapes[0])
        out[axis] = sum(s[axis] for s in shapes)
        return tuple(out)

    if kind == OpKind.FLATTEN:
        data = ishape(0)
        return (data[0], math.prod(data[1:]))

    raise ShapeError(f"node {node.id}: unsupported kind {kind}")


def infer_shapes(graph: GraphIR) -> tuple[GraphIR, list[str]]:
    """Fill every activation shape; returns (new graph, topological order).

    Requires validate(graph).ok and known graph input shapes. Idempotent.
    The new graph is a `GraphIR.copy()`: it shares the input's constant
    `data` arrays and `QuantParams` objects (see module docstring).
    """
    order = checked_order(graph)
    g = graph.copy()
    nodes = {n.id: n for n in g.nodes}
    for nid in order:
        node = nodes[nid]
        shape = _node_output_shape(g, node)
        out = g.tensors[node.outputs[0]]
        out.shape = tuple(shape)
    return g, order


def parameter_count(graph: GraphIR) -> int:
    return sum(t.num_elements for t in graph.tensors.values() if t.is_constant)
