"""Graph IR for small feed-forward ConvNets.

Activations are NHWC; graph shapes declare batch N=1, and a prepared
`executor.Program` runs any leading batch size. Conv2D weights are
(out, kh, kw, in), DepthwiseConv2D weights are (1, kh, kw, channels) and
FullyConnected weights are (out, in). Graphs are treated as immutable:
every transformation returns a new graph.
"""
from __future__ import annotations

import copy
import enum
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


# Ops that carry constant weights and define output structures (filters/neurons).
WEIGHTED_OPS = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED)

# Ops whose output preserves per-channel identity of their input (used by
# pruning propagation and quantization-parameter inheritance).
CHANNEL_PRESERVING_OPS = (OpKind.RELU, OpKind.MAX_POOL2D, OpKind.AVG_POOL2D)

VALID_PADDINGS = ("VALID", "SAME")


class ShapeError(ValueError):
    """Shape inference failed; message names the offending node."""


@dataclass
class QuantParams:
    """Affine quantization parameters: real = scale * (q - zero_point).

    Per-tensor params hold scalar scale/zero_point; per-channel params hold
    1-D arrays along `axis` of the tensor.
    """

    scale: float | np.ndarray
    zero_point: int | np.ndarray
    granularity: str = "per_tensor"  # "per_tensor" | "per_channel"
    axis: int | None = None
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.granularity not in ("per_tensor", "per_channel"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == "per_channel":
            self.scale = np.asarray(self.scale, dtype=np.float64)
            self.zero_point = np.asarray(self.zero_point, dtype=np.int64)
            if self.axis is None:
                raise ValueError("per_channel quantization requires an axis")
            if np.any(self.scale <= 0):
                raise ValueError("scale must be positive")
            if self.symmetric and np.any(self.zero_point != 0):
                raise ValueError("symmetric quantization requires zero_point 0")
        else:
            self.scale = float(self.scale)
            self.zero_point = int(self.zero_point)
            if self.scale <= 0:
                raise ValueError("scale must be positive")
            if self.symmetric and self.zero_point != 0:
                raise ValueError("symmetric quantization requires zero_point 0")

    def equals(self, other: "QuantParams") -> bool:
        if self.granularity != other.granularity:
            return False
        if self.granularity == "per_tensor":
            return self.scale == other.scale and self.zero_point == other.zero_point
        return (
            self.axis == other.axis
            and np.array_equal(self.scale, other.scale)
            and np.array_equal(self.zero_point, other.zero_point)
        )


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
        return int(np.prod(self.shape)) if self.shape else 1

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
        return copy.deepcopy(self)

    def node(self, nid: str) -> OpNode:
        for n in self.nodes:
            if n.id == nid:
                return n
        raise KeyError(nid)

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
        producers = self.producer_map()
        saw_int8 = False
        for t in self.tensors.values():
            if t.kind in (TensorKind.WEIGHT, TensorKind.BIAS):
                continue
            prod = producers.get(t.id)
            if prod is not None and prod.kind == OpKind.SOFTMAX:
                continue
            if t.dtype != DType.INT8 or t.quant is None:
                return False
            saw_int8 = True
        return saw_int8


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


def validate(graph: GraphIR) -> ValidationReport:
    """Check structural invariants; violations are data, not exceptions."""
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
                if not isinstance(val, int) or val < 1:
                    v.append(f"node {n.id}: attr {key}={val!r} must be an integer >= 1")
            if n.attrs.get("padding") not in VALID_PADDINGS:
                v.append(f"node {n.id}: padding {n.attrs.get('padding')!r} not in {VALID_PADDINGS}")
        if n.kind == OpKind.CONCAT:
            axis = n.attrs.get("axis")
            if not isinstance(axis, int):
                v.append(f"node {n.id}: Concat requires integer axis attr")

    # Cycle check: Kahn's algorithm over the node dependency relation.
    if not v:
        try:
            topological_order(graph)
        except ValueError as exc:
            v.append(str(exc))

    return ValidationReport(v)


def topological_order(graph: GraphIR) -> list[str]:
    """Node ids ordered so every node appears after all its producers.

    Deterministic: among ready nodes, original node order breaks ties.
    Raises ValueError when the graph has a cycle.
    """
    producers = graph.producer_map()
    indeg: dict[str, int] = {}
    dependents: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        deps = {producers[t].id for t in n.inputs if t in producers}
        indeg[n.id] = len(deps)
        for d in deps:
            dependents[d].append(n.id)

    order: list[str] = []
    ready = [n.id for n in graph.nodes if indeg[n.id] == 0]
    position = {n.id: i for i, n in enumerate(graph.nodes)}
    while ready:
        ready.sort(key=lambda nid: position[nid])
        nid = ready.pop(0)
        order.append(nid)
        for dep in dependents[nid]:
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
    if len(order) != len(graph.nodes):
        raise ValueError("dependency cycle among nodes")
    return order


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


def _node_output_shape(graph: GraphIR, node: OpNode) -> tuple[int, ...]:
    def ishape(i: int) -> tuple[int, ...]:
        return graph.tensors[node.inputs[i]].shape

    kind = node.kind
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D):
        data, weight = ishape(0), ishape(1)
        if len(data) != 4:
            raise ShapeError(f"node {node.id}: expected NHWC input, got {data}")
        if len(weight) != 4:
            raise ShapeError(f"node {node.id}: expected 4-D weight, got {weight}")
        kernel = (node.attrs["kernel_h"], node.attrs["kernel_w"])
        stride = (node.attrs["stride_h"], node.attrs["stride_w"])
        if (weight[1], weight[2]) != kernel:
            raise ShapeError(
                f"node {node.id}: weight spatial dims {weight[1:3]} != kernel attrs {kernel}"
            )
        try:
            oh, ow = conv_output_hw(data[1:3], kernel, stride, node.attrs["padding"])
        except ShapeError as exc:
            raise ShapeError(f"node {node.id}: {exc}") from None
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
        if len(data) != 4:
            raise ShapeError(f"node {node.id}: expected NHWC input, got {data}")
        kernel = (node.attrs["kernel_h"], node.attrs["kernel_w"])
        stride = (node.attrs["stride_h"], node.attrs["stride_w"])
        try:
            oh, ow = conv_output_hw(data[1:3], kernel, stride, node.attrs["padding"])
        except ShapeError as exc:
            raise ShapeError(f"node {node.id}: {exc}") from None
        return (data[0], oh, ow, data[3])

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
        return (data[0], int(np.prod(data[1:])))

    raise ShapeError(f"node {node.id}: unsupported kind {kind}")


def infer_shapes(graph: GraphIR) -> tuple[GraphIR, list[str]]:
    """Fill every activation shape; returns (new graph, topological order).

    Requires validate(graph).ok and known graph input shapes. Idempotent.
    """
    report = validate(graph)
    if not report.ok:
        raise ShapeError("cannot infer shapes on invalid graph: " + "; ".join(report.violations))

    g = graph.copy()
    order = topological_order(g)
    nodes = {n.id: n for n in g.nodes}
    for nid in order:
        node = nodes[nid]
        shape = _node_output_shape(g, node)
        out = g.tensors[node.outputs[0]]
        out.shape = tuple(shape)
    return g, order


def parameter_count(graph: GraphIR) -> int:
    return sum(t.num_elements for t in graph.tensors.values() if t.is_constant)
