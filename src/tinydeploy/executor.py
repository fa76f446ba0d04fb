"""Reference interpreters for the graph IR.

`prepare(graph)` validates a graph, infers its shapes and binds every
kernel to its constants once, giving a `Program` that runs batches of
any leading size. Float32 graphs run in Float32. Quantized graphs run
with integer-only arithmetic between the quantize/dequantize boundaries:
convolutions and matmuls accumulate in 32-bit (checked, not wrapped),
outputs are requantized with fixed-point multipliers and saturated to
[-128, 127]. Softmax always runs in Float32 on dequantized logits.
`run_f32` and `run_int8` prepare and run in one call.

Both interpreters are pure functions of (graph, input), bit-reproducible
run to run, and give each sample the same result whatever batch it runs in.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    TensorSpec,
    conv_output_hw,
    infer_shapes,
    same_padding_amounts,
)
from .quantization import (
    QMAX,
    QMIN,
    dequantize_tensor,
    fixed_point_multiplier,
    quantize_tensor,
    requantize_fixed_point,
)

_INT32_MAX = 2**31 - 1


class ExecutionError(ValueError):
    pass


class AccumulatorOverflowError(ExecutionError):
    """32-bit accumulator range exceeded; reported instead of wrapping."""


@dataclass
class TensorRange:
    """Observed value range of one tensor over a calibration run."""

    tensor_id: str
    min_r: float
    max_r: float

    def __post_init__(self) -> None:
        self.min_r = float(self.min_r)
        self.max_r = float(self.max_r)
        if not (math.isfinite(self.min_r) and math.isfinite(self.max_r)):
            raise ValueError(f"{self.tensor_id}: non-finite range")
        if self.min_r > self.max_r:
            raise ValueError(f"{self.tensor_id}: min {self.min_r} > max {self.max_r}")

    @property
    def degenerate(self) -> bool:
        return self.min_r == self.max_r

    def merged(self, other: "TensorRange") -> "TensorRange":
        return TensorRange(
            self.tensor_id, min(self.min_r, other.min_r), max(self.max_r, other.max_r)
        )


@dataclass
class InferenceRecord:
    sample_id: str
    predicted_class: int
    confidence: float
    true_label: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"{self.sample_id}: confidence {self.confidence} outside [0, 1]")

    @property
    def correct(self) -> bool:
        return self.predicted_class == self.true_label


# ---------------------------------------------------------------------------
# shared window machinery


class _Window:
    """The padding and gather indices of one windowed node, computed once."""

    def __init__(self, node: OpNode, in_shape: tuple[int, ...]):
        kernel = (node.attrs["kernel_h"], node.attrs["kernel_w"])
        stride = (node.attrs["stride_h"], node.attrs["stride_w"])
        padding = node.attrs["padding"]
        h, w = in_shape[1:3]
        if padding == "SAME":
            ph = same_padding_amounts(h, kernel[0], stride[0])
            pw = same_padding_amounts(w, kernel[1], stride[1])
        else:
            ph = pw = (0, 0)
        self.pad = ((0, 0), ph, pw, (0, 0)) if any(ph + pw) else None
        oh, ow = conv_output_hw((h, w), kernel, stride, padding)
        rows = np.arange(oh)[:, None] * stride[0] + np.arange(kernel[0])[None, :]
        cols = np.arange(ow)[:, None] * stride[1] + np.arange(kernel[1])[None, :]
        self.rows = rows[:, None, :, None]
        self.cols = cols[None, :, None, :]
        self.hw = (h, w)

    def patches(self, x: np.ndarray, pad_value) -> np.ndarray:
        """(B,H,W,C) -> (B,Ho,Wo,kh,kw,C) windows with constant padding."""
        if self.pad is not None:
            x = np.pad(x, self.pad, mode="constant", constant_values=pad_value)
        return x[:, self.rows, self.cols, :]

    def valid_counts(self) -> np.ndarray:
        """Number of in-bounds cells per window, shape (Ho, Wo)."""
        ones = np.ones((1, *self.hw, 1), dtype=np.int64)
        return self.patches(ones, 0).sum(axis=(3, 4))[0, :, :, 0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def _bias(graph: GraphIR, node: OpNode, dtype) -> np.ndarray | None:
    return graph.tensors[node.inputs[2]].data.astype(dtype) if len(node.inputs) == 3 else None


# ---------------------------------------------------------------------------
# Float32 kernels

Env = dict[str, np.ndarray]
Kernel = Callable[[Env], np.ndarray]


def _f32_kernel(graph: GraphIR, node: OpNode) -> Kernel:
    kind = node.kind
    src = node.inputs[0]
    # Reductions go through einsum(optimize=False): numpy's own fixed-order
    # loops, so results cannot vary with BLAS backend, thread count or the
    # batch a sample runs in.
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED):
        w = graph.tensors[node.inputs[1]].data
        bias = _bias(graph, node, np.float32)

        if kind == OpKind.FULLY_CONNECTED:
            def product(x: np.ndarray) -> np.ndarray:
                return np.einsum("nf,of->no", x, w, optimize=False)
        elif kind == OpKind.CONV2D:
            window = _Window(node, graph.tensors[src].shape)
            w_mat = w.reshape(w.shape[0], -1)

            def product(x: np.ndarray) -> np.ndarray:
                patches = window.patches(x, 0.0)
                cols = patches.reshape(-1, w_mat.shape[1])
                out = np.einsum("xk,ok->xo", cols, w_mat, optimize=False)
                return out.reshape(patches.shape[:3] + (w_mat.shape[0],))
        else:
            window = _Window(node, graph.tensors[src].shape)

            def product(x: np.ndarray) -> np.ndarray:
                patches = window.patches(x, 0.0)
                return np.einsum("nhwijc,ijc->nhwc", patches, w[0], optimize=False)

        def weighted(env: Env) -> np.ndarray:
            out = product(env[src])
            if bias is not None:
                out = out + bias
            return out.astype(np.float32)
        return weighted

    if kind == OpKind.RELU:
        return lambda env: np.maximum(env[src], np.float32(0.0))

    if kind == OpKind.MAX_POOL2D:
        window = _Window(node, graph.tensors[src].shape)
        return lambda env: window.patches(env[src], -np.inf).max(axis=(3, 4)).astype(np.float32)

    if kind == OpKind.AVG_POOL2D:
        window = _Window(node, graph.tensors[src].shape)
        counts = window.valid_counts()[None, :, :, None]

        def avg_pool(env: Env) -> np.ndarray:
            total = window.patches(env[src], 0.0).astype(np.float64).sum(axis=(3, 4))
            return (total / counts).astype(np.float32)
        return avg_pool

    if kind == OpKind.ADD:
        other = node.inputs[1]
        return lambda env: env[src] + env[other]

    if kind == OpKind.CONCAT:
        return lambda env: np.concatenate([env[t] for t in node.inputs], axis=node.attrs["axis"])

    if kind == OpKind.FLATTEN:
        return lambda env: env[src].reshape(env[src].shape[0], -1)

    if kind == OpKind.SOFTMAX:
        return lambda env: _softmax(env[src])

    raise ExecutionError(f"node {node.id}: unsupported kind {kind}")


# ---------------------------------------------------------------------------
# INT8 kernels


def _check_acc32(acc: np.ndarray, node_id: str) -> None:
    if acc.size and np.abs(acc).max() > _INT32_MAX:
        raise AccumulatorOverflowError(f"node {node_id}: 32-bit accumulator overflow")


def _requant_table(node: OpNode, key: str) -> tuple[np.ndarray, np.ndarray]:
    """A node's `significand`/`shift` attr as int64 arrays, range-checked."""
    if key not in node.attrs:
        raise ExecutionError(f"node {node.id}: missing precomputed requant multipliers")
    sig = np.asarray(node.attrs[key]["significand"], dtype=np.int64)
    shift = np.asarray(node.attrs[key]["shift"], dtype=np.int64)
    # Bounds under which requantize_fixed_point's int64 arithmetic cannot
    # overflow for any int32 accumulator.
    if np.any((sig < 0) | (sig >= 2**31)) or np.any((shift < 1) | (shift > 62)):
        raise ExecutionError(f"node {node.id}: {key} outside significand [0, 2^31), shift [1, 62]")
    return sig, shift


def _require_quant(graph: GraphIR, tid: str):
    qp = graph.tensors[tid].quant
    if qp is None:
        raise ExecutionError(f"tensor {tid}: missing quantization parameters")
    return qp


def _assert_inherited(graph: GraphIR, node: OpNode) -> None:
    qin = _require_quant(graph, node.inputs[0])
    qout = _require_quant(graph, node.outputs[0])
    if not qin.equals(qout):
        raise ExecutionError(
            f"node {node.id}: {node.kind.value} requires matching input/output quant params"
        )


def _int8_gemm(centered: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """centered @ w_t as exact int64, multiplied in float64 through BLAS.

    Operands hold integers: centered codes |x - zp| <= 255 and Int8
    weights |w| <= 128, so every product is below 2**15 and every partial
    sum, for any K below 2**38, below 2**53. Float64 represents all of
    them exactly, so the result is the integer product whatever order
    BLAS sums in.
    """
    return (centered @ w_t).astype(np.int64)


def _int8_weighted_kernel(graph: GraphIR, node: OpNode, fused_relu: bool) -> Kernel:
    """Conv2D / DepthwiseConv2D / FullyConnected, optionally with fused ReLU."""
    src = node.inputs[0]
    zp_in = _require_quant(graph, src).zero_point
    if not QMIN <= zp_in <= QMAX:
        raise ExecutionError(f"node {node.id}: input zero point {zp_in} outside Int8 range")
    weights = graph.tensors[node.inputs[1]]
    if weights.dtype != DType.INT8:
        raise ExecutionError(f"node {node.id}: weights are not Int8")
    bias = _bias(graph, node, np.int64)
    sig, shift = _requant_table(node, "requant")
    zp_out = _require_quant(graph, node.outputs[0]).zero_point
    w = weights.data

    if node.kind == OpKind.FULLY_CONNECTED:
        w_t = w.astype(np.float64).T

        def product(x: np.ndarray) -> np.ndarray:
            return _int8_gemm(x.astype(np.float64) - zp_in, w_t)
    elif node.kind == OpKind.CONV2D:
        window = _Window(node, graph.tensors[src].shape)
        w_t = w.reshape(w.shape[0], -1).astype(np.float64).T

        def product(x: np.ndarray) -> np.ndarray:
            patches = window.patches(x.astype(np.float64) - zp_in, 0.0)
            acc = _int8_gemm(patches.reshape(-1, w_t.shape[0]), w_t)
            return acc.reshape(patches.shape[:3] + (w_t.shape[1],))
    else:
        window = _Window(node, graph.tensors[src].shape)
        w_dw = w[0].astype(np.int64)

        def product(x: np.ndarray) -> np.ndarray:
            patches = window.patches(x.astype(np.int64) - zp_in, 0)
            return np.einsum("nhwijc,ijc->nhwc", patches, w_dw, optimize=False)

    def weighted(env: Env) -> np.ndarray:
        acc = product(env[src])
        if bias is not None:
            acc = acc + bias
        _check_acc32(acc, node.id)
        q = requantize_fixed_point(acc, sig, shift) + zp_out
        if fused_relu:
            q = np.maximum(q, zp_out)
        return np.clip(q, QMIN, QMAX).astype(np.int8)
    return weighted


def _int8_kernel(graph: GraphIR, node: OpNode) -> Kernel:
    kind = node.kind
    src = node.inputs[0]
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED):
        return _int8_weighted_kernel(graph, node, fused_relu=False)

    if kind == OpKind.RELU:
        _assert_inherited(graph, node)
        zp = np.int8(_require_quant(graph, src).zero_point)
        return lambda env: np.maximum(env[src], zp)

    if kind == OpKind.MAX_POOL2D:
        # max is order-preserving under affine maps with S > 0; QMIN padding
        # can never beat a real cell.
        _assert_inherited(graph, node)
        window = _Window(node, graph.tensors[src].shape)
        return lambda env: window.patches(env[src], QMIN).max(axis=(3, 4))

    if kind == OpKind.AVG_POOL2D:
        qx = _require_quant(graph, src)
        qout = _require_quant(graph, node.outputs[0])
        window = _Window(node, graph.tensors[src].shape)
        # One multiplier per window, by its count of in-bounds cells.
        counts = window.valid_counts()[:, :, None]
        sig = np.empty(counts.shape, dtype=np.int64)
        shift = np.empty(counts.shape, dtype=np.int64)
        for count in np.unique(counts):
            cells = counts == count
            sig[cells], shift[cells] = fixed_point_multiplier(
                qx.scale / (float(count) * qout.scale)
            )

        def avg_pool(env: Env) -> np.ndarray:
            centered = env[src].astype(np.int64) - qx.zero_point
            total = window.patches(centered, 0).sum(axis=(3, 4))
            _check_acc32(total, node.id)
            q = requantize_fixed_point(total, sig, shift) + qout.zero_point
            return np.clip(q, QMIN, QMAX).astype(np.int8)
        return avg_pool

    if kind == OpKind.ADD:
        other = node.inputs[1]
        zp_a = _require_quant(graph, src).zero_point
        zp_b = _require_quant(graph, other).zero_point
        zp_out = _require_quant(graph, node.outputs[0]).zero_point
        requant_a = _requant_table(node, "requant_a")
        requant_b = _requant_table(node, "requant_b")

        def add(env: Env) -> np.ndarray:
            # Both operands requantize to the output scale before adding.
            ta = requantize_fixed_point(env[src].astype(np.int64) - zp_a, *requant_a)
            tb = requantize_fixed_point(env[other].astype(np.int64) - zp_b, *requant_b)
            return np.clip(ta + tb + zp_out, QMIN, QMAX).astype(np.int8)
        return add

    if kind == OpKind.CONCAT:
        qout = _require_quant(graph, node.outputs[0])
        parts = []
        for tid in node.inputs:
            qi = _require_quant(graph, tid)
            parts.append((tid, qi.zero_point, fixed_point_multiplier(qi.scale / qout.scale)))

        def concat(env: Env) -> np.ndarray:
            return np.concatenate([
                np.clip(
                    requantize_fixed_point(env[tid].astype(np.int64) - zp, *requant)
                    + qout.zero_point,
                    QMIN, QMAX,
                ).astype(np.int8)
                for tid, zp, requant in parts
            ], axis=node.attrs["axis"])
        return concat

    if kind == OpKind.FLATTEN:
        _assert_inherited(graph, node)
        return lambda env: env[src].reshape(env[src].shape[0], -1)

    if kind == OpKind.SOFTMAX:
        if graph.tensors[src].dtype != DType.INT8:
            return lambda env: _softmax(env[src])
        qx = _require_quant(graph, src)
        return lambda env: _softmax(dequantize_tensor(env[src], qx))

    raise ExecutionError(f"node {node.id}: unsupported kind {kind}")


# ---------------------------------------------------------------------------
# prepared programs


class Step(NamedTuple):
    """One kernel of a Program: computes tensor `output` from the env."""

    output: str
    run: Kernel


class Program:
    """A graph validated, shape-inferred and bound to its kernels once.

    `graph` is the shape-inferred copy; `steps` run in order over an env
    of tensor id -> array. Graph shapes declare batch N=1, but every step
    works on any leading batch size B, and a sample's result does not
    depend on the batch it runs in.
    """

    def __init__(self, graph: GraphIR, steps: list[Step], quantized: bool):
        self.graph = graph
        self.steps = steps
        self.quantized = quantized

    @property
    def input(self) -> TensorSpec:
        """The graph's one input; raises for a graph with any other count."""
        inputs = self.graph.graph_inputs
        if len(inputs) != 1:
            raise ExecutionError("a Program runs graphs with exactly one graph input")
        return self.graph.tensors[inputs[0]]

    def run(
        self, x: np.ndarray, trace: dict[str, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Execute on a (B, *input_shape[1:]) batch; returns {output_id: array}.

        Outputs are Float32 (INT8 outputs are dequantized). Pass a dict as
        `trace` to also capture every intermediate activation.
        """
        spec = self.input
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != len(spec.shape) or x.shape[1:] != spec.shape[1:]:
            raise ExecutionError(f"input shape {x.shape} != graph input shape {spec.shape}")
        env = {spec.id: quantize_tensor(x, spec.quant) if self.quantized else x}
        for step in self.steps:
            env[step.output] = step.run(env)
        if trace is not None:
            trace.update(env)

        outputs: dict[str, np.ndarray] = {}
        for tid in self.graph.graph_outputs:
            t = self.graph.tensors[tid]
            value = env[tid]
            if self.quantized and t.dtype == DType.INT8:
                value = dequantize_tensor(value, t.quant).astype(np.float32)
            outputs[tid] = value
        return outputs


_FUSIBLE_PRODUCERS = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED)


def prepare(graph: GraphIR, fused_groups: Sequence[Sequence[str]] | None = None) -> Program:
    """Validate, infer shapes, check dtypes and bind every kernel once.

    A fully quantized graph (`GraphIR.is_quantized`) gets the INT8
    kernels, any other graph the Float32 ones. `fused_groups` (node-id
    sequences from a deployment plan, quantized graphs only) executes
    producer+ReLU pairs as single kernels without materializing the
    intermediate tensor; the math is unchanged.
    """
    quantized = graph.is_quantized()
    g, order = infer_shapes(graph)
    nodes = {n.id: n for n in g.nodes}

    if not quantized:
        if fused_groups is not None:
            raise ExecutionError("fused groups apply only to quantized graphs")
        for tid in g.graph_inputs:
            if g.tensors[tid].dtype != DType.FLOAT32:
                raise ExecutionError(
                    f"graph input {tid} is {g.tensors[tid].dtype.value}, expected float32"
                )
        for t in g.tensors.values():
            if t.is_constant and t.dtype != DType.FLOAT32:
                raise ExecutionError(
                    f"tensor {t.id}: Float32 graph carries {t.dtype.value} constants"
                )
        steps = [Step(nodes[nid].outputs[0], _f32_kernel(g, nodes[nid])) for nid in order]
        return Program(g, steps, quantized=False)

    if fused_groups is None:
        groups = [[nid] for nid in order]
    else:
        groups = [list(grp) for grp in fused_groups]
        seen = [nid for grp in groups for nid in grp]
        if sorted(seen) != sorted(order):
            raise ExecutionError("fused groups must cover every node exactly once")
        pos = {nid: i for i, nid in enumerate(order)}
        groups.sort(key=lambda grp: pos[grp[0]])

    steps = []
    for grp in groups:
        if (
            len(grp) == 2
            and nodes[grp[0]].kind in _FUSIBLE_PRODUCERS
            and nodes[grp[1]].kind == OpKind.RELU
        ):
            producer, relu = nodes[grp[0]], nodes[grp[1]]
            _assert_inherited(g, relu)
            steps.append(Step(relu.outputs[0], _int8_weighted_kernel(g, producer, fused_relu=True)))
        else:
            steps.extend(Step(nodes[nid].outputs[0], _int8_kernel(g, nodes[nid])) for nid in grp)
    return Program(g, steps, quantized=True)


def run_f32(
    graph: GraphIR,
    x: np.ndarray,
    trace: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Prepare and run a Float32 graph; see `Program.run`."""
    return _prepare_f32(graph).run(x, trace=trace)


def run_int8(
    graph: GraphIR,
    x: np.ndarray,
    fused_groups: Sequence[Sequence[str]] | None = None,
    trace: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Prepare and run a quantized graph; see `prepare` and `Program.run`.

    The input is quantized, the graph runs on integers and INT8 outputs
    are dequantized to Float32.
    """
    if not graph.is_quantized():
        raise ExecutionError("run_int8 requires a fully quantized graph")
    return prepare(graph, fused_groups).run(x, trace=trace)


def _prepare_f32(graph: GraphIR) -> Program:
    if graph.is_quantized():
        raise ExecutionError(f"graph {graph.name} is quantized, expected float32")
    return prepare(graph)


# ---------------------------------------------------------------------------
# calibration


def calibrate(
    graph: GraphIR, calibration_set: Sequence[np.ndarray]
) -> dict[str, TensorRange]:
    """Observed min/max per tensor over the calibration runs.

    Activation ranges come from executing the Float32 graph on every
    sample; constant tensors get ranges from their data. Adding samples
    can only widen ranges. Samples run one at a time, so only one
    sample's activations are held at once.
    """
    if len(calibration_set) == 0:
        raise ExecutionError("empty calibration set")
    program = _prepare_f32(graph)
    ranges: dict[str, TensorRange] = {}
    for sample in calibration_set:
        trace: dict[str, np.ndarray] = {}
        program.run(sample, trace=trace)
        for tid, values in trace.items():
            r = TensorRange(tid, float(values.min()), float(values.max()))
            ranges[tid] = ranges[tid].merged(r) if tid in ranges else r
    for tid, t in graph.tensors.items():
        if t.is_constant:
            ranges[tid] = TensorRange(tid, float(t.data.min()), float(t.data.max()))
    return ranges


def ranges_to_json(ranges: dict[str, TensorRange]) -> dict:
    return {tid: {"min": r.min_r, "max": r.max_r} for tid, r in sorted(ranges.items())}


def ranges_from_json(obj: dict) -> dict[str, TensorRange]:
    return {tid: TensorRange(tid, e["min"], e["max"]) for tid, e in obj.items()}


# ---------------------------------------------------------------------------
# dataset evaluation

# Samples per Program.run in evaluate: large enough to amortize the
# per-call overhead and feed BLAS, small enough to keep activations small.
EVAL_CHUNK = 16


def evaluate(
    graph: GraphIR,
    dataset: Iterable[tuple],
) -> tuple[list[InferenceRecord], float]:
    """Per-sample records plus top-1 accuracy.

    Dataset items are (input, label) or (sample_id, input, label); the
    graph must end in Softmax over class logits. Every label and input
    shape is checked before any sample runs; samples then run in chunks
    of EVAL_CHUNK.
    """
    program = prepare(graph)
    g = program.graph
    out_id = g.graph_outputs[0]
    last = g.producer_map().get(out_id)
    if last is None or last.kind != OpKind.SOFTMAX:
        raise ExecutionError("evaluate requires a graph ending in Softmax")
    num_classes = g.tensors[out_id].shape[-1]
    in_shape = program.input.shape

    ids: list[str] = []
    inputs: list[np.ndarray] = []
    labels: list[int] = []
    for i, item in enumerate(dataset):
        if len(item) == 3:
            sample_id, x, label = item
        else:
            x, label = item
            sample_id = f"s{i:05d}"
        label = int(label)
        if not 0 <= label < num_classes:
            raise ExecutionError(f"sample {sample_id}: label {label} outside [0, {num_classes})")
        x = np.asarray(x, dtype=np.float32)
        if x.shape != in_shape:
            raise ExecutionError(
                f"sample {sample_id}: input shape {x.shape} != graph input shape {in_shape}"
            )
        ids.append(str(sample_id))
        inputs.append(x)
        labels.append(label)

    records: list[InferenceRecord] = []
    for start in range(0, len(inputs), EVAL_CHUNK):
        batch = np.concatenate(inputs[start:start + EVAL_CHUNK])
        probs = program.run(batch)[out_id].reshape(len(batch), -1)
        for row, sample_id, label in zip(probs, ids[start:], labels[start:]):
            predicted = int(np.argmax(row))
            records.append(
                InferenceRecord(
                    sample_id=sample_id,
                    predicted_class=predicted,
                    confidence=float(row[predicted]),
                    true_label=label,
                )
            )
    accuracy = float(np.mean([r.correct for r in records])) if records else 0.0
    return records, accuracy


RECORD_FIELDS = ("sample_id", "predicted_class", "confidence", "true_label", "correct")


def write_records_csv(records: Sequence[InferenceRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(
                [r.sample_id, r.predicted_class, repr(r.confidence), r.true_label, int(r.correct)]
            )


def read_records_csv(path: str | Path) -> list[InferenceRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                InferenceRecord(
                    sample_id=row["sample_id"],
                    predicted_class=int(row["predicted_class"]),
                    confidence=float(row["confidence"]),
                    true_label=int(row["true_label"]),
                )
            )
    return records


def write_records_json(records: Sequence[InferenceRecord], path: str | Path) -> None:
    payload = [
        {
            "sample_id": r.sample_id,
            "predicted_class": r.predicted_class,
            "confidence": r.confidence,
            "true_label": r.true_label,
            "correct": r.correct,
        }
        for r in records
    ]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
