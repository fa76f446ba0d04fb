"""Reference interpreters for the graph IR.

`prepare(graph)` validates a graph and binds every kernel to its
constants once, giving a `Program` that runs batches of any leading
size. Float32 graphs run in Float32. Quantized graphs run
with integer-only arithmetic between the quantize/dequantize boundaries:
convolutions and matmuls accumulate in 32-bit (checked, not wrapped),
outputs are requantized with fixed-point multipliers and saturated to
[-128, 127]. Softmax always runs in Float32 on dequantized logits.
`run_f32` and `run_int8` prepare and run in one call.

Both interpreters are pure functions of (graph, input), bit-reproducible
run to run, and give each sample the same result whatever batch it runs in.
Kernels are closures over read-only constants and each run has its own
env, so one `Program` may run from several threads at once; `evaluate`
runs its chunks on the calling thread and up to one pool thread more per
further CPU the process may use, and numpy releases the GIL inside the
kernels' einsum, BLAS and ufunc calls.

An activation lives in a run's env from the step that writes it to the
last step that reads it, as in a TFLite Micro arena (David et al.,
arXiv:2010.08678); only graph outputs outlive the run. A ReLU whose
input dies at its step overwrites that input in place, as MCUNet's
in-place activations do (Lin et al., arXiv:2007.10319). Whoever wants
intermediates observes them through `Program.run`'s `on_step` hook, which
sees the input and each step's output as it is computed; an array it is
handed is valid only during the call, and `run_f32` and `run_int8` copy
each one into a `trace` dict.

Windows are read through strided views of the padded input. Conv2D
copies them once into C-ordered (B,Ho,Wo,kh,kw,C) patches for its
matrix product; DepthwiseConv2D runs one einsum over an uncopied
(B,Ho,kh,kw,Wo*C) view (stride_w 1; (B,Ho,kh,kw,Wo,C) otherwise), which
sums each output element in the same order as over the patches; the
pools fold the (B,Ho,Wo,C) view under each kernel offset. Single-channel
Float32 DepthwiseConv2D, AvgPool2D and MaxPool2D keep the patches: with
C == 1 numpy coalesces the window into a horizontal or pairwise
reduction, whose order (and, for MaxPool2D, whose pick between tied
signed zeros) no view reproduces.

INT8 Conv2D, DepthwiseConv2D and FullyConnected share one accumulation
rule: a sum of K products (K = kh*kw*C, kh*kw or F) runs in float32 while
K*255*128 < 2**24 and in float64 beyond, where every partial sum is an
exact integer whatever order BLAS or einsum takes. Their int64 epilogue
(bias, 32-bit check, requantization, zero point, clip) then runs over
tiles of at most `_EPILOGUE_TILE` elements into one preallocated Int8
output, so its temporaries do not grow with the batch or the layer.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .costmodel import group_id
from .graph import (
    WEIGHTED_OPS,
    DType,
    GraphIR,
    OpKind,
    OpNode,
    TensorSpec,
    checked_order,
    conv_output_hw,
    fused_successor,
    same_padding_amounts,
)
from .model_io import NUMBER, _field, csv_text, read_csv, write_files
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
    """The padding, strides and output size of one windowed node, computed once.

    Windows are read through strided views of the padded input; no kernel
    gathers them through index arrays.
    """

    def __init__(self, node: OpNode, in_shape: tuple[int, ...]):
        self.kernel = (node.attrs["kernel_h"], node.attrs["kernel_w"])
        self.stride = (node.attrs["stride_h"], node.attrs["stride_w"])
        padding = node.attrs["padding"]
        h, w = in_shape[1:3]
        if padding == "SAME":
            ph = same_padding_amounts(h, self.kernel[0], self.stride[0])
            pw = same_padding_amounts(w, self.kernel[1], self.stride[1])
        else:
            ph = pw = (0, 0)
        self.pad = (ph, pw) if any(ph + pw) else None
        self.out_hw = conv_output_hw((h, w), self.kernel, self.stride, padding)
        self.hw = (h, w)

    def _padded(self, x: np.ndarray, pad_value) -> np.ndarray:
        if self.pad is None:
            return x
        (top, bottom), (left, right) = self.pad
        b, h, w, c = x.shape
        out = np.full((b, top + h + bottom, left + w + right, c), pad_value, dtype=x.dtype)
        out[:, top:top + h, left:left + w] = x
        return out

    def patches(self, x: np.ndarray, pad_value) -> np.ndarray:
        """(B,H,W,C) -> C-ordered (B,Ho,Wo,kh,kw,C) windows with constant padding."""
        sh, sw = self.stride
        view = sliding_window_view(self._padded(x, pad_value), self.kernel, axis=(1, 2))
        return np.ascontiguousarray(view[:, ::sh, ::sw].transpose(0, 1, 2, 4, 5, 3))

    def rows(self, x: np.ndarray, pad_value) -> np.ndarray:
        """The windows as a strided view of the padded input, no copy.

        (B,Ho,kh,kw,Wo*C) for stride_w 1, where output column and channel
        merge into one contiguous axis; (B,Ho,kh,kw,Wo,C) otherwise.
        """
        x = np.ascontiguousarray(self._padded(x, pad_value))
        (kh, kw), (sh, sw), (oh, ow) = self.kernel, self.stride, self.out_hw
        b, c = x.shape[0], x.shape[3]
        sb, sr, sp, sc = x.strides
        if sw == 1:
            shape, strides = (b, oh, kh, kw, ow * c), (sb, sh * sr, sr, sp, sc)
        else:
            shape, strides = (b, oh, kh, kw, ow, c), (sb, sh * sr, sr, sp, sw * sp, sc)
        return as_strided(x, shape, strides, writeable=False)

    def taps(self, x: np.ndarray, pad_value) -> list[np.ndarray]:
        """The strided (B,Ho,Wo,C) view under each kernel offset, row-major."""
        x = self._padded(x, pad_value)
        (kh, kw), (sh, sw), (oh, ow) = self.kernel, self.stride, self.out_hw
        return [
            x[:, i:i + sh * (oh - 1) + 1:sh, j:j + sw * (ow - 1) + 1:sw]
            for i in range(kh) for j in range(kw)
        ]

    def valid_counts(self) -> np.ndarray:
        """Number of in-bounds cells per window, shape (Ho, Wo)."""
        ones = np.ones((1, *self.hw, 1), dtype=np.int64)
        return _fold(np.add, self.taps(ones, 0))[0, :, :, 0]


def _fold(ufunc: np.ufunc, views: list[np.ndarray]) -> np.ndarray:
    """`ufunc` applied left to right over same-shaped views, into a new array."""
    out = views[0].copy()
    for view in views[1:]:
        ufunc(out, view, out=out)
    return out


def _depthwise(window: _Window, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x (B,H,W,C) -> (B,Ho,Wo,C) depthwise sums under weights w (kh,kw,C).

    One einsum over `window.rows`: its inner loop runs along the long
    contiguous Wo*C (or C) axis as one multiply-add per element, kernel
    offsets row-major in the outer loops, so each output element is
    summed in the same order as over C-ordered (B,Ho,Wo,kh,kw,C) patches.
    """
    oh, ow = window.out_hw
    c = w.shape[-1]
    if window.stride[1] == 1:
        w = np.tile(w, (1, 1, ow))
        spec = "nhijx,ijx->nhx"
    else:
        spec = "nhijwc,ijc->nhwc"

    def product(x: np.ndarray) -> np.ndarray:
        out = np.einsum(spec, window.rows(x, 0), w, optimize=False)
        return out.reshape(len(x), oh, ow, c)
    return product


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def _bias(graph: GraphIR, node: OpNode, dtype) -> np.ndarray | None:
    return graph.tensors[node.inputs[2]].data.astype(dtype) if len(node.inputs) == 3 else None


Env = dict[str, np.ndarray]
Kernel = Callable[[Env], np.ndarray]


def _relu(src: str, floor: np.generic) -> Kernel:
    """max(x, floor), into `out` if given: `Program` passes x itself where
    x dies at this step."""
    def relu(env: Env, out: np.ndarray | None = None) -> np.ndarray:
        return np.maximum(env[src], floor, out=out)
    return relu


# ---------------------------------------------------------------------------
# Float32 kernels


def _f32_kernel(graph: GraphIR, node: OpNode) -> Kernel:
    kind = node.kind
    src = node.inputs[0]
    # Reductions go through einsum(optimize=False): numpy's own fixed-order
    # loops, so results cannot vary with BLAS backend, thread count or the
    # batch a sample runs in.
    if kind in WEIGHTED_OPS:
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
            if w.shape[-1] > 1:
                product = _depthwise(window, w[0])
            else:
                # Single channel: einsum over the patches, not the rows view.
                # With C == 1 numpy coalesces the window into a horizontal or
                # pairwise reduction, an order no strided view reproduces.
                def product(x: np.ndarray) -> np.ndarray:
                    patches = window.patches(x, 0.0)
                    return np.einsum("nhwijc,ijc->nhwc", patches, w[0], optimize=False)

        def weighted(env: Env) -> np.ndarray:
            out = product(env[src])  # a fresh float32 array
            if bias is not None:
                out += bias
            return out
        return weighted

    if kind == OpKind.RELU:
        return _relu(src, np.float32(0.0))

    if kind == OpKind.MAX_POOL2D:
        window = _Window(node, graph.tensors[src].shape)
        if graph.tensors[src].shape[3] == 1:
            # Single channel: max over the patches. With C == 1 numpy
            # coalesces the window into one reduction, which can pick
            # another of two tied signed zeros than the taps folded
            # row-major (see DepthwiseConv2D).
            return lambda env: window.patches(env[src], -np.inf).max(axis=(3, 4))
        return lambda env: _fold(np.maximum, window.taps(env[src], -np.inf))

    if kind == OpKind.AVG_POOL2D:
        window = _Window(node, graph.tensors[src].shape)
        counts = window.valid_counts()[None, :, :, None]

        if graph.tensors[src].shape[3] == 1:
            # Single channel: sum coalesces the window into a pairwise
            # reduction (see DepthwiseConv2D), so it stays on the patches.
            def window_sum(x: np.ndarray) -> np.ndarray:
                return window.patches(x, 0.0).astype(np.float64).sum(axis=(3, 4))
        else:
            # The taps added row-major onto zeros: the order sum takes over
            # C-ordered patches, and its +0.0 for a window of -0.0 cells.
            def window_sum(x: np.ndarray) -> np.ndarray:
                taps = window.taps(x, 0.0)
                total = np.zeros(taps[0].shape, dtype=np.float64)
                for tap in taps:
                    total += tap
                return total

        return lambda env: (window_sum(env[src]) / counts).astype(np.float32)

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
    if acc.size and (acc.max() > _INT32_MAX or acc.min() < -_INT32_MAX):
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


# int64 elements per tile of the INT8 weighted epilogue: its temporaries
# stay this size whatever the batch or layer size.
_EPILOGUE_TILE = 2**16


def _acc_dtype(k: int) -> type:
    """The float type that sums k products |x - zp| * |w| <= 255 * 128 exactly.

    Every partial sum is then an integer of magnitude at most k*255*128:
    float32 holds all of them exactly below 2**24, float64 below 2**53.
    """
    return np.float32 if k * 255 * 128 < 2**24 else np.float64


def _int8_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for centered codes against Int8 weights, exact, through BLAS.

    One operand holds centered codes |x - zp| <= 255, the other Int8
    weights |w| <= 128, so every product is below 2**15. Both are cast to
    `_acc_dtype(K)`, which holds every partial sum exactly, so the result
    holds the integer product whatever order BLAS sums in.
    """
    acc = _acc_dtype(a.shape[-1])
    return a.astype(acc, copy=False) @ b.astype(acc, copy=False)


def _int8_weighted_kernel(graph: GraphIR, node: OpNode) -> Kernel:
    """Conv2D / DepthwiseConv2D / FullyConnected.

    A FullyConnected reads its input flattened to (B, -1). The product
    accumulates exactly in `_acc_dtype` of the window or input size. The
    epilogue (int64 cast, bias, 32-bit check, fixed-point requantization,
    zero point, clip) then runs on `_EPILOGUE_TILE`-sized tiles of output
    rows, writing into one preallocated Int8 output.
    """
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
        w_t = w.astype(_acc_dtype(w.shape[1])).T

        def product(x: np.ndarray) -> np.ndarray:
            return _int8_gemm(x.reshape(len(x), -1).astype(w_t.dtype) - zp_in, w_t)
    elif node.kind == OpKind.CONV2D:
        window = _Window(node, graph.tensors[src].shape)
        w_mat = w.reshape(w.shape[0], -1)
        w_mat = w_mat.astype(_acc_dtype(w_mat.shape[1]))

        # Channel-major: (O, X) over the X output pixels, so the epilogue's
        # passes run along X rather than along a short row of O channels.
        # Its transpose is the (B, Ho, Wo, O) output's (X, O) rows.
        def product(x: np.ndarray) -> np.ndarray:
            patches = window.patches(x.astype(w_mat.dtype) - zp_in, 0.0)
            acc = _int8_gemm(w_mat, patches.reshape(-1, w_mat.shape[1]).T)
            return acc.T.reshape(*patches.shape[:3], len(w_mat))
    else:
        window = _Window(node, graph.tensors[src].shape)
        acc_type = _acc_dtype(window.kernel[0] * window.kernel[1])
        depthwise = _depthwise(window, w[0].astype(acc_type))

        def product(x: np.ndarray) -> np.ndarray:
            return depthwise(x.astype(acc_type) - acc_type(zp_in))

    def weighted(env: Env) -> np.ndarray:
        acc = product(env[src])  # (..., C) exact integers; a transposed view for Conv2D
        out = np.empty(acc.shape, dtype=np.int8)
        acc_rows, out_rows = acc.reshape(-1, acc.shape[-1]), out.reshape(-1, acc.shape[-1])
        tile = max(1, _EPILOGUE_TILE // acc.shape[-1])
        for start in range(0, len(acc_rows), tile):
            q = acc_rows[start:start + tile].astype(np.int64)
            if bias is not None:
                q += bias
            _check_acc32(q, node.id)
            q = requantize_fixed_point(q, sig, shift)
            q += zp_out
            out_rows[start:start + tile] = np.clip(q, QMIN, QMAX, out=q)
        return out
    return weighted


def _int8_kernel(graph: GraphIR, node: OpNode) -> Kernel:
    """The INT8 kernel of `node`."""
    if node.kind in WEIGHTED_OPS:
        return _int8_weighted_kernel(graph, node)
    kind = node.kind
    src = node.inputs[0]

    if kind == OpKind.RELU:
        _assert_inherited(graph, node)
        return _relu(src, np.int8(_require_quant(graph, src).zero_point))

    if kind == OpKind.MAX_POOL2D:
        # max is order-preserving under affine maps with S > 0; QMIN padding
        # can never beat a real cell.
        _assert_inherited(graph, node)
        window = _Window(node, graph.tensors[src].shape)
        return lambda env: _fold(np.maximum, window.taps(env[src], QMIN))

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
            total = _fold(np.add, window.taps(centered, 0))
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
    """One kernel of a Program: computes tensor `output` from the env.

    `reads` are the input ids of the node it runs, constants included:
    for a fused chain, what the chain reads from outside itself (a
    Conv2D + Add's inputs and the Add's other operand; the Flatten's
    input and the FullyConnected's constants).
    """

    output: str
    run: Kernel
    reads: tuple[str, ...]


class Program:
    """A graph validated and bound to its kernels once.

    `graph` is prepare's private copy; `steps` run in order over an env
    of tensor id -> array. Graph shapes declare batch N=1, but every step
    works on any leading batch size B, and a sample's result does not
    depend on the batch it runs in. Steps only read their bound constants
    and every `run` has its own env, so a Program may run from several
    threads at once.

    An activation lives in the env from the step that writes it to the
    last step that reads it; graph outputs live until `run` returns. A
    ReLU step overwrites its input when that input dies at the step, an
    earlier step wrote it, and no Flatten wrote or reads it (a Flatten's
    output is a view of its input, which may outlive either of them);
    the graph input, in a Float32 program the caller's array, is never
    overwritten.
    """

    def __init__(self, graph: GraphIR, steps: list[Step], quantized: bool):
        self.graph = graph
        self.quantized = quantized
        # last[tid]: the index of the last step reading or writing tid.
        last = {tid: i for i, step in enumerate(steps) for tid in (*step.reads, step.output)}
        self._dead: list[list[str]] = [[] for _ in steps]
        for tid, i in last.items():
            if tid not in graph.graph_outputs and not graph.tensors[tid].is_constant:
                self._dead[i].append(tid)
        producers, consumers = graph.producer_map(), graph.consumer_map()
        written: set[str] = set()
        self.steps: list[Step] = []
        for step, dead in zip(steps, self._dead):
            node, src = producers[step.output], step.reads[0]
            if (
                node.kind == OpKind.RELU
                and step.reads == tuple(node.inputs)  # not the end of a fused chain
                and src in dead
                and src in written
                and OpKind.FLATTEN not in {producers[src].kind, *(n.kind for n in consumers[src])}
            ):
                step = step._replace(run=_overwriting(step.run, src))
            self.steps.append(step)
            written.add(step.output)

    @property
    def input(self) -> TensorSpec:
        """The graph's one input; raises for a graph with any other count."""
        inputs = self.graph.graph_inputs
        if len(inputs) != 1:
            raise ExecutionError("a Program runs graphs with exactly one graph input")
        return self.graph.tensors[inputs[0]]

    def run(
        self, x: np.ndarray, on_step: Callable[[str, np.ndarray], None] | None = None
    ) -> dict[str, np.ndarray]:
        """Execute on a (B, *input_shape[1:]) batch; returns {output_id: array}.

        Outputs are Float32 (INT8 outputs are dequantized). `on_step`, if
        given, is called as on_step(tensor_id, array) with the graph input
        (quantized, in an INT8 program) and then with each step's output
        as it is computed. The array is valid only during the call: a
        later in-place ReLU may overwrite it, so copy it to keep it, and
        do not modify it.
        """
        spec = self.input
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != len(spec.shape) or x.shape[1:] != spec.shape[1:]:
            raise ExecutionError(f"input shape {x.shape} != graph input shape {spec.shape}")
        env = {spec.id: quantize_tensor(x, spec.quant) if self.quantized else x}
        if on_step is not None:
            on_step(spec.id, env[spec.id])
        for step, dead in zip(self.steps, self._dead):
            env[step.output] = step.run(env)
            if on_step is not None:
                on_step(step.output, env[step.output])
            for tid in dead:
                del env[tid]

        outputs: dict[str, np.ndarray] = {}
        for tid in self.graph.graph_outputs:
            t = self.graph.tensors[tid]
            value = env[tid]
            if self.quantized and t.dtype == DType.INT8:
                value = dequantize_tensor(value, t.quant).astype(np.float32)
            outputs[tid] = value
        return outputs


def _chain_step(
    graph: GraphIR, chain: list[OpNode], kernel: Callable[[GraphIR, OpNode], Kernel]
) -> Step:
    """One Step that runs a `graph.fused_successor` chain as one kernel.

    Each node runs its own `kernel` on its producer's output, which the
    env never stores; a chain of one node is that node's kernel. The step
    reads what the chain reads from outside itself.
    """
    inner = {n.outputs[0] for n in chain[:-1]}
    reads = tuple(t for n in chain for t in n.inputs if t not in inner)
    run = kernel(graph, chain[0])
    for prev, node in zip(chain, chain[1:]):
        run = _composed(run, prev.outputs[0], kernel(graph, node))
    return Step(chain[-1].outputs[0], run, reads)


def _composed(first: Kernel, inner: str, then: Kernel) -> Kernel:
    """`then` reading `first`'s output as tensor `inner`, which no env holds."""
    return lambda env: then({**env, inner: first(env)})


def _overwriting(relu: Callable[..., np.ndarray], src: str) -> Kernel:
    """A `_relu` kernel that writes its result into its input `src`."""
    return lambda env: relu(env, out=env[src])


def prepare(graph: GraphIR, fused_groups: Sequence[Sequence[str]] | None = None) -> Program:
    """Validate, check dtypes and bind every kernel once.

    A fully quantized graph (`GraphIR.is_quantized`) gets the INT8
    kernels, any other graph the Float32 ones. `fused_groups` (node-id
    sequences from a deployment plan, quantized graphs only) executes
    each chain of nodes that `graph.fused_successor` links as one kernel
    without materializing the tensors inside it; the math is unchanged.
    Groups run in the order of their last nodes.
    """
    quantized = graph.is_quantized()
    g = graph.copy()
    order = checked_order(g)
    nodes = {n.id: n for n in g.nodes}
    # einsum(optimize=False) sums in a stride-dependent order, so every
    # constant gets one layout (C order): an F-ordered weight, as
    # np.delete leaves behind, then runs exactly like its saved+loaded copy.
    for t in g.tensors.values():
        if t.data is not None:
            t.data = np.ascontiguousarray(t.data)

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

    if fused_groups is None:
        groups = [[nid] for nid in order]
    else:
        groups = [list(grp) for grp in fused_groups]
        seen = [nid for grp in groups for nid in grp]
        if sorted(seen) != sorted(order):
            raise ExecutionError("fused groups must cover every node exactly once")
        pos = {nid: i for i, nid in enumerate(order)}
        groups.sort(key=lambda grp: pos[grp[-1]])

    kernel = _int8_kernel if quantized else _f32_kernel
    consumers = g.consumer_map()
    steps = []
    for grp in groups:
        chain = [nodes[nid] for nid in grp]
        if any(fused_successor(g, a, consumers) is not b for a, b in zip(chain, chain[1:])):
            raise ExecutionError(f"fused group {group_id(grp)} is not a chain in which each "
                                 "node fuses with the next (graph.fused_successor)")
        steps.append(_chain_step(g, chain, kernel))
    return Program(g, steps, quantized)


def run_f32(
    graph: GraphIR,
    x: np.ndarray,
    trace: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Prepare and run a Float32 graph; see `Program.run`.

    A `trace` dict receives a copy of every activation by tensor id.
    """
    return _prepare_f32(graph).run(x, _copy_into(trace))


def run_int8(
    graph: GraphIR,
    x: np.ndarray,
    fused_groups: Sequence[Sequence[str]] | None = None,
    trace: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Prepare and run a quantized graph; see `prepare` and `Program.run`.

    The input is quantized, the graph runs on integers and INT8 outputs
    are dequantized to Float32. A `trace` dict receives a copy of every
    activation by tensor id, as the integer codes the interpreter holds.
    """
    if not graph.is_quantized():
        raise ExecutionError("run_int8 requires a fully quantized graph")
    return prepare(graph, fused_groups).run(x, _copy_into(trace))


def _copy_into(trace: dict[str, np.ndarray] | None) -> Callable[[str, np.ndarray], None] | None:
    """An on_step hook that keeps a copy of each array in `trace`."""
    if trace is None:
        return None
    return lambda tid, values: trace.__setitem__(tid, values.copy())


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
    sample, folded in as each step computes them; constant tensors get
    ranges from their data. Adding samples can only widen ranges. Samples
    run one at a time: a chunk of EVAL_CHUNK would hold each step's
    windows and activations for every sample in it. `evaluate` folds the
    same ranges over the samples it is told to observe.
    """
    if len(calibration_set) == 0:
        raise ExecutionError("empty calibration set")
    program = _prepare_f32(graph)
    ranges: dict[str, TensorRange] = {}
    for sample in calibration_set:
        program.run(sample, on_step=lambda tid, values: _fold_range(ranges, tid, values))
    return _with_constant_ranges(ranges, graph)


def _fold_range(ranges: dict[str, TensorRange], tid: str, values: np.ndarray) -> None:
    """Merge the min/max of `values` into `ranges[tid]`."""
    _merge(ranges, TensorRange(tid, float(values.min()), float(values.max())))


def _merge(ranges: dict[str, TensorRange], r: TensorRange) -> None:
    """Merge `r` into `ranges`; of two equal bounds the one already held
    stays, so folding in sample order keeps the first sample's signed zero."""
    ranges[r.tensor_id] = ranges[r.tensor_id].merged(r) if r.tensor_id in ranges else r


def _with_constant_ranges(ranges: dict[str, TensorRange], graph: GraphIR) -> dict[str, TensorRange]:
    """`ranges` plus each constant tensor's range, taken from its data."""
    for tid, t in graph.tensors.items():
        if t.is_constant:
            ranges[tid] = TensorRange(tid, float(t.data.min()), float(t.data.max()))
    return ranges


def ranges_to_json(ranges: dict[str, TensorRange]) -> dict:
    return {tid: {"min": r.min_r, "max": r.max_r} for tid, r in sorted(ranges.items())}


def ranges_from_json(obj: dict) -> dict[str, TensorRange]:
    """Inverse of ranges_to_json; a malformed entry raises ExecutionError naming it."""
    if not isinstance(obj, dict):
        raise ExecutionError(f"calibration ranges: expected an object, got {type(obj).__name__}")
    return {
        tid: TensorRange(
            tid,
            _field(e, "min", f"calibration range {tid}", NUMBER, ExecutionError),
            _field(e, "max", f"calibration range {tid}", NUMBER, ExecutionError),
        )
        for tid, e in obj.items()
    }


# ---------------------------------------------------------------------------
# dataset evaluation

# Samples per Program.run in evaluate and fit_classifier: large enough to
# amortize the per-call overhead and feed BLAS, small enough to keep
# activations small.
EVAL_CHUNK = 16
# The most workers map_batches runs, so the most chunks it has copied and
# running at once.
CHUNKS_IN_FLIGHT = 8


def batches(samples: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The samples concatenated along the batch axis, EVAL_CHUNK at a time."""
    for start in range(0, len(samples), EVAL_CHUNK):
        yield np.concatenate(samples[start:start + EVAL_CHUNK])


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_batches(fn: Callable[[int, np.ndarray], object], samples: Sequence[np.ndarray]) -> list:
    """[fn(i, batch) for i, batch in enumerate(batches(samples))], on the
    calling thread and a pool.

    One worker per usable CPU, at most one per chunk and at most
    CHUNKS_IN_FLIGHT: the calling thread and `workers - 1` pool threads
    (no pool for one worker). Each worker takes the next chunk in order,
    concatenates it and runs it, so only the chunks being run are copied.
    Results come back in chunk order. Once a chunk has raised, no worker
    takes another, and the first failing chunk in chunk order raises
    (every chunk before it has run), whichever thread ran it; every pool
    thread has exited before this returns or raises.
    """
    results: list = [None] * math.ceil(len(samples) / EVAL_CHUNK)
    workers = max(1, min(len(results), usable_cpus(), CHUNKS_IN_FLIGHT))
    chunks = enumerate(batches(samples))
    taking = threading.Lock()
    failures: dict[int, BaseException] = {}

    def work() -> None:
        while True:
            with taking:
                if failures:
                    return
                i, batch = next(chunks, (None, None))
            if batch is None:
                return
            try:
                results[i] = fn(i, batch)
            except BaseException as exc:
                with taking:
                    failures[i] = exc

    if workers == 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            pooled = [pool.submit(work) for _ in range(workers - 1)]
            work()
        for future in pooled:
            future.result()
    if failures:
        raise failures[min(failures)]
    return results


def evaluate(
    graph: GraphIR,
    dataset: Iterable[tuple],
    observe: Sequence[int] = (),
    ranges: dict[str, TensorRange] | None = None,
) -> tuple[list[InferenceRecord], float]:
    """Per-sample records plus top-1 accuracy.

    Dataset items are (input, label) or (sample_id, input, label); the
    graph must end in Softmax over class logits. Every label and input
    shape is checked before any sample runs; samples then run in chunks
    of EVAL_CHUNK through `map_batches`.

    Given a `ranges` dict, the same pass of a Float32 graph also
    calibrates: it fills `ranges` with what `calibrate` returns for the
    samples at the `observe` indices, in sample order, byte for byte.
    Each chunk folds its observed rows in sample order and the chunks
    merge in sample order, so the ranges do not depend on the number of
    threads.
    """
    program = prepare(graph) if ranges is None else _prepare_f32(graph)
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

    # rows[chunk]: the observed rows of that chunk, in sample order.
    rows: dict[int, list[int]] = {}
    if ranges is not None:
        if not observe:
            raise ExecutionError("empty calibration set")
        for i in sorted(set(observe)):
            if not 0 <= i < len(inputs):
                raise ExecutionError(f"observed sample index {i} outside [0, {len(inputs)})")
            rows.setdefault(i // EVAL_CHUNK, []).append(i % EVAL_CHUNK)

    def run_chunk(chunk: int, batch: np.ndarray) -> tuple[dict, dict[str, TensorRange]]:
        folded: dict[str, TensorRange] = {}
        if chunk not in rows:
            return program.run(batch), folded

        def fold_rows(tid: str, values: np.ndarray) -> None:
            for row in rows[chunk]:
                _fold_range(folded, tid, values[row])
        return program.run(batch, on_step=fold_rows), folded

    records: list[InferenceRecord] = []
    for outputs, folded in map_batches(run_chunk, inputs):
        for r in folded.values():
            _merge(ranges, r)
        probabilities = outputs[out_id]
        for row in probabilities.reshape(len(probabilities), -1):
            predicted = int(np.argmax(row))
            records.append(
                InferenceRecord(
                    sample_id=ids[len(records)],
                    predicted_class=predicted,
                    confidence=float(row[predicted]),
                    true_label=labels[len(records)],
                )
            )
    if ranges is not None:
        _with_constant_ranges(ranges, graph)
    return records, top1_accuracy(records)


def top1_accuracy(records: Sequence[InferenceRecord]) -> float:
    """The share of records whose predicted class is the true label."""
    return float(np.mean([r.correct for r in records])) if records else 0.0


RECORD_FIELDS = ("sample_id", "predicted_class", "confidence", "true_label", "correct")


def write_records_csv(records: Sequence[InferenceRecord], path: str | Path) -> None:
    rows = [[r.sample_id, r.predicted_class, repr(r.confidence), r.true_label, int(r.correct)]
            for r in records]
    write_files([(path, csv_text([RECORD_FIELDS, *rows]))])


def read_records_csv(path: str | Path) -> list[InferenceRecord]:
    """Records written by write_records_csv.

    A missing column, a value that is not a number, a negative class or
    label, a confidence outside [0, 1], or a `correct` that is not
    `int(predicted_class == true_label)` raises ExecutionError naming the
    file, the line and the column.
    """
    columns = {"sample_id": str, "predicted_class": int, "confidence": float, "true_label": int,
               "correct": int}
    records = []
    for line, row in read_csv(path, columns, ExecutionError):
        where = f"{path} line {line}: column"
        for key in ("predicted_class", "true_label"):
            if row[key] < 0:
                raise ExecutionError(f"{where} {key!r}: {row[key]} is negative")
        if not 0.0 <= row["confidence"] <= 1.0:
            raise ExecutionError(f"{where} 'confidence': {row['confidence']} outside [0, 1]")
        correct = row.pop("correct")
        record = InferenceRecord(**row)
        if correct != record.correct:
            raise ExecutionError(
                f"{where} 'correct': {correct} is not {int(record.correct)} "
                f"(predicted_class {record.predicted_class}, true_label {record.true_label})"
            )
        records.append(record)
    return records
