"""Post-training static INT8 quantization.

Real values map to signed 8-bit codes through r = S * (q - Z) with q
clamped to [-128, 127]. Weights are quantized per output channel
(symmetric, Z = 0), activations per tensor (asymmetric, range widened to
include zero so that padding and ReLU zeros are exact). Biases become
Int32 at scale S_input * S_weight. Rounding is half-away-from-zero
everywhere.

Requantization of 32-bit accumulators uses a 32-bit fixed-point
significand plus right shift, precomputed per node and stored in node
attrs: Conv2D/DepthwiseConv2D/FullyConnected carry per-channel
`requant`, Add carries per-operand `requant_a`/`requant_b`. Concat and
AvgPool2D multipliers are derived at execution time (AvgPool window
counts depend on position).

Outputs of ReLU, MaxPool2D and Flatten inherit their input's
quantization parameters: these ops then operate directly on codes, and
fusing them into a producing kernel cannot change the math.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .graph import (
    DType,
    GraphIR,
    OpKind,
    QuantParams,
    infer_shapes,
    validate,
)

if TYPE_CHECKING:
    from .executor import TensorRange

QMIN, QMAX = -128, 127

# Weight output-structure axis by consuming op kind.
WEIGHT_CHANNEL_AXIS = {
    OpKind.CONV2D: 0,
    OpKind.DEPTHWISE_CONV2D: 3,
    OpKind.FULLY_CONNECTED: 0,
}

_INT32_MAX = 2**31 - 1


class QuantizationError(ValueError):
    pass


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest, ties away from zero (np.round ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def compute_qparams(rng: "TensorRange", mode: str = "asymmetric") -> QuantParams:
    """Scale/zero-point from an observed range.

    Asymmetric: the range is widened to include 0, S = span / 255 and
    Z = round(-128 - min/S) clamped to [-128, 127]. Symmetric:
    S = max(|min|, |max|) / 127, Z = 0. Degenerate all-zero ranges get
    the convention S = 1, Z = 0.
    """
    lo, hi = float(rng.min_r), float(rng.max_r)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuantizationError(f"non-finite range ({lo}, {hi})")
    if lo > hi:
        raise QuantizationError(f"inverted range ({lo}, {hi})")

    if mode == "symmetric":
        bound = max(abs(lo), abs(hi))
        if bound == 0.0:
            return QuantParams(scale=1.0, zero_point=0, symmetric=True)
        return QuantParams(scale=bound / 127.0, zero_point=0, symmetric=True)

    if mode != "asymmetric":
        raise QuantizationError(f"unknown mode {mode!r}")
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    scale = (hi - lo) / 255.0
    if scale == 0.0:  # zero-width or subnormal-underflow range
        return QuantParams(scale=1.0, zero_point=0)
    if not math.isfinite(scale):
        raise QuantizationError(f"range ({lo}, {hi}) too wide to quantize")
    zp = int(np.clip(round_half_away(-128.0 - lo / scale), QMIN, QMAX))
    return QuantParams(scale=scale, zero_point=zp)


def per_channel_qparams(data: np.ndarray, axis: int) -> QuantParams:
    """Symmetric per-channel parameters from constant weight data."""
    moved = np.moveaxis(np.asarray(data, dtype=np.float64), axis, 0)
    bound = np.abs(moved.reshape(moved.shape[0], -1)).max(axis=1)
    scale = np.where(bound == 0.0, 1.0, bound / 127.0)
    return QuantParams(
        scale=scale,
        zero_point=np.zeros(len(scale), dtype=np.int64),
        granularity="per_channel",
        axis=axis,
        symmetric=True,
    )


def _broadcast_channelwise(values: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[axis] = -1
    return np.asarray(values).reshape(shape)


def quantize_tensor(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    """q = clamp(round(r / S) + Z, -128, 127) as int8."""
    r = np.asarray(values, dtype=np.float64)
    if qp.granularity == "per_channel":
        scale = _broadcast_channelwise(qp.scale, r.ndim, qp.axis)
        zp = _broadcast_channelwise(qp.zero_point, r.ndim, qp.axis)
    else:
        scale, zp = qp.scale, qp.zero_point
    q = round_half_away(r / scale) + zp
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def dequantize_tensor(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """r = S * (q - Z), evaluated and returned in float64.

    Callers with Float32 graph semantics (the executor's output boundary)
    downcast; keeping the affine map in float64 preserves the S/2
    roundtrip bound at rounding ties.
    """
    q = np.asarray(q)
    if qp.granularity == "per_channel":
        scale = _broadcast_channelwise(qp.scale, q.ndim, qp.axis)
        zp = _broadcast_channelwise(qp.zero_point, q.ndim, qp.axis)
    else:
        scale, zp = qp.scale, qp.zero_point
    return (q.astype(np.float64) - zp) * scale


def fixed_point_multiplier(m: float) -> tuple[int, int]:
    """Encode m > 0 as (significand, shift): m ~ significand / 2**shift.

    The significand is a 31-bit integer; shift >= 1 covers every
    multiplier below 2**30, far beyond any sane requantization ratio.
    A multiplier below 2**-32 (shift >= 63) scales every int32
    accumulator to a magnitude below 0.5, so it is encoded as
    significand 0 (with shift 31), which requantizes to 0; this keeps
    shift <= 62, where requantize_fixed_point cannot overflow int64.
    """
    if not (m > 0 and math.isfinite(m)):
        raise QuantizationError(f"requant multiplier must be positive, got {m}")
    mant, exp = math.frexp(m)  # m = mant * 2**exp, mant in [0.5, 1)
    sig = round(mant * (1 << 31))
    if sig == (1 << 31):
        sig >>= 1
        exp += 1
    shift = 31 - exp
    if shift < 1:
        raise QuantizationError(f"requant multiplier {m} out of supported range")
    if shift >= 63:
        return 0, 31
    return int(sig), int(shift)


def requantize_fixed_point(
    acc: np.ndarray, significand: int | np.ndarray, shift: int | np.ndarray
) -> np.ndarray:
    """round_half_away(acc * sig / 2**shift) in pure int64 arithmetic."""
    acc = np.asarray(acc, dtype=np.int64)
    sig = np.asarray(significand, dtype=np.int64)
    sh = np.asarray(shift, dtype=np.int64)
    prod = acc * sig
    half = np.left_shift(np.int64(1), sh - 1)
    mag = np.right_shift(np.abs(prod) + half, sh)
    return np.sign(prod) * mag


def _requant_attr(multiplier: np.ndarray | float) -> dict:
    mult = np.atleast_1d(np.asarray(multiplier, dtype=np.float64))
    sigs, shifts = [], []
    for m in mult:
        s, sh = fixed_point_multiplier(float(m))
        sigs.append(s)
        shifts.append(sh)
    if mult.size == 1:
        return {"significand": sigs[0], "shift": shifts[0]}
    return {"significand": sigs, "shift": shifts}


def quantize_graph(graph: GraphIR, ranges: Mapping[str, "TensorRange"]) -> GraphIR:
    """Produce a fully quantized copy of a Float32 graph.

    Activation tensors need calibration entries in `ranges`; weights and
    biases are quantized from their constant data. Graph structure is
    unchanged; only dtypes, quantization params and requant attrs differ.
    Deterministic: identical inputs give byte-identical graphs.
    """
    report = validate(graph)
    if not report.ok:
        raise QuantizationError("cannot quantize invalid graph: " + "; ".join(report.violations))
    for t in graph.tensors.values():
        if not t.is_constant and t.dtype != DType.FLOAT32:
            raise QuantizationError(f"tensor {t.id}: expected Float32 source graph")

    g, order = infer_shapes(graph)
    nodes = {n.id: n for n in g.nodes}
    producers = g.producer_map()

    def require_range(tid: str) -> "TensorRange":
        if tid not in ranges:
            raise QuantizationError(f"missing calibration range for tensor {tid}")
        return ranges[tid]

    # Activation params in topological order so inheritance sources exist.
    for tid in g.graph_inputs:
        t = g.tensors[tid]
        t.quant = compute_qparams(require_range(tid))
        t.dtype = DType.INT8

    inherit = (OpKind.RELU, OpKind.MAX_POOL2D, OpKind.FLATTEN)
    for nid in order:
        node = nodes[nid]
        out = g.tensors[node.outputs[0]]
        if node.kind == OpKind.SOFTMAX:
            continue  # executes in Float32; output keeps its dtype
        if node.kind in inherit:
            src = g.tensors[node.inputs[0]]
            out.quant = QuantParams(
                scale=src.quant.scale,
                zero_point=src.quant.zero_point,
                symmetric=src.quant.symmetric,
            )
        else:
            out.quant = compute_qparams(require_range(out.id))
        out.dtype = DType.INT8

    # Weights, biases and per-node requant multipliers.
    quantized_constants: set[str] = set()
    for nid in order:
        node = nodes[nid]
        if node.kind in WEIGHT_CHANNEL_AXIS:
            axis = WEIGHT_CHANNEL_AXIS[node.kind]
            w = g.tensors[node.inputs[1]]
            if node.inputs[1] in quantized_constants:
                if w.quant.axis != axis:
                    raise QuantizationError(
                        f"weight {node.inputs[1]} shared across incompatible op kinds"
                    )
                wq = w.quant
            else:
                wq = per_channel_qparams(w.data, axis)
                w.quant = wq
                w.data = quantize_tensor(w.data, wq)
                w.dtype = DType.INT8
                quantized_constants.add(node.inputs[1])

            s_in = g.tensors[node.inputs[0]].quant.scale
            s_w = np.asarray(wq.scale, dtype=np.float64)
            s_out = g.tensors[node.outputs[0]].quant.scale
            node.attrs["requant"] = _requant_attr(s_in * s_w / s_out)

            if len(node.inputs) == 3 and node.inputs[2] not in quantized_constants:
                b = g.tensors[node.inputs[2]]
                bias_scale = s_in * s_w
                bq = round_half_away(np.asarray(b.data, dtype=np.float64) / bias_scale)
                if np.any(np.abs(bq) > _INT32_MAX):
                    raise QuantizationError(f"node {nid}: quantized bias exceeds Int32 range")
                b.quant = QuantParams(
                    scale=bias_scale,
                    zero_point=np.zeros(len(bias_scale), dtype=np.int64),
                    granularity="per_channel",
                    axis=0,
                    symmetric=True,
                )
                b.data = bq.astype(np.int32)
                b.dtype = DType.INT32
                quantized_constants.add(node.inputs[2])
        elif node.kind == OpKind.ADD:
            s_out = g.tensors[node.outputs[0]].quant.scale
            s_a = g.tensors[node.inputs[0]].quant.scale
            s_b = g.tensors[node.inputs[1]].quant.scale
            node.attrs["requant_a"] = _requant_attr(s_a / s_out)
            node.attrs["requant_b"] = _requant_attr(s_b / s_out)

    return g


def quantization_table_bytes(graph: GraphIR) -> int:
    """Bytes of scale/zero-point tables: 8 per channel entry, 8 per tensor."""
    total = 0
    for t in graph.tensors.values():
        if t.quant is None:
            continue
        if t.quant.granularity == "per_channel":
            total += 8 * len(np.atleast_1d(t.quant.scale))
        else:
            total += 8
    return total
