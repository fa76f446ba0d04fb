"""Post-training static INT8 quantization.

Real values map to signed 8-bit codes through r = S * (q - Z) with q
clamped to [-128, 127]. Weights are quantized per output channel
(symmetric, Z = 0), activations per tensor (asymmetric, range widened to
include zero so that padding and ReLU zeros are exact). Biases become
Int32 at scale S_input * S_weight. Rounding is half-away-from-zero
everywhere.

Requantization of 32-bit accumulators uses a 32-bit fixed-point
significand plus right shift. Only `requant_attrs` derives these tables
from the scales, which `quantize_graph` stores in node attrs,
`load_model` holds a manifest to and `prepare` runs: weighted nodes carry
per-channel `requant`, Add per-operand `requant_a`/`requant_b`. Concat
and AvgPool2D multipliers are derived at execution time.

Outputs of the `INHERITS_INPUT_PARAMS` kinds (ReLU, MaxPool2D, Flatten)
inherit their input's quantization parameters: these ops then operate
directly on codes, so only the `calibrated_tensors` need a range, and
fusing them with a neighbouring kernel cannot change the math. Every
node of a fused chain (`graph.fused_successor`) keeps its own
requantization, clip or dequantization and reads its producer's Int8
codes before they are stored, so the chain gives the same codes.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .graph import (
    QMAX,
    QMIN,
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    ShapeError,
    checked_order,
)

if TYPE_CHECKING:
    from .executor import TensorRange

# Weight output-structure axis by consuming op kind.
WEIGHT_CHANNEL_AXIS = {
    OpKind.CONV2D: 0,
    OpKind.DEPTHWISE_CONV2D: 3,
    OpKind.FULLY_CONNECTED: 0,
}

INT32_MAX = 2**31 - 1  # the int32 accumulator range is [-INT32_MAX, INT32_MAX]

# Op kinds whose output carries its input's parameters (Jacob et al., arXiv:1712.05877).
INHERITS_INPUT_PARAMS = frozenset({OpKind.RELU, OpKind.MAX_POOL2D, OpKind.FLATTEN})


def calibrated_tensors(graph: GraphIR) -> set[str]:
    """The tensors `quantize_graph` reads a range for: the graph inputs and
    the outputs of all nodes but Softmax and the `INHERITS_INPUT_PARAMS` kinds."""
    skip = INHERITS_INPUT_PARAMS | {OpKind.SOFTMAX}
    return {*graph.graph_inputs, *(n.outputs[0] for n in graph.nodes if n.kind not in skip)}


class QuantizationError(ValueError):
    pass


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest, ties away from zero (np.round ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def compute_qparams(rng: "TensorRange") -> QuantParams:
    """Asymmetric per-tensor scale/zero-point from an observed range.

    `TensorRange` holds finite floats with min <= max, so only the span
    is checked here. The range is widened to include 0, S = span / 255
    and Z = round(-128 - min/S) clamped to [-128, 127]. A degenerate
    all-zero range gets the convention S = 1, Z = 0; a span that
    overflows a float is refused.
    """
    lo, hi = min(rng.min, 0.0), max(rng.max, 0.0)
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
        zero_point=(0,) * len(scale),
        granularity="per_channel",
        axis=axis,
        symmetric=True,
    )


def _affine(qp: QuantParams, ndim: int) -> tuple:
    """`qp`'s (scale, zero point), per-channel ones shaped to broadcast
    along `axis` of a tensor of `ndim` axes."""
    if qp.granularity == "per_tensor":
        return qp.scale, qp.zero_point
    shape = [1] * ndim
    shape[qp.axis] = -1
    return np.reshape(qp.scale, shape), np.reshape(qp.zero_point, shape)


def quantize_tensor(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    """q = clamp(round(r / S) + Z, -128, 127) as int8."""
    r = np.asarray(values, dtype=np.float64)
    scale, zp = _affine(qp, r.ndim)
    q = round_half_away(r / scale) + zp
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def dequantize_tensor(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    """r = S * (q - Z), evaluated and returned in float64.

    Callers with Float32 graph semantics (the executor's output boundary)
    downcast; keeping the affine map in float64 preserves the S/2
    roundtrip bound at rounding ties.
    """
    q = np.asarray(q)
    scale, zp = _affine(qp, q.ndim)
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
    """round_half_away(acc * sig / 2**shift) in pure int64 arithmetic.

    floor((p + h - [p < 0]) / 2**s) with h = 2**(s-1) rounds p / 2**s half
    away from zero for either sign, and the arithmetic right shift is that
    floor. With |acc| <= 2**31, sig < 2**31 and shift <= 62, p + h < 2**63.
    `significand` and `shift` share one shape (one requant table).
    """
    acc = np.asarray(acc, dtype=np.int64)
    sig = np.asarray(significand, dtype=np.int64)
    sh = np.asarray(shift, dtype=np.int64)
    prod = acc * sig
    neg = prod < 0
    prod += np.left_shift(np.int64(1), sh - 1)
    prod -= neg
    prod >>= sh
    return prod


def _requant_attr(multiplier: np.ndarray | float) -> dict:
    sigs, shifts = zip(*(fixed_point_multiplier(m) for m in np.atleast_1d(multiplier).tolist()))
    if len(sigs) == 1:
        return {"significand": sigs[0], "shift": shifts[0]}
    return {"significand": list(sigs), "shift": list(shifts)}


def requant_attrs(graph: GraphIR, node: OpNode) -> dict:
    """`node`'s requant tables from its tensors' scales: a weighted node's
    `requant` (S_in * S_w / S_out), an Add's `requant_a` and `requant_b`."""
    if node.kind in WEIGHT_CHANNEL_AXIS:
        scales = {"requant": np.asarray(bias_params(graph, node).scale)}
    elif node.kind == OpKind.ADD:
        a, b = (graph.tensors[tid].quant.scale for tid in node.inputs)
        scales = {"requant_a": a, "requant_b": b}
    else:
        return {}
    s_out = graph.tensors[node.outputs[0]].quant.scale
    return {key: _requant_attr(scale / s_out) for key, scale in scales.items()}


def bias_params(graph: GraphIR, node: OpNode) -> QuantParams:
    """A weighted node's Int32 bias params: symmetric, per channel, S_in * S_w."""
    s_w = np.atleast_1d(graph.tensors[node.inputs[1]].quant.scale)
    scale = graph.tensors[node.inputs[0]].quant.scale * s_w
    return QuantParams(scale, (0,) * len(scale), "per_channel", axis=0, symmetric=True)


def quantize_graph(graph: GraphIR, ranges: Mapping[str, "TensorRange"]) -> GraphIR:
    """Produce a fully quantized copy of a Float32 graph.

    The `calibrated_tensors` need entries in `ranges`, and no other entry
    is read: weights and biases are quantized from their constant data.
    Graph structure is unchanged; only dtypes, quantization params and
    requant attrs differ. Deterministic: identical inputs give
    byte-identical graphs.
    """
    g = graph.copy()
    try:
        order = checked_order(g)
    except ShapeError as exc:
        raise QuantizationError(f"cannot quantize invalid graph: {exc}") from None
    for t in graph.tensors.values():
        if not t.is_constant and t.dtype != DType.FLOAT32:
            raise QuantizationError(f"tensor {t.id}: expected Float32 source graph")

    nodes = {n.id: n for n in g.nodes}

    def require_range(tid: str) -> "TensorRange":
        if tid not in ranges:
            raise QuantizationError(f"missing calibration range for tensor {tid}")
        return ranges[tid]

    # Activation params in topological order so inheritance sources exist.
    for tid in g.graph_inputs:
        t = g.tensors[tid]
        t.quant = compute_qparams(require_range(tid))
        t.dtype = DType.INT8

    for nid in order:
        node = nodes[nid]
        out = g.tensors[node.outputs[0]]
        if node.kind == OpKind.SOFTMAX:
            continue  # executes in Float32; output keeps its dtype
        if node.kind in INHERITS_INPUT_PARAMS:
            out.quant = g.tensors[node.inputs[0]].quant
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
            else:
                w.quant = per_channel_qparams(w.data, axis)
                w.data = quantize_tensor(w.data, w.quant)
                w.dtype = DType.INT8
                quantized_constants.add(node.inputs[1])
            if len(node.inputs) == 3 and node.inputs[2] in quantized_constants:
                if g.tensors[node.inputs[2]].quant != bias_params(g, node):
                    raise QuantizationError(f"bias {node.inputs[2]} shared at different scales")
            elif len(node.inputs) == 3:
                b = g.tensors[node.inputs[2]]
                b.quant = bias_params(g, node)
                bq = round_half_away(np.asarray(b.data, dtype=np.float64) / b.quant.scale)
                if np.any(np.abs(bq) > INT32_MAX):
                    raise QuantizationError(f"node {nid}: quantized bias exceeds Int32 range")
                b.data = bq.astype(np.int32)
                b.dtype = DType.INT32
                quantized_constants.add(node.inputs[2])
        node.attrs.update(requant_attrs(g, node))

    return g


def quantization_table_bytes(graph: GraphIR) -> int:
    """Bytes of scale/zero-point tables: 8 per channel entry, 8 per tensor."""
    return sum(8 * (len(t.quant.scale) if t.quant.granularity == "per_channel" else 1)
               for t in graph.tensors.values() if t.quant is not None)
