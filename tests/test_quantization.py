import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import conv_relu_softmax
from tinydeploy.executor import TensorRange, calibrate
from tinydeploy.graph import DType, QuantParams
from tinydeploy.model_io import save_model
from tinydeploy.quantization import (
    QuantizationError,
    compute_qparams,
    dequantize_tensor,
    fixed_point_multiplier,
    per_channel_qparams,
    quantize_graph,
    quantize_tensor,
    requantize_fixed_point,
    round_half_away,
)


def test_round_half_away_from_zero():
    x = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.4])
    np.testing.assert_array_equal(round_half_away(x), [1, 2, -1, -2, 2, -2])


def test_asymmetric_qparams_example():
    # solve the affine endpoint equations for range (-1.0, 1.55):
    # S = (1.55 - (-1.0)) / 255 = 0.01, Z = round(-128 + 1.0/0.01) = -28
    qp = compute_qparams(TensorRange("t", -1.0, 1.55))
    assert qp.scale == pytest.approx(0.01, abs=1e-12)
    assert qp.zero_point == -28
    assert qp.scale * (-128 - qp.zero_point) == pytest.approx(-1.0, abs=1e-9)
    assert qp.scale * (127 - qp.zero_point) == pytest.approx(1.55, abs=1e-9)
    assert qp.scale * (qp.zero_point - qp.zero_point) == 0.0


def test_symmetric_qparams_example():
    qp = compute_qparams(TensorRange("t", -2.54, 2.2), mode="symmetric")
    assert qp.scale == pytest.approx(2.54 / 127, abs=1e-12)
    assert qp.scale == pytest.approx(0.02, abs=1e-12)
    assert qp.zero_point == 0


def test_overflow_wide_range_rejected():
    with pytest.raises(QuantizationError, match="too wide"):
        compute_qparams(TensorRange("t", -1e308, 1e308))


def test_degenerate_zero_range_convention():
    qp = compute_qparams(TensorRange("t", 0.0, 0.0))
    assert (qp.scale, qp.zero_point) == (1.0, 0)
    qp = compute_qparams(TensorRange("t", 0.0, 0.0), mode="symmetric")
    assert (qp.scale, qp.zero_point) == (1.0, 0)


def test_quantize_example_forward_backward():
    qp = QuantParams(scale=0.01, zero_point=-28)
    q = quantize_tensor(np.array([1.0]), qp)
    assert q[0] == 72
    assert dequantize_tensor(q, qp)[0] == pytest.approx(1.0, abs=1e-7)


def test_quantize_saturates():
    qp = QuantParams(scale=0.01, zero_point=-28)
    assert quantize_tensor(np.array([10.0]), qp)[0] == 127
    assert quantize_tensor(np.array([-10.0]), qp)[0] == -128


@given(
    lo=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    width=st.floats(min_value=1e-6, max_value=1e4, allow_nan=False),
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_bound_property(lo, width, frac):
    hi = lo + width
    qp = compute_qparams(TensorRange("t", lo, hi))
    # in-range r over the widened range [min', max']
    lo_w, hi_w = min(lo, 0.0), max(hi, 0.0)
    r = lo_w + frac * (hi_w - lo_w)
    err = abs(float(dequantize_tensor(quantize_tensor(np.array([r]), qp), qp)[0]) - r)
    assert err <= qp.scale / 2 * (1 + 1e-9) + 1e-12


@given(
    lo=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    width=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_zero_exactly_representable_property(lo, width):
    qp = compute_qparams(TensorRange("t", lo, lo + width))
    z = dequantize_tensor(quantize_tensor(np.array([0.0]), qp), qp)[0]
    assert z == 0.0


def test_per_channel_beats_per_tensor_error():
    rng = np.random.default_rng(0)
    # channels with very different magnitudes
    w = rng.normal(size=(4, 3, 3, 2)) * np.array([0.01, 0.1, 1.0, 10.0]).reshape(4, 1, 1, 1)
    per_ch = per_channel_qparams(w, axis=0)
    bound = np.abs(w).max()
    per_tensor = QuantParams(scale=bound / 127.0, zero_point=0, symmetric=True)
    err_ch = np.abs(dequantize_tensor(quantize_tensor(w, per_ch), per_ch) - w)
    err_t = np.abs(dequantize_tensor(quantize_tensor(w, per_tensor), per_tensor) - w)
    for c in range(4):
        assert err_ch[c].max() <= err_t[c].max() + 1e-12


def test_fixed_point_multiplier_encoding():
    for m in (1.0, 0.5, 0.123456, 3.75, 1e-6, 200.0):
        sig, shift = fixed_point_multiplier(m)
        assert 2**30 <= sig <= 2**31
        assert abs(sig / 2.0**shift - m) <= m * 2.0**-30
    with pytest.raises(QuantizationError):
        fixed_point_multiplier(0.0)
    with pytest.raises(QuantizationError):
        fixed_point_multiplier(-1.0)


def test_requantize_unit_multiplier_identity():
    sig, shift = fixed_point_multiplier(1.0)
    acc = np.arange(-300, 300, dtype=np.int64)
    np.testing.assert_array_equal(requantize_fixed_point(acc, sig, shift), acc)


def _exact_round_half_away(acc: int, m: float) -> int:
    v = Fraction(acc) * Fraction(m)
    mag = math.floor(abs(v) + Fraction(1, 2))
    return mag if v >= 0 else -mag


@pytest.mark.parametrize("m,raw_shift", [
    (1.5 * 2.0**-32, 62),
    (1.5 * 2.0**-33, 63),
    (8e-11, 64),
    (1e-300, 1027),
])
def test_requantize_exact_at_large_shifts(m, raw_shift):
    assert 31 - math.frexp(m)[1] == raw_shift
    sig, shift = fixed_point_multiplier(m)
    assert 1 <= shift <= 62
    if raw_shift >= 63:
        # below 2**-32 every int32 accumulator maps to magnitude < 0.5
        assert sig == 0
    acc = np.array([2**31 - 1, -(2**31 - 1), 2**30, -(2**30), 5, -5, 0], dtype=np.int64)
    want = [_exact_round_half_away(int(a), m) for a in acc]
    np.testing.assert_array_equal(requantize_fixed_point(acc, sig, shift), want)


def test_requantize_rounds_half_away():
    sig, shift = fixed_point_multiplier(0.5)
    acc = np.array([1, 3, -1, -3], dtype=np.int64)
    np.testing.assert_array_equal(requantize_fixed_point(acc, sig, shift), [1, 2, -1, -2])


def test_quantize_graph_weight_bytes_quarter(small_convnet, small_convnet_quantized):
    from tinydeploy.graph import TensorKind

    def wbytes(g):
        return sum(
            t.size_bytes for t in g.tensors.values() if t.kind == TensorKind.WEIGHT
        )

    assert wbytes(small_convnet_quantized) * 4 == wbytes(small_convnet)


def test_quantize_graph_structure_unchanged(small_convnet, small_convnet_quantized):
    assert [n.id for n in small_convnet_quantized.nodes] == [n.id for n in small_convnet.nodes]
    assert [n.kind for n in small_convnet_quantized.nodes] == [n.kind for n in small_convnet.nodes]
    for a, b in zip(small_convnet.nodes, small_convnet_quantized.nodes):
        assert a.inputs == b.inputs and a.outputs == b.outputs


def test_quantize_graph_deterministic(tmp_path, small_convnet, test_samples):
    ranges = calibrate(small_convnet, [s[1] for s in test_samples[:8]])
    qa = quantize_graph(small_convnet, ranges)
    qb = quantize_graph(small_convnet, ranges)
    save_model(qa, tmp_path / "a")
    save_model(qb, tmp_path / "b")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_quantize_graph_missing_range_names_tensor():
    g = conv_relu_softmax()
    ranges = calibrate(g, [np.zeros((1, 8, 8, 3), dtype=np.float32)])
    del ranges["conv_out"]
    with pytest.raises(QuantizationError, match="conv_out"):
        quantize_graph(g, ranges)


def test_bias_scale_is_input_times_weight(small_convnet_quantized):
    g = small_convnet_quantized
    conv = g.node("conv1")
    s_in = g.tensors[conv.inputs[0]].quant.scale
    s_w = np.asarray(g.tensors[conv.inputs[1]].quant.scale)
    bias = g.tensors[conv.inputs[2]]
    assert bias.dtype == DType.INT32
    np.testing.assert_allclose(np.asarray(bias.quant.scale), s_in * s_w, rtol=1e-12)
    assert np.all(np.asarray(bias.quant.zero_point) == 0)


def test_inherited_params_for_order_preserving_ops(small_convnet_quantized):
    g = small_convnet_quantized
    relu = g.node("conv1_relu")
    assert g.tensors[relu.inputs[0]].quant.equals(g.tensors[relu.outputs[0]].quant)
    pool = g.node("pool1")
    assert g.tensors[pool.inputs[0]].quant.equals(g.tensors[pool.outputs[0]].quant)
    flat = g.node("flatten")
    assert g.tensors[flat.inputs[0]].quant.equals(g.tensors[flat.outputs[0]].quant)
