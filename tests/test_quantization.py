import json
import math
import re
from fractions import Fraction
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import (
    build_prune_plan,
    conv_relu_softmax,
    inception_graph,
    node,
    residual_chain_graph,
    skip_branch_graph,
)
from tinydeploy.executor import ExecutionError, TensorRange, calibrate, prepare
from tinydeploy.graph import DType, OpKind, QuantParams
from tinydeploy.model_io import ModelFormatError, json_text, load_model, save_model
from tinydeploy.pruning import materialize
from tinydeploy.quantization import (
    WEIGHT_CHANNEL_AXIS,
    QuantizationError,
    bias_params,
    compute_qparams,
    dequantize_tensor,
    fixed_point_multiplier,
    per_channel_qparams,
    quantize_graph,
    quantize_tensor,
    requant_attrs,
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


def test_overflow_wide_range_rejected():
    with pytest.raises(QuantizationError, match="too wide"):
        compute_qparams(TensorRange("t", -1e308, 1e308))


def test_degenerate_zero_range_convention():
    qp = compute_qparams(TensorRange("t", 0.0, 0.0))
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


@st.composite
def _requant_case(draw):
    """(int32 acc, significand in [0, 2^31), shift in [1, 62]), often a tie."""
    if draw(st.booleans()):
        # Exact tie: acc * sig = odd * 2**(shift - 1), split as acc = a * 2**i,
        # sig = b * 2**j with a, b odd and i + j = shift - 1.
        i, j = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        acc = (2 * draw(st.integers(0, 2**(30 - i) - 1)) + 1) << i
        sig = (2 * draw(st.integers(0, 2**(30 - j) - 1)) + 1) << j
        return draw(st.sampled_from([acc, -acc])), sig, i + j + 1
    return (
        draw(st.integers(-(2**31), 2**31 - 1)),
        draw(st.integers(0, 2**31 - 1)),
        draw(st.integers(1, 62)),
    )


@given(st.lists(_requant_case(), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_requantize_matches_exact_rounding(cases):
    acc, sig, shift = (np.array(col, dtype=np.int64) for col in zip(*cases))
    want = []
    for a, s, sh in cases:
        v = Fraction(a * s, 2**sh)
        mag = math.floor(abs(v) + Fraction(1, 2))
        want.append(mag if v >= 0 else -mag)
    np.testing.assert_array_equal(requantize_fixed_point(acc, sig, shift), want)
    a, s, sh = cases[0]
    assert requantize_fixed_point(a, s, sh) == want[0]


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
    conv = node(g, "conv1")
    s_in = g.tensors[conv.inputs[0]].quant.scale
    s_w = np.asarray(g.tensors[conv.inputs[1]].quant.scale)
    bias = g.tensors[conv.inputs[2]]
    assert bias.dtype == DType.INT32
    np.testing.assert_allclose(np.asarray(bias.quant.scale), s_in * s_w, rtol=1e-12)
    assert np.all(np.asarray(bias.quant.zero_point) == 0)


def test_inherited_params_for_order_preserving_ops(small_convnet_quantized):
    g = small_convnet_quantized
    relu = node(g, "conv1_relu")
    assert g.tensors[relu.inputs[0]].quant == g.tensors[relu.outputs[0]].quant
    pool = node(g, "pool1")
    assert g.tensors[pool.inputs[0]].quant == g.tensors[pool.outputs[0]].quant
    flat = node(g, "flatten")
    assert g.tensors[flat.inputs[0]].quant == g.tensors[flat.outputs[0]].quant


def _branchy():
    """The bench's seeded branchy graph generator (`bench/branchy.py`)."""
    spec = spec_from_file_location("branchy", Path(__file__).parents[1] / "bench" / "branchy.py")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _seeded_inputs(graph, count=4):
    rng = np.random.default_rng(3)
    shape = graph.tensors[graph.graph_inputs[0]].shape
    return [rng.normal(size=shape).astype(np.float32) for _ in range(count)]


@pytest.fixture(scope="module")
def quantized_graphs(small_convnet, dwsep_net, test_samples):
    """Graphs as `quantize_graph` makes them, by name: both bundled models
    pruned and unpruned (`prune.skip`), graphutil's skip-branch, residual
    and inception graphs, and every compile_branchy seed-1 graph, pruned."""
    samples = [s[1] for s in test_samples[:32]]
    sources = {}
    for g in (small_convnet, dwsep_net):
        sources[g.name] = (g, samples)
        sources[f"{g.name}_pruned"] = (materialize(g, build_prune_plan(g)), samples)
    for build in (skip_branch_graph, residual_chain_graph, inception_graph):
        g = build()
        sources[g.name] = (g, _seeded_inputs(g))
    branchy = _branchy()
    for i, g in enumerate(branchy.make_graph_set(1, 30)):
        sources[g.name] = (materialize(g, build_prune_plan(g)),
                           branchy.calibration_inputs(g, 1, i, 4))
    return {name: quantize_graph(g, calibrate(g, inputs)) for name, (g, inputs) in sources.items()}


def test_every_quantized_graph_survives_save_and_load(tmp_path, quantized_graphs):
    kinds = set()
    for name, graph in quantized_graphs.items():
        save_model(graph, tmp_path / name)
        loaded = load_model(tmp_path / f"{name}.json")
        for n in loaded.nodes:
            kinds.add(n.kind)
            tables = requant_attrs(loaded, n)
            assert json_text(tables) == json_text({key: n.attrs[key] for key in tables})
            if n.kind in WEIGHT_CHANNEL_AXIS and len(n.inputs) == 3:
                assert loaded.tensors[n.inputs[2]].quant == bias_params(loaded, n)
    assert {OpKind.ADD, OpKind.CONCAT, OpKind.DEPTHWISE_CONV2D, OpKind.AVG_POOL2D} <= kinds


def _significand_plus_one(manifest):
    significand = _attrs(manifest, "conv1")["requant"]["significand"]
    significand[0] += 1
    return f"node conv1 requant[significand][0]: {significand[0]} != {significand[0] - 1}"


def _shift_as_float(manifest):
    shift = _attrs(manifest, "conv1")["requant"]["shift"]
    shift[0] = float(shift[0])
    return f"node conv1 requant[shift][0]: {shift[0]!r} != {int(shift[0])}"


def _bias_scale_one_ulp_down(manifest):
    scale = manifest["tensors"]["conv1_b"]["quant"]["scale"]
    derived, scale[0] = scale[0], math.nextafter(scale[0], 0.0)
    return f"node conv1 bias conv1_b scale[0]: {scale[0]!r} != {derived!r}"


def _add_operands_swapped(manifest):
    attrs = _attrs(manifest, "add1")
    a, b = attrs["requant_a"], attrs["requant_b"]
    assert a != b  # the operands' scales differ
    attrs["requant_a"], attrs["requant_b"] = b, a
    first = next(key for key in ("significand", "shift") if a[key] != b[key])
    return f"node add1 requant_a[{first}]: {b[first]!r} != {a[first]!r}"


def _attrs(manifest, nid):
    return next(n for n in manifest["nodes"] if n["id"] == nid)["attrs"]


@pytest.mark.parametrize("model, mutate", [
    ("small_convnet", _significand_plus_one),
    ("small_convnet", _shift_as_float),
    ("dwsep_net", _bias_scale_one_ulp_down),
    ("residual_chain", _add_operands_swapped),
], ids=["significand_plus_one", "shift_as_float", "bias_scale_one_ulp", "add_operands_swapped"])
def test_load_refuses_tables_the_scales_do_not_derive(tmp_path, quantized_graphs, model, mutate):
    manifest_path, _ = save_model(quantized_graphs[model], tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    message = mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model(manifest_path)


def test_load_refuses_scales_without_a_requant_table(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(quantize_graph(g, calibrate(g, _seeded_inputs(g))), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"]["conv_out"]["quant"]["scale"] = 1e-300  # S_in * S_w / S_out >= 2**30
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=r"^node conv: requant multiplier .* out of supported"):
        load_model(manifest_path)


def test_a_float_weight_loads_and_prepare_names_it(tmp_path):
    # No scales, no tables to derive: `load_model` leaves the node to `prepare`.
    g = conv_relu_softmax()
    q = quantize_graph(g, calibrate(g, _seeded_inputs(g)))
    w = q.tensors["w"]
    w.dtype, w.data, w.quant = DType.FLOAT32, w.data.astype(np.float32), None
    save_model(q, tmp_path / "m")
    with pytest.raises(ExecutionError, match="node conv: weights are not Int8"):
        prepare(load_model(tmp_path / "m.json"))


def test_quantize_refuses_a_bias_shared_at_different_scales():
    g = residual_chain_graph()
    b1 = node(g, "b1")
    b1.inputs[2] = "stem_b"  # the stem's 8-channel bias, read at b1's scales too
    del g.tensors["b1_b"]
    with pytest.raises(QuantizationError, match="bias stem_b shared at different scales"):
        quantize_graph(g, calibrate(g, _seeded_inputs(g)))
