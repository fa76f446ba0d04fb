import numpy as np
import pytest

from graphutil import conv_attrs, per_sample_records, record_tuples
from tinydeploy.executor import (
    EVAL_CHUNK,
    AccumulatorOverflowError,
    ExecutionError,
    calibrate,
    evaluate,
    prepare,
    run_f32,
    run_int8,
)
from tinydeploy.graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    TensorKind,
    TensorSpec,
    infer_shapes,
)
from tinydeploy.quantization import fixed_point_multiplier, quantize_graph


def unit_qp():
    return QuantParams(scale=1.0, zero_point=0)


def unit_requant():
    sig, shift = fixed_point_multiplier(1.0)
    return {"significand": sig, "shift": shift}


def unit_scale_conv_graph(weights, bias, in_shape):
    """Hand-quantized graph with S=1, Z=0 everywhere."""
    w = np.asarray(weights, dtype=np.int8)
    b = np.asarray(bias, dtype=np.int32)
    out_c = w.shape[0]
    per_ch = QuantParams(
        scale=np.ones(out_c), zero_point=np.zeros(out_c, dtype=np.int64),
        granularity="per_channel", axis=0, symmetric=True,
    )
    requant = {
        "significand": [unit_requant()["significand"]] * out_c,
        "shift": [unit_requant()["shift"]] * out_c,
    }
    nodes = [OpNode("conv", OpKind.CONV2D, {**conv_attrs(kernel=w.shape[1]), "requant": requant},
                    ["in", "w", "b"], ["out"])]
    tensors = [
        TensorSpec("in", in_shape, DType.INT8, TensorKind.INPUT, quant=unit_qp()),
        TensorSpec("w", w.shape, DType.INT8, TensorKind.WEIGHT, quant=per_ch, data=w),
        TensorSpec("b", b.shape, DType.INT32, TensorKind.BIAS,
                   quant=QuantParams(scale=np.ones(out_c), zero_point=np.zeros(out_c, dtype=np.int64),
                                     granularity="per_channel", axis=0, symmetric=True),
                   data=b),
        TensorSpec("out", (1, 1), DType.INT8, TensorKind.ACTIVATION, quant=unit_qp()),
    ]
    g = GraphIR("unit", nodes, {t.id: t for t in tensors}, ["in"], ["out"])
    return infer_shapes(g)[0]


def test_unit_scale_identity_conv_exact():
    g = unit_scale_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 4, 4, 1))
    x = np.array(
        np.random.default_rng(0).integers(-100, 100, size=(1, 4, 4, 1)), dtype=np.float32
    )
    out = run_int8(g, x)["out"]
    np.testing.assert_array_equal(out, x)


def test_unit_scale_matches_float_exactly():
    rng = np.random.default_rng(1)
    w = rng.integers(-3, 4, size=(2, 3, 3, 1))
    b = rng.integers(-5, 6, size=(2,))
    g = unit_scale_conv_graph(w, b, (1, 5, 5, 1))
    x = np.array(rng.integers(-20, 21, size=(1, 5, 5, 1)), dtype=np.float32)

    gf = g.copy()
    for t in gf.tensors.values():
        t.quant = None
        t.dtype = DType.FLOAT32
        if t.data is not None:
            t.data = t.data.astype(np.float32)
    gf.nodes[0].attrs.pop("requant")

    np.testing.assert_array_equal(run_int8(g, x)["out"], run_f32(gf, x)["out"])


def test_accumulator_overflow_reported():
    w = np.full((1, 1, 1, 1), 127, dtype=np.int8)
    g = unit_scale_conv_graph(w, np.array([2**31 - 10], dtype=np.int64), (1, 1, 1, 1))
    with pytest.raises(AccumulatorOverflowError, match="conv"):
        run_int8(g, np.array([[[[100.0]]]], dtype=np.float32))

    # The same overflow in a later evaluate chunk: only the last sample overflows.
    g.nodes += [
        OpNode("flat", OpKind.FLATTEN, {}, ["out"], ["flat_out"]),
        OpNode("softmax", OpKind.SOFTMAX, {}, ["flat_out"], ["probs"]),
    ]
    g.graph_outputs = ["probs"]
    g.tensors["flat_out"] = TensorSpec("flat_out", (1, 1), DType.INT8, TensorKind.ACTIVATION,
                                       quant=unit_qp())
    g.tensors["probs"] = TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT)
    zero = np.zeros((1, 1, 1, 1), dtype=np.float32)
    records, _ = evaluate(g, [(zero, 0)] * (EVAL_CHUNK + 1))
    assert len(records) == EVAL_CHUNK + 1
    with pytest.raises(AccumulatorOverflowError, match="conv"):
        evaluate(g, [(zero, 0)] * (EVAL_CHUNK + 3) + [(np.full_like(zero, 100.0), 0)])


def test_int8_gemm_exact_at_extreme_codes():
    # Largest centered codes and weights, K = 4096: the float64 GEMM must
    # give the int64 product exactly.
    from tinydeploy.executor import _int8_gemm

    rng = np.random.default_rng(12)
    k = 4096
    centered = rng.choice([-255, 255], size=(24, k)).astype(np.int64)
    centered[0] = 255
    w = rng.choice([-128, 127], size=(8, k)).astype(np.int64)
    w[0], w[1] = -128, 127
    w[1, 0] = -128  # an odd total above 2**24, which float32 cannot hold
    got = _int8_gemm(centered.astype(np.float64), w.astype(np.float64).T)
    want = centered @ w.T
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert (want[0, 0], want[0, 1]) == (-255 * 128 * k, 255 * (127 * (k - 1) - 128))


@pytest.mark.parametrize("field,value,message", [
    ("shift", 64, "requant outside"),
    ("significand", 2**31, "requant outside"),
    ("zero_point", 200, "zero point 200 outside"),
])
def test_prepare_rejects_out_of_range_tables(field, value, message):
    # Manifest values under which the int64 requantization or the exact
    # float64 GEMM would go wrong are refused before anything runs.
    g = unit_scale_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 4, 4, 1))
    if field == "zero_point":
        g.tensors["in"].quant = QuantParams(scale=1.0, zero_point=value)
    else:
        g.nodes[0].attrs["requant"][field] = [value]
    with pytest.raises(ExecutionError, match=message):
        prepare(g)


def test_bit_identical_intermediates_across_runs(small_convnet_quantized, test_samples):
    x = test_samples[0][1]
    t1, t2 = {}, {}
    run_int8(small_convnet_quantized, x, trace=t1)
    run_int8(small_convnet_quantized, x, trace=t2)
    for tid in t1:
        np.testing.assert_array_equal(t1[tid], t2[tid])
        if t1[tid].dtype == np.int8:
            assert t1[tid].tobytes() == t2[tid].tobytes()


def test_quantized_outputs_close_to_float_at_logits(small_convnet, test_samples):
    """Mean |int8 - f32| at the logits stays under 3 output scales."""
    g = small_convnet.copy()
    # drop the softmax so the graph output carries an output scale
    softmax = g.nodes[-1]
    assert softmax.kind == OpKind.SOFTMAX
    g.nodes = g.nodes[:-1]
    logits = softmax.inputs[0]
    g.tensors[logits].kind = TensorKind.OUTPUT
    del g.tensors[softmax.outputs[0]]
    g.graph_outputs = [logits]
    g, _ = infer_shapes(g)

    ranges = calibrate(g, [s[1] for s in test_samples[:32]])
    qg = quantize_graph(g, ranges)
    scale = qg.tensors[logits].quant.scale
    diffs = []
    for _, x, _ in test_samples[:50]:
        f = run_f32(g, x)[logits]
        q = run_int8(qg, x)[logits]
        diffs.append(np.abs(f - q).mean())
    assert float(np.mean(diffs)) < 3 * scale


def test_top1_agreement_small_convnet(small_convnet, small_convnet_quantized, test_samples):
    rf, _ = evaluate(small_convnet, test_samples)
    rq, _ = evaluate(small_convnet_quantized, test_samples)
    agreement = np.mean([a.predicted_class == b.predicted_class for a, b in zip(rf, rq)])
    assert agreement >= 0.90


@pytest.mark.parametrize("model", ["small_convnet_quantized", "dwsep_net_quantized"])
def test_evaluate_matches_per_sample_run_int8(model, request, test_samples):
    graph = request.getfixturevalue(model)
    samples = test_samples[:37]  # a partial last chunk
    records, _ = evaluate(graph, samples)
    assert record_tuples(records) == per_sample_records(run_int8, graph, samples)


def test_int8_add_requantizes_operands():
    # x + x with distinct operand/output scales, checked against direct math
    sig_a, shift_a = fixed_point_multiplier(0.5 / 0.25)
    nodes = [OpNode("add", OpKind.ADD, {
        "requant_a": {"significand": sig_a, "shift": shift_a},
        "requant_b": {"significand": sig_a, "shift": shift_a},
    }, ["a", "a"], ["out"])]
    tensors = [
        TensorSpec("a", (1, 4), DType.INT8, TensorKind.INPUT,
                   quant=QuantParams(scale=0.5, zero_point=10)),
        TensorSpec("out", (1, 4), DType.INT8, TensorKind.ACTIVATION,
                   quant=QuantParams(scale=0.25, zero_point=-3)),
    ]
    g = GraphIR("add", nodes, {t.id: t for t in tensors}, ["a"], ["out"])
    g, _ = infer_shapes(g)
    x = np.array([[1.0, -2.0, 0.5, 3.0]], dtype=np.float32)
    trace = {}
    run_int8(g, x, trace=trace)
    # oracle: q_a = round(r/0.5)+10; each operand requantized by 0.5/0.25 = 2
    q_a = np.clip(np.sign(x / 0.5) * np.floor(np.abs(x / 0.5) + 0.5) + 10, -128, 127)
    t = (q_a - 10) * 2
    expect = np.clip(t + t - 3, -128, 127).astype(np.int8)
    np.testing.assert_array_equal(trace["out"], expect)


def test_int8_concat_requantizes_each_input():
    # inputs at different scales concatenated into a common output scale
    qa = QuantParams(scale=0.5, zero_point=4)
    qb = QuantParams(scale=0.25, zero_point=-8)
    qo = QuantParams(scale=0.125, zero_point=0)
    nodes = [
        OpNode("r1", OpKind.RELU, {}, ["a"], ["ar"]),
        OpNode("r2", OpKind.RELU, {}, ["b"], ["br"]),
        OpNode("cat", OpKind.CONCAT, {"axis": 3}, ["ar", "br"], ["out"]),
    ]
    tensors = {
        "a": TensorSpec("a", (1, 2, 2, 1), DType.INT8, TensorKind.INPUT, quant=qa),
        "b": TensorSpec("b", (1, 2, 2, 1), DType.INT8, TensorKind.INPUT, quant=qb),
        "ar": TensorSpec("ar", (1, 2, 2, 1), DType.INT8, TensorKind.ACTIVATION,
                         quant=QuantParams(scale=0.5, zero_point=4)),
        "br": TensorSpec("br", (1, 2, 2, 1), DType.INT8, TensorKind.ACTIVATION,
                         quant=QuantParams(scale=0.25, zero_point=-8)),
        "out": TensorSpec("out", (1, 2, 2, 2), DType.INT8, TensorKind.ACTIVATION, quant=qo),
    }
    g = GraphIR("cat", nodes, tensors, ["a", "b"], ["out"])
    g, _ = infer_shapes(g)
    # Program.run takes one graph input; drive the prepared steps directly
    import tinydeploy.quantization as q

    env = {
        "a": q.quantize_tensor(np.array([[1.0, -2.0], [0.5, 3.0]]).reshape(1, 2, 2, 1), qa),
        "b": q.quantize_tensor(np.array([[0.25, 1.5], [-1.0, 2.0]]).reshape(1, 2, 2, 1), qb),
    }
    for step in prepare(g).steps:
        env[step.output] = step.run(env)
    out = env["out"]
    assert out.shape == (1, 2, 2, 2)
    # oracle: requantize each centered code by S_i/S_o then add Z_o
    for part, tid, qp in ((0, "ar", qa), (1, "br", qb)):
        centered = env[tid].astype(np.int64) - qp.zero_point
        m = qp.scale / qo.scale
        expect = np.clip(np.sign(centered * m) * np.floor(np.abs(centered * m) + 0.5)
                         + qo.zero_point, -128, 127)
        np.testing.assert_array_equal(out[..., part], expect.reshape(1, 2, 2))


def test_int8_avgpool_same_padding_close_to_float():
    # SAME padding gives per-window valid-cell counts of 4, 2 and 1
    from graphutil import act
    from tinydeploy.executor import calibrate
    from tinydeploy.quantization import quantize_graph

    nodes = [OpNode("pool", OpKind.AVG_POOL2D, {
        "kernel_h": 2, "kernel_w": 2, "stride_h": 2, "stride_w": 2, "padding": "SAME",
    }, ["in"], ["out"])]
    tensors = {
        "in": TensorSpec("in", (1, 3, 3, 2), DType.FLOAT32, TensorKind.INPUT),
        "out": TensorSpec("out", (1, 1), DType.FLOAT32, TensorKind.ACTIVATION),
    }
    g, _ = infer_shapes(GraphIR("ap", nodes, tensors, ["in"], ["out"]))
    rng = np.random.default_rng(8)
    samples = [rng.normal(0, 2, size=(1, 3, 3, 2)).astype(np.float32) for _ in range(4)]
    qg = quantize_graph(g, calibrate(g, samples))
    scale_out = qg.tensors["out"].quant.scale
    for x in samples:
        f = run_f32(g, x)["out"]
        qf = run_int8(qg, x)["out"]
        assert np.abs(f - qf).max() <= 2 * scale_out  # two roundings: input + output


def test_int8_maxpool_same_padding_exact():
    # padded cells (QMIN) can never win; result matches float maxpool exactly
    from tinydeploy.executor import calibrate
    from tinydeploy.quantization import quantize_graph, dequantize_tensor

    nodes = [OpNode("pool", OpKind.MAX_POOL2D, {
        "kernel_h": 2, "kernel_w": 2, "stride_h": 2, "stride_w": 2, "padding": "SAME",
    }, ["in"], ["out"])]
    tensors = {
        "in": TensorSpec("in", (1, 3, 3, 1), DType.FLOAT32, TensorKind.INPUT),
        "out": TensorSpec("out", (1, 1), DType.FLOAT32, TensorKind.ACTIVATION),
    }
    g, _ = infer_shapes(GraphIR("mp", nodes, tensors, ["in"], ["out"]))
    rng = np.random.default_rng(9)
    samples = [rng.normal(0, 2, size=(1, 3, 3, 1)).astype(np.float32) for _ in range(4)]
    qg = quantize_graph(g, calibrate(g, samples))
    for x in samples:
        trace = {}
        run_int8(qg, x, trace=trace)
        # max over codes == quantize(max over dequantized values)
        codes = trace["in"]
        want = codes.reshape(3, 3).max()  # 2x2 stride-2 SAME over 3x3: window (0,0) covers 2x2 etc.
        got = trace["out"].reshape(2, 2)
        assert got.max() == want


def test_run_int8_requires_quantized_graph(small_convnet):
    with pytest.raises(ExecutionError, match="quantized"):
        run_int8(small_convnet, np.zeros((1, 32, 32, 3), dtype=np.float32))


def test_run_f32_rejects_quantized_graph(small_convnet_quantized):
    with pytest.raises(ExecutionError, match="float32"):
        run_f32(small_convnet_quantized, np.zeros((1, 32, 32, 3), dtype=np.float32))


def test_dwsep_net_int8_runs_and_agrees(dwsep_net, dwsep_net_quantized, test_samples):
    rf, _ = evaluate(dwsep_net, test_samples[:60])
    rq, _ = evaluate(dwsep_net_quantized, test_samples[:60])
    agreement = np.mean([a.predicted_class == b.predicted_class for a, b in zip(rf, rq)])
    assert agreement >= 0.90
