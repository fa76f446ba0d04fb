import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import conv_attrs, naive_depthwise_acc, per_sample_records, record_tuples
from tinydeploy import executor
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
    QMAX,
    QMIN,
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    TensorKind,
    TensorSpec,
    infer_shapes,
)
from tinydeploy.model_io import ModelFormatError, load_model, save_model
from tinydeploy.quantization import INT32_MAX, fixed_point_multiplier, quantize_graph, requant_attrs


def unit_qp():
    return QuantParams(scale=1.0, zero_point=0)


def unit_scale_conv_graph(weights, bias, in_shape, kind=OpKind.CONV2D, zp_in=0):
    """Hand-quantized Conv2D, DepthwiseConv2D or FullyConnected graph with
    S=1 everywhere and Z=0 except at the input, storing the requant table
    its scales derive (a unit multiplier per channel)."""
    w = np.asarray(weights, dtype=np.int8)
    b = np.asarray(bias, dtype=np.int32)
    axis = 3 if kind == OpKind.DEPTHWISE_CONV2D else 0
    out_c = w.shape[axis]
    per_ch = QuantParams(
        scale=np.ones(out_c), zero_point=np.zeros(out_c, dtype=np.int64),
        granularity="per_channel", axis=axis, symmetric=True,
    )
    attrs = {} if kind == OpKind.FULLY_CONNECTED else conv_attrs(kernel=w.shape[1])
    nodes = [OpNode("conv", kind, attrs, ["in", "w", "b"], ["out"])]
    tensors = [
        TensorSpec("in", in_shape, DType.INT8, TensorKind.INPUT,
                   quant=QuantParams(scale=1.0, zero_point=zp_in)),
        TensorSpec("w", w.shape, DType.INT8, TensorKind.WEIGHT, quant=per_ch, data=w),
        TensorSpec("b", b.shape, DType.INT32, TensorKind.BIAS,
                   quant=QuantParams(scale=np.ones(out_c), zero_point=np.zeros(out_c, dtype=np.int64),
                                     granularity="per_channel", axis=0, symmetric=True),
                   data=b),
        TensorSpec("out", (1, 1), DType.INT8, TensorKind.ACTIVATION, quant=unit_qp()),
    ]
    g = infer_shapes(GraphIR("unit", nodes, {t.id: t for t in tensors}, ["in"], ["out"]))[0]
    g.nodes[0].attrs.update(requant_attrs(g, g.nodes[0]))
    return g


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


def overflowing_conv_graph():
    """A 1x1 Conv2D whose accumulator passes INT32_MAX for inputs above 9."""
    w = np.full((1, 1, 1, 1), 127, dtype=np.int8)
    return unit_scale_conv_graph(w, np.array([2**31 - 10], dtype=np.int64), (1, 1, 1, 1))


def test_accumulator_overflow_reported():
    with pytest.raises(AccumulatorOverflowError, match="conv"):
        run_int8(overflowing_conv_graph(), np.array([[[[100.0]]]], dtype=np.float32))


def test_evaluate_refuses_an_overflowing_graph_before_any_sample_runs(monkeypatch):
    g = overflowing_conv_graph()
    g.nodes += [
        OpNode("flat", OpKind.FLATTEN, {}, ["out"], ["flat_out"]),
        OpNode("softmax", OpKind.SOFTMAX, {}, ["flat_out"], ["probs"]),
    ]
    g.graph_outputs = ["probs"]
    g.tensors["flat_out"] = TensorSpec("flat_out", (1, 1), DType.INT8, TensorKind.ACTIVATION,
                                       quant=unit_qp())
    g.tensors["probs"] = TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT)
    monkeypatch.setattr(executor, "map_batches", lambda *_: pytest.fail("a sample ran"))
    zero = np.zeros((1, 1, 1, 1), dtype=np.float32)
    with pytest.raises(AccumulatorOverflowError, match="node conv:"):
        evaluate(g, [(zero, 0)] * (EVAL_CHUNK + 1))


def test_int8_gemm_exact_at_extreme_codes():
    # Largest centered codes and weights, K = 4096: past float32's exact
    # bound, the float64 GEMM must give the int64 product exactly.
    from tinydeploy.executor import _int8_gemm

    rng = np.random.default_rng(12)
    k = 4096
    centered = rng.choice([-255, 255], size=(24, k)).astype(np.int64)
    centered[0] = 255
    w = rng.choice([-128, 127], size=(8, k)).astype(np.int64)
    w[0], w[1] = -128, 127
    w[1, 0] = -128  # an odd total above 2**24, which float32 cannot hold
    got = _int8_gemm(centered, w.T)
    want = centered @ w.T
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.astype(np.int64), want)
    assert (want[0, 0], want[0, 1]) == (-255 * 128 * k, 255 * (127 * (k - 1) - 128))


@pytest.mark.parametrize("kind", [OpKind.CONV2D, OpKind.FULLY_CONNECTED])
@pytest.mark.parametrize("k, acc_type", [(514, np.float32), (515, np.float64)])
def test_int8_weighted_exact_at_float32_bound(kind, k, acc_type):
    # K = 514 products of magnitude 255 * 128 sum to at most 16776960, below
    # 2**24, so float32 holds every partial sum; K = 515 reaches 16809600
    # and must take float64. Channel 2 sums to the odd -255 * (128 * K - 1),
    # which float32 cannot hold past 2**24.
    assert executor._acc_dtype(k) is acc_type
    rng = np.random.default_rng(k)
    w = np.full((3, k), -128, dtype=np.int8)
    w[1] = rng.choice([-128, 127], size=k)
    w[2, 0] = -127
    codes = np.full((2, k), 127, dtype=np.int8)
    codes[1] = rng.choice([-128, 127], size=k)
    zp_in = -128  # code 127 centers to 255
    want = (codes.astype(np.int64) - zp_in) @ w.T.astype(np.int64)
    assert want[0, 2] == -255 * (128 * k - 1)
    # Biases put the first sample's outputs at -100, 0 and 100.
    bias = -want[0] + [-100, 0, 100]
    expect = np.clip(want + bias, -128, 127)
    if kind == OpKind.CONV2D:
        w, codes, expect = w[:, None, None], codes[:, None, None], expect[:, None, None]
    g = unit_scale_conv_graph(w, bias, (1, *codes.shape[1:]), kind, zp_in)
    trace = {}
    run_int8(g, codes.astype(np.float32) - zp_in, trace=trace)
    np.testing.assert_array_equal(trace["in"], codes)
    np.testing.assert_array_equal(trace["out"], expect)
    np.testing.assert_array_equal(trace["out"].reshape(2, 3)[0], [-100, 0, 100])


@pytest.mark.parametrize("kernel", [3, 257])
def test_int8_depthwise_exact_at_extreme_codes(kernel):
    # Centered codes of magnitude 255 against weights -128 and 127. A 3x3
    # kernel accumulates in float32 (9 * 255 * 128 < 2**24); 257x257 =
    # 66049 taps pass that bound and take float64, where a channel's sum
    # passes -2**31 before its bias brings it back.
    rng = np.random.default_rng(kernel)
    size = kernel + 2 if kernel == 3 else kernel
    w = np.empty((1, kernel, kernel, 3), dtype=np.int8)
    w[..., 0], w[..., 1] = -128, 127
    w[..., 2] = rng.choice([-128, 127], size=(kernel, kernel))
    codes = np.full((2, size, size, 3), 127, dtype=np.int8)
    codes[1, ..., 2] = rng.choice([-128, 127], size=(size, size))
    zp_in = -128  # code 127 centers to 255
    want = naive_depthwise_acc(codes.astype(np.int64) - zp_in, w)
    # Biases put every channel's first output at -100, 0 and 100.
    bias = np.clip(-want[0, 0, 0] + [-100, 0, 100], -2**31, 2**31 - 1)
    g = unit_scale_conv_graph(w, bias, (1, size, size, 3), OpKind.DEPTHWISE_CONV2D, zp_in)
    trace = {}
    run_int8(g, codes.astype(np.float32) - zp_in, trace=trace)
    np.testing.assert_array_equal(trace["in"], codes)
    expect = np.clip(want + bias.astype(np.int64), -128, 127)
    np.testing.assert_array_equal(trace["out"], expect)
    if kernel == 3:
        np.testing.assert_array_equal(trace["out"][0, 0, 0], [-100, 0, 100])
    else:
        assert want[0, 0, 0, 0] < -2**31


def test_depthwise_accumulator_overflow_reported():
    # Each channel's K products of 127 and a centered 255 sum to 255*127*K
    # (on the low side, with zp_in 127, to -255*127*K). A bias putting
    # channel 1 exactly at +-INT32_MAX is accepted and runs; one further
    # is refused by prepare itself, for every weighted kind.
    cases = [  # kind, weight shape, input shape, K
        (OpKind.DEPTHWISE_CONV2D, (1, 3, 3, 2), (1, 3, 3, 2), 9),
        (OpKind.CONV2D, (2, 3, 3, 2), (1, 3, 3, 2), 18),
        (OpKind.FULLY_CONNECTED, (2, 18), (1, 18), 18),
    ]
    for kind, w_shape, in_shape, k in cases:
        w = np.full(w_shape, 127, dtype=np.int8)
        for side in (1, -1):
            x = np.full(in_shape, 255.0 * side, dtype=np.float32)
            for excess in (0, 1):
                bias = [0, side * (2**31 - 1 - 255 * 127 * k + excess)]
                g = unit_scale_conv_graph(w, bias, in_shape, kind, zp_in=-128 if side > 0 else 127)
                if excess:
                    with pytest.raises(AccumulatorOverflowError, match="node conv:"):
                        prepare(g)
                else:
                    out = run_int8(g, x)["out"].reshape(-1).tolist()
                    assert out == [127.0 if side > 0 else -128.0] * 2


def wide_avgpool_graph(k, zp):
    """An INT8 AvgPool2D with one 1 x k window over a 1 x k input at zero point zp."""
    tensors = [
        TensorSpec("in", (1, 1, k, 1), DType.INT8, TensorKind.INPUT,
                   quant=QuantParams(scale=1.0, zero_point=zp)),
        TensorSpec("out", (1, 1), DType.INT8, TensorKind.ACTIVATION, quant=unit_qp()),
    ]
    attrs = {"kernel_h": 1, "kernel_w": k, "stride_h": 1, "stride_w": 1, "padding": "VALID"}
    nodes = [OpNode("pool", OpKind.AVG_POOL2D, attrs, ["in"], ["out"])]
    return infer_shapes(GraphIR("pool", nodes, {t.id: t for t in tensors}, ["in"], ["out"]))[0]


def test_avgpool_accumulator_overflow_reported():
    # A window sums k centered codes, each within 255 of 0 at zero point
    # QMIN (all above) or QMAX (all below), so only a window of more than
    # INT32_MAX // 255 cells can overflow. `prepare` refuses such a
    # 1 x k window on either side before building anything of its size.
    for zp in (QMIN, QMAX):
        with pytest.raises(AccumulatorOverflowError, match="node pool:"):
            prepare(wide_avgpool_graph(INT32_MAX // 255 + 1, zp))


@pytest.mark.parametrize("zp", [QMIN, QMAX])
def test_avgpool_window_at_the_bound_prepares_without_visiting_its_cells(zp):
    # The largest window that fits int32, 1 x INT32_MAX // 255 (about
    # 8.4M) cells, is accepted; its one in-bounds count comes from the
    # window's extent along each axis, so no array of its size is made.
    # A small window first, so that numpy's lazy imports are not counted.
    prepare(wide_avgpool_graph(2, zp))
    g = wide_avgpool_graph(INT32_MAX // 255, zp)
    tracemalloc.start()
    try:
        prepare(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("kind", [OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D])
def test_last_epilogue_tile_computed(kind):
    # One channel, one pixel more than an epilogue tile holds: only the
    # last pixel, alone in the second tile, has its own input.
    pixels = executor._EPILOGUE_TILE + 1
    g = unit_scale_conv_graph(np.ones((1, 1, 1, 1)), [3], (1, 1, pixels, 1), kind)
    x = np.zeros((1, 1, pixels, 1), dtype=np.float32)
    x[0, 0, -1] = 50.0
    out = run_int8(g, x)["out"]
    assert out[0, 0, -1, 0] == 53.0
    assert (out[0, 0, :-1] == 3.0).all()


_WEIGHTED = [OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_prepare_accepts_exactly_the_graphs_whose_extremes_fit_int32(data):
    # A small VALID unit-scale graph, with each channel's bias put near
    # where its extreme accumulator meets +-INT32_MAX. The extreme input of
    # channel o (sample o) centers to hi_x where w > 0 and lo_x where w < 0
    # (for lo, the other way round) inside the first output's window; an
    # int64 product gives its accumulator, and prepare must accept exactly
    # when every channel's extreme fits.
    kind = data.draw(st.sampled_from(_WEIGHTED))
    zp_in = data.draw(st.integers(-128, 127))
    lo_x, hi_x = -128 - zp_in, 127 - zp_in
    out_c = data.draw(st.integers(1, 3))
    if kind == OpKind.FULLY_CONNECTED:
        field = (data.draw(st.integers(1, 8)),)
        w_shape, in_shape = (out_c, *field), (1, *field)
    else:
        k = data.draw(st.integers(1, 3))
        c = out_c if kind == OpKind.DEPTHWISE_CONV2D else data.draw(st.integers(1, 3))
        w_shape = (1, k, k, c) if kind == OpKind.DEPTHWISE_CONV2D else (out_c, k, k, c)
        in_shape = (1, k + data.draw(st.integers(0, 1)), k + data.draw(st.integers(0, 1)), c)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.integers(-128, 128, size=w_shape).astype(np.int8)
    w.flat[rng.integers(w.size)] = 0  # a zero weight takes no extreme
    side = data.draw(st.sampled_from(["hi", "lo"]))

    # x[o]: sample o, centered, extreme in channel o's first window.
    x = rng.integers(lo_x, hi_x + 1, size=(out_c, *in_shape[1:])).astype(np.int64)
    acc = np.zeros(out_c, dtype=np.int64)
    for o in range(out_c):
        if kind == OpKind.DEPTHWISE_CONV2D:
            w_o, window = w[0, ..., o].astype(np.int64), x[o, :k, :k, o]
        elif kind == OpKind.CONV2D:
            w_o, window = w[o].astype(np.int64), x[o, :k, :k]
        else:
            w_o, window = w[o].astype(np.int64), x[o]
        up = (w_o > 0) if side == "hi" else (w_o < 0)
        window[...] = np.where(up, hi_x, np.where(w_o == 0, window, lo_x))
        acc[o] = (w_o * window).sum()
    limit = 2**31 - 1 if side == "hi" else -(2**31 - 1)
    offsets = data.draw(st.lists(st.integers(-2, 2), min_size=out_c, max_size=out_c))
    bias = np.clip(limit - acc + offsets, -2**31, 2**31 - 1)
    acc += bias
    fits = bool((acc <= 2**31 - 1).all() if side == "hi" else (acc >= -(2**31 - 1)).all())

    g = unit_scale_conv_graph(w, bias, in_shape, kind, zp_in)
    if not fits:
        with pytest.raises(AccumulatorOverflowError, match="node conv:"):
            prepare(g)
        return
    trace = {}
    run_int8(g, x.astype(np.float32), trace=trace)
    out = trace["out"].reshape(out_c, -1, out_c)[:, 0]
    np.testing.assert_array_equal(np.diag(out), np.clip(acc, -128, 127))


def test_prepare_runs_the_tables_its_scales_derive():
    # The stored table is never read: a wrong one or none at all runs the
    # same unit multiplier.
    g = unit_scale_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 4, 4, 1))
    x = np.arange(-8, 8, dtype=np.float32).reshape(1, 4, 4, 1)
    want = run_int8(g, x)["out"]
    np.testing.assert_array_equal(want, x)
    g.nodes[0].attrs["requant"] = {"significand": 2**31, "shift": 64}
    np.testing.assert_array_equal(run_int8(g, x)["out"], want)
    del g.nodes[0].attrs["requant"]
    np.testing.assert_array_equal(run_int8(g, x)["out"], want)


@pytest.mark.parametrize("field, value", [("shift", 64), ("significand", 2**31)],
                         ids=["shift", "significand"])
def test_load_rejects_out_of_range_tables(tmp_path, field, value):
    # Manifest values under which the int64 requantization would go wrong
    # never reach `prepare`: a stored table must be the derived one. An
    # input zero point outside Int8 never gets this far (`QuantParams`).
    g = unit_scale_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 4, 4, 1))
    want = g.nodes[0].attrs["requant"][field]
    g.nodes[0].attrs["requant"][field] = value
    save_model(g, tmp_path / "m")
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"node conv requant[{field}]: {value} != {want}")):
        load_model(tmp_path / "m.json")


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", ["small_convnet_quantized", "dwsep_net_quantized"])
def test_evaluate_matches_per_sample_run_int8(model, workers, request, test_samples, monkeypatch):
    monkeypatch.setattr(executor, "usable_cpus", lambda: workers)
    graph = request.getfixturevalue(model)
    samples = test_samples[:37]  # a partial last chunk
    records, _ = evaluate(graph, samples)
    assert record_tuples(records) == per_sample_records(run_int8, graph, samples)


@pytest.mark.parametrize("model", ["small_convnet", "small_convnet_quantized"])
def test_evaluate_threads_under_fast_switching(model, request, test_samples, monkeypatch):
    # One worker per chunk (13 for 200 samples, more than the cores), with
    # the interpreter switching threads every microsecond: any state the
    # workers shared and wrote would show as a record differing from the
    # serial run's.
    graph = request.getfixturevalue(model)
    monkeypatch.setattr(executor, "usable_cpus", lambda: 1)
    want = record_tuples(evaluate(graph, test_samples)[0])
    monkeypatch.setattr(executor, "usable_cpus", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = record_tuples(evaluate(graph, test_samples)[0])
    finally:
        sys.setswitchinterval(interval)
    assert got == want


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
