import numpy as np
import pytest

from graphutil import (
    act,
    const,
    conv_attrs,
    conv_relu_softmax,
    naive_conv2d,
    naive_maxpool,
    per_sample_records,
    record_tuples,
)
from tinydeploy.executor import (
    EVAL_CHUNK,
    ExecutionError,
    InferenceRecord,
    TensorRange,
    calibrate,
    evaluate,
    prepare,
    read_records_csv,
    run_f32,
    write_records_csv,
)
from tinydeploy.graph import DType, GraphIR, OpKind, OpNode, TensorKind, TensorSpec


def single_op_graph(kind, attrs, in_shape, consts=(), n_inputs=1):
    tensors = [TensorSpec("in", in_shape, DType.FLOAT32, TensorKind.INPUT)]
    inputs = ["in"]
    if n_inputs == 2:
        tensors.append(TensorSpec("in2", in_shape, DType.FLOAT32, TensorKind.INPUT))
        inputs.append("in2")
    for t in consts:
        tensors.append(t)
        inputs.append(t.id)
    tensors.append(act("out"))
    nodes = [OpNode("op", kind, attrs, inputs, ["out"])]
    g = GraphIR("single", nodes, {t.id: t for t in tensors},
                [t for t in inputs if t in ("in", "in2")], ["out"])
    from tinydeploy.graph import infer_shapes
    g, _ = infer_shapes(g)
    return g


def test_identity_1x1_conv_passthrough():
    g = single_op_graph(
        OpKind.CONV2D, conv_attrs(kernel=1), (1, 5, 5, 1),
        consts=[const("w", np.ones((1, 1, 1, 1))),
                const("b", np.zeros(1), TensorKind.BIAS)],
    )
    x = np.random.default_rng(0).normal(size=(1, 5, 5, 1)).astype(np.float32)
    out = run_f32(g, x)["out"]
    np.testing.assert_array_equal(out, x)


def test_relu_definition():
    g = conv_relu_softmax()
    trace = {}
    run_f32(g, np.zeros((1, 8, 8, 3), dtype=np.float32), trace=trace)
    pre, post = trace["conv_out"], trace["relu_out"]
    np.testing.assert_array_equal(post, np.maximum(pre, 0.0))
    assert np.array_equal(
        np.maximum(np.array([-1.5, 0.0, 2.0], dtype=np.float32), np.float32(0)),
        np.array([0.0, 0.0, 2.0], dtype=np.float32),
    )


def test_maxpool_2x2_window():
    g = single_op_graph(
        OpKind.MAX_POOL2D,
        {"kernel_h": 2, "kernel_w": 2, "stride_h": 2, "stride_w": 2, "padding": "VALID"},
        (1, 2, 2, 1),
    )
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 2, 2, 1)
    out = run_f32(g, x)["out"]
    assert out.shape == (1, 1, 1, 1)
    assert out.reshape(()) == 4.0  # exhaustive window max of {1,2,3,4}


@pytest.mark.parametrize("padding,stride", [("VALID", 1), ("VALID", 2), ("SAME", 1), ("SAME", 2)])
def test_conv2d_matches_naive_loops(padding, stride):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(1, 7, 6, 3)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=(4,)).astype(np.float32)
    g = single_op_graph(
        OpKind.CONV2D, conv_attrs(stride=stride, padding=padding), (1, 7, 6, 3),
        consts=[const("w", w), const("b", b, TensorKind.BIAS)],
    )
    got = run_f32(g, x)["out"]
    want = naive_conv2d(x.astype(np.float64), w.astype(np.float64), b.astype(np.float64),
                        stride, padding)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def test_maxpool_matches_naive_loops():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
    g = single_op_graph(
        OpKind.MAX_POOL2D,
        {"kernel_h": 2, "kernel_w": 2, "stride_h": 2, "stride_w": 2, "padding": "VALID"},
        (1, 6, 6, 2),
    )
    got = run_f32(g, x)["out"]
    np.testing.assert_allclose(got, naive_maxpool(x, 2, 2), rtol=1e-6)


def test_avgpool_same_padding_excludes_pad_cells():
    g = single_op_graph(
        OpKind.AVG_POOL2D,
        {"kernel_h": 2, "kernel_w": 2, "stride_h": 2, "stride_w": 2, "padding": "SAME"},
        (1, 3, 3, 1),
    )
    x = np.arange(9, dtype=np.float32).reshape(1, 3, 3, 1)
    out = run_f32(g, x)["out"].reshape(2, 2)
    # windows clipped to valid cells: [[mean(0,1,3,4), mean(2,5)], [mean(6,7), mean(8)]]
    np.testing.assert_allclose(out, [[2.0, 3.5], [6.5, 8.0]])


def test_softmax_normalization():
    g = conv_relu_softmax()
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        probs = run_f32(g, x)["probs"]
        assert abs(float(probs.sum()) - 1.0) <= 1e-6
        assert probs.min() >= 0.0


def test_determinism_repeat_runs():
    g = conv_relu_softmax()
    x = np.random.default_rng(9).normal(size=(1, 8, 8, 3)).astype(np.float32)
    a = run_f32(g, x)["probs"]
    b = run_f32(g, x)["probs"]
    np.testing.assert_array_equal(a, b)


def test_input_shape_mismatch_rejected():
    g = conv_relu_softmax()
    with pytest.raises(ExecutionError, match="shape"):
        run_f32(g, np.zeros((1, 4, 4, 3), dtype=np.float32))


# --- calibration -----------------------------------------------------------


def relu_only_graph():
    nodes = [OpNode("relu", OpKind.RELU, {}, ["in"], ["out"])]
    tensors = [TensorSpec("in", (1, 3), DType.FLOAT32, TensorKind.INPUT), act("out")]
    g = GraphIR("r", nodes, {t.id: t for t in tensors}, ["in"], ["out"])
    from tinydeploy.graph import infer_shapes
    return infer_shapes(g)[0]


def test_calibrate_single_input_range():
    g = relu_only_graph()
    x = np.array([[-2.0, 0.0, 3.0]], dtype=np.float32)
    ranges = calibrate(g, [x])
    assert ranges["in"].min_r == -2.0 and ranges["in"].max_r == 3.0


def test_calibrate_merges_ranges():
    g = relu_only_graph()
    a = np.array([[-1.0, 2.0, 0.0]], dtype=np.float32)
    b = np.array([[-3.0, 1.0, 0.0]], dtype=np.float32)
    ranges = calibrate(g, [a, b])
    assert (ranges["in"].min_r, ranges["in"].max_r) == (-3.0, 2.0)


def test_calibrate_degenerate_zero_range_flagged():
    g = relu_only_graph()
    ranges = calibrate(g, [np.zeros((1, 3), dtype=np.float32)])
    assert ranges["out"].degenerate
    assert (ranges["out"].min_r, ranges["out"].max_r) == (0.0, 0.0)


def test_calibrate_empty_set_rejected():
    with pytest.raises(ExecutionError, match="empty"):
        calibrate(relu_only_graph(), [])


def test_calibrate_monotone_under_more_samples():
    g = relu_only_graph()
    rng = np.random.default_rng(5)
    samples = [rng.normal(size=(1, 3)).astype(np.float32) for _ in range(8)]
    prev = calibrate(g, samples[:3])
    more = calibrate(g, samples)
    for tid in prev:
        assert more[tid].min_r <= prev[tid].min_r
        assert more[tid].max_r >= prev[tid].max_r


# --- evaluation ------------------------------------------------------------


def uniform_logit_graph(classes=10):
    nodes = [
        OpNode("fc", OpKind.FULLY_CONNECTED, {}, ["in", "w", "b"], ["logits"]),
        OpNode("softmax", OpKind.SOFTMAX, {}, ["logits"], ["probs"]),
    ]
    tensors = [
        TensorSpec("in", (1, 4), DType.FLOAT32, TensorKind.INPUT),
        const("w", np.zeros((classes, 4))),
        const("b", np.zeros(classes), TensorKind.BIAS),
        act("logits"),
        TensorSpec("probs", (1, classes), DType.FLOAT32, TensorKind.OUTPUT),
    ]
    g = GraphIR("uniform", nodes, {t.id: t for t in tensors}, ["in"], ["probs"])
    from tinydeploy.graph import infer_shapes
    return infer_shapes(g)[0]


def test_uniform_logits_give_confidence_one_tenth():
    g = uniform_logit_graph()
    dataset = [(np.ones((1, 4), dtype=np.float32), 0)]
    records, _ = evaluate(g, dataset)
    assert abs(records[0].confidence - 0.1) < 1e-6


def test_accuracy_counting():
    g = uniform_logit_graph()
    x = np.ones((1, 4), dtype=np.float32)
    # uniform logits -> argmax is class 0
    records, acc = evaluate(g, [(x, 0), (x, 0), (x, 3)])
    assert acc == pytest.approx(2 / 3)
    records, acc = evaluate(g, [(x, 0), (x, 0)])
    assert acc == 1.0


def test_label_out_of_range_rejected():
    g = uniform_logit_graph()
    with pytest.raises(ExecutionError, match="label"):
        evaluate(g, [(np.ones((1, 4), dtype=np.float32), 10)])


# 37 is not a multiple of EVAL_CHUNK, so the last chunk is partial.
EQUIVALENCE_SAMPLES = 37


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net"])
def test_evaluate_matches_per_sample_run_f32(model, request, test_samples):
    assert EQUIVALENCE_SAMPLES % EVAL_CHUNK
    graph = request.getfixturevalue(model)
    samples = test_samples[:EQUIVALENCE_SAMPLES]
    records, _ = evaluate(graph, samples)
    assert record_tuples(records) == per_sample_records(run_f32, graph, samples)


@pytest.mark.parametrize(
    "model", ["small_convnet", "dwsep_net", "small_convnet_quantized", "dwsep_net_quantized"]
)
def test_program_batch_trace_matches_single_samples(model, request, test_samples):
    program = prepare(request.getfixturevalue(model))
    xs = [x for _, x, _ in test_samples[:EQUIVALENCE_SAMPLES]]
    batch_trace = {}
    program.run(np.concatenate(xs), trace=batch_trace)
    single = []
    for x in xs:
        trace = {}
        program.run(x, trace=trace)
        single.append(trace)
    for tid, values in batch_trace.items():
        want = np.concatenate([t[tid] for t in single])
        assert values.dtype == want.dtype
        assert values.tobytes() == want.tobytes(), tid


def test_evaluate_rejects_wrong_input_shape():
    g = uniform_logit_graph()
    good = np.ones((1, 4), dtype=np.float32)
    with pytest.raises(ExecutionError, match="sample s00020: input shape"):
        evaluate(g, [(good, 0)] * 20 + [(np.ones((2, 4), dtype=np.float32), 0)])


def test_records_csv_roundtrip(tmp_path):
    records = [
        InferenceRecord("a", 3, 0.5, 3),
        InferenceRecord("b", 1, 0.25, 2),
    ]
    write_records_csv(records, tmp_path / "r.csv")
    loaded = read_records_csv(tmp_path / "r.csv")
    assert [(r.sample_id, r.predicted_class, r.confidence, r.true_label, r.correct)
            for r in loaded] == [("a", 3, 0.5, 3, True), ("b", 1, 0.25, 2, False)]


def test_tensor_range_invariants():
    with pytest.raises(ValueError):
        TensorRange("t", 2.0, 1.0)
    with pytest.raises(ValueError):
        TensorRange("t", float("nan"), 1.0)
    with pytest.raises(ValueError):
        InferenceRecord("s", 0, 1.5, 0)
