import ast
import itertools
import os
import threading
import time
import tracemalloc
import weakref
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

import tinydeploy
from graphutil import (
    act,
    build_prune_plan,
    compile_branchy_sources,
    const,
    conv_attrs,
    conv_relu_softmax,
    inception_graph,
    make_graph,
    naive_conv2d,
    naive_maxpool,
    per_sample_records,
    record_tuples,
    reference_window_f32,
    reference_window_int8,
    pool_chain_graph,
    residual_chain_graph,
    skip_branch_graph,
)
from tinydeploy import executor
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
from tinydeploy.graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    TensorKind,
    TensorSpec,
    conv_output_hw,
    same_padding_amounts,
)
from tinydeploy.datasets import synthetic_samples
from tinydeploy.model_io import json_text, load_model, save_model
from tinydeploy.models import build_dwsep_net
from tinydeploy.pruning import DEFAULT_SCHEDULE, materialize
from tinydeploy.quantization import calibrated_tensors, quantize_graph, quantize_tensor


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


WINDOW_KINDS = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.MAX_POOL2D, OpKind.AVG_POOL2D)


def _assert_window_kernel_matches(kind, attrs, x, rng, out_c=None):
    """One windowed node, Float32 and INT8, against the index-array gather it
    replaced, run one sample at a time: Float32 bit for bit, INT8 code for
    code. Per sample, because the gather's einsum was not batch-invariant:
    on a (B,4,1,1) input under a 4x1 depthwise kernel its B > 1 layout
    summed in another order than B = 1."""
    batch, h, w, c = x.shape
    weights = bias = None
    consts = []
    if kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D):
        out_c = out_c if kind == OpKind.CONV2D else c
        shape = (out_c if kind == OpKind.CONV2D else 1, attrs["kernel_h"], attrs["kernel_w"], c)
        weights = rng.normal(size=shape).astype(np.float32)
        bias = rng.normal(size=(out_c,)).astype(np.float32)
        consts = [const("w", weights), const("b", bias, TensorKind.BIAS)]
    g = single_op_graph(kind, attrs, (1, h, w, c), consts=consts)

    got = prepare(g).run(x)["out"]
    want = np.concatenate([reference_window_f32(g.nodes[0], x[i:i + 1], weights, bias)
                           for i in range(batch)])
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    qg = quantize_graph(g, calibrate(g, [x]))
    trace = {}
    prepare(qg).run(x, on_step=executor._copy_into(trace))
    np.testing.assert_array_equal(trace["out"], reference_window_int8(qg, trace["in"]))


def _window_input(rng, shape, wide=False):
    """Normal values or, `wide`, signed powers of two from 2^-30 to 2^30 in
    steps of 2^10: their sums cancel exactly or absorb the small terms, so a
    window summed in another order gives another result."""
    if wide:
        x = rng.choice([-1.0, 1.0], size=shape) * 2.0 ** (10 * rng.integers(-3, 4, size=shape))
    else:
        x = rng.normal(size=shape)
    x = x.astype(np.float32)
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0  # ties between signed zeros in MaxPool
    return x


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_window_kernels_match_gathered_windows(data):
    kind = data.draw(st.sampled_from(WINDOW_KINDS), label="kind")
    padding = data.draw(st.sampled_from(["SAME", "VALID"]), label="padding")
    kh, kw = data.draw(st.integers(1, 4), label="kh"), data.draw(st.integers(1, 4), label="kw")
    sh, sw = data.draw(st.integers(1, 3), label="sh"), data.draw(st.integers(1, 3), label="sw")
    lo_h, lo_w = (1, 1) if padding == "SAME" else (kh, kw)
    h, w = data.draw(st.integers(lo_h, 9), label="h"), data.draw(st.integers(lo_w, 9), label="w")
    batch, c = data.draw(st.integers(1, 4), label="batch"), data.draw(st.integers(1, 9), label="c")
    out_c = data.draw(st.integers(1, 6), label="out_c") if kind == OpKind.CONV2D else None
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    attrs = {"kernel_h": kh, "kernel_w": kw, "stride_h": sh, "stride_w": sw, "padding": padding}
    _assert_window_kernel_matches(kind, attrs, _window_input(rng, (batch, h, w, c)), rng, out_c)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_window_kernels_match_gathered_windows_at_real_sizes(data):
    # Rows of Wo*C up to 1088 elements, far past einsum's unrolled SIMD
    # block, which the small sizes above rarely leave. Conv2D, whose
    # patches are still copied, keeps to 8 channels.
    kind = data.draw(st.sampled_from(WINDOW_KINDS), label="kind")
    padding = data.draw(st.sampled_from(["SAME", "VALID"]), label="padding")
    kh, kw = data.draw(st.integers(1, 5), label="kh"), data.draw(st.integers(1, 5), label="kw")
    sh, sw = data.draw(st.integers(1, 2), label="sh"), data.draw(st.integers(1, 2), label="sw")
    h, w = data.draw(st.integers(16, 34), label="h"), data.draw(st.integers(16, 34), label="w")
    c = data.draw(st.integers(1, 8 if kind == OpKind.CONV2D else 32), label="c")
    batch = data.draw(st.integers(1, 16), label="batch")
    out_c = data.draw(st.integers(1, 32), label="out_c") if kind == OpKind.CONV2D else None
    wide = data.draw(st.booleans(), label="wide")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    attrs = {"kernel_h": kh, "kernel_w": kw, "stride_h": sh, "stride_w": sw, "padding": padding}
    x = _window_input(rng, (batch, h, w, c), wide)
    _assert_window_kernel_matches(kind, attrs, x, rng, out_c)


@pytest.mark.parametrize("kind, shape, kernel, stride, padding", [
    # C == 1: depthwise and the pools keep the patch path
    (OpKind.DEPTHWISE_CONV2D, (16, 32, 32, 1), 3, (1, 1), "SAME"),
    (OpKind.AVG_POOL2D, (16, 34, 33, 1), 3, (2, 2), "SAME"),
    # a fold of the taps can give +0.0 where max over the patches gives -0.0
    (OpKind.MAX_POOL2D, (4, 14, 14, 1), 5, (1, 1), "SAME"),
    # stride_w 2: the (B,Ho,kh,kw,Wo,C) view
    (OpKind.DEPTHWISE_CONV2D, (16, 34, 34, 16), 3, (1, 2), "SAME"),
    (OpKind.DEPTHWISE_CONV2D, (7, 33, 31, 5), 5, (2, 2), "VALID"),
    (OpKind.AVG_POOL2D, (16, 16, 16, 32), 2, (2, 2), "VALID"),
    # dwsep_net's dw1: Wo*C = 512
    (OpKind.DEPTHWISE_CONV2D, (16, 32, 32, 16), 3, (1, 1), "SAME"),
], ids=["dw_c1", "avg_c1", "max_c1", "dw_stride_w2", "dw_5x5_stride2", "avg_2x2_stride2", "dw1"])
def test_window_kernels_match_gathered_windows_named_cases(kind, shape, kernel, stride, padding):
    rng = np.random.default_rng(sum(shape))
    attrs = {"kernel_h": kernel, "kernel_w": kernel, "stride_h": stride[0],
             "stride_w": stride[1], "padding": padding}
    _assert_window_kernel_matches(kind, attrs, _window_input(rng, shape, wide=True), rng)


def brute_force_valid_counts(hw, kernel, stride, padding):
    """In-bounds cells of each window, counted one cell at a time."""
    (h, w), (kh, kw), (sh, sw) = hw, kernel, stride
    top = same_padding_amounts(h, kh, sh)[0] if padding == "SAME" else 0
    left = same_padding_amounts(w, kw, sw)[0] if padding == "SAME" else 0
    oh, ow = conv_output_hw(hw, kernel, stride, padding)
    return np.array([
        [sum(0 <= i * sh - top + a < h and 0 <= j * sw - left + b < w
             for a in range(kh) for b in range(kw)) for j in range(ow)]
        for i in range(oh)
    ])


def test_window_valid_counts_match_brute_force():
    geometries = itertools.product(range(1, 6), range(1, 6), range(1, 4), range(1, 4),
                                   range(1, 3), range(1, 3), ("SAME", "VALID"))
    for h, w, kh, kw, sh, sw, padding in geometries:
        if padding == "VALID" and (kh > h or kw > w):
            continue
        attrs = {"kernel_h": kh, "kernel_w": kw, "stride_h": sh, "stride_w": sw,
                 "padding": padding}
        window = executor._Window(OpNode("pool", OpKind.AVG_POOL2D, attrs, [], []), (1, h, w, 1))
        counts = window.valid_counts()
        assert counts.dtype == np.int64
        want = brute_force_valid_counts((h, w), (kh, kw), (sh, sw), padding)
        np.testing.assert_array_equal(counts, want, err_msg=str(attrs | {"hw": (h, w)}))


def test_window_strides_are_worked_out_in_one_place():
    """`as_strided` is called once in src/, in `_Window.view`, and nothing
    imports `sliding_window_view`: every window accessor derives from the view."""
    calls, imports = [], []
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "_Window"
                   for func in cls.body
                   if isinstance(func, ast.FunctionDef) and func.name == "view"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            called = node.func if isinstance(node, ast.Call) else None
            if (isinstance(called, ast.Name) and called.id == "as_strided"
                    or isinstance(called, ast.Attribute) and called.attr == "as_strided"):
                calls.append((path.name, node.lineno, id(node) in allowed))
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(alias.name.endswith("sliding_window_view") for alias in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "sliding_window_view"):
                imports.append(f"{path.name}:{node.lineno}")
    assert [in_view for *_, in_view in calls] == [True], calls
    assert imports == []


@pytest.mark.parametrize("padding", ["VALID", "SAME"])
@pytest.mark.parametrize("stride_w", [1, 2])
def test_window_rows_and_taps_are_views_of_the_padded_input(monkeypatch, padding, stride_w):
    padded = []  # the array each `view` call strides over

    def spy(x, *args, **kwargs):
        padded.append(x)
        return as_strided(x, *args, **kwargs)
    monkeypatch.setattr(executor, "as_strided", spy)
    attrs = {"kernel_h": 3, "kernel_w": 2, "stride_h": 2, "stride_w": stride_w,
             "padding": padding}
    window = executor._Window(OpNode("dw", OpKind.DEPTHWISE_CONV2D, attrs, [], []),
                              (2, 7, 9, 4))
    x = np.arange(2 * 7 * 9 * 4, dtype=np.float32).reshape(2, 7, 9, 4)
    rows, taps = window.rows(x, 0.0), window.taps(x, 0.0)
    assert [a.shape for a in padded] == 2 * [(2, 9, 10, 4) if padding == "SAME" else x.shape]
    assert all(np.shares_memory(a, x) == (padding == "VALID") for a in padded)
    assert np.shares_memory(rows, padded[0])
    assert len(taps) == 6 and all(np.shares_memory(tap, padded[1]) for tap in taps)
    want = window.patches(x, 0.0)  # (B,Ho,Wo,kh,kw,C)
    np.testing.assert_array_equal(
        rows.reshape(want.shape[:2] + want.shape[3:5] + (-1, 4)).transpose(0, 1, 4, 2, 3, 5), want)
    np.testing.assert_array_equal(np.stack(taps, axis=3).reshape(want.shape), want)


def test_depthwise_reads_windows_without_copying_them():
    # dwsep_net's dw1 step: a (B,Ho,Wo,kh,kw,C) window copy alone is 9.4 MB;
    # the padded input and the output are about 1.2 and 1.0 MB.
    rng = np.random.default_rng(5)
    g = single_op_graph(
        OpKind.DEPTHWISE_CONV2D, conv_attrs(padding="SAME"), (1, 32, 32, 16),
        consts=[const("w", rng.normal(size=(1, 3, 3, 16))),
                const("b", rng.normal(size=(16,)), TensorKind.BIAS)],
    )
    program = prepare(g)
    x = rng.normal(size=(16, 32, 32, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        program.run(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("model", ["dwsep_net", "dwsep_net_quantized"])
def test_program_run_frees_dead_activations(model, request, test_samples):
    # One B=16 run of dwsep_net peaks at about 4 MB with each activation
    # freed after its last reader. Kept until run returned, they took the
    # peak to 12.6 MB (Float32) and 11.1 MB (INT8, whose epilogue also ran
    # on whole int64 accumulators). With ReLU writing into its dying
    # input, the Float32 peak is about 3.1 MB.
    program = prepare(request.getfixturevalue(model))
    x = np.concatenate([x for _, x, _ in test_samples[:16]])
    program.run(x)
    tracemalloc.start()
    try:
        program.run(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = {"dwsep_net": 3.5, "dwsep_net_quantized": 6}[model]
    assert peak < bound * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.fixture(scope="module")
def skip_branch():
    g = skip_branch_graph()
    rng = np.random.default_rng(3)
    xs = [rng.normal(size=(1, 6, 6, 4)).astype(np.float32) for _ in range(8)]
    return g, quantize_graph(g, calibrate(g, xs[:4])), np.concatenate(xs)


@pytest.mark.parametrize("quantized", [False, True])
def test_freeing_activations_leaves_skip_edge_outputs_unchanged(skip_branch, quantized):
    g, qg, x = skip_branch
    program = prepare(qg if quantized else g)
    trace = {}
    traced = program.run(x, on_step=executor._copy_into(trace))
    untraced = program.run(x)
    assert traced.keys() == untraced.keys() == {"probs", "rs"}
    for tid in traced:
        assert traced[tid].tobytes() == untraced[tid].tobytes(), tid
    assert trace.keys() == {"in"} | {s.output for s in program.steps}


@pytest.mark.parametrize("quantized", [False, True])
def test_activations_die_after_their_last_reader(skip_branch, quantized):
    # Each hook call sees every activation whose last reader has run
    # already gone; nothing but the graph outputs survives the run.
    g, qg, x = skip_branch
    program = prepare(qg if quantized else g)
    producers = program.graph.producer_map()
    nodes = [producers[step.output] for step in program.steps]
    last = {t: i for i, node in enumerate(nodes) for t in node.inputs}
    for node in nodes:  # a Flatten output is a view of its input
        if node.kind == OpKind.FLATTEN:
            last[node.inputs[0]] = last[node.outputs[0]]
    outputs = set(program.graph.graph_outputs)
    # A Float32 program's input is the caller's array.
    kept = outputs if quantized else outputs | {"in"}
    refs: dict[str, weakref.ref] = {}
    alive_after_last_read = []

    def on_step(tid, values):
        step = len(refs) - 1  # the input comes first, as step -1
        node = producers.get(tid)
        if node is not None and node.kind == OpKind.RELU and refs[node.inputs[0]]() is values:
            last[node.inputs[0]] = last[tid]  # an in-place ReLU's output is its input's array
        alive_after_last_read.extend(
            t for t, ref in refs.items()
            if t not in kept and last.get(t, -1) < step and ref() is not None
        )
        refs[tid] = weakref.ref(values)

    result = program.run(x, on_step=on_step)
    assert len(refs) == len(program.steps) + 1
    assert alive_after_last_read == []
    # An Int8 output is returned dequantized, so its codes die with the run.
    assert {t for t, ref in refs.items() if ref() is not None} == (
        {"probs"} if quantized else {"probs", "rs", "in"}
    )
    assert result.keys() == outputs


@pytest.mark.parametrize("quantized", [False, True])
def test_relu_overwrites_only_inputs_dying_at_it(skip_branch, quantized):
    # r1's input `a` dies at r1, so r1 writes into it; r2's input `s` is
    # read again by the Concat, so r2 must not. Each step's output, copied
    # as the hook sees it, equals the same kernel run on copies of what it
    # reads, so no in-place write reached an array a later step reads.
    g, qg, x = skip_branch
    program = prepare(qg if quantized else g)
    x_before = x.copy()
    arrays, seen = {}, {}

    def on_step(tid, values):
        arrays[tid] = values
        seen[tid] = values.copy()

    program.run(x, on_step=on_step)
    assert x.tobytes() == x_before.tobytes()
    assert arrays["ra"] is arrays["a"]
    assert arrays["rs"] is not arrays["s"]
    env = {"in": seen["in"]}
    for step in program.steps:
        env[step.output] = step.run({tid: values.copy() for tid, values in env.items()})
    assert env.keys() == seen.keys()
    for tid, values in env.items():
        assert seen[tid].dtype == values.dtype
        assert seen[tid].tobytes() == values.tobytes(), tid


def test_relu_never_overwrites_the_graph_input():
    # In a Float32 program the graph input is the caller's array, even
    # where a ReLU is its last reader.
    x = np.array([[-2.0, 0.0, 3.0]], dtype=np.float32)
    out = run_f32(relu_only_graph(), x)["out"]
    assert x.tolist() == [[-2.0, 0.0, 3.0]] and out.tolist() == [[0.0, 0.0, 3.0]]


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("relu_reads", ["f", "a"])
def test_relu_never_writes_through_a_flatten_view(relu_reads, quantized):
    # The ReLU's input dies at it, but the Flatten output `f` is a view
    # of `a`: a ReLU reading `f` would clip the graph output `a`, and
    # one reading `a` would clip the graph output `f`.
    rng = np.random.default_rng(8)
    nodes = [
        OpNode("c", OpKind.CONV2D, conv_attrs(kernel=1), ["in", "w", "b"], ["a"]),
        OpNode("fl", OpKind.FLATTEN, {}, ["a"], ["f"]),
        OpNode("r", OpKind.RELU, {}, [relu_reads], ["r"]),
    ]
    tensors = [
        TensorSpec("in", (1, 2, 2, 3), DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(2, 1, 1, 3))),
        const("b", rng.normal(size=(2,)), TensorKind.BIAS),
        act("a"), act("f"), act("r"),
    ]
    kept = "a" if relu_reads == "f" else "f"
    g = make_graph("flatten_relu", nodes, tensors, ["in"], [kept, "r"])
    x = rng.normal(size=(4, 2, 2, 3)).astype(np.float32)
    if quantized:
        g = quantize_graph(g, calibrate(g, list(x[:, None])))
    out = prepare(g).run(x)
    kept_rows = out[kept].reshape(4, -1)
    assert (kept_rows < 0).any()
    assert out["r"].reshape(4, -1).tobytes() == np.maximum(kept_rows, np.float32(0)).tobytes()


@pytest.mark.parametrize("quantized", [False, True])
def test_pointwise_conv_memory_peak(quantized):
    # dwsep_net's pw1 step at B=16: a 1x1, stride-1 Conv2D on a 1 MB
    # Float32 input (0.25 MB of Int8 codes) into a 2 MB output. The
    # window view of a contiguous input is C-contiguous already, so its
    # patches are no copy.
    rng = np.random.default_rng(6)
    g = single_op_graph(
        OpKind.CONV2D, conv_attrs(kernel=1, padding="SAME"), (1, 32, 32, 16),
        consts=[const("w", rng.normal(size=(32, 1, 1, 16))),
                const("b", rng.normal(size=(32,)), TensorKind.BIAS)],
    )
    x = rng.normal(size=(16, 32, 32, 16)).astype(np.float32)
    if quantized:
        g = quantize_graph(g, calibrate(g, [x[:1], x[1:2]]))
    program = prepare(g)
    env = {"in": quantize_tensor(x, program.input.quant) if quantized else x}
    tracemalloc.start()
    try:
        program.steps[0].run(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Float32: the output alone. INT8: the (O, X) accumulator, the Int8
    # output and the epilogue's int64 tiles.
    bound = 3.75 if quantized else 2.1
    assert peak < bound * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_single_channel_depthwise_independent_of_batch():
    # On C = 1 the index-array gather's layout made einsum sum a batch of
    # 16 in another order than one sample; C-ordered windows do not.
    rng = np.random.default_rng(4)
    g = single_op_graph(
        OpKind.DEPTHWISE_CONV2D, conv_attrs(padding="SAME"), (1, 8, 8, 1),
        consts=[const("w", rng.normal(size=(1, 3, 3, 1))),
                const("b", rng.normal(size=(1,)), TensorKind.BIAS)],
    )
    x = rng.normal(size=(EVAL_CHUNK, 8, 8, 1)).astype(np.float32)
    program = prepare(g)
    single = np.concatenate([program.run(x[i:i + 1])["out"] for i in range(len(x))])
    assert program.run(x)["out"].tobytes() == single.tobytes()


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
    assert ranges["in"].min == -2.0 and ranges["in"].max == 3.0


def test_calibrate_merges_ranges():
    g = relu_only_graph()
    a = np.array([[-1.0, 2.0, 0.0]], dtype=np.float32)
    b = np.array([[-3.0, 1.0, 0.0]], dtype=np.float32)
    ranges = calibrate(g, [a, b])
    assert (ranges["in"].min, ranges["in"].max) == (-3.0, 2.0)


def test_calibrate_degenerate_zero_range_flagged():
    g = relu_only_graph()
    ranges = calibrate(g, [np.zeros((1, 3), dtype=np.float32)])
    assert ranges["in"].min == ranges["in"].max
    assert (ranges["in"].min, ranges["in"].max) == (0.0, 0.0)


def test_calibrate_names_a_tensor_whose_range_is_not_finite():
    # A finite input whose Conv2D sums overflow Float32.
    x = np.full((1, 8, 8, 3), 3e38, dtype=np.float32)
    with pytest.raises(ExecutionError, match="^conv_out: non-finite range$"):
        calibrate(conv_relu_softmax(), [x])


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
        assert more[tid].min <= prev[tid].min
        assert more[tid].max >= prev[tid].max


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net"])
def test_evaluate_matches_per_sample_run_f32(model, workers, request, test_samples, monkeypatch):
    assert EQUIVALENCE_SAMPLES % EVAL_CHUNK
    monkeypatch.setattr(executor, "usable_cpus", lambda: workers)
    graph = request.getfixturevalue(model)
    samples = test_samples[:EQUIVALENCE_SAMPLES]
    records, _ = evaluate(graph, samples)
    assert record_tuples(records) == per_sample_records(run_f32, graph, samples)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert executor.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert executor.usable_cpus() == 5


@pytest.mark.parametrize(
    "cpus, samples, workers", [(1, 37, 1), (8, 37, 3), (2, 37, 2), (8, 0, 1)]
)
def test_map_batches_pool_size(cpus, samples, workers, monkeypatch):
    # One worker per usable CPU, at most one per chunk, never none. The
    # calling thread is one of them: the pool gets the others, and there
    # is no pool for one worker.
    sizes = []

    class Pool(executor.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(executor, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(executor, "ThreadPoolExecutor", Pool)
    threads = set()

    def size(_, batch):
        threads.add(threading.get_ident())
        return len(batch)

    xs = [np.full((1, 2), i, dtype=np.float32) for i in range(samples)]
    assert executor.map_batches(size, xs) == [len(b) for b in executor.batches(xs)]
    assert sizes == ([workers - 1] if workers > 1 else [])
    assert len(threads) <= workers


@pytest.mark.parametrize("chunk", [1, 5, EVAL_CHUNK])
def test_map_batches_runs_chunks_of_the_given_size(chunk, monkeypatch):
    # 37 samples: the last chunk is partial for chunks of 5 and 16.
    monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
    xs = [np.full((1, 2), i, dtype=np.float32) for i in range(37)]
    rows = executor.map_batches(lambda i, batch: (i, batch[:, 0].tolist()), xs, chunk)
    starts = range(0, 37, chunk)
    assert rows == [(i, list(range(s, min(s + chunk, 37)))) for i, s in enumerate(starts)]
    assert [len(b) for b in executor.batches(xs, chunk)] == [len(r) for _, r in rows]


def _chunk_samples(chunks: int) -> list[np.ndarray]:
    """EVAL_CHUNK samples per chunk, each holding its sample index."""
    return [np.full((1, 2), i, dtype=np.float32) for i in range(chunks * EVAL_CHUNK)]


@pytest.mark.parametrize("failing_on", ["caller", "pool"])
def test_map_batches_raises_first_failing_chunk(failing_on, monkeypatch):
    # Chunks 0 and 1 run at once, one on the calling thread and one on the
    # pool's. The `failing_on` thread's chunk fails late; the other thread
    # fails chunk 2 first. Chunk order decides, not time: the earlier
    # chunk's exception is raised, and no chunk starts after a failure.
    monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    both_started = threading.Barrier(2, timeout=30)
    chunk_2_failed = threading.Event()
    ran = []
    threads = threading.active_count()

    def fn(_, batch):
        chunk = int(batch[0, 0]) // EVAL_CHUNK
        on_caller = threading.get_ident() == caller
        ran.append((chunk, on_caller))
        if chunk >= 2:
            chunk_2_failed.set()
            raise ValueError(f"chunk {chunk}")
        both_started.wait()
        if on_caller == (failing_on == "caller"):
            assert chunk_2_failed.wait(timeout=30)
            raise ValueError(f"chunk {chunk}")
        return chunk

    with pytest.raises(ValueError) as failure:
        executor.map_batches(fn, _chunk_samples(8))
    late = next(chunk for chunk, on_caller in ran if on_caller == (failing_on == "caller"))
    assert str(failure.value) == f"chunk {late}"
    assert sorted(ran)[:2] in ([(0, False), (1, True)], [(0, True), (1, False)])
    assert sorted(chunk for chunk, _ in ran) == [0, 1, 2]
    assert threading.active_count() == threads


def test_map_batches_waits_for_the_pool_after_a_caller_failure(monkeypatch):
    # The calling thread's own chunk fails while the pool's chunk is still
    # running: its exception is raised only after the pool chunk has
    # finished and the pool thread has exited.
    monkeypatch.setattr(executor, "usable_cpus", lambda: 2)
    caller = threading.get_ident()
    both_started = threading.Barrier(2, timeout=30)
    caller_failed = threading.Event()
    finished = []

    def fn(_, batch):
        chunk = int(batch[0, 0]) // EVAL_CHUNK
        both_started.wait()
        if threading.get_ident() == caller:
            caller_failed.set()
            raise ValueError(f"chunk {chunk} on the caller")
        assert caller_failed.wait(timeout=30)
        time.sleep(0.05)
        finished.append(chunk)
        return chunk

    threads = threading.active_count()
    with pytest.raises(ValueError, match="on the caller"):
        executor.map_batches(fn, _chunk_samples(4))
    assert len(finished) == 1
    assert threading.active_count() == threads


def test_evaluate_memory_does_not_grow_with_dataset(monkeypatch):
    # map_batches concatenates a chunk only when it submits it, at most
    # CHUNKS_IN_FLIGHT at a time. Submitting every chunk up front held a
    # copy of the whole dataset: 5.3 MB more at 512 samples than at 64.
    # One worker, so the peak does not depend on how two workers' steps
    # happen to overlap.
    monkeypatch.setattr(executor, "usable_cpus", lambda: 1)
    graph = build_dwsep_net()
    samples = synthetic_samples(512)
    peaks = []
    for n in (64, 512):
        tracemalloc.start()
        try:
            evaluate(graph, samples[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1.5 * 2**20, [f"{p / 2**20:.2f} MB" for p in peaks]


@pytest.mark.parametrize(
    "model", ["small_convnet", "dwsep_net", "small_convnet_quantized", "dwsep_net_quantized"]
)
def test_program_batch_trace_matches_single_samples(model, request, test_samples):
    program = prepare(request.getfixturevalue(model))
    xs = [x for _, x, _ in test_samples[:EQUIVALENCE_SAMPLES]]
    batch_trace = {}
    program.run(np.concatenate(xs), on_step=executor._copy_into(batch_trace))
    single = []
    for x in xs:
        trace = {}
        program.run(x, on_step=executor._copy_into(trace))
        single.append(trace)
    for tid, values in batch_trace.items():
        want = np.concatenate([t[tid] for t in single])
        assert values.dtype == want.dtype
        assert values.tobytes() == want.tobytes(), tid


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net"])
def test_f32_results_independent_of_weight_layout(model, request, test_samples):
    g = request.getfixturevalue(model)
    fortran = g.copy()
    for t in fortran.tensors.values():
        if t.data is not None:
            t.data = np.asfortranarray(t.data)
    assert fortran.tensors["fc_w"].data.flags.f_contiguous
    x = np.concatenate([s[1] for s in test_samples[:8]])
    want, got = {}, {}
    run_f32(g, x, trace=want)
    run_f32(fortran, x, trace=got)
    assert want.keys() == got.keys()
    for tid in want:
        assert want[tid].tobytes() == got[tid].tobytes(), tid


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net"])
def test_calibrate_matches_saved_and_loaded_pruned_graph(tmp_path, model, request, test_samples):
    # materialize leaves FullyConnected weights F-ordered (np.delete along
    # axis 1); the disk round trip makes them C-ordered.
    g = request.getfixturevalue(model)
    pruned = materialize(g, build_prune_plan(g, [0.25]))
    save_model(pruned, tmp_path / "p")
    reloaded = load_model(tmp_path / "p")
    samples = [s[1] for s in test_samples[:16]]
    assert calibrate(pruned, samples) == calibrate(reloaded, samples)


# Indices among EQUIVALENCE_SAMPLES: inside the first chunk, across the
# first chunk boundary, and in the short last chunk.
OBSERVED_SUBSETS = {"first_chunk": [0, 3, 15], "straddling": [14, 15, 16, 17],
                    "last_chunk": [31, 32, 36]}
BRANCHY_GRAPHS = {"skip_branch": skip_branch_graph, "residual_chain": residual_chain_graph,
                  "inception": inception_graph, "pool_chain": pool_chain_graph}


def _observed_case(model, request, test_samples):
    """(graph, (input, label) samples) for a bundled model, Float32 or
    pruned as the pipeline prunes it, or a branchy graph on seeded inputs."""
    if model in BRANCHY_GRAPHS:
        graph = BRANCHY_GRAPHS[model]()
        shape = graph.tensors[graph.graph_inputs[0]].shape
        rng = np.random.default_rng(3)
        return graph, [(rng.normal(size=shape).astype(np.float32), 0)
                       for _ in range(EQUIVALENCE_SAMPLES)]
    name, _, pruned = model.partition("_pruned")
    graph = request.getfixturevalue(name)
    if pruned:
        graph = materialize(graph, build_prune_plan(graph, DEFAULT_SCHEDULE))
    return graph, [(x, label) for _, x, label in test_samples[:EQUIVALENCE_SAMPLES]]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("subset", list(OBSERVED_SUBSETS))
@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net", "small_convnet_pruned",
                                   "dwsep_net_pruned", *BRANCHY_GRAPHS])
def test_evaluate_observes_what_calibrate_returns(model, subset, workers, request, test_samples,
                                                  monkeypatch):
    # Byte for byte, signed zeros included: the rows are folded in sample
    # order within each chunk and the chunks merged in sample order.
    monkeypatch.setattr(executor, "usable_cpus", lambda: workers)
    graph, samples = _observed_case(model, request, test_samples)
    picked = OBSERVED_SUBSETS[subset]
    ranges = {}
    records, accuracy = evaluate(graph, samples, picked, ranges)
    want = calibrate(graph, [samples[i][0] for i in picked])
    assert json_text(ranges) == json_text(want)
    plain_records, plain_accuracy = evaluate(graph, samples)
    assert record_tuples(records) == record_tuples(plain_records)
    assert accuracy == plain_accuracy


class RecordingRanges(Mapping):
    """Ranges that answer every tensor id, `known`'s range or a made-up
    one, and record each id looked up in `read`."""

    def __init__(self, known: dict[str, TensorRange]):
        self.known, self.read = known, set()

    def __getitem__(self, tid):
        self.read.add(tid)
        return self.known.get(tid, TensorRange(-1.0, 1.0))

    def __contains__(self, tid):
        self.read.add(tid)
        return True

    def __iter__(self):
        return iter(self.known)

    def __len__(self):
        return len(self.known)


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net", "small_convnet_pruned",
                                   "dwsep_net_pruned", *BRANCHY_GRAPHS, "compile_branchy"])
def test_calibration_keeps_exactly_the_ranges_quantization_reads(model, request, test_samples):
    # No constant and no output of an op that inherits its input's
    # parameters (ReLU, MaxPool2D, Flatten) or of Softmax gets a range.
    if model == "compile_branchy":
        cases = [(g, [(x, 0) for x in inputs]) for g, inputs in compile_branchy_sources()]
    else:
        cases = [_observed_case(model, request, test_samples)]
    for graph, samples in cases:
        picked = range(0, len(samples), 3)
        calibrated = calibrate(graph, [samples[i][0] for i in picked])
        observed = {}
        evaluate(graph, samples, picked, observed)
        recording = RecordingRanges(calibrated)
        quantize_graph(graph, recording)
        assert set(calibrated) == set(observed) == recording.read == calibrated_tensors(graph)
        assert not any(graph.tensors[tid].is_constant for tid in calibrated)


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_keeps_the_first_observed_signed_zero(workers, monkeypatch):
    # Every input is zero; only sample 14's zeros are negative. Of equal
    # bounds the first observed sample's stays, as in calibrate, so its
    # sign shows whether rows and chunks were folded in sample order.
    monkeypatch.setattr(executor, "usable_cpus", lambda: workers)
    graph = conv_relu_softmax()
    samples = [(np.full((1, 8, 8, 3), -0.0 if i == 14 else 0.0, dtype=np.float32), 0)
               for i in range(2 * EVAL_CHUNK)]
    for picked, sign in (([14, 15, 16], "-"), ([13, 14, 16], "")):
        ranges = {}
        evaluate(graph, samples, picked, ranges)
        want = calibrate(graph, [samples[i][0] for i in picked])
        assert json_text(ranges) == json_text(want)
        assert (repr(ranges["in"].min), repr(ranges["in"].max)) == (f"{sign}0.0",) * 2


def test_evaluate_observes_only_float32_graphs_and_samples_it_has(small_convnet_quantized,
                                                                  test_samples):
    samples = test_samples[:4]
    with pytest.raises(ExecutionError, match="is quantized, expected float32"):
        evaluate(small_convnet_quantized, samples, [0], {})
    graph = conv_relu_softmax()
    samples = [(np.ones((1, 8, 8, 3), dtype=np.float32), 0)] * 4
    with pytest.raises(ExecutionError, match="empty calibration set"):
        evaluate(graph, samples, [], {})
    with pytest.raises(ExecutionError, match=r"observed sample index 4 outside \[0, 4\)"):
        evaluate(graph, samples, [0, 4], {})


def test_evaluate_rejects_wrong_input_shape():
    g = uniform_logit_graph()
    good = np.ones((1, 4), dtype=np.float32)
    with pytest.raises(ExecutionError, match="sample s00020: input shape"):
        evaluate(g, [(good, 0)] * 20 + [(np.ones((2, 4), dtype=np.float32), 0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_evaluate_rejects_a_non_finite_input(bad, monkeypatch):
    # 1e300 is finite as float64 but inf as float32; no sample runs.
    monkeypatch.setattr(executor, "map_batches", lambda *_: pytest.fail("a sample ran"))
    good = np.ones((1, 4), dtype=np.float32)
    with pytest.raises(ExecutionError, match="sample s00002: input is not finite as float32"):
        evaluate(uniform_logit_graph(), [(good, 0)] * 2 + [(np.full((1, 4), bad), 0)])


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
        TensorRange(2.0, 1.0)
    with pytest.raises(ValueError):
        TensorRange(float("nan"), 1.0)
    with pytest.raises(ValueError):
        InferenceRecord("s", 0, 1.5, 0)
