import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import (
    act,
    const,
    conv_attrs,
    conv_relu_softmax,
    make_graph,
    reference_topological_order,
)
from tinydeploy.graph import (
    QMAX,
    QMIN,
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    ShapeError,
    TensorKind,
    TensorSpec,
    conv_output_hw,
    infer_shapes,
    priority_order,
    same_padding_amounts,
    topological_order,
    validate,
)


def test_minimal_graph_validates():
    g = conv_relu_softmax()
    assert validate(g).ok


def test_dangling_input_reported():
    nodes = [OpNode("relu", OpKind.RELU, {}, ["t9"], ["out"])]
    tensors = [act("t9", (1, 4)), act("out", (1, 4))]
    g = GraphIR("bad", nodes, {t.id: t for t in tensors}, [], ["out"])
    report = validate(g)
    assert not report.ok
    assert any("dangling input t9" in v for v in report.violations)


def test_multiple_producers_reported():
    nodes = [
        OpNode("a", OpKind.RELU, {}, ["in"], ["t1"]),
        OpNode("b", OpKind.RELU, {}, ["in"], ["t1"]),
    ]
    tensors = [
        TensorSpec("in", (1, 4), DType.FLOAT32, TensorKind.INPUT),
        act("t1", (1, 4)),
    ]
    g = GraphIR("bad", nodes, {t.id: t for t in tensors}, ["in"], ["t1"])
    report = validate(g)
    assert any("multiple producers t1" in v for v in report.violations)


def test_int8_without_quant_reported():
    t = TensorSpec("q", (1, 4), DType.INT8, TensorKind.ACTIVATION, quant=None)
    g = GraphIR("bad", [], {"q": t}, [], [])
    assert any("Int8 without quantization" in v for v in validate(g).violations)


def test_constant_data_length_checked():
    w = TensorSpec("w", (2, 3), DType.FLOAT32, TensorKind.WEIGHT,
                   data=np.zeros((2, 3), dtype=np.float32))
    w.shape = (2, 4)  # corrupt after construction
    g = GraphIR("bad", [], {"w": w}, [], [])
    assert any("shape implies" in v for v in validate(g).violations)


def test_conv_output_shape_valid_padding():
    # floor((64-3)/1)+1 = 62
    assert conv_output_hw((64, 64), (3, 3), (1, 1), "VALID") == (62, 62)
    rng = np.random.default_rng(0)
    nodes = [OpNode("conv", OpKind.CONV2D, conv_attrs(), ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", (1, 64, 64, 3), DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(8, 3, 3, 3))),
        act("out"),
    ]
    g = make_graph("c", nodes, tensors, ["in"], ["out"])
    assert g.tensors["out"].shape == (1, 62, 62, 8)


def test_conv_1x1_identity_spatial():
    rng = np.random.default_rng(0)
    nodes = [OpNode("conv", OpKind.CONV2D, conv_attrs(kernel=1), ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", (1, 10, 10, 4), DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(4, 1, 1, 4))),
        act("out"),
    ]
    g = make_graph("c", nodes, tensors, ["in"], ["out"])
    assert g.tensors["out"].shape == (1, 10, 10, 4)


def test_same_padding_shape_and_split():
    assert conv_output_hw((32, 32), (3, 3), (2, 2), "SAME") == (16, 16)
    # floor-left / ceil-right
    assert same_padding_amounts(5, 3, 2) == (1, 1)
    assert same_padding_amounts(4, 3, 2) == (0, 1)


def test_add_shape_mismatch_names_node():
    nodes = [OpNode("add1", OpKind.ADD, {}, ["a", "b"], ["out"])]
    tensors = [
        TensorSpec("a", (1, 8, 8, 16), DType.FLOAT32, TensorKind.INPUT),
        TensorSpec("b", (1, 8, 8, 32), DType.FLOAT32, TensorKind.INPUT),
        act("out"),
    ]
    g = GraphIR("bad", nodes, {t.id: t for t in tensors}, ["a", "b"], ["out"])
    with pytest.raises(ShapeError, match="add1"):
        infer_shapes(g)


def test_infer_shapes_idempotent():
    g = conv_relu_softmax()
    g1, order1 = infer_shapes(g)
    g2, order2 = infer_shapes(g1)
    assert order1 == order2
    assert all(g1.tensors[t].shape == g2.tensors[t].shape for t in g1.tensors)


def test_infer_shapes_copies_structure_and_shares_constants():
    g = conv_relu_softmax()
    g.tensors["w"].quant = QuantParams(scale=0.5, zero_point=0)
    out, _ = infer_shapes(g)
    for tid, t in g.tensors.items():
        assert out.tensors[tid] is not t
        assert out.tensors[tid].data is t.data  # same array object, or both None
        assert out.tensors[tid].quant is t.quant
    assert g.tensors["w"].data is not None
    for a, b in zip(g.nodes, out.nodes):
        assert a is not b
        assert a.attrs == b.attrs and a.attrs is not b.attrs
        assert a.inputs == b.inputs and a.inputs is not b.inputs
        assert a.outputs == b.outputs and a.outputs is not b.outputs
    assert out.graph_inputs is not g.graph_inputs
    assert out.graph_outputs is not g.graph_outputs


def test_infer_shapes_keeps_weight_layout():
    # A TensorSpec(...) rebuild would make an F-ordered weight C-ordered.
    g = conv_relu_softmax()
    g.tensors["w"].data = np.asfortranarray(g.tensors["w"].data)
    out, _ = infer_shapes(g)
    assert out.tensors["w"].data is g.tensors["w"].data
    assert out.tensors["w"].data.flags.f_contiguous


def test_topological_order_respects_producers():
    g = conv_relu_softmax()
    order = topological_order(g)
    assert sorted(order) == sorted(n.id for n in g.nodes)
    producers = g.producer_map()
    pos = {nid: i for i, nid in enumerate(order)}
    for node in g.nodes:
        for tid in node.inputs:
            if tid in producers:
                assert pos[producers[tid].id] < pos[node.id]


def _draw_dag(data):
    """A graph of Concat nodes, and whether one of them reads itself.

    Node i reads the graph input or outputs of nodes earlier in a hidden
    order, listed in shuffled order. Optional extra edges may close
    cycles; a self-read always does.
    """
    n = data.draw(st.integers(min_value=1, max_value=9), label="nodes")
    hidden = data.draw(st.permutations(range(n)), label="hidden order")
    inputs = {}
    for rank, i in enumerate(hidden):
        sources = ["x"] + [f"t{j}" for j in hidden[:rank]]
        inputs[i] = data.draw(st.lists(st.sampled_from(sources), min_size=1, max_size=3))
    for i in data.draw(st.lists(st.sampled_from(range(n)), max_size=2), label="back edges"):
        inputs[i].append(f"t{data.draw(st.sampled_from(range(n)))}")
    self_loop = data.draw(st.booleans(), label="self loop")
    if self_loop:
        inputs[0].append("t0")
    nodes = [OpNode(f"n{i}", OpKind.CONCAT, {"axis": 1}, inputs[i], [f"t{i}"]) for i in range(n)]
    tensors = {t.id: t for t in [act("x")] + [act(f"t{i}") for i in range(n)]}
    return GraphIR("dag", nodes, tensors, ["x"], [f"t{n - 1}"]), self_loop


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_topological_order_matches_reference(data):
    g, self_loop = _draw_dag(data)
    try:
        want = reference_topological_order(g)
    except ValueError as exc:
        assert "cycle" in str(exc)
        with pytest.raises(ValueError, match="dependency cycle among nodes"):
            topological_order(g)
        return
    assert not self_loop
    assert topological_order(g) == want


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_priority_order_matches_reference(data):
    # Random distinct keys, so the smallest ready key is not the position.
    g, self_loop = _draw_dag(data)
    ids = [n.id for n in g.nodes]
    keys = data.draw(st.lists(st.integers(-50, 50), min_size=len(ids), max_size=len(ids),
                              unique=True), label="keys")
    key = dict(zip(ids, keys)).__getitem__
    producers = g.producer_map()
    deps = {n.id: {producers[t].id for t in n.inputs if t in producers} for n in g.nodes}
    try:
        want = reference_topological_order(g, key)
    except ValueError:
        assert priority_order(ids, deps, key) is None
        return
    assert not self_loop
    assert priority_order(ids, deps, key) == want


@pytest.mark.parametrize("zero_point", [QMIN - 1, QMAX + 1, 2**29 - 129])
def test_quant_params_refuse_zero_point_outside_int8(zero_point):
    message = f"zero point {zero_point} outside Int8 range \\[-128, 127\\]"
    with pytest.raises(ValueError, match=message):
        QuantParams(scale=1.0, zero_point=zero_point)
    with pytest.raises(ValueError, match=message):
        QuantParams(scale=np.ones(3), zero_point=[0, zero_point, 0], granularity="per_channel",
                    axis=0)


def test_quant_params_accept_both_ends_of_int8():
    assert QuantParams(scale=1.0, zero_point=QMIN).zero_point == QMIN
    assert QuantParams(scale=1.0, zero_point=QMAX).zero_point == QMAX
    per_channel = QuantParams(scale=np.ones(2), zero_point=[QMIN, QMAX],
                              granularity="per_channel", axis=0)
    assert list(per_channel.zero_point) == [QMIN, QMAX]


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_quant_params_refuse_scale_not_finite_and_positive(scale):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        QuantParams(scale=scale, zero_point=0)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        QuantParams(scale=[1.0, scale], zero_point=[0, 0], granularity="per_channel", axis=0)


def test_graph_copy_shares_constants_and_quant_params(small_convnet_quantized):
    g = small_convnet_quantized
    out = g.copy()
    assert any(t.quant is not None and t.quant.granularity == "per_channel"
               for t in g.tensors.values())
    for tid, t in g.tensors.items():
        o = out.tensors[tid]
        assert o is not t
        assert (o.id, o.shape, o.dtype, o.kind) == (t.id, t.shape, t.dtype, t.kind)
        assert o.data is t.data
        assert o.quant is t.quant
    for a, b in zip(g.nodes, out.nodes):
        assert a is not b and a.attrs is not b.attrs and a.attrs == b.attrs


def test_cycle_detected():
    nodes = [
        OpNode("a", OpKind.RELU, {}, ["t2"], ["t1"]),
        OpNode("b", OpKind.RELU, {}, ["t1"], ["t2"]),
    ]
    tensors = [act("t1", (1, 4)), act("t2", (1, 4))]
    g = GraphIR("cyc", nodes, {t.id: t for t in tensors}, [], ["t1"])
    assert any("cycle" in v for v in validate(g).violations)


def test_concat_shape_sum_along_axis():
    nodes = [OpNode("cat", OpKind.CONCAT, {"axis": 3}, ["a", "b"], ["out"])]
    tensors = [
        TensorSpec("a", (1, 4, 4, 3), DType.FLOAT32, TensorKind.INPUT),
        TensorSpec("b", (1, 4, 4, 5), DType.FLOAT32, TensorKind.INPUT),
        act("out"),
    ]
    g = make_graph("cat", nodes, tensors, ["a", "b"], ["out"])
    assert g.tensors["out"].shape == (1, 4, 4, 8)


def test_bad_attrs_reported():
    nodes = [OpNode("conv", OpKind.CONV2D,
                    {"kernel_h": 0, "kernel_w": 3, "stride_h": 1, "stride_w": 1,
                     "padding": "WEIRD"},
                    ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", (1, 8, 8, 3), DType.FLOAT32, TensorKind.INPUT),
        const("w", np.zeros((4, 3, 3, 3))),
        act("out"),
    ]
    g = GraphIR("bad", nodes, {t.id: t for t in tensors}, ["in"], ["out"])
    report = validate(g)
    assert any("kernel_h" in v for v in report.violations)
    assert any("padding" in v for v in report.violations)


def test_boolean_window_and_axis_attrs_reported():
    # JSON true is an int to isinstance; as a stride or an axis it is refused.
    nodes = [
        OpNode("pool", OpKind.MAX_POOL2D,
               {"kernel_h": 2, "kernel_w": 2, "stride_h": True, "stride_w": 1,
                "padding": "VALID"},
               ["in"], ["p"]),
        OpNode("cat", OpKind.CONCAT, {"axis": True}, ["p", "p"], ["out"]),
    ]
    tensors = [TensorSpec("in", (1, 8, 8, 3), DType.FLOAT32, TensorKind.INPUT),
               act("p"), act("out")]
    report = validate(GraphIR("bools", nodes, {t.id: t for t in tensors}, ["in"], ["out"]))
    assert report.violations == [
        "node pool: attr stride_h=True must be an integer >= 1",
        "node cat: Concat requires integer axis attr",
    ]
