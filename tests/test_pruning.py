import copy
import json
import re

import numpy as np
import pytest

from graphutil import (
    act,
    build_prune_plan,
    const,
    conv_attrs,
    graphs_equal,
    make_graph,
    skip_branch_graph,
    two_conv_chain,
)
from tinydeploy.cli import main
from tinydeploy.costmodel import estimate_deployment
from tinydeploy.executor import calibrate, run_f32
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import build_deployment_plan
from tinydeploy.graph import (
    DType,
    OpKind,
    OpNode,
    TensorKind,
    TensorSpec,
    infer_shapes,
    parameter_count,
    validate,
)
from tinydeploy.model_io import save_model
from tinydeploy.pruning import (
    Checkpoint,
    CheckpointError,
    PruneError,
    apply_masks,
    export_checkpoint,
    import_checkpoint,
    materialize,
    new_plan,
    plan_next_stage,
    prunable_layers,
    rank_filters,
)
from tinydeploy.quantization import QuantizationError, quantize_graph


def test_l2_norm_three_four_five():
    g = two_conv_chain()
    g.tensors["w1"].data[:] = 0.0
    g.tensors["w1"].data[0, 0, 0, 0] = 3.0
    g.tensors["w1"].data[0, 0, 1, 0] = 4.0
    scores = rank_filters(g)
    assert scores["c1"][0].l2_norm == pytest.approx(5.0)
    assert scores["c1"][1].l2_norm == 0.0


def test_lowest_norm_selected():
    g = two_conv_chain(first_filters=3)
    w = g.tensors["w1"].data
    w[:] = 0.0
    w[0, 0, 0, 0] = 5.0
    w[1, 0, 0, 0] = 0.0
    w[2, 0, 0, 0] = 1.0
    plan = new_plan(g, [0.34])
    plan = plan_next_stage(g, plan)
    assert plan.stages[0]["c1"] == [1]  # argmin of [5, 0, 1]


def test_stage_arithmetic_40_filters():
    g = two_conv_chain(first_filters=40)
    plan = build_prune_plan(g, [0.10, 0.05, 0.05])
    removals = [len(stage["c1"]) for stage in plan.stages]
    assert removals == [4, 2, 2]
    kept = sum(plan.masks["c1"])
    assert kept == 32  # 20% total under the original-count basis


def test_stage_arithmetic_10_filters_floor():
    g = two_conv_chain(first_filters=10)
    plan = build_prune_plan(g, [0.10, 0.05, 0.05])
    removals = [len(stage.get("c1", [])) for stage in plan.stages]
    assert removals == [1, 0, 0]
    assert sum(plan.masks["c1"]) == 9


def test_stage_removals_pairwise_disjoint():
    g = two_conv_chain(first_filters=40)
    plan = build_prune_plan(g, [0.10, 0.05, 0.05])
    sets = [set(stage["c1"]) for stage in plan.stages]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not sets[i] & sets[j]


def test_removed_l2_below_kept_l2():
    g = two_conv_chain(first_filters=24, second_filters=24, seed=3)
    plan = new_plan(g, [0.10, 0.05, 0.05])
    graph = g
    for _ in range(3):
        scores = rank_filters(graph)
        before = {
            layer: {s.filter_index: s.l2_norm for s in layer_scores}
            for layer, layer_scores in scores.items()
        }
        already = {layer: plan.removed(layer) for layer in plan.original_counts}
        plan = plan_next_stage(graph, plan)
        stage = plan.stages[-1]
        for layer, removed in stage.items():
            live = set(before[layer]) - already[layer]
            kept = live - set(removed)
            if removed and kept:
                assert max(before[layer][i] for i in removed) <= min(
                    before[layer][i] for i in kept
                )
        graph = apply_masks(g, plan)


def test_invalid_schedules_rejected():
    g = two_conv_chain()
    with pytest.raises(PruneError):
        build_prune_plan(g, [0.5, 0.6])
    with pytest.raises(PruneError):
        build_prune_plan(g, [0.0])
    with pytest.raises(PruneError):
        build_prune_plan(g, [])


def test_mask_zeroes_only_selected_filters():
    g = two_conv_chain()
    plan = new_plan(g, [0.2])
    plan.stages.append({"c1": [1]})
    masked = apply_masks(g, plan)
    assert np.all(masked.tensors["w1"].data[1] == 0)
    assert np.all(masked.tensors["b1"].data[1] == 0)
    for f in (0, 2, 3):
        np.testing.assert_array_equal(masked.tensors["w1"].data[f], g.tensors["w1"].data[f])
    # shapes unchanged
    assert masked.tensors["w1"].shape == g.tensors["w1"].shape


def test_empty_plan_is_identity():
    g = two_conv_chain()
    plan = new_plan(g, [0.2])
    plan.stages.append({})
    assert graphs_equal(apply_masks(g, plan), g)
    assert graphs_equal(materialize(g, plan), g)


def test_mask_and_materialize_agree_on_outputs():
    g = two_conv_chain(first_filters=8, second_filters=16, seed=1)
    plan = build_prune_plan(g, [0.25, 0.10])
    masked = apply_masks(g, plan)
    mat = materialize(g, plan)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(1, 6, 6, 3)).astype(np.float32)
        a = run_f32(masked, x)["probs"]
        b = run_f32(mat, x)["probs"]
        assert np.abs(a - b).max() <= 1e-5


def test_materialize_channel_propagation_shapes():
    g = two_conv_chain(first_filters=8, second_filters=16)
    plan = new_plan(g, [0.25])
    plan.stages.append({"c1": [2, 5]})
    mat = materialize(g, plan)
    assert mat.tensors["w1"].shape == (6, 3, 3, 3)
    assert mat.tensors["w2"].shape == (16, 3, 3, 6)
    assert mat.tensors["b1"].shape == (6,)
    assert validate(mat).ok


def test_materialize_and_quantize_check_the_graph_once(validations):
    # materialize validates once, inside the infer_shapes of its result;
    # quantize_graph once, in its entry check.
    g = two_conv_chain(first_filters=8, second_filters=16, seed=1)
    plan = build_prune_plan(g, [0.25])
    ranges = calibrate(materialize(g, plan), [np.ones((1, 6, 6, 3), dtype=np.float32)])
    validations.clear()
    mat = materialize(g, plan)
    assert len(validations) == 1
    quantize_graph(mat, ranges)
    assert len(validations) == 2
    mat.graph_outputs.append("missing")
    with pytest.raises(QuantizationError, match="cannot quantize invalid graph: .*missing"):
        quantize_graph(mat, ranges)


def test_materialize_reduces_parameters():
    g = two_conv_chain(first_filters=10, second_filters=12)
    plan = build_prune_plan(g, [0.10, 0.05, 0.05])
    assert parameter_count(materialize(g, plan)) < parameter_count(g)


def test_topology_preserved():
    g = two_conv_chain()
    plan = build_prune_plan(g, [0.25])
    mat = materialize(g, plan)
    assert [n.id for n in mat.nodes] == [n.id for n in g.nodes]
    assert [n.kind for n in mat.nodes] == [n.kind for n in g.nodes]
    assert all(
        mat.node(n.id).inputs == n.inputs and mat.node(n.id).outputs == n.outputs
        for n in g.nodes
    )


def test_classifier_and_branch_layers_excluded(small_convnet):
    layers = prunable_layers(small_convnet)
    assert "fc" not in layers  # feeds Softmax
    assert set(layers) == {"conv1", "conv2", "conv3"}


def test_add_feeding_layer_excluded():
    rng = np.random.default_rng(0)
    nodes = [
        OpNode("c1", OpKind.CONV2D, conv_attrs(kernel=1), ["in", "w1"], ["t1"]),
        OpNode("c2", OpKind.CONV2D, conv_attrs(kernel=1), ["t1", "w2"], ["t2"]),
        OpNode("add", OpKind.ADD, {}, ["t1", "t2"], ["t3"]),
        OpNode("fl", OpKind.FLATTEN, {}, ["t3"], ["t4"]),
        OpNode("sm", OpKind.SOFTMAX, {}, ["t4"], ["probs"]),
    ]
    tensors = [
        TensorSpec("in", (1, 4, 4, 4), DType.FLOAT32, TensorKind.INPUT),
        const("w1", rng.normal(size=(4, 1, 1, 4))),
        const("w2", rng.normal(size=(4, 1, 1, 4))),
        act("t1"), act("t2"), act("t3"), act("t4"),
        TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT),
    ]
    g = make_graph("res", nodes, tensors, ["in"], ["probs"])
    # c1 feeds the Add both directly and through c2; c2 feeds it directly
    assert prunable_layers(g) == []


def test_depthwise_propagation(dwsep_net):
    plan = new_plan(dwsep_net, [0.25])
    plan.stages.append({"conv1": [0, 7]})
    mat = materialize(dwsep_net, plan)
    assert mat.tensors["conv1_w"].shape[0] == 14
    assert mat.tensors["dw1_w"].shape == (1, 3, 3, 14)
    assert mat.tensors["dw1_b"].shape == (14,)
    assert mat.tensors["pw1_w"].shape == (32, 1, 1, 14)
    assert validate(mat).ok
    # masked and materialized agree through the depthwise chain
    masked = apply_masks(dwsep_net, plan)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=(1, 32, 32, 3)).astype(np.float32)
        a = run_f32(masked, x)["probs"]
        b = run_f32(mat, x)["probs"]
        assert np.abs(a - b).max() <= 1e-5


def test_flatten_column_propagation(small_convnet):
    plan = new_plan(small_convnet, [0.1])
    plan.stages.append({"conv3": [3]})
    mat = materialize(small_convnet, plan)
    # fc consumed 4*4*64 columns; removing one conv3 channel removes 16 columns
    assert mat.tensors["fc_w"].shape == (10, 4 * 4 * 63)
    masked = apply_masks(small_convnet, plan)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 32, 32, 3)).astype(np.float32)
    a = run_f32(masked, x)["probs"]
    b = run_f32(mat, x)["probs"]
    assert np.abs(a - b).max() <= 1e-5


def test_mask_length_mismatch_rejected():
    # ... and every other plan that does not fit the graph, masked or materialized
    g = two_conv_chain(first_filters=8)
    for edit, message in [
        (lambda p: p.original_counts.update(c1=9), "layer c1: mask length 9 != filter count 8"),
        (lambda p: p.original_counts.update(ghost=4),
         "layer ghost: in the prune plan but not a prunable layer of the model"),
        (lambda p: p.stages.append({"c1": [999]}), "layer c1: filter index 999 outside [0, 8)"),
        (lambda p: p.stages.append({"ghost": [0]}),
         "prune plan stage 2: layer ghost is not in original_counts"),
    ]:
        plan = new_plan(g, [0.2, 0.2])
        plan.stages.append({"c1": [0]})
        edit(plan)
        for transform in (apply_masks, materialize):
            with pytest.raises(PruneError, match=re.escape(message)):
                transform(g, plan)


def _saved_bytes(graph, path):
    manifest_path, blob_path = save_model(graph, path)
    return manifest_path.read_bytes(), blob_path.read_bytes()


@pytest.mark.parametrize(
    "transform", ["quantize_graph", "apply_masks", "materialize", "import_checkpoint"]
)
def test_transformations_leave_input_unchanged(tmp_path, small_convnet, test_samples, transform):
    # infer_shapes shares constant arrays, so a transformation that wrote
    # into them instead of replacing them would change its input.
    g = small_convnet.copy()
    before = _saved_bytes(g, tmp_path / "before")
    plan = build_prune_plan(g, [0.25])
    if transform == "quantize_graph":
        out = quantize_graph(g, calibrate(g, [s[1] for s in test_samples[:4]]))
    elif transform == "apply_masks":
        out = apply_masks(g, plan)
    elif transform == "materialize":
        out = materialize(g, plan)
    else:
        out = import_checkpoint(g, export_checkpoint(apply_masks(g, plan)))
    assert not graphs_equal(out, g)
    assert _saved_bytes(g, tmp_path / "after") == before


def test_apply_masks_copies_only_touched_constants(tmp_path, dwsep_net):
    plan = new_plan(dwsep_net, [0.25])
    plan.stages.append({"conv1": [0, 7]})
    before = _saved_bytes(dwsep_net, tmp_path / "before")
    masked = apply_masks(dwsep_net, plan)
    # conv1's rows and bias, and the depthwise kernel and bias it feeds
    touched = {"conv1_w", "conv1_b", "dw1_w", "dw1_b"}
    for tid, t in dwsep_net.tensors.items():
        if not t.is_constant:
            continue
        new = masked.tensors[tid].data
        if tid in touched:
            removed = [0, 7] if tid.startswith("conv1") else (Ellipsis, [0, 7])
            assert not np.shares_memory(new, t.data), tid
            assert np.all(new[removed] == 0) and np.any(t.data[removed] != 0), tid
        else:
            assert new is t.data, tid
    assert _saved_bytes(dwsep_net, tmp_path / "after") == before


def test_compile_path_makes_no_deep_copy(monkeypatch, tmp_path, dwsep_net, test_samples):
    def no_deepcopy(*args, **kwargs):
        raise AssertionError("copy.deepcopy called on the compile path")

    monkeypatch.setattr(copy, "deepcopy", no_deepcopy)
    g = dwsep_net
    plan = new_plan(g, [0.1, 0.05])
    for _ in plan.schedule:
        plan = plan_next_stage(g, plan)
        export_checkpoint(apply_masks(g, plan)).save(tmp_path / "ckpt")
        g = import_checkpoint(g, Checkpoint.load(tmp_path / "ckpt"))
    pruned = materialize(g, plan)
    quantized = quantize_graph(pruned, calibrate(pruned, [s[1] for s in test_samples[:4]]))
    deployment = build_deployment_plan(quantized, HardwareProfile())
    assert deployment.estimates is not None


def test_compile_chain_validates_three_times(validations, dwsep_net, test_samples):
    # Three prune stages, materialize, calibrate, quantize, plan and
    # estimate: materialize infers the new shapes, calibrate's prepare and
    # quantize_graph check their private copies, and nothing else validates.
    validations.clear()
    g = dwsep_net
    plan = new_plan(g, [0.1, 0.05, 0.05])
    for _ in plan.schedule:
        plan = plan_next_stage(g, plan)
        g = import_checkpoint(g, export_checkpoint(apply_masks(g, plan)))
    pruned = materialize(g, plan)
    quantized = quantize_graph(pruned, calibrate(pruned, [s[1] for s in test_samples[:4]]))
    profile = HardwareProfile()
    estimate_deployment(build_deployment_plan(quantized, profile), quantized, profile)
    assert len(validations) == 3


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net", "skip_branch"])
def test_transformations_keep_consistent_shapes(request, model):
    # Every graph the library hands on has the shapes infer_shapes derives.
    g = skip_branch_graph() if model == "skip_branch" else request.getfixturevalue(model)
    plan = build_prune_plan(g, [0.25])
    masked = apply_masks(g, plan)
    pruned = materialize(g, plan)
    x = np.random.default_rng(0).normal(size=(4, *g.tensors["in"].shape[1:]))
    outputs = {
        "apply_masks": masked,
        "import_checkpoint": import_checkpoint(g, export_checkpoint(masked)),
        "materialize": pruned,
        "quantize_graph": quantize_graph(pruned, calibrate(pruned, list(x[:, None]))),
    }
    for call, out in outputs.items():
        inferred, _ = infer_shapes(out)
        for tid, t in out.tensors.items():
            assert t.shape == inferred.tensors[tid].shape, (call, tid)


@pytest.mark.parametrize("call", ["new_plan", "plan_next_stage", "apply_masks", "materialize"])
def test_pruning_infers_shapes_at_most_twice(validations, small_convnet, call):
    # Only materialize makes a graph with new shapes, so only it validates
    # (once, inside infer_shapes); the others read the graph's own shapes.
    assert len(prunable_layers(small_convnet)) >= 3
    staged = plan_next_stage(small_convnet, new_plan(small_convnet, [0.25, 0.25]))
    validations.clear()
    run, passes = {
        "new_plan": (lambda: new_plan(small_convnet, [0.25]), 0),
        "plan_next_stage": (lambda: plan_next_stage(small_convnet, staged), 0),
        "apply_masks": (lambda: apply_masks(small_convnet, staged), 0),
        "materialize": (lambda: materialize(small_convnet, staged), 1),
    }[call]
    run()
    assert len(validations) == passes


# --- checkpoints -----------------------------------------------------------


def test_checkpoint_roundtrip_identity(small_convnet):
    ckpt = export_checkpoint(small_convnet)
    restored = import_checkpoint(small_convnet, ckpt)
    assert graphs_equal(small_convnet, restored)


def test_checkpoint_file_roundtrip(tmp_path, small_convnet):
    export_checkpoint(small_convnet).save(tmp_path / "c")
    restored = import_checkpoint(small_convnet, Checkpoint.load(tmp_path / "c"))
    assert graphs_equal(small_convnet, restored)


@pytest.mark.parametrize("model", ["small_convnet", "dwsep_net"])
def test_checkpoint_blob_is_the_model_blob(request, tmp_path, model):
    g = request.getfixturevalue(model)
    for graph in (g, apply_masks(g, build_prune_plan(g, [0.25]))):
        _, blob_path = save_model(graph, tmp_path / "m")
        assert export_checkpoint(graph).blob == blob_path.read_bytes()


def test_checkpoint_wrong_length_names_tensor():
    g = two_conv_chain()
    ckpt = export_checkpoint(g)
    ckpt.index["w1"]["length"] -= 4
    with pytest.raises(CheckpointError, match="w1"):
        import_checkpoint(g, ckpt)


def test_checkpoint_externally_scaled_weights_take_effect():
    g = two_conv_chain()
    ckpt = export_checkpoint(g)
    scaled = np.frombuffer(
        ckpt.blob[ckpt.index["w1"]["offset"]:ckpt.index["w1"]["offset"] + ckpt.index["w1"]["length"]],
        dtype="<f4",
    ).copy() * 2.0
    blob = bytearray(ckpt.blob)
    blob[ckpt.index["w1"]["offset"]:ckpt.index["w1"]["offset"] + ckpt.index["w1"]["length"]] = (
        scaled.astype("<f4").tobytes()
    )
    imported = import_checkpoint(g, Checkpoint(ckpt.index, bytes(blob)))
    np.testing.assert_allclose(imported.tensors["w1"].data, g.tensors["w1"].data * 2.0)
    x = np.random.default_rng(0).normal(size=(1, 6, 6, 3)).astype(np.float32)
    trace_a, trace_b = {}, {}
    run_f32(g, x, trace=trace_a)
    run_f32(imported, x, trace=trace_b)
    np.testing.assert_allclose(trace_b["t1"], 2.0 * trace_a["t1"] - g.tensors["b1"].data, atol=1e-4)


MALFORMED_CHECKPOINTS = [
    ("no_tensors", lambda m: m.pop("tensors"), "missing key 'tensors'"),
    ("tensors_list", lambda m: m.update(tensors=[]), "key 'tensors' must be dict, got list"),
    ("entry_list", lambda m: m["tensors"].update(w1=[0, 432]),
     "checkpoint tensor w1: expected an object, got list"),
    ("offset_str", lambda m: m["tensors"]["w1"].update(offset="0"),
     "key 'offset' must be int, got str"),
    ("length_float", lambda m: m["tensors"]["w1"].update(length=432.0),
     "key 'length' must be int, got float"),
    ("offset_bool", lambda m: m["tensors"]["w1"].update(offset=False),
     "key 'offset' must be int, got bool"),
    ("no_dtype", lambda m: m["tensors"]["w1"].pop("dtype"), "missing key 'dtype'"),
    ("offset_negative", lambda m: m["tensors"]["w1"].update(offset=-4),
     "checkpoint tensor w1: negative blob offset -4"),
]


@pytest.mark.parametrize("edit,message", [c[1:] for c in MALFORMED_CHECKPOINTS],
                         ids=[c[0] for c in MALFORMED_CHECKPOINTS])
def test_malformed_checkpoint_manifest_rejected(tmp_path, edit, message):
    g = two_conv_chain()
    manifest_path, _ = export_checkpoint(g).save(tmp_path / "c")
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        import_checkpoint(g, Checkpoint.load(manifest_path))


def test_cli_prune_stage_reports_malformed_checkpoint(tmp_path, capsys):
    g = two_conv_chain()
    save_model(g, tmp_path / "m")
    manifest_path, _ = export_checkpoint(g).save(tmp_path / "c")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"]["w1"] = [0, 432]
    manifest_path.write_text(json.dumps(manifest))
    argv = ["prune-stage", "--model", str(tmp_path / "m.json"),
            "--plan", str(tmp_path / "plan.json"), "--schedule", "0.25",
            "--out-masked", str(tmp_path / "masked"), "--checkpoint-in", str(manifest_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "checkpoint tensor w1: expected an object" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "masked.json").exists()


def test_checkpoint_unknown_tensor_rejected():
    g = two_conv_chain()
    ckpt = export_checkpoint(g)
    ckpt.index["mystery"] = {"offset": 0, "length": 4, "dtype": "float32", "shape": [1]}
    with pytest.raises(CheckpointError, match="mystery"):
        import_checkpoint(g, ckpt)
