import itertools
import json
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import (
    brute_force_arena_peak,
    brute_force_makespan,
    classifier_graph,
    conv_layer,
    conv_relu_softmax,
    inception_graph,
    node,
    op_layer,
    pool_chain_graph,
    residual_chain_graph,
    skip_branch_graph,
    two_conv_chain,
)
from tinydeploy.costmodel import flash_bytes, group_id, node_counts
from tinydeploy.cli import main
from tinydeploy.data_files import load_profile
from tinydeploy import costmodel
from tinydeploy.executor import ExecutionError, calibrate, prepare, run_int8
from tinydeploy import mapping
from tinydeploy.graph import FUSES_AFTER, OpKind, OpNode, fused_successor
from tinydeploy.hardware import DEFAULT_NPU_OPS, HardwareProfile
from tinydeploy.pruning import apply_masks, materialize, new_plan, plan_next_stage
from tinydeploy.quantization import QMAX, QMIN, quantize_graph
from tinydeploy.mapping import (
    Lifetime,
    MappingError,
    MemoryPlan,
    PLACEMENT_ORDERS,
    Slot,
    build_deployment_plan,
    group_dependencies,
    live_set_bound,
    load_plan,
    partition_and_fuse,
    place_lifetimes,
    schedule,
    tensor_lifetimes,
    verify_memory_plan,
)
from tinydeploy.model_io import json_text, save_model


def _groups_by_first(fused_groups):
    return {g[0]: g for g in fused_groups}


def test_conv_relu_softmax_partition(small_convnet_quantized):
    profile = HardwareProfile()
    assignment, groups = partition_and_fuse(small_convnet_quantized, profile)
    assert assignment["conv1"] == "NPU"
    assert assignment["conv1_relu"] == "NPU"
    assert assignment["softmax"] == "CPU"
    assert assignment["pool1"] == "CPU"  # pooling stays on CPU by default
    by_first = _groups_by_first(groups)
    assert by_first["conv1"] == ["conv1", "conv1_relu"]
    assert ["pool3", "flatten", "fc", "softmax"] in groups


def test_zero_npu_support_all_cpu(small_convnet_quantized):
    profile = HardwareProfile(npu_supported_ops=("Concat",))
    assignment, groups = partition_and_fuse(small_convnet_quantized, profile)
    assert set(assignment.values()) == {"CPU"}
    # fusion still allowed within one target
    assert _groups_by_first(groups)["conv1"] == ["conv1", "conv1_relu"]


def test_fusion_refused_across_targets(small_convnet_quantized):
    # ReLU unsupported on NPU: conv on NPU, relu on CPU, no fusion
    profile = HardwareProfile(npu_supported_ops=("Conv2D", "DepthwiseConv2D", "Add"))
    assignment, groups = partition_and_fuse(small_convnet_quantized, profile)
    assert assignment["conv1"] == "NPU" and assignment["conv1_relu"] == "CPU"
    assert _groups_by_first(groups)["conv1"] == ["conv1"]


def test_fusion_refused_on_multi_consumer(dwsep_net_quantized):
    g = dwsep_net_quantized.copy()
    # give conv1's output a second consumer
    conv_out = node(g, "conv1").outputs[0]
    relu_out = node(g, "conv1_relu").outputs[0]
    from tinydeploy.graph import OpNode, TensorSpec, DType, TensorKind, QuantParams
    from tinydeploy.quantization import fixed_point_multiplier

    qp_in = g.tensors[conv_out].quant
    qp_out = g.tensors[relu_out].quant
    sig, shift = fixed_point_multiplier(qp_in.scale / qp_in.scale)
    g.tensors["side"] = TensorSpec(
        "side", (1, 1), DType.INT8, TensorKind.ACTIVATION,
        quant=QuantParams(scale=qp_in.scale, zero_point=qp_in.zero_point),
    )
    g.nodes.append(OpNode("side_relu", OpKind.RELU, {}, [conv_out], ["side"]))
    g.graph_outputs.append("side")
    profile = HardwareProfile()
    assignment, groups = partition_and_fuse(g, profile)
    assert _groups_by_first(groups)["conv1"] == ["conv1"]  # fusion refused


def test_every_npu_group_supported(small_convnet_quantized, dwsep_net_quantized):
    profile = HardwareProfile()
    for g in (small_convnet_quantized, dwsep_net_quantized):
        assignment, groups = partition_and_fuse(g, profile)
        nodes = {n.id: n for n in g.nodes}
        for grp in groups:
            targets = {assignment[nid] for nid in grp}
            assert len(targets) == 1
            if targets == {"NPU"}:
                assert all(profile.supports(nodes[nid].kind) for nid in grp)


def test_fused_execution_bit_identical(small_convnet_quantized, test_samples):
    profile = HardwareProfile()
    _, groups = partition_and_fuse(small_convnet_quantized, profile)
    for _, x, _ in test_samples[:10]:
        a = run_int8(small_convnet_quantized, x)
        b = run_int8(small_convnet_quantized, x, fused_groups=groups)
        for tid in a:
            np.testing.assert_array_equal(a[tid], b[tid])


@pytest.mark.parametrize("group", [
    ["conv2", "conv1_relu"],  # the ReLU reads another op's output
    ["conv1_relu", "conv1"],  # the ReLU first
    ["conv1", "conv1_relu", "pool1"],  # a MaxPool2D fuses only after a pool or a Concat
])
def test_fused_group_must_be_a_producer_and_its_relu(small_convnet_quantized, group):
    order = [n.id for n in small_convnet_quantized.nodes]
    groups = [group] + [[nid] for nid in order if nid not in group]
    with pytest.raises(ExecutionError, match=f"fused group {'[+]'.join(group)} is not"):
        prepare(small_convnet_quantized, groups)


def _quantized(graph):
    """`graph` quantized on ranges from 4 seeded random inputs."""
    shape = graph.tensors[graph.graph_inputs[0]].shape
    xs = np.random.default_rng(3).normal(size=(4, *shape)).astype(np.float32)
    return quantize_graph(graph, calibrate(graph, xs))


def _with_relu_before_add1(graph):
    """`graph` (`residual_chain_graph`) with a ReLU `b1_relu` between b1 and add1."""
    graph.nodes.insert(graph.nodes.index(node(graph, "b1")) + 1,
                       OpNode("b1_relu", OpKind.RELU, {}, ["b1_out"], ["b1_r"]))
    node(graph, "add1").inputs = ["stem_r", "b1_r"]
    graph.tensors["b1_r"] = replace(graph.tensors["b1_out"], id="b1_r")
    return graph


def _with_b1_read_twice(graph):
    """`graph` (`residual_chain_graph`) whose b1 output a ReLU also reads,
    into a graph output."""
    graph.nodes.append(OpNode("side", OpKind.RELU, {}, ["b1_out"], ["side_out"]))
    graph.tensors["side_out"] = replace(graph.tensors["b1_out"], id="side_out")
    graph.graph_outputs.append("side_out")
    return graph


def _refused(graph, group):
    """prepare's error for `group` among single-node groups of `graph`."""
    groups = [group] + [[n.id] for n in graph.nodes if n.id not in group]
    with pytest.raises(ExecutionError, match=f"fused group {'[+]'.join(group)} is not a chain "
                                             "in which each node fuses with the next"):
        prepare(graph, groups)


@pytest.mark.parametrize("group", [
    ["add", "r2"],  # the Add's output is also read by the Concat
    ["mp", "cat"],  # a pool never fuses into a Concat
    ["fl", "sm"],  # a Flatten fuses only with a FullyConnected
    ["fl", "sm", "fc"],  # the head's chain out of order
    ["add", "c2"],  # a Conv2D + Add pair out of order
])
def test_prepare_refuses_a_group_outside_the_rule(group):
    _refused(_quantized(skip_branch_graph()), group)


@pytest.mark.parametrize("edit, group", [
    (_with_relu_before_add1, ["b1", "b1_relu", "add1"]),  # a ReLU fuses with nothing
    (_with_b1_read_twice, ["b1", "add1", "r1"]),  # b1's output has a second reader
], ids=["conv_relu_add", "conv_add_second_reader"])
def test_prepare_refuses_a_chain_the_rule_does_not_link(edit, group):
    _refused(_quantized(edit(residual_chain_graph())), group)


def _late_skip_graph(seed=0):
    """Stem Conv(8) -> ReLU, then a residual block whose skip input, the
    1x1 Conv `skip`, comes after the main-path Conv `main` in node order:
    Add(skip, main) -> ReLU `r`, then the classifier head."""
    def build(rng):
        stem = conv_layer(rng, "stem", "in", 8, 3, kernel=3)
        main = conv_layer(rng, "main", stem[2], 8, 8, kernel=3, relu=False)
        skip = conv_layer(rng, "skip", stem[2], 8, 8, relu=False)
        add = op_layer("add", OpKind.ADD, [skip[2], main[2]])
        return [stem, main, skip, add, op_layer("r", OpKind.RELU, [add[2]])]
    return classifier_graph("late_skip", seed, build, 6 * 6 * 8)


def _with_fc_relu(graph):
    """`graph` (`residual_chain_graph`) with a ReLU `fc_relu` between the
    FullyConnected and the Softmax."""
    graph.nodes.insert(graph.nodes.index(node(graph, "fc")) + 1,
                       OpNode("fc_relu", OpKind.RELU, {}, ["logits"], ["fc_r"]))
    node(graph, "sm").inputs = ["fc_r"]
    graph.tensors["fc_r"] = replace(graph.tensors["logits"], id="fc_r")
    return graph


def _with_one_signed_relu_input(bias_node, bias, relu):
    """`residual_chain_graph` with every bias of `bias_node` set to `bias`,
    far enough from 0 that ReLU `relu`'s input is all one sign: its zero
    point is then QMIN (all positive) or QMAX (all negative), the ends of
    the Int8 range the ReLU clips to."""
    graph = residual_chain_graph()
    graph.tensors[f"{bias_node}_b"].data[:] = bias
    quantized = _quantized(graph)
    zero_point = quantized.tensors[node(quantized, relu).inputs[0]].quant.zero_point
    assert zero_point == (QMIN if bias > 0 else QMAX)
    return graph


@pytest.mark.parametrize("graph, group", [
    (skip_branch_graph, ["fc", "sm"]),
    (skip_branch_graph, ["fl", "fc", "sm"]),
    (skip_branch_graph, ["c2", "add"]),
    (skip_branch_graph, ["cat", "fl"]),
    (pool_chain_graph, ["cat", "mp1", "mp2", "fl", "fc", "sm"]),
    (pool_chain_graph, ["mp2", "fl"]),  # ends at the Flatten's view
    (pool_chain_graph, ["avg", "amp"]),
    (lambda: _with_fc_relu(residual_chain_graph()), ["fl", "fc", "fc_relu"]),
    (residual_chain_graph, ["b1", "add1", "r1"]),
    (residual_chain_graph, ["d2", "add2", "r2"]),
    (_late_skip_graph, ["skip", "add", "r"]),  # the Add's first operand
    (lambda: _with_one_signed_relu_input("stem", 20.0, "stem_relu"), ["stem", "stem_relu"]),
    (lambda: _with_one_signed_relu_input("stem", -20.0, "stem_relu"), ["stem", "stem_relu"]),
    (lambda: _with_one_signed_relu_input("b1", 50.0, "r1"), ["add1", "r1"]),
    (lambda: _with_one_signed_relu_input("b1", -50.0, "r1"), ["add1", "r1"]),
], ids=["fc_softmax", "flatten_fc_softmax", "conv_add", "concat_flatten",
        "concat_pool_pool_head", "pool_flatten", "avgpool_maxpool", "flatten_fc_relu",
        "conv_add_relu", "depthwise_add_relu", "first_operand_conv_add_relu",
        "conv_relu_zero_point_qmin", "conv_relu_zero_point_qmax",
        "add_relu_zero_point_qmin", "add_relu_zero_point_qmax"])
def test_prepare_runs_a_chain_the_rule_links_equal_to_unfused(graph, group):
    graph = _quantized(graph())
    groups = [group] + [[n.id] for n in graph.nodes if n.id not in group]
    x = np.random.default_rng(5).normal(size=(3, *graph.tensors["in"].shape[1:]))
    unfused, fused = {}, {}
    run_int8(graph, x, trace=unfused)
    run_int8(graph, x, fused_groups=groups, trace=fused)
    inner = {node(graph, nid).outputs[0] for nid in group[:-1]}
    assert set(fused) == set(unfused) - inner
    for tid, value in fused.items():
        np.testing.assert_array_equal(value, unfused[tid])


def test_fused_successor_is_the_one_reader_a_node_fuses_into():
    """One rule for `partition_and_fuse` and `prepare(fused_groups=)`."""
    def pairs(graph):
        consumers = graph.consumer_map()
        return {n.id: succ.id for n in graph.nodes
                if (succ := fused_successor(graph, n, consumers)) is not None}

    graph = skip_branch_graph()
    # The Add is read by the ReLU and the Concat.
    assert pairs(graph) == {"c1": "r1", "c2": "add", "cat": "fl", "fl": "fc", "fc": "sm"}
    graph.graph_outputs += ["a", "b", "cat", "flat", "logits"]  # c1's, c2's, cat's, fl's, fc's
    assert pairs(graph) == {}

    graph = pool_chain_graph()
    assert pairs(graph) == {"stem": "stem_relu", "p": "p_relu", "avg": "amp", "cat": "mp1",
                            "mp1": "mp2", "mp2": "fl", "fl": "fc", "fc": "sm"}
    graph.graph_outputs += ["mp1_out"]
    assert "mp1" not in pairs(graph) and pairs(graph)["cat"] == "mp1"

    graph = residual_chain_graph()
    assert pairs(graph) == {"stem": "stem_relu", "a1": "a1_relu", "b1": "add1", "add1": "r1",
                            "a2": "a2_relu", "d2": "add2", "add2": "r2", "fl": "fc", "fc": "sm"}
    graph.graph_outputs += ["add2_out", "d2_out"]
    assert "add2" not in pairs(graph) and "d2" not in pairs(graph)


def test_add_fuses_only_with_the_relu_that_alone_reads_it():
    profile = HardwareProfile()
    _, groups = partition_and_fuse(_quantized(skip_branch_graph()), profile)
    assert ["c2", "add"] in groups and ["r2"] in groups  # `s` is also read by the Concat

    residual = residual_chain_graph()
    _, groups = partition_and_fuse(_quantized(residual), profile)
    assert ["b1", "add1", "r1"] in groups and ["d2", "add2", "r2"] in groups
    residual.graph_outputs.append("add2_out")
    _, groups = partition_and_fuse(_quantized(residual), profile)
    assert ["b1", "add1", "r1"] in groups and ["d2", "add2"] in groups and ["r2"] in groups


def test_flatten_fuses_with_its_fully_connected_on_one_target_only(small_convnet_quantized):
    assignment, groups = partition_and_fuse(small_convnet_quantized, HardwareProfile())
    assert ["pool3", "flatten", "fc", "softmax"] in groups and assignment["fc"] == "CPU"
    npu_fc = HardwareProfile(npu_supported_ops=(*DEFAULT_NPU_OPS, "FullyConnected"))
    assignment, groups = partition_and_fuse(small_convnet_quantized, npu_fc)
    assert assignment["flatten"] == "CPU" and assignment["fc"] == "NPU"
    assert ["pool3", "flatten"] in groups and ["fc"] in groups and ["softmax"] in groups


def test_a_chain_follows_successors_while_they_share_its_target():
    """Flatten -> FullyConnected -> ReLU -> Softmax: one chain of three
    while the ReLU runs on the CPU too, and the chain ends at the target
    change when the ReLU runs on the NPU. Nothing fuses into a ReLU."""
    graph = _quantized(_with_fc_relu(residual_chain_graph()))
    assert fused_successor(graph, node(graph, "fc"), graph.consumer_map()).id == "fc_relu"
    relu_on_cpu = HardwareProfile(npu_supported_ops=("Conv2D", "DepthwiseConv2D", "Add"))
    _, groups = partition_and_fuse(graph, relu_on_cpu)
    assert ["fl", "fc", "fc_relu"] in groups and ["sm"] in groups
    _, groups = partition_and_fuse(graph, HardwareProfile())
    assert ["fl", "fc"] in groups and ["fc_relu"] in groups and ["sm"] in groups


def test_groups_are_listed_after_the_groups_they_read_from():
    """`main` and `skip` both fuse into the Add; `main` comes first, so
    its chain takes the Add and `skip` stays alone. By its first node the
    chain would come before `skip`, whose output it reads."""
    graph = _quantized(_late_skip_graph())
    plan = build_deployment_plan(graph, HardwareProfile())
    chain = ["main", "add", "r"]
    assert chain in plan.fused_groups and ["skip"] in plan.fused_groups
    deps = group_dependencies(graph, plan.fused_groups)
    listed = set()
    for grp in plan.fused_groups:
        assert deps[group_id(grp)] <= listed
        listed.add(group_id(grp))

    x = np.random.default_rng(5).normal(size=(3, *graph.tensors["in"].shape[1:]))
    unfused, fused = {}, {}
    run_int8(graph, x, trace=unfused)
    run_int8(graph, x, fused_groups=plan.fused_groups, trace=fused)
    inner = {node(graph, nid).outputs[0] for grp in plan.fused_groups for nid in grp[:-1]}
    assert {"main_out", "add_out"} <= inner and set(fused) == set(unfused) - inner
    for tid, value in fused.items():
        np.testing.assert_array_equal(value, unfused[tid])

    assert not {"main_out", "add_out"} & set(plan.memory_plan.tensors)
    lifetimes = {lt.tensor_id: lt for lt in tensor_lifetimes(graph, plan.timeline,
                                                             plan.fused_groups)}
    chain_entry = next(e for e in plan.timeline if e.group == group_id(chain))
    assert lifetimes["skip_out"].end == chain_entry.end_us
    assert "skip_out" in plan.memory_plan.tensors


def test_mapping_requires_quantized_graph(small_convnet):
    with pytest.raises(MappingError, match="quantized"):
        partition_and_fuse(small_convnet, HardwareProfile())


# --- scheduling ------------------------------------------------------------


def run_schedule(groups, deps, targets, latencies, profile=None):
    profile = profile or HardwareProfile()
    timeline = schedule(groups, deps, targets, latencies, profile)
    return timeline, max(e.end_us for e in timeline)


def test_two_independent_groups_overlap():
    groups = [["a"], ["b"]]
    deps = {"a": set(), "b": set()}
    targets = {"a": "NPU", "b": "CPU"}
    latencies = {"a": 4000.0, "b": 3000.0}
    _, makespan = run_schedule(groups, deps, targets, latencies)
    assert makespan == 4000.0
    assert makespan == brute_force_makespan(["a", "b"], deps, targets, latencies)


def test_serial_chain_sums():
    groups = [["a"], ["b"], ["c"]]
    deps = {"a": set(), "b": {"a"}, "c": {"b"}}
    targets = {"a": "NPU", "b": "CPU", "c": "NPU"}
    latencies = {"a": 1000.0, "b": 2000.0, "c": 3000.0}
    _, makespan = run_schedule(groups, deps, targets, latencies)
    assert makespan == 6000.0


def test_diamond_parallel_branches():
    groups = [["a"], ["b"], ["c"], ["d"]]
    deps = {"a": set(), "b": {"a"}, "c": {"a"}, "d": {"b", "c"}}
    targets = {"a": "CPU", "b": "NPU", "c": "CPU", "d": "CPU"}
    latencies = {"a": 1500.0, "b": 2000.0, "c": 2000.0, "d": 700.0}
    _, makespan = run_schedule(groups, deps, targets, latencies)
    assert makespan == 1500.0 + 2000.0 + 700.0
    assert makespan == brute_force_makespan(list(latencies), deps, targets, latencies)


def test_timeline_respects_dependencies_and_resources(small_convnet_quantized):
    plan = build_deployment_plan(small_convnet_quantized, HardwareProfile())
    entries = {e.group: e for e in plan.timeline}
    deps = group_dependencies(small_convnet_quantized, plan.fused_groups)
    for gid, dep_set in deps.items():
        for dep in dep_set:
            assert entries[dep].end_us <= entries[gid].start_us + 1e-9
    for target in ("CPU", "NPU"):
        spans = sorted(
            (e.start_us, e.end_us) for e in plan.timeline if e.target == target
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-9  # one group active per target


def test_makespan_bounded_by_serial_sum(small_convnet_quantized):
    plan = build_deployment_plan(small_convnet_quantized, HardwareProfile())
    total = sum(e.end_us - e.start_us for e in plan.timeline)
    assert plan.makespan_us <= total + 1e-9


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_list_schedule_within_oracle_bound(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    gids = [f"g{i}" for i in range(n)]
    deps = {}
    for i, gid in enumerate(gids):
        preds = data.draw(st.sets(st.sampled_from(gids[:i]) if i else st.nothing()))
        deps[gid] = preds
    targets = {g: data.draw(st.sampled_from(["CPU", "NPU"]), label=g) for g in gids}
    latencies = {
        g: float(data.draw(st.integers(min_value=1, max_value=50), label=f"lat{g}"))
        for g in gids
    }
    groups = [[g] for g in gids]
    profile = HardwareProfile(per_op_overhead_us=0.0)
    timeline = schedule(groups, deps, targets, latencies, profile)
    makespan = max(e.end_us for e in timeline)
    optimal = brute_force_makespan(gids, deps, targets, latencies)
    assert makespan <= 1.2 * optimal + 1e-9
    assert makespan >= optimal - 1e-9


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rank_order_takes_the_highest_upward_rank_ready(data):
    # The upward rank is the longest latency path to a sink, recomputed
    # here by recursion; each step must take the ready group of highest
    # rank, ties by position in `gids`, which is not a topological order.
    n = data.draw(st.integers(min_value=1, max_value=8))
    gids = [f"g{i}" for i in range(n)]
    hidden = data.draw(st.permutations(gids), label="hidden order")
    deps = {
        g: data.draw(st.sets(st.sampled_from(hidden[:i])) if i else st.just(set()), label=g)
        for i, g in enumerate(hidden)
    }
    latencies = {g: data.draw(st.sampled_from([0.5, 1.0, 2.5]), label=f"lat {g}") for g in gids}

    def rank(g):
        return latencies[g] + max((rank(h) for h in gids if g in deps[h]), default=0.0)

    ranks = {g: rank(g) for g in gids}
    assert mapping._upward_ranks(hidden, deps, latencies) == ranks
    done: set[str] = set()
    for g in mapping._rank_order(gids, deps, latencies):
        ready = [h for h in gids if h not in done and deps[h] <= done]
        assert g == min(ready, key=lambda h: (-ranks[h], gids.index(h)))
        done.add(g)
    assert done == set(gids)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_small_schedule_is_first_minimal_permutation(data):
    # Up to EXACT_SCHEDULE_LIMIT groups, schedule() returns the list-schedule
    # timeline of the first topological permutation with the least makespan.
    n = data.draw(st.integers(min_value=1, max_value=mapping.EXACT_SCHEDULE_LIMIT))
    gids = [f"g{i}" for i in range(n)]
    hidden = data.draw(st.permutations(gids), label="hidden order")
    deps = {
        g: data.draw(st.sets(st.sampled_from(hidden[:i])) if i else st.just(set()), label=g)
        for i, g in enumerate(hidden)
    }
    targets = {g: data.draw(st.sampled_from(["CPU", "NPU"]), label=f"target {g}") for g in gids}
    latencies = {
        g: data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.5]), label=f"lat {g}") for g in gids
    }
    transfer = data.draw(st.sampled_from([0.0, 1.5]), label="transfer")
    profile = HardwareProfile(transfer_latency_us=transfer)

    timeline = schedule([[g] for g in gids], deps, targets, latencies, profile)

    options = {g: [(targets[g], latencies[g])] for g in gids}
    best = None
    for order in itertools.permutations(gids):
        pos = {g: i for i, g in enumerate(order)}
        if any(pos[d] > pos[g] for g in gids for d in deps[g]):
            continue
        candidate = mapping._run_list_schedule(list(order), deps, options, transfer)
        if best is None or max(e.end_us for e in candidate) < max(e.end_us for e in best):
            best = candidate
    best.sort(key=lambda e: (e.start_us, gids.index(e.group)))
    assert timeline == best


@pytest.mark.parametrize("c_options, c_entry", [
    ([("NPU", 2.0), ("CPU", 1.0)], ("NPU", 4.0, 6.0)),
    ([("CPU", 1.0), ("NPU", 2.0)], ("CPU", 5.0, 6.0)),
])
def test_list_schedule_takes_the_earliest_finish_and_the_first_on_a_tie(c_options, c_entry):
    """`b` finishes earlier on the idle CPU than behind `a` on the NPU;
    `c` finishes at 6 us on either target and takes the one listed first."""
    deps = {"a": set(), "b": set(), "c": set()}
    options = {"a": [("NPU", 4.0)], "b": [("NPU", 2.0), ("CPU", 5.0)], "c": c_options}
    timeline = mapping._run_list_schedule(["a", "b", "c"], deps, options, 0.0)
    assert [(e.group, e.target, e.start_us, e.end_us) for e in timeline] == [
        ("a", "NPU", 0.0, 4.0), ("b", "CPU", 0.0, 5.0), ("c", *c_entry)]


@pytest.mark.parametrize("deps", [
    {"a": {"c"}, "b": {"a"}, "c": {"b"}},
    {"a": set(), "b": {"c"}, "c": {"b"}, "d": {"a"}},
    {"a": {"a"}},
    {**{f"g{i}": {f"g{i - 1}"} for i in range(1, 7)}, "g0": {"g6"}},
], ids=["three_cycle", "two_cycle_beside_chain", "self_loop", "seven_cycle"])
def test_schedule_cycle_raises(deps):
    groups = [[g] for g in deps]
    targets = {g: "CPU" for g in deps}
    latencies = {g: 1.0 for g in deps}
    with pytest.raises(AssertionError, match="dependency cycle among groups"):
        schedule(groups, deps, targets, latencies, HardwareProfile())


def test_cross_target_transfer_latency_term():
    groups = [["a"], ["b"]]
    deps = {"a": set(), "b": {"a"}}
    targets = {"a": "NPU", "b": "CPU"}
    latencies = {"a": 1000.0, "b": 500.0}
    profile = HardwareProfile(transfer_latency_us=250.0)
    timeline = schedule(groups, deps, targets, latencies, profile)
    entries = {e.group: e for e in timeline}
    assert entries["b"].start_us == 1250.0  # producer end + transfer
    # same-target edge pays nothing
    targets_same = {"a": "CPU", "b": "CPU"}
    timeline = schedule(groups, deps, targets_same, latencies, profile)
    entries = {e.group: e for e in timeline}
    assert entries["b"].start_us == 1000.0


def test_fused_group_count_arithmetic(small_convnet_quantized):
    assignment, groups = partition_and_fuse(small_convnet_quantized, HardwareProfile())
    n_nodes = len(small_convnet_quantized.nodes)
    assert len(groups) == n_nodes - sum(len(g) - 1 for g in groups)
    # three Conv2D + ReLU, two pools and pool3 + Flatten + FullyConnected + Softmax
    assert sorted(map(len, groups)) == [1, 1, 2, 2, 2, 4]


def test_makespan_monotone_under_added_dependency():
    groups = [["a"], ["b"], ["c"]]
    targets = {"a": "NPU", "b": "CPU", "c": "NPU"}
    latencies = {"a": 1000.0, "b": 800.0, "c": 500.0}
    deps_free = {"a": set(), "b": set(), "c": set()}
    deps_chained = {"a": set(), "b": {"a"}, "c": set()}
    _, m1 = run_schedule(groups, deps_free, targets, latencies)
    _, m2 = run_schedule(groups, deps_chained, targets, latencies)
    assert m2 >= m1


# --- memory planning -------------------------------------------------------


def chain_lifetimes(sizes, spans):
    return [
        Lifetime(f"t{i}", size, float(s), float(e))
        for i, (size, (s, e)) in enumerate(zip(sizes, spans))
    ]


def greedy_peak(lifetimes):
    return place_lifetimes(lifetimes).arena_peak_bytes


def test_chain_of_three_reuses_first_slot(small_convnet_quantized):
    # A -> op -> B -> op -> C with 100 KB tensors: C reuses A's bytes
    kb = 100 * 1000
    lifetimes = [
        Lifetime("A", kb, 0.0, 1.0),
        Lifetime("B", kb, 0.0, 2.0),
        Lifetime("C", kb, 1.0, 3.0),
    ]
    assert greedy_peak(lifetimes) == 2 * kb
    assert brute_force_arena_peak(lifetimes) == 2 * kb


def test_single_op_graph_peak_is_in_plus_out():
    from graphutil import conv_relu_softmax  # reuse: conv-only variant below
    import tinydeploy.quantization as q
    from tinydeploy.executor import calibrate
    from tinydeploy.graph import infer_shapes
    import numpy as np

    g = conv_relu_softmax(out_c=2, in_shape=(1, 4, 4, 2))
    # truncate to the conv only
    g.nodes = g.nodes[:1]
    g.graph_outputs = ["conv_out"]
    for tid in ("relu_out", "flat_out", "probs"):
        del g.tensors[tid]
    g, _ = infer_shapes(g)
    ranges = calibrate(g, [np.zeros((1, 4, 4, 2), dtype=np.float32)])
    qg = q.quantize_graph(g, ranges)
    plan = build_deployment_plan(qg, HardwareProfile())
    size_in = qg.tensors["in"].size_bytes
    size_out = qg.tensors["conv_out"].size_bytes
    assert plan.memory_plan.arena_peak_bytes == size_in + size_out


def test_residual_input_lifetime_extends_to_add():
    # input consumed by a later Add: its slot must not be reused in between
    lifetimes = [
        Lifetime("x", 100, 0.0, 3.0),   # read by the Add at [2, 3)
        Lifetime("y", 100, 0.0, 2.0),
        Lifetime("z", 100, 1.0, 3.0),
    ]
    peak = greedy_peak(lifetimes)
    assert peak == 300  # all three alive during [1, 2)


def test_memory_plan_safety_bundled(small_convnet_quantized, dwsep_net_quantized):
    profile = HardwareProfile()
    for g in (small_convnet_quantized, dwsep_net_quantized):
        plan = build_deployment_plan(g, profile)
        lifetimes = tensor_lifetimes(g, plan.timeline, plan.fused_groups)
        verify_memory_plan(plan.memory_plan, lifetimes)  # raises on overlap
        total = sum(lt.size for lt in lifetimes)
        assert plan.memory_plan.arena_peak_bytes < total


def test_deployment_plan_infers_shapes_once(validations, small_convnet_quantized):
    # The graph's own shapes are consistent (see the graph module), so
    # planning neither infers shapes nor validates.
    validations.clear()
    build_deployment_plan(small_convnet_quantized, HardwareProfile())
    assert validations == []


def test_fused_intermediates_not_materialized(small_convnet_quantized):
    plan = build_deployment_plan(small_convnet_quantized, HardwareProfile())
    conv_out = node(small_convnet_quantized, "conv1").outputs[0]
    assert conv_out not in plan.memory_plan.tensors


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_greedy_peak_within_1_5x_of_optimal(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    lifetimes = []
    for i in range(n):
        size = data.draw(st.integers(min_value=1, max_value=64), label=f"size{i}") * 8
        start = data.draw(st.integers(min_value=0, max_value=6), label=f"start{i}")
        length = data.draw(st.integers(min_value=1, max_value=6), label=f"len{i}")
        lifetimes.append(Lifetime(f"t{i}", size, float(start), float(start + length)))
    greedy = greedy_peak(lifetimes)
    optimal = brute_force_arena_peak(lifetimes)
    assert greedy <= 1.5 * optimal
    assert greedy >= optimal  # oracle is a true lower bound


def size_descending_peak(lifetimes):
    """The arena of one best-fit pass with tensors in descending size."""
    return mapping._best_fit(sorted(lifetimes, key=PLACEMENT_ORDERS[0])).arena_peak_bytes


def test_placement_tries_other_orders_until_one_meets_the_bound():
    # Live at 3: t0, t1, t2 (56 B); at 4: t1, t3 (48 B). Size order puts
    # t3 at 24 past t0, then t1 and t2 can only share a block above it.
    lifetimes = [
        Lifetime("t0", 24, 2.0, 4.0),
        Lifetime("t1", 16, 3.0, 7.0),
        Lifetime("t2", 16, 1.0, 4.0),
        Lifetime("t3", 32, 4.0, 7.0),
    ]
    assert live_set_bound(lifetimes) == 56
    arenas = [mapping._best_fit(sorted(lifetimes, key=key)).arena_peak_bytes
              for key in PLACEMENT_ORDERS]
    assert arenas[0] == 64 and arenas[2] == 56 and arenas[3] == 56
    plan = place_lifetimes(lifetimes)
    assert plan.arena_peak_bytes == 56
    verify_memory_plan(plan, lifetimes)


def test_placement_is_between_the_bound_and_size_descending_order():
    rng = random.Random(29)
    below = 0
    for _ in range(300):
        lifetimes = []
        for i in range(rng.randint(1, 12)):
            start = rng.randint(0, 10)
            end = start + rng.choice([1e-9, rng.randint(1, 8)])
            lifetimes.append(Lifetime(f"t{i}", rng.randint(1, 64) * 8, float(start), end))
        plan = place_lifetimes(lifetimes)
        verify_memory_plan(plan, lifetimes)
        bound = live_set_bound(lifetimes)
        size_order = size_descending_peak(lifetimes)
        assert bound <= plan.arena_peak_bytes <= size_order
        below += plan.arena_peak_bytes < size_order
        if len(lifetimes) <= 6:
            assert bound <= brute_force_arena_peak(lifetimes)
    assert below > 0  # the other orders do win sometimes


def _memory_plan(*slots, peak):
    return MemoryPlan({tid: Slot(off, size) for tid, off, size in slots}, peak)


VERIFY_LIFETIMES = [Lifetime("a", 8, 0.0, 2.0), Lifetime("b", 8, 1.0, 3.0)]


@pytest.mark.parametrize("plan, message", [
    (_memory_plan(("a", 0, 8), peak=16), "tensor b has no slot"),
    (_memory_plan(("a", 0, 8), ("b", 8, 4), peak=16), "tensor b slot size 4 != its size 8"),
    (_memory_plan(("a", 0, 8), ("b", -8, 8), peak=8), "tensor b at negative offset -8"),
    (_memory_plan(("a", 0, 8), ("b", 8, 8), peak=12),
     "tensor b ends at 16, past the arena peak 12"),
    (_memory_plan(("a", 0, 8), ("b", 8, 8), ("c", 16, 8), peak=24), "slot for unknown tensor c"),
], ids=["missing", "size", "negative_offset", "past_peak", "unknown"])
def test_verify_memory_plan_refuses(plan, message):
    """The well-formed plan passes; each broken one is refused, naming the tensor."""
    verify_memory_plan(_memory_plan(("a", 0, 8), ("b", 8, 8), peak=16), VERIFY_LIFETIMES)
    with pytest.raises(MappingError, match=message):
        verify_memory_plan(plan, VERIFY_LIFETIMES)


PROFILES = ("builtin:profile_default", "builtin:profile_desk_calibrated")


@pytest.fixture(scope="module")
def mapped_graphs(small_convnet_quantized, dwsep_net_quantized):
    """Both bundled models, `skip_branch_graph`, `residual_chain_graph`,
    `inception_graph` and `pool_chain_graph`, quantized."""
    return [small_convnet_quantized, dwsep_net_quantized, _quantized(skip_branch_graph()),
            _quantized(residual_chain_graph()), _quantized(inception_graph()),
            _quantized(pool_chain_graph())]


def test_every_plan_map_builds_runs_fused_equal_to_unfused(mapped_graphs):
    """Fused and unfused INT8 runs agree bit for bit on every tensor both
    hold; the fused run holds all but each chain's inner tensors."""
    pair_kinds = set()
    for graph in mapped_graphs:
        shape = graph.tensors[graph.graph_inputs[0]].shape
        x = np.random.default_rng(5).normal(size=(3, *shape[1:])).astype(np.float32)
        unfused = {}
        run_int8(graph, x, trace=unfused)
        nodes = {n.id: n for n in graph.nodes}
        for profile in PROFILES:
            plan = build_deployment_plan(graph, load_profile(profile))
            fused = {}
            run_int8(graph, x, fused_groups=plan.fused_groups, trace=fused)
            inner = {nodes[nid].outputs[0] for grp in plan.fused_groups for nid in grp[:-1]}
            assert set(fused) == set(unfused) - inner
            for tid, value in fused.items():
                np.testing.assert_array_equal(value, unfused[tid])
            pair_kinds |= {(nodes[a].kind, nodes[b].kind)
                           for grp in plan.fused_groups for a, b in zip(grp, grp[1:])}
    assert {(OpKind.ADD, OpKind.RELU), (OpKind.FLATTEN, OpKind.FULLY_CONNECTED),
            (OpKind.CONV2D, OpKind.RELU), (OpKind.CONV2D, OpKind.ADD),
            (OpKind.DEPTHWISE_CONV2D, OpKind.ADD),
            (OpKind.FULLY_CONNECTED, OpKind.SOFTMAX),
            (OpKind.CONCAT, OpKind.MAX_POOL2D), (OpKind.MAX_POOL2D, OpKind.MAX_POOL2D),
            (OpKind.MAX_POOL2D, OpKind.FLATTEN), (OpKind.AVG_POOL2D, OpKind.FLATTEN),
            (OpKind.CONCAT, OpKind.FLATTEN)} <= pair_kinds


def test_a_pool_never_fuses_into_the_concat_that_reads_it():
    """`mp`'s one reader is the Concat, which also waits for `p` and `s`;
    Concat has no FUSES_AFTER row, so `mp` runs alone under both profiles."""
    assert OpKind.CONCAT not in FUSES_AFTER
    graph = _quantized(skip_branch_graph())
    assert fused_successor(graph, node(graph, "mp"), graph.consumer_map()) is None
    for profile in PROFILES:
        assert ["mp"] in partition_and_fuse(graph, load_profile(profile))[1]


def test_every_reader_but_add_reads_one_activation(mapped_graphs):
    """A chain waits only on what its first node or an Add reads: every
    other reader kind in FUSES_AFTER reads one non-constant tensor."""
    readers = set(FUSES_AFTER) - {OpKind.ADD}
    seen = set()
    for graph in mapped_graphs:
        for n in graph.nodes:
            if n.kind in readers:
                assert sum(not graph.tensors[t].is_constant for t in n.inputs) == 1, n.id
                seen.add(n.kind)
    assert seen == readers


def test_plan_json_roundtrip(tmp_path, mapped_graphs):
    for graph in mapped_graphs:
        for profile in PROFILES:
            plan = build_deployment_plan(graph, load_profile(profile))
            plan.save(tmp_path / "plan.json")
            assert load_plan(tmp_path / "plan.json") == plan


def test_plan_file_is_the_json_dumps_text_of_asdict(tmp_path, mapped_graphs):
    """`save` writes the plan record itself, with the bytes the json module
    writes for `asdict(plan)`, for every graphutil graph and both bundled
    models under both builtin profiles."""
    graphs = mapped_graphs + [_quantized(conv_relu_softmax()), _quantized(two_conv_chain())]
    for graph in graphs:
        for profile in PROFILES:
            plan = build_deployment_plan(graph, load_profile(profile))
            plan.save(tmp_path / "plan.json")
            text = json.dumps(asdict(plan), indent=2, sort_keys=True) + "\n"
            assert json_text(plan) == text
            assert (tmp_path / "plan.json").read_text() == text


def test_estimate_accepts_every_plan_map_builds(tmp_path, mapped_graphs):
    # Through the `estimate` subcommand, whose check rebuilds the plan.
    for graph in mapped_graphs:
        save_model(graph, tmp_path / "model")
        for profile in PROFILES:
            plan = build_deployment_plan(graph, load_profile(profile))
            plan.save(tmp_path / "plan.json")
            assert main(["estimate", "--model", str(tmp_path / "model.json"), "--plan",
                         str(tmp_path / "plan.json"), "--profile", profile,
                         "--out", str(tmp_path / "est.json")]) == 0
            assert json_text(plan.estimates) == (tmp_path / "est.json").read_text()


def test_every_plan_map_builds_is_at_or_above_the_live_set_bound(mapped_graphs):
    for graph in mapped_graphs:
        for profile in PROFILES:
            plan = build_deployment_plan(graph, load_profile(profile))
            lifetimes = tensor_lifetimes(graph, plan.timeline, plan.fused_groups)
            assert plan.memory_plan.arena_peak_bytes >= live_set_bound(lifetimes)


def _pruned_like_the_example(graph):
    """`graph` pruned 10/5/5% as `configs/example_pipeline.json` does, then quantized."""
    plan = new_plan(graph, [0.10, 0.05, 0.05])
    for _ in range(3):
        plan = plan_next_stage(apply_masks(graph, plan), plan)
    return _quantized(materialize(graph, plan))


def test_bundled_arenas_are_pinned(small_convnet, dwsep_net):
    """Both bundled models meet the live-set bound, pruned as in the
    example run or not pruned, under both builtin profiles."""
    cases = [(small_convnet, 19200, 20480), (dwsep_net, 43008, 49152)]
    for graph, pruned_arena, arena in cases:
        for model, expected in ((_pruned_like_the_example(graph), pruned_arena),
                                (_quantized(graph), arena)):
            for profile in PROFILES:
                plan = build_deployment_plan(model, load_profile(profile))
                lifetimes = tensor_lifetimes(model, plan.timeline, plan.fused_groups)
                assert plan.memory_plan.arena_peak_bytes == live_set_bound(lifetimes) == expected


# --- target choice -----------------------------------------------------------


def _support_based_plan(graph, profile):
    """The plan of `partition_and_fuse`'s start assignment, before any
    group moves to the CPU."""
    counts = node_counts(graph)
    return mapping._plan(mapping._links(graph), profile, counts, flash_bytes(graph, profile),
                         *partition_and_fuse(graph, profile))


@pytest.mark.parametrize("profile, moved", [
    ("builtin:profile_default", {"c", "c_relu"}),
    ("builtin:profile_desk_calibrated", {"p", "p_relu", "c", "c_relu"}),
])
def test_inception_branches_move_to_the_idle_cpu(profile, moved):
    """`inception_graph`'s parallel branches queue on the NPU in the
    support-based plan; running these on the CPU beside them lowers the
    latency without raising energy or RAM."""
    graph = _quantized(inception_graph())
    profile = load_profile(profile)
    start = _support_based_plan(graph, profile)
    plan = build_deployment_plan(graph, profile)
    assert {nid for nid, target in plan.assignment.items()
            if target != start.assignment[nid]} == moved
    assert {plan.assignment[nid] for nid in moved} == {"CPU"}
    assert plan.estimates.latency_ms < start.estimates.latency_ms
    assert plan.estimates.energy_mj <= start.estimates.energy_mj
    assert plan.estimates.ram_peak_bytes <= start.estimates.ram_peak_bytes


def test_a_plan_build_counts_each_node_once(monkeypatch):
    """`build_deployment_plan` counts every node's ops once, though it
    costs moved groups on two targets and builds a second plan."""
    graph = _quantized(inception_graph())
    counted = []
    real = costmodel.node_macs
    monkeypatch.setattr(costmodel, "node_macs", lambda g, n: counted.append(n.id) or real(g, n))
    plan = build_deployment_plan(graph, load_profile("builtin:profile_default"))
    assert "CPU" in {plan.assignment[nid] for nid in ("c", "c_relu")}  # a moved plan was built
    assert sorted(counted) == sorted(n.id for n in graph.nodes)


def test_chains_keep_the_support_based_plan(mapped_graphs):
    """The bundled models, `skip_branch_graph`, `residual_chain_graph`
    and `pool_chain_graph` gain nothing from moving a group."""
    for graph in mapped_graphs:
        if graph.name == "inception":
            continue
        for name in PROFILES:
            profile = load_profile(name)
            assert build_deployment_plan(graph, profile) == _support_based_plan(graph, profile)


@pytest.mark.parametrize("transfer_us", [0.0, 37.5, 1e4])
def test_target_choice_never_worsens_the_plan(mapped_graphs, transfer_us):
    """Under any transfer latency the plan is no worse on latency, energy
    or RAM than the support-based plan, keeps unsupported nodes off the
    NPU, has a sound arena and runs fused equal to unfused. Some plan
    moves a group at every transfer latency."""
    moved = 0
    for graph in mapped_graphs:
        nodes = {n.id: n for n in graph.nodes}
        shape = graph.tensors[graph.graph_inputs[0]].shape
        x = np.random.default_rng(5).normal(size=(3, *shape[1:])).astype(np.float32)
        unfused = {}
        run_int8(graph, x, trace=unfused)
        for name in PROFILES:
            profile = replace(load_profile(name), transfer_latency_us=transfer_us)
            start_plan = _support_based_plan(graph, profile)
            plan = build_deployment_plan(graph, profile)
            moved += plan.assignment != start_plan.assignment
            est, start = plan.estimates, start_plan.estimates
            assert est.latency_ms <= start.latency_ms and est.energy_mj <= start.energy_mj
            assert est.ram_peak_bytes <= start.ram_peak_bytes
            assert all(profile.supports(nodes[nid].kind)
                       for nid, target in plan.assignment.items() if target == "NPU")
            verify_memory_plan(plan.memory_plan,
                               tensor_lifetimes(graph, plan.timeline, plan.fused_groups))
            fused = {}
            run_int8(graph, x, fused_groups=plan.fused_groups, trace=fused)
            for tid, value in fused.items():
                np.testing.assert_array_equal(value, unfused[tid])
    assert moved
