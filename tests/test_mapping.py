import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphutil import brute_force_arena_peak, brute_force_makespan, skip_branch_graph
from tinydeploy.data_files import load_profile
from tinydeploy.executor import calibrate, run_int8
from tinydeploy import mapping
from tinydeploy.graph import OpKind
from tinydeploy.hardware import HardwareProfile
from tinydeploy.quantization import quantize_graph
from tinydeploy.mapping import (
    Lifetime,
    MappingError,
    build_deployment_plan,
    group_dependencies,
    load_plan,
    partition_and_fuse,
    schedule,
    tensor_lifetimes,
    verify_memory_plan,
)


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
    assert ["softmax"] in groups


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
    conv_out = g.node("conv1").outputs[0]
    relu_out = g.node("conv1_relu").outputs[0]
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

    best = None
    for order in itertools.permutations(gids):
        pos = {g: i for i, g in enumerate(order)}
        if any(pos[d] > pos[g] for g in gids for d in deps[g]):
            continue
        candidate = mapping._run_list_schedule(list(order), deps, targets, latencies, transfer)
        if best is None or max(e.end_us for e in candidate) < max(e.end_us for e in best):
            best = candidate
    best.sort(key=lambda e: (e.start_us, gids.index(e.group)))
    assert timeline == best


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
    fused_pairs = sum(1 for g in groups if len(g) == 2)
    assert len(groups) == n_nodes - fused_pairs


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
    from tinydeploy.mapping import place_lifetimes

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
    conv_out = small_convnet_quantized.node("conv1").outputs[0]
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


def test_plan_json_roundtrip(tmp_path, small_convnet_quantized, dwsep_net_quantized):
    skip = skip_branch_graph()
    xs = np.random.default_rng(3).normal(size=(4, 1, 6, 6, 4)).astype(np.float32)
    graphs = [small_convnet_quantized, dwsep_net_quantized, quantize_graph(skip, calibrate(skip, xs))]
    for graph in graphs:
        for profile in ("builtin:profile_default", "builtin:profile_desk_calibrated"):
            plan = build_deployment_plan(graph, load_profile(profile))
            plan.save(tmp_path / "plan.json")
            assert load_plan(tmp_path / "plan.json") == plan
