import numpy as np
import pytest

from graphutil import act, const, conv_attrs, make_graph
from tinydeploy.costmodel import (
    estimate_deployment,
    estimate_group,
    flash_bytes,
    node_macs,
    node_proxy_ops,
)
from tinydeploy.graph import DType, OpKind, OpNode, TensorKind, TensorSpec
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import build_deployment_plan


def conv_graph(out_c, kernel, in_shape, stride=1, padding="VALID"):
    rng = np.random.default_rng(0)
    nodes = [OpNode("conv", OpKind.CONV2D, conv_attrs(kernel, stride, padding),
                    ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", in_shape, DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(out_c, kernel, kernel, in_shape[3]))),
        act("out"),
    ]
    return make_graph("conv", nodes, tensors, ["in"], ["out"])


def test_conv_mac_formula():
    g = conv_graph(out_c=8, kernel=3, in_shape=(1, 16, 16, 4))
    # out 14x14x8, kernel 3x3, in 4 -> 14*14*8*3*3*4
    assert node_macs(g, g.nodes[0]) == 14 * 14 * 8 * 3 * 3 * 4


def test_depthwise_mac_formula():
    rng = np.random.default_rng(0)
    nodes = [OpNode("dw", OpKind.DEPTHWISE_CONV2D, conv_attrs(3), ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", (1, 10, 10, 6), DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(1, 3, 3, 6))),
        act("out"),
    ]
    g = make_graph("dw", nodes, tensors, ["in"], ["out"])
    assert node_macs(g, g.nodes[0]) == 8 * 8 * 6 * 3 * 3


def test_fc_mac_formula():
    rng = np.random.default_rng(0)
    nodes = [OpNode("fc", OpKind.FULLY_CONNECTED, {}, ["in", "w"], ["out"])]
    tensors = [
        TensorSpec("in", (1, 64), DType.FLOAT32, TensorKind.INPUT),
        const("w", rng.normal(size=(10, 64))),
        act("out"),
    ]
    g = make_graph("fc", nodes, tensors, ["in"], ["out"])
    assert node_macs(g, g.nodes[0]) == 64 * 10


def test_latency_600mmac_at_600gops():
    # 600 MMAC = 1.2 GOP at 600 GOPS, utilization 1.0, zero overhead -> 2.0 ms
    profile = HardwareProfile(npu_utilization=1.0, per_op_overhead_us=0.0)
    g = conv_graph(out_c=75, kernel=10, in_shape=(1, 49, 49, 200), stride=2)
    macs = node_macs(g, g.nodes[0])
    assert macs == 20 * 20 * 75 * 10 * 10 * 200  # 600 MMACs
    cost = estimate_group(g.nodes, "NPU", profile, g)
    assert cost.latency_us == pytest.approx(2000.0)


def test_energy_is_power_times_time():
    profile = HardwareProfile(npu_utilization=1.0, per_op_overhead_us=0.0, npu_power_w=0.3)
    g = conv_graph(out_c=75, kernel=10, in_shape=(1, 49, 49, 200), stride=2)
    cost = estimate_group(g.nodes, "NPU", profile, g)
    assert cost.energy_uj == pytest.approx(600.0)  # 0.3 W * 2000 us = 0.6 mJ


def test_zero_mac_group_costs_overhead_only():
    profile = HardwareProfile(per_op_overhead_us=7.5)
    rng = np.random.default_rng(0)
    nodes = [OpNode("relu", OpKind.RELU, {}, ["in"], ["out"])]
    tensors = [TensorSpec("in", (1, 4), DType.FLOAT32, TensorKind.INPUT), act("out")]
    g = make_graph("r", nodes, tensors, ["in"], ["out"])
    # byte proxy: 4 floats in + 4 floats out = 32 ops; make them free via huge throughput
    profile2 = HardwareProfile(per_op_overhead_us=7.5, cpu_freq_mhz=1e12)
    cost = estimate_group(g.nodes, "CPU", profile2, g)
    assert cost.macs == 0
    assert cost.latency_us == pytest.approx(7.5, abs=1e-6)


def test_proxy_ops_count_bytes():
    nodes = [OpNode("relu", OpKind.RELU, {}, ["in"], ["out"])]
    tensors = [TensorSpec("in", (1, 4), DType.FLOAT32, TensorKind.INPUT), act("out", (1, 4))]
    g = make_graph("r", nodes, tensors, ["in"], ["out"])
    assert node_proxy_ops(g, g.nodes[0]) == 16 + 16


def test_latency_monotone_in_macs():
    profile = HardwareProfile()
    small = conv_graph(out_c=4, kernel=3, in_shape=(1, 16, 16, 4))
    large = conv_graph(out_c=8, kernel=3, in_shape=(1, 16, 16, 4))
    c_small = estimate_group(small.nodes, "NPU", profile, small)
    c_large = estimate_group(large.nodes, "NPU", profile, large)
    assert c_large.latency_us > c_small.latency_us
    assert c_large.energy_uj > c_small.energy_uj


def test_four_megabyte_float_quantizes_near_one(tmp_path):
    # 1M float32 weights = 4.00 MB -> 1M int8 bytes + per-channel tables
    from tinydeploy.executor import calibrate
    from tinydeploy.quantization import quantize_graph

    g = conv_graph(out_c=100, kernel=5, in_shape=(1, 8, 8, 400))
    assert g.tensors["w"].size_bytes == 4_000_000
    profile = HardwareProfile(op_metadata_bytes=0)
    ranges = calibrate(g, [np.zeros((1, 8, 8, 400), dtype=np.float32)])
    q = quantize_graph(g, ranges)
    quant_flash = flash_bytes(q, profile)
    assert quant_flash >= 1_000_000
    assert quant_flash <= 1_000_000 + 8 * 100 + 2 * 8  # weights + tables
    reduction = 1 - quant_flash / flash_bytes(g, profile)
    assert reduction >= 0.70


def test_flash_quantization_bound(small_convnet, small_convnet_quantized,
                                  dwsep_net, dwsep_net_quantized):
    profile = HardwareProfile()
    metadata_allowance = 4096
    for f32, q in ((small_convnet, small_convnet_quantized),
                   (dwsep_net, dwsep_net_quantized)):
        assert flash_bytes(q, profile) <= 0.26 * flash_bytes(f32, profile) + metadata_allowance


def test_deployment_estimate_consistency(small_convnet_quantized):
    profile = HardwareProfile()
    plan = build_deployment_plan(small_convnet_quantized, profile)
    est = plan.estimates
    # latency equals schedule makespan, not the op sum
    assert est.latency_ms == pytest.approx(plan.makespan_us / 1000.0)
    serial_ms = sum(g.latency_us for g in est.per_group_breakdown) / 1000.0
    assert est.latency_ms <= serial_ms + 1e-9
    # energy equals group sum plus idle over the makespan
    active = sum(g.energy_uj for g in est.per_group_breakdown)
    expect = (active + profile.idle_power_w * plan.makespan_us) / 1000.0
    assert est.energy_mj == pytest.approx(expect)
    assert est.ram_peak_bytes == plan.memory_plan.arena_peak_bytes + profile.runtime_ram_overhead_bytes


def test_budget_flags():
    profile = HardwareProfile()
    # 0.12 MB arena on the default 4.2 MB budget -> ram_ok
    class FakePlan:
        pass

    from tinydeploy.mapping import MemoryPlan, TimelineEntry

    plan = FakePlan()
    plan.fused_groups = [["conv"]]
    plan.timeline = [TimelineEntry("conv", "CPU", 0.0, 30_400.0)]
    plan.memory_plan = MemoryPlan(tensors={}, arena_peak_bytes=120_000)
    g = conv_graph(out_c=2, kernel=1, in_shape=(1, 2, 2, 2))
    est = estimate_deployment(plan, g, profile)
    assert est.budget_flags["ram_ok"]
    # 30.4 ms makespan meets the 5 FPS (200 ms) deadline
    assert est.latency_ms == pytest.approx(30.4)
    assert est.budget_flags["deadline_ok"]


def test_serial_single_target_energy_arithmetic():
    profile = HardwareProfile(cpu_power_w=0.5, idle_power_w=0.1, per_op_overhead_us=1.0)
    from tinydeploy.mapping import MemoryPlan, TimelineEntry

    class FakePlan:
        pass

    g = conv_graph(out_c=2, kernel=1, in_shape=(1, 2, 2, 2))
    plan = FakePlan()
    plan.fused_groups = [["conv"]]
    cost = estimate_group(g.nodes, "CPU", profile, g)
    plan.timeline = [TimelineEntry("conv", "CPU", 0.0, cost.latency_us)]
    plan.memory_plan = MemoryPlan(tensors={}, arena_peak_bytes=0)
    est = estimate_deployment(plan, g, profile)
    expect_mj = (cost.latency_us * 0.5 + 0.1 * cost.latency_us) / 1000.0
    assert est.energy_mj == pytest.approx(expect_mj)
