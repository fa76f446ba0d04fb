"""Latency / energy / RAM / Flash estimation for deployment plans.

MAC counts follow the usual closed forms (Conv2D =
outH*outW*outC*kh*kw*inC, DepthwiseConv2D = outH*outW*C*kh*kw,
FullyConnected = in*out) with 1 MAC = 2 ops. Ops without a MAC form
(pools, elementwise, Softmax, reshapes) use a byte-count proxy: one op
per byte moved (inputs read + outputs written). Group latency is
ops / (throughput * utilization) plus one dispatch overhead per group;
energy is active power * time per group plus idle power over the whole
makespan.

Flash is the sum of constant-tensor payloads, quantization tables and a
fixed per-op metadata overhead. All power/overhead numbers come from the
hardware profile and are illustrative, not measured.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .graph import WEIGHTED_OPS, GraphIR, OpKind, OpNode
from .hardware import HardwareProfile
from .quantization import quantization_table_bytes


def group_id(group: Sequence[str]) -> str:
    """A fused group's id in plans and timelines: its node ids joined by "+"."""
    return "+".join(group)


def group_index(fused_groups: Iterable[Sequence[str]]) -> dict[str, str]:
    """Node id -> id of the fused group that holds it."""
    return {nid: group_id(group) for group in fused_groups for nid in group}


@dataclass
class GroupCost:
    group: str  # its `group_id`
    target: str
    macs: int
    latency_us: float
    energy_uj: float


@dataclass
class CostEstimate:
    latency_ms: float
    energy_mj: float
    ram_peak_bytes: int
    flash_bytes: int
    per_group_breakdown: list[GroupCost]
    budget_flags: dict

    def to_json(self) -> dict:
        return asdict(self)


def node_macs(graph: GraphIR, node: OpNode) -> int:
    """Multiply-accumulate count; 0 for ops costed by the byte proxy."""
    if node.kind not in WEIGHTED_OPS:
        return 0
    out = graph.tensors[node.outputs[0]].shape
    w = graph.tensors[node.inputs[1]].shape
    if node.kind == OpKind.CONV2D:
        _, oh, ow, oc = out
        _, kh, kw, ic = w
        return oh * ow * oc * kh * kw * ic
    if node.kind == OpKind.DEPTHWISE_CONV2D:
        _, oh, ow, c = out
        _, kh, kw, _ = w
        return oh * ow * c * kh * kw
    return w[0] * w[1]  # FullyConnected: out * in


def node_proxy_ops(graph: GraphIR, node: OpNode) -> int:
    """Byte-count proxy for non-MAC ops: bytes read plus bytes written."""
    if node.kind in WEIGHTED_OPS:
        return 0
    total = 0
    for tid in node.inputs:
        t = graph.tensors[tid]
        if not t.is_constant:
            total += t.size_bytes
    for tid in node.outputs:
        total += graph.tensors[tid].size_bytes
    return total


def estimate_group(
    nodes: Sequence[OpNode],
    target: str,
    profile: HardwareProfile,
    graph: GraphIR,
) -> GroupCost:
    """(macs, latency, energy) for one fused group, given as its nodes, on one target."""
    macs = sum(node_macs(graph, node) for node in nodes)
    ops = 2 * macs + sum(node_proxy_ops(graph, node) for node in nodes)
    latency_us = ops / profile.throughput_ops_per_us(target) + profile.per_op_overhead_us
    energy_uj = latency_us * profile.active_power_w(target)
    return GroupCost(
        group=group_id([node.id for node in nodes]),
        target=target,
        macs=macs,
        latency_us=latency_us,
        energy_uj=energy_uj,
    )


def flash_bytes(graph: GraphIR, profile: HardwareProfile) -> int:
    """Constant payload bytes + quantization tables + per-op metadata."""
    payload = sum(t.size_bytes for t in graph.tensors.values() if t.is_constant)
    tables = quantization_table_bytes(graph)
    metadata = profile.op_metadata_bytes * len(graph.nodes)
    return payload + tables + metadata


def estimate_deployment(plan, graph: GraphIR, profile: HardwareProfile) -> CostEstimate:
    """Full-plan estimate of a plan `map` built from this graph and
    profile; latency is the schedule makespan, not the op sum."""
    target_of = {entry.group: entry.target for entry in plan.timeline}
    nodes = {n.id: n for n in graph.nodes}
    breakdown = [
        estimate_group([nodes[nid] for nid in group], target_of[group_id(group)], profile, graph)
        for group in plan.fused_groups
    ]
    return _plan_estimate(plan, breakdown, flash_bytes(graph, profile), profile)


def _plan_estimate(
    plan, breakdown: list[GroupCost], flash: int, profile: HardwareProfile
) -> CostEstimate:
    """Totals and budget flags of a plan from its per-group costs and flash size."""
    makespan_us = max((entry.end_us for entry in plan.timeline), default=0.0)
    active_uj = sum(g.energy_uj for g in breakdown)
    energy_mj = (active_uj + profile.idle_power_w * makespan_us) / 1000.0
    latency_ms = makespan_us / 1000.0

    ram_peak = plan.memory_plan.arena_peak_bytes + profile.runtime_ram_overhead_bytes
    deadline_ms = 1000.0 / profile.deadline_fps
    flags = {
        "ram_ok": ram_peak <= profile.ram_budget_bytes,
        "flash_ok": flash <= profile.flash_budget_bytes,
        "deadline_ok": latency_ms <= deadline_ms,
    }
    return CostEstimate(
        latency_ms=latency_ms,
        energy_mj=energy_mj,
        ram_peak_bytes=ram_peak,
        flash_bytes=flash,
        per_group_breakdown=breakdown,
        budget_flags=flags,
    )
