"""Hardware-aware operator mapping.

Partitions a quantized graph onto NPU/CPU by the profile's supported op
set, fuses Conv2D/DepthwiseConv2D/FullyConnected with an immediately
following ReLU (single consumer, same target), list-schedules the fused
groups over the two resources with CPU/NPU overlap, and plans activation
memory in a single arena with lifetime-based buffer reuse (greedy
best-fit, tensors placed in descending size). Weights live in flash and
never enter the arena; tensors internal to a fused group are never
materialized.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .costmodel import CostEstimate, estimate_deployment, estimate_group, flash_bytes
from .graph import GraphIR, OpKind, infer_shapes
from .hardware import HardwareProfile

FUSIBLE_PRODUCERS = (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D, OpKind.FULLY_CONNECTED)


class MappingError(ValueError):
    pass


@dataclass
class TimelineEntry:
    group_id: str
    target: str
    start_us: float
    end_us: float

    def to_json(self) -> dict:
        return {
            "group": self.group_id,
            "target": self.target,
            "start_us": self.start_us,
            "end_us": self.end_us,
        }


@dataclass
class MemoryPlan:
    offsets: dict[str, tuple[int, int]]  # tensor id -> (offset, size)
    arena_peak_bytes: int

    def to_json(self) -> dict:
        return {
            "arena_peak_bytes": self.arena_peak_bytes,
            "tensors": {
                tid: {"offset": off, "size": size}
                for tid, (off, size) in sorted(self.offsets.items())
            },
        }


@dataclass
class DeploymentPlan:
    model: str
    profile: str
    assignment: dict[str, str]  # node id -> "NPU" | "CPU"
    fused_groups: list[list[str]]
    timeline: list[TimelineEntry]
    memory_plan: MemoryPlan
    flash_bytes: int
    estimates: CostEstimate | None = None

    @property
    def makespan_us(self) -> float:
        return max((e.end_us for e in self.timeline), default=0.0)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "profile": self.profile,
            "assignment": dict(sorted(self.assignment.items())),
            "fused_groups": [list(g) for g in self.fused_groups],
            "timeline": [e.to_json() for e in self.timeline],
            "memory_plan": self.memory_plan.to_json(),
            "flash_bytes": self.flash_bytes,
            "estimates": self.estimates.to_json() if self.estimates else None,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def partition_and_fuse(
    graph: GraphIR, profile: HardwareProfile
) -> tuple[dict[str, str], list[list[str]]]:
    """Assign each node to NPU iff its kind is supported, then fuse.

    Fusion merges a weighted producer with an immediately following ReLU
    when the intermediate tensor has exactly one consumer and both nodes
    share a target.
    """
    if not graph.is_quantized():
        raise MappingError("mapping requires a quantized graph")
    g, order = infer_shapes(graph)
    nodes = {n.id: n for n in g.nodes}
    consumers = g.consumer_map()
    assignment = {
        n.id: "NPU" if profile.supports(n.kind) else "CPU" for n in g.nodes
    }

    fused_with: dict[str, str] = {}  # relu id -> producer id
    for nid in order:
        node = nodes[nid]
        if node.kind not in FUSIBLE_PRODUCERS:
            continue
        out = node.outputs[0]
        outs = consumers.get(out, [])
        if len(outs) != 1 or outs[0].kind != OpKind.RELU:
            continue
        if out in g.graph_outputs:
            continue
        relu = outs[0]
        if assignment[node.id] != assignment[relu.id]:
            continue
        fused_with[relu.id] = node.id

    groups: list[list[str]] = []
    for nid in order:
        if nid in fused_with:
            continue
        group = [nid]
        for relu_id, prod_id in fused_with.items():
            if prod_id == nid:
                group.append(relu_id)
        groups.append(group)
    return assignment, groups


def group_dependencies(
    graph: GraphIR, fused_groups: list[list[str]]
) -> dict[str, set[str]]:
    """Group id -> set of group ids it must wait for."""
    node_group = {}
    for group in fused_groups:
        gid = "+".join(group)
        for nid in group:
            node_group[nid] = gid
    producers = graph.producer_map()
    deps: dict[str, set[str]] = {"+".join(g): set() for g in fused_groups}
    for group in fused_groups:
        gid = "+".join(group)
        for nid in group:
            for tid in graph.node(nid).inputs:
                prod = producers.get(tid)
                if prod is not None and node_group[prod.id] != gid:
                    deps[gid].add(node_group[prod.id])
    return deps


def _upward_ranks(
    gids: list[str], dependencies: dict[str, set[str]], latencies: dict[str, float]
) -> dict[str, float]:
    """Longest latency path from each group to any sink, own latency included."""
    successors: dict[str, list[str]] = {g: [] for g in gids}
    for gid, deps in dependencies.items():
        for dep in deps:
            successors[dep].append(gid)
    ranks: dict[str, float] = {}

    def rank(gid: str) -> float:
        if gid not in ranks:
            ranks[gid] = latencies[gid] + max(
                (rank(s) for s in successors[gid]), default=0.0
            )
        return ranks[gid]

    for gid in gids:
        rank(gid)
    return ranks


def _priority_topo_order(
    gids: list[str], dependencies: dict[str, set[str]], key
) -> list[str]:
    """Kahn's algorithm picking the ready group with the smallest key."""
    indeg = {g: len(dependencies[g]) for g in gids}
    dependents: dict[str, list[str]] = {g: [] for g in gids}
    for g, deps in dependencies.items():
        for dep in deps:
            dependents[dep].append(g)
    ready = [g for g in gids if indeg[g] == 0]
    order = []
    while ready:
        ready.sort(key=key)
        g = ready.pop(0)
        order.append(g)
        for d in dependents[g]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    if len(order) != len(gids):
        raise AssertionError("dependency cycle among groups")
    return order


def _run_list_schedule(
    order: list[str],
    dependencies: dict[str, set[str]],
    targets: dict[str, str],
    latencies: dict[str, float],
    transfer_us: float,
) -> list[TimelineEntry]:
    """Place groups in priority order into the earliest fitting idle gap."""
    done: dict[str, float] = {}
    busy: dict[str, list[tuple[float, float]]] = {"CPU": [], "NPU": []}
    timeline: list[TimelineEntry] = []
    for gid in order:
        ready = 0.0
        for dep in dependencies[gid]:
            edge = done[dep]
            if targets[dep] != targets[gid]:
                edge += transfer_us
            ready = max(ready, edge)
        lat = latencies[gid]
        spans = busy[targets[gid]]
        start = ready
        for s, e in spans:  # spans stay sorted; first fitting gap wins
            if start + lat <= s:
                break
            start = max(start, e)
        end = start + lat
        spans.append((start, end))
        spans.sort()
        done[gid] = end
        timeline.append(TimelineEntry(gid, targets[gid], start, end))
    return timeline


EXACT_SCHEDULE_LIMIT = 6


def _exact_best_order(
    gids: list[str],
    dependencies: dict[str, set[str]],
    targets: dict[str, str],
    latencies: dict[str, float],
    transfer_us: float,
    position: dict[str, int],
) -> list[str]:
    """Branch-and-bound over priority orders; feasible for a handful of groups."""
    best_order: list[str] | None = None
    best_makespan = float("inf")

    def dfs(order: list[str], done: dict[str, float],
            busy: dict[str, list[tuple[float, float]]], makespan: float) -> None:
        nonlocal best_order, best_makespan
        if makespan >= best_makespan:
            return  # appending groups never shrinks the makespan
        if len(order) == len(gids):
            best_order, best_makespan = list(order), makespan
            return
        ready = [
            g for g in gids
            if g not in done and dependencies[g] <= set(done)
        ]
        for gid in sorted(ready, key=lambda g: position[g]):
            data_ready = 0.0
            for dep in dependencies[gid]:
                edge = done[dep]
                if targets[dep] != targets[gid]:
                    edge += transfer_us
                data_ready = max(data_ready, edge)
            spans = busy[targets[gid]]
            start = data_ready
            for s, e in spans:
                if start + latencies[gid] <= s:
                    break
                start = max(start, e)
            end = start + latencies[gid]
            done[gid] = end
            spans.append((start, end))
            spans.sort()
            dfs(order + [gid], done, busy, max(makespan, end))
            spans.remove((start, end))
            del done[gid]

    dfs([], {}, {"CPU": [], "NPU": []}, 0.0)
    return best_order


def schedule(
    fused_groups: list[list[str]],
    dependencies: dict[str, set[str]],
    targets: dict[str, str],
    latencies: dict[str, float],
    profile: HardwareProfile,
) -> list[TimelineEntry]:
    """List scheduling over the two resources.

    Groups are placed in priority order into the earliest idle gap of
    their target at or after their data-ready time. For up to
    EXACT_SCHEDULE_LIMIT groups the priority order is found by exact
    branch-and-bound; beyond that a portfolio of priority lists
    (critical-path upward rank, topological position,
    longest-latency-first) competes and the best makespan wins. Ties
    break deterministically, so plans are reproducible. Cross-target
    edges pay the profile's transfer latency.
    """
    gids = ["+".join(g) for g in fused_groups]
    position = {gid: i for i, gid in enumerate(gids)}
    for gid in gids:
        if not dependencies[gid] <= set(gids):
            raise AssertionError(f"group {gid} depends on unknown group")

    if len(gids) <= EXACT_SCHEDULE_LIMIT:
        order = _exact_best_order(
            gids, dependencies, targets, latencies, profile.transfer_latency_us, position
        )
        if order is None:
            raise AssertionError("dependency cycle among groups")
        candidates = [order]
    else:
        ranks = _upward_ranks(gids, dependencies, latencies)
        candidates = [
            _priority_topo_order(gids, dependencies, lambda g: (-ranks[g], position[g])),
            _priority_topo_order(gids, dependencies, lambda g: (position[g],)),
            _priority_topo_order(gids, dependencies, lambda g: (-latencies[g], position[g])),
        ]
    best: list[TimelineEntry] | None = None
    for order in candidates:
        timeline = _run_list_schedule(
            order, dependencies, targets, latencies, profile.transfer_latency_us
        )
        makespan = max(e.end_us for e in timeline)
        if best is None or makespan < max(e.end_us for e in best):
            best = timeline
    best.sort(key=lambda e: (e.start_us, position[e.group_id]))
    return best


@dataclass
class Lifetime:
    tensor_id: str
    size: int
    start: float
    end: float

    def overlaps(self, other: "Lifetime") -> bool:
        return self.start < other.end and other.start < self.end


def tensor_lifetimes(
    graph: GraphIR,
    timeline: list[TimelineEntry],
    fused_groups: list[list[str]],
) -> list[Lifetime]:
    """Arena tensors with [first write, last read) intervals in schedule time.

    Graph inputs are live from time zero; graph outputs stay live until
    the makespan. Tensors produced and consumed entirely inside one fused
    group are not materialized and get no lifetime.
    """
    g, _ = infer_shapes(graph)
    node_group: dict[str, str] = {}
    for group in fused_groups:
        gid = "+".join(group)
        for nid in group:
            node_group[nid] = gid
    interval = {e.group_id: (e.start_us, e.end_us) for e in timeline}
    makespan = max((e.end_us for e in timeline), default=0.0)
    producers = g.producer_map()
    consumers = g.consumer_map()

    lifetimes = []
    for tid, t in g.tensors.items():
        if t.is_constant:
            continue
        prod = producers.get(tid)
        cons = consumers.get(tid, [])
        if (
            prod is not None
            and cons
            and tid not in g.graph_outputs
            and all(node_group[c.id] == node_group[prod.id] for c in cons)
            and len(cons) == 1
        ):
            continue  # fused-internal, never materialized
        start = 0.0 if prod is None else interval[node_group[prod.id]][0]
        end = max((interval[node_group[c.id]][1] for c in cons), default=start)
        if tid in g.graph_outputs:
            end = max(end, makespan)
        if prod is not None and not cons and tid not in g.graph_outputs:
            end = max(end, interval[node_group[prod.id]][1])
        # Zero-duration schedules still need a live instant.
        end = max(end, start + 1e-9)
        lifetimes.append(Lifetime(tid, t.size_bytes, start, end))
    return lifetimes


def place_lifetimes(lifetimes: list[Lifetime]) -> MemoryPlan:
    """Greedy best-fit offsets, tensors in descending size order."""
    placed: list[tuple[Lifetime, int]] = []
    offsets: dict[str, tuple[int, int]] = {}
    for lt in sorted(lifetimes, key=lambda l: (-l.size, l.tensor_id)):
        ranges = sorted(
            (off, off + other.size) for other, off in placed if other.overlaps(lt)
        )
        best_off = None
        best_gap = None
        cursor = 0
        for lo, hi in ranges:
            if lo - cursor >= lt.size and (best_gap is None or lo - cursor < best_gap):
                best_off, best_gap = cursor, lo - cursor
            cursor = max(cursor, hi)
        if best_off is None:
            best_off = cursor  # open-ended region after the last conflict
        offsets[lt.tensor_id] = (best_off, lt.size)
        placed.append((lt, best_off))
    peak = max((off + size for off, size in offsets.values()), default=0)
    return MemoryPlan(offsets=offsets, arena_peak_bytes=peak)


def plan_memory(
    graph: GraphIR,
    timeline: list[TimelineEntry],
    fused_groups: list[list[str]],
) -> MemoryPlan:
    """Arena plan for a scheduled graph (see place_lifetimes)."""
    return place_lifetimes(tensor_lifetimes(graph, timeline, fused_groups))


def verify_memory_plan(plan: MemoryPlan, lifetimes: list[Lifetime]) -> None:
    """Exhaustive pairwise check: live-together tensors never share bytes."""
    by_id = {lt.tensor_id: lt for lt in lifetimes}
    items = sorted(plan.offsets.items())
    for i, (tid_a, (off_a, size_a)) in enumerate(items):
        for tid_b, (off_b, size_b) in items[i + 1:]:
            if not by_id[tid_a].overlaps(by_id[tid_b]):
                continue
            if off_a < off_b + size_b and off_b < off_a + size_a:
                raise MappingError(
                    f"memory plan overlap: {tid_a} [{off_a}, {off_a + size_a}) vs "
                    f"{tid_b} [{off_b}, {off_b + size_b})"
                )


def build_deployment_plan(
    graph: GraphIR, profile: HardwareProfile
) -> DeploymentPlan:
    """Partition, fuse, schedule, plan memory and estimate in one pass."""
    g, _ = infer_shapes(graph)
    assignment, fused_groups = partition_and_fuse(g, profile)
    targets = {"+".join(grp): assignment[grp[0]] for grp in fused_groups}
    latencies = {}
    for grp in fused_groups:
        gid = "+".join(grp)
        latencies[gid] = estimate_group(grp, targets[gid], profile, g).latency_us
    deps = group_dependencies(g, fused_groups)
    timeline = schedule(fused_groups, deps, targets, latencies, profile)
    lifetimes = tensor_lifetimes(g, timeline, fused_groups)
    memory = place_lifetimes(lifetimes)
    verify_memory_plan(memory, lifetimes)
    plan = DeploymentPlan(
        model=g.name,
        profile=profile.name,
        assignment=assignment,
        fused_groups=fused_groups,
        timeline=timeline,
        memory_plan=memory,
        flash_bytes=flash_bytes(g, profile),
    )
    plan.estimates = estimate_deployment(plan, g, profile)
    return plan


def load_plan(path: str | Path) -> DeploymentPlan:
    obj = json.loads(Path(path).read_text())
    est = CostEstimate.from_json(obj["estimates"]) if obj.get("estimates") else None
    return DeploymentPlan(
        model=obj["model"],
        profile=obj["profile"],
        assignment=obj["assignment"],
        fused_groups=[list(g) for g in obj["fused_groups"]],
        timeline=[
            TimelineEntry(e["group"], e["target"], e["start_us"], e["end_us"])
            for e in obj["timeline"]
        ],
        memory_plan=MemoryPlan(
            offsets={
                tid: (e["offset"], e["size"])
                for tid, e in obj["memory_plan"]["tensors"].items()
            },
            arena_peak_bytes=obj["memory_plan"]["arena_peak_bytes"],
        ),
        flash_bytes=obj["flash_bytes"],
        estimates=est,
    )


def render_report(plan: DeploymentPlan) -> str:
    """Human-readable plan summary."""
    lines = [
        f"model: {plan.model}    profile: {plan.profile}",
        f"makespan: {plan.makespan_us:.1f} us    arena peak: "
        f"{plan.memory_plan.arena_peak_bytes} B    flash: {plan.flash_bytes} B",
        "",
        f"{'group':<40} {'target':<6} {'start_us':>10} {'end_us':>10}",
    ]
    for e in plan.timeline:
        lines.append(f"{e.group_id:<40} {e.target:<6} {e.start_us:>10.1f} {e.end_us:>10.1f}")
    if plan.estimates is not None:
        est = plan.estimates
        lines += [
            "",
            f"latency: {est.latency_ms:.3f} ms    energy: {est.energy_mj:.3f} mJ    "
            f"ram peak: {est.ram_peak_bytes} B",
            "budget flags: " + ", ".join(f"{k}={v}" for k, v in sorted(est.budget_flags.items())),
        ]
    return "\n".join(lines) + "\n"
