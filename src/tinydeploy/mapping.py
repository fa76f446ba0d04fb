"""Hardware-aware operator mapping.

Partitions a quantized graph onto NPU/CPU by the profile's supported op
set, fuses Conv2D/DepthwiseConv2D/FullyConnected with an immediately
following ReLU (single consumer, same target), list-schedules the fused
groups over the two resources with CPU/NPU overlap, and plans activation
memory in a single arena with lifetime-based buffer reuse (greedy
best-fit, tensors placed in descending size). Weights live in flash and
never enter the arena; tensors internal to a fused group are never
materialized.

A fused group is the list of its node ids; `costmodel.group_id` names it
in timelines and plans, and `costmodel.group_index` maps nodes to it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .costmodel import (
    CostEstimate,
    _plan_estimate,
    estimate_group,
    flash_bytes,
    group_id,
    group_index,
)
from .graph import WEIGHTED_OPS, GraphIR, OpKind, topological_order
from .hardware import HardwareProfile
from .model_io import decode, read_json, write_json


class MappingError(ValueError):
    pass


@dataclass
class TimelineEntry:
    group: str  # its `group_id`
    target: str
    start_us: float
    end_us: float


@dataclass
class Slot:
    offset: int
    size: int


@dataclass
class MemoryPlan:
    tensors: dict[str, Slot]  # tensor id -> its bytes in the arena
    arena_peak_bytes: int


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

    def save(self, path: str | Path) -> None:
        write_json(path, asdict(self))


def partition_and_fuse(
    graph: GraphIR, profile: HardwareProfile
) -> tuple[dict[str, str], list[list[str]]]:
    """Assign each node to NPU iff its kind is supported, then fuse.

    Fusion merges a weighted producer with an immediately following ReLU
    when the intermediate tensor has exactly one consumer and both nodes
    share a target. Groups are listed in topological order.
    """
    if not graph.is_quantized():
        raise MappingError("mapping requires a quantized graph")
    nodes = {n.id: n for n in graph.nodes}
    consumers = graph.consumer_map()
    assignment = {
        n.id: "NPU" if profile.supports(n.kind) else "CPU" for n in graph.nodes
    }

    order = topological_order(graph)
    fused_with: dict[str, str] = {}  # producer id -> relu id
    for nid in order:
        node = nodes[nid]
        if node.kind not in WEIGHTED_OPS:
            continue
        out = node.outputs[0]
        outs = consumers.get(out, [])
        if len(outs) != 1 or outs[0].kind != OpKind.RELU:
            continue
        if out in graph.graph_outputs:
            continue
        relu = outs[0]
        if assignment[node.id] != assignment[relu.id]:
            continue
        fused_with[node.id] = relu.id

    fused_relus = set(fused_with.values())
    groups = [
        [nid, fused_with[nid]] if nid in fused_with else [nid]
        for nid in order
        if nid not in fused_relus
    ]
    return assignment, groups


def group_dependencies(
    graph: GraphIR, fused_groups: list[list[str]]
) -> dict[str, set[str]]:
    """Group id -> set of group ids it must wait for."""
    node_group = group_index(fused_groups)
    producers = graph.producer_map()
    deps: dict[str, set[str]] = {group_id(g): set() for g in fused_groups}
    for node in graph.nodes:
        gid = node_group[node.id]
        for tid in node.inputs:
            prod = producers.get(tid)
            if prod is not None and node_group[prod.id] != gid:
                deps[gid].add(node_group[prod.id])
    return deps


def _upward_ranks(
    topo_order: list[str], dependents: dict[str, list[str]], latencies: dict[str, float]
) -> dict[str, float]:
    """Longest latency path from each group to any sink, own latency included."""
    ranks: dict[str, float] = {}
    for gid in reversed(topo_order):
        ranks[gid] = latencies[gid] + max((ranks[d] for d in dependents[gid]), default=0.0)
    return ranks


def _priority_topo_order(
    gids: list[str],
    dependencies: dict[str, set[str]],
    dependents: dict[str, list[str]],
    key,
) -> list[str]:
    """Kahn's algorithm picking the ready group with the smallest key."""
    indeg = {g: len(dependencies[g]) for g in gids}
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


def _topological_orders(
    gids: list[str], dependencies: dict[str, set[str]], order: tuple[str, ...] = ()
):
    """Every topological order of `gids` that extends `order`.

    Depth-first, trying ready groups in list order; yields nothing when
    the groups have a dependency cycle.
    """
    if len(order) == len(gids):
        yield list(order)
        return
    placed = set(order)
    for gid in gids:
        if gid not in placed and dependencies[gid] <= placed:
            yield from _topological_orders(gids, dependencies, order + (gid,))


def schedule(
    fused_groups: list[list[str]],
    dependencies: dict[str, set[str]],
    targets: dict[str, str],
    latencies: dict[str, float],
    profile: HardwareProfile,
) -> list[TimelineEntry]:
    """List scheduling over the two resources.

    Groups are placed in priority order into the earliest idle gap of
    their target at or after their data-ready time. Candidate priority
    orders compete and the first with the smallest makespan wins: for up
    to EXACT_SCHEDULE_LIMIT groups every topological order, generated
    depth-first with ready groups tried in `fused_groups` order; beyond
    that a portfolio of priority lists (critical-path upward rank,
    topological position, longest-latency-first). Ties break
    deterministically, so plans are reproducible. Cross-target edges pay
    the profile's transfer latency.
    """
    gids = [group_id(g) for g in fused_groups]
    position = {gid: i for i, gid in enumerate(gids)}
    for gid in gids:
        if not dependencies[gid] <= set(gids):
            raise AssertionError(f"group {gid} depends on unknown group")

    if len(gids) <= EXACT_SCHEDULE_LIMIT:
        candidates = _topological_orders(gids, dependencies)
    else:
        dependents: dict[str, list[str]] = {g: [] for g in gids}
        for gid, deps in dependencies.items():
            for dep in deps:
                dependents[dep].append(gid)

        def topo(key):
            return _priority_topo_order(gids, dependencies, dependents, key)

        by_position = topo(lambda g: position[g])  # raises on a dependency cycle
        ranks = _upward_ranks(by_position, dependents, latencies)
        candidates = [
            topo(lambda g: (-ranks[g], position[g])),
            by_position,
            topo(lambda g: (-latencies[g], position[g])),
        ]
    best: list[TimelineEntry] | None = None
    for order in candidates:
        timeline = _run_list_schedule(
            order, dependencies, targets, latencies, profile.transfer_latency_us
        )
        makespan = max(e.end_us for e in timeline)
        if best is None or makespan < max(e.end_us for e in best):
            best = timeline
    if best is None:
        raise AssertionError("dependency cycle among groups")
    best.sort(key=lambda e: (e.start_us, position[e.group]))
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
    node_group = group_index(fused_groups)
    interval = {e.group: (e.start_us, e.end_us) for e in timeline}
    makespan = max((e.end_us for e in timeline), default=0.0)
    producers = graph.producer_map()
    consumers = graph.consumer_map()

    lifetimes = []
    for tid, t in graph.tensors.items():
        if t.is_constant:
            continue
        prod = producers.get(tid)
        cons = consumers.get(tid, [])
        if (
            prod is not None
            and len(cons) == 1
            and tid not in graph.graph_outputs
            and node_group[cons[0].id] == node_group[prod.id]
        ):
            continue  # fused-internal, never materialized
        start = 0.0 if prod is None else interval[node_group[prod.id]][0]
        end = max((interval[node_group[c.id]][1] for c in cons), default=start)
        if tid in graph.graph_outputs:
            end = max(end, makespan)
        if prod is not None and not cons and tid not in graph.graph_outputs:
            end = max(end, interval[node_group[prod.id]][1])
        # Zero-duration schedules still need a live instant.
        end = max(end, start + 1e-9)
        lifetimes.append(Lifetime(tid, t.size_bytes, start, end))
    return lifetimes


def place_lifetimes(lifetimes: list[Lifetime]) -> MemoryPlan:
    """Greedy best-fit offsets, tensors in descending size order."""
    placed: list[tuple[Lifetime, int]] = []
    slots: dict[str, Slot] = {}
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
        slots[lt.tensor_id] = Slot(best_off, lt.size)
        placed.append((lt, best_off))
    peak = max((s.offset + s.size for s in slots.values()), default=0)
    return MemoryPlan(tensors=slots, arena_peak_bytes=peak)


def verify_memory_plan(plan: MemoryPlan, lifetimes: list[Lifetime]) -> None:
    """Exhaustive pairwise check: live-together tensors never share bytes."""
    by_id = {lt.tensor_id: lt for lt in lifetimes}
    items = sorted(plan.tensors.items())
    for i, (tid_a, a) in enumerate(items):
        for tid_b, b in items[i + 1:]:
            if not by_id[tid_a].overlaps(by_id[tid_b]):
                continue
            if a.offset < b.offset + b.size and b.offset < a.offset + a.size:
                raise MappingError(
                    f"memory plan overlap: {tid_a} [{a.offset}, {a.offset + a.size}) vs "
                    f"{tid_b} [{b.offset}, {b.offset + b.size})"
                )


def build_deployment_plan(
    graph: GraphIR, profile: HardwareProfile
) -> DeploymentPlan:
    """Partition, fuse, schedule, plan memory and estimate in one pass.

    The estimate reuses the per-group costs the schedule was built from.
    """
    assignment, fused_groups = partition_and_fuse(graph, profile)
    nodes = {n.id: n for n in graph.nodes}
    costs = [
        estimate_group([nodes[nid] for nid in grp], assignment[grp[0]], profile, graph)
        for grp in fused_groups
    ]
    targets = {c.group: c.target for c in costs}
    latencies = {c.group: c.latency_us for c in costs}
    deps = group_dependencies(graph, fused_groups)
    timeline = schedule(fused_groups, deps, targets, latencies, profile)
    lifetimes = tensor_lifetimes(graph, timeline, fused_groups)
    memory = place_lifetimes(lifetimes)
    verify_memory_plan(memory, lifetimes)
    plan = DeploymentPlan(
        model=graph.name,
        profile=profile.name,
        assignment=assignment,
        fused_groups=fused_groups,
        timeline=timeline,
        memory_plan=memory,
        flash_bytes=flash_bytes(graph, profile),
    )
    plan.estimates = _plan_estimate(plan, costs, plan.flash_bytes, profile)
    return plan


def load_plan(path: str | Path) -> DeploymentPlan:
    """Read a plan written by `DeploymentPlan.save`, rejecting malformed ones.

    `model_io.decode` reads it: fields must be present with their JSON
    types and no key may be unknown. No fused group may be empty or share
    a node, each needs exactly one timeline entry under its `group_id`,
    on CPU or NPU as `assignment` says, and every tensor's slot must lie
    inside the arena. Violations raise MappingError naming the field.
    """
    where = f"plan {path}"
    plan = decode(DeploymentPlan, read_json(path, MappingError), where, MappingError)
    for i, grp in enumerate(plan.fused_groups):
        if not grp:
            raise MappingError(f"{where}: fused_groups[{i}] must be a non-empty list of node ids")
    seen: set[str] = set()
    for nid in (nid for grp in plan.fused_groups for nid in grp):
        if nid in seen:
            raise MappingError(f"{where}: node {nid} is in two fused groups")
        seen.add(nid)
    gids = {group_id(grp) for grp in plan.fused_groups}
    target_of: dict[str, str] = {}
    for e in plan.timeline:
        if e.group not in gids or e.group in target_of:
            raise MappingError(f"{where}: timeline names unknown or repeated group {e.group}")
        if e.target not in ("CPU", "NPU"):
            raise MappingError(f"{where}: group {e.group} target {e.target!r} is not CPU or NPU")
        target_of[e.group] = e.target
    for grp in plan.fused_groups:
        gid = group_id(grp)
        if gid not in target_of:
            raise MappingError(f"{where}: fused group {gid} has no timeline entry")
        for nid in grp:
            if plan.assignment.get(nid) != target_of[gid]:
                raise MappingError(
                    f"{where}: node {nid} is assigned {plan.assignment.get(nid)!r} "
                    f"but its group {gid} runs on {target_of[gid]}"
                )
    peak = plan.memory_plan.arena_peak_bytes
    if peak < 0:
        raise MappingError(f"{where}: memory_plan arena_peak_bytes {peak} is negative")
    for tid, s in plan.memory_plan.tensors.items():
        if min(s.offset, s.size) < 0 or s.offset + s.size > peak:
            raise MappingError(f"{where}: memory_plan tensors[{tid}] offset {s.offset} size "
                               f"{s.size} is not inside the {peak}-byte arena")
    return plan


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
        lines.append(f"{e.group:<40} {e.target:<6} {e.start_us:>10.1f} {e.end_us:>10.1f}")
    if plan.estimates is not None:
        est = plan.estimates
        lines += [
            "",
            f"latency: {est.latency_ms:.3f} ms    energy: {est.energy_mj:.3f} mJ    "
            f"ram peak: {est.ram_peak_bytes} B",
            "budget flags: " + ", ".join(f"{k}={v}" for k, v in sorted(est.budget_flags.items())),
        ]
    return "\n".join(lines) + "\n"
