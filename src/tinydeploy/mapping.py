"""Hardware-aware operator mapping.

Partitions a quantized graph onto NPU/CPU, fuses chains into one kernel
on one target (`graph.fused_successor` links each node to the one reader
it fuses with, giving chains such as Conv2D/DepthwiseConv2D + Add +
ReLU, MaxPool2D + MaxPool2D and Concat + MaxPool2D + Flatten +
FullyConnected + Softmax), list-schedules the fused groups over the two
resources with CPU/NPU overlap, and plans activation memory in a single
arena with lifetime-based buffer reuse (greedy best-fit in the first of
four tensor orders whose arena meets the live-set bound, else the first
smallest; see `place_lifetimes`).

The partition starts from the profile's supported op set: a node runs on
the NPU iff the profile supports its kind. A group the NPU supports may
then move to the CPU where it would finish earlier there, and the moves
stand only if the whole plan gets faster at no cost in energy or RAM
(`build_deployment_plan`). Unsupported nodes never run on the NPU.

Weights live in flash and never enter the arena; tensors internal to a
fused group are never materialized. Fusing only saves dispatches: each
group pays one dispatch overhead in the cost model, and the flash
metadata is still counted per node.

A fused group is the list of its node ids; `costmodel.group_id` names it
in timelines and plans, and `costmodel.group_index` maps nodes to it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .costmodel import (
    CostEstimate,
    _plan_estimate,
    flash_bytes,
    group_cost,
    group_id,
    group_index,
    node_counts,
)
from .graph import GraphIR, fused_successor, priority_order, topological_order
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
    estimates: CostEstimate

    @property
    def makespan_us(self) -> float:
        return max((e.end_us for e in self.timeline), default=0.0)

    def save(self, path: str | Path) -> None:
        write_json(path, self)


def partition_and_fuse(
    graph: GraphIR, profile: HardwareProfile
) -> tuple[dict[str, str], list[list[str]]]:
    """The support-based start: each node on the NPU iff the profile
    supports its kind, fused by `fuse`. `build_deployment_plan` starts
    from it and may move NPU groups to the CPU."""
    if not graph.is_quantized():
        raise MappingError("mapping requires a quantized graph")
    assignment = {
        n.id: "NPU" if profile.supports(n.kind) else "CPU" for n in graph.nodes
    }
    return assignment, fuse(graph, assignment)


def fuse(graph: GraphIR, assignment: dict[str, str]) -> list[list[str]]:
    """The fused groups of `graph` with each node on its assigned target.

    A group is a chain: it starts at a node no earlier group holds and
    follows `graph.fused_successor` for as long as the next node shares
    the target and no earlier group holds it (an Add that two
    convolutions alone read joins the first one's chain). On the CPU a
    Concat or pool starts a chain of pools that may end in the head's
    Flatten + FullyConnected + Softmax; no chain runs into a Concat,
    which would wait for its other inputs. Groups are listed by the
    topological position of their last node. Only a chain's last output
    is read outside it, so every group comes after the groups it reads
    from.
    """
    nodes = {n.id: n for n in graph.nodes}
    consumers = graph.consumer_map()
    order = topological_order(graph)
    grouped: set[str] = set()
    groups: list[list[str]] = []
    for nid in order:
        if nid in grouped:
            continue
        group = [nid]
        succ = fused_successor(graph, nodes[nid], consumers)
        while (succ is not None and succ.id not in grouped
               and assignment[succ.id] == assignment[nid]):
            group.append(succ.id)
            succ = fused_successor(graph, succ, consumers)
        grouped.update(group)
        groups.append(group)
    position = {nid: i for i, nid in enumerate(order)}
    groups.sort(key=lambda group: position[group[-1]])
    return groups


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
    topo_order: list[str], dependencies: dict[str, set[str]], latencies: dict[str, float]
) -> dict[str, float]:
    """Longest latency path from each group to any sink, own latency included.

    Walks `topo_order` backwards, so every group that waits for a group
    has pushed its rank to it before that group's own rank is taken.
    """
    ranks: dict[str, float] = {}
    tail = dict.fromkeys(topo_order, 0.0)  # the largest rank that waits for each
    for gid in reversed(topo_order):
        ranks[gid] = latencies[gid] + tail[gid]
        for dep in dependencies[gid]:
            tail[dep] = max(tail[dep], ranks[gid])
    return ranks


def _rank_order(
    gids: list[str], dependencies: dict[str, set[str]], latencies: dict[str, float]
) -> list[str]:
    """The `graph.priority_order` of `gids` by descending upward rank,
    ties by position in `gids`; raises on a dependency cycle."""
    position = {gid: i for i, gid in enumerate(gids)}
    by_position = priority_order(gids, dependencies, position.__getitem__)
    if by_position is None:
        raise AssertionError("dependency cycle among groups")
    ranks = _upward_ranks(by_position, dependencies, latencies)
    return priority_order(gids, dependencies, lambda g: (-ranks[g], position[g]))


def _run_list_schedule(
    order: list[str],
    dependencies: dict[str, set[str]],
    options: dict[str, list[tuple[str, float]]],
    transfer_us: float,
) -> list[TimelineEntry]:
    """Place groups in priority order into the earliest fitting idle gap.

    `options[gid]` lists the (target, latency) pairs the group may run
    as; it takes the one that finishes first, the first listed on a tie.
    """
    placed: dict[str, TimelineEntry] = {}
    busy: dict[str, list[tuple[float, float]]] = {"CPU": [], "NPU": []}
    for gid in order:
        best: TimelineEntry | None = None
        for target, lat in options[gid]:
            ready = 0.0
            for dep in dependencies[gid]:
                edge = placed[dep].end_us
                if placed[dep].target != target:
                    edge += transfer_us
                ready = max(ready, edge)
            start = ready
            for s, e in busy[target]:  # spans stay sorted; first fitting gap wins
                if start + lat <= s:
                    break
                start = max(start, e)
            if best is None or start + lat < best.end_us:
                best = TimelineEntry(gid, target, start, start + lat)
        spans = busy[best.target]
        spans.append((best.start_us, best.end_us))
        spans.sort()
        placed[gid] = best
    return list(placed.values())


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
    that a portfolio of three `graph.priority_order`s, which take the
    ready group with the highest critical-path upward rank, the earliest
    position or the longest latency first, ties by position. Plans are
    therefore reproducible. Cross-target edges pay the profile's transfer
    latency.
    """
    gids = [group_id(g) for g in fused_groups]
    position = {gid: i for i, gid in enumerate(gids)}
    for gid in gids:
        if not dependencies[gid] <= set(gids):
            raise AssertionError(f"group {gid} depends on unknown group")

    if len(gids) <= EXACT_SCHEDULE_LIMIT:
        candidates = _topological_orders(gids, dependencies)
    else:
        candidates = [
            _rank_order(gids, dependencies, latencies),  # raises on a cycle
            priority_order(gids, dependencies, position.__getitem__),
            priority_order(gids, dependencies, lambda g: (-latencies[g], position[g])),
        ]
    options = {gid: [(targets[gid], latencies[gid])] for gid in gids}
    best: list[TimelineEntry] | None = None
    for order in candidates:
        timeline = _run_list_schedule(order, dependencies, options, profile.transfer_latency_us)
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


def live_set_bound(lifetimes: list[Lifetime]) -> int:
    """The most bytes live at any one instant: no arena can be smaller.

    Lifetimes are half-open [start, end), as in `Lifetime.overlaps`, and
    the most is reached at some lifetime's start.
    """
    return max(
        (sum(o.size for o in lifetimes if o.start <= lt.start < o.end) for lt in lifetimes),
        default=0,
    )


def _best_fit(ordered: list[Lifetime]) -> MemoryPlan:
    """Place each tensor in turn into the smallest gap between the blocks
    of placed tensors it overlaps, else past the last of them."""
    placed: list[tuple[Lifetime, int]] = []
    slots: dict[str, Slot] = {}
    for lt in ordered:
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


# Sort keys of the tensor orders `place_lifetimes` tries, in turn.
PLACEMENT_ORDERS = (
    lambda lt: (-lt.size, lt.tensor_id),
    lambda lt: (-lt.size * (lt.end - lt.start), lt.tensor_id),
    lambda lt: (lt.start, -lt.size, lt.tensor_id),
    lambda lt: (-(lt.end - lt.start), -lt.size, lt.tensor_id),
)


def place_lifetimes(lifetimes: list[Lifetime]) -> MemoryPlan:
    """Greedy best-fit offsets in the first tensor order that does best.

    The bound is `live_set_bound`, the most bytes live at any one
    instant. Each of PLACEMENT_ORDERS is placed by the same best-fit
    rule, in turn: descending size, descending size x duration,
    ascending start then descending size, and descending duration then
    descending size; remaining ties go to the smaller tensor id. The
    first arena that meets the bound wins; if none does, the first
    smallest. Descending size goes first, so no arena is larger than
    that order's.
    """
    bound = live_set_bound(lifetimes)
    best: MemoryPlan | None = None
    for key in PLACEMENT_ORDERS:
        plan = _best_fit(sorted(lifetimes, key=key))
        if best is None or plan.arena_peak_bytes < best.arena_peak_bytes:
            best = plan
        if best.arena_peak_bytes <= bound:
            break
    return best


def verify_memory_plan(plan: MemoryPlan, lifetimes: list[Lifetime]) -> None:
    """Every lifetime has a slot of its size inside [0, arena peak), no
    slot is for an unknown tensor, and live-together tensors never share
    bytes (exhaustive pairwise check)."""
    by_id = {lt.tensor_id: lt for lt in lifetimes}
    missing = sorted(by_id.keys() - plan.tensors.keys())
    if missing:
        raise MappingError(f"memory plan: tensor {missing[0]} has no slot")
    items = sorted(plan.tensors.items())
    for tid, slot in items:
        if tid not in by_id:
            raise MappingError(f"memory plan: slot for unknown tensor {tid}")
        if slot.size != by_id[tid].size:
            raise MappingError(
                f"memory plan: tensor {tid} slot size {slot.size} != its size {by_id[tid].size}"
            )
        if slot.offset < 0:
            raise MappingError(f"memory plan: tensor {tid} at negative offset {slot.offset}")
        if slot.offset + slot.size > plan.arena_peak_bytes:
            raise MappingError(
                f"memory plan: tensor {tid} ends at {slot.offset + slot.size}, past the "
                f"arena peak {plan.arena_peak_bytes}"
            )
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
    """Partition, fuse, schedule, plan memory and estimate.

    The support-based plan of `partition_and_fuse` is the start. One
    pass then takes its groups in upward-rank order and puts each where
    it would finish earliest, as HEFT does (Topcuoglu, Hariri and Wu,
    IEEE TPDS 13(3), 2002): an NPU group may move to the CPU, a CPU group
    stays, and a tie keeps the start's target. If a group moved, the new
    assignment is fused again (`fuse`), scheduled, placed and estimated,
    and that plan is kept only if its latency is strictly lower and
    neither its energy nor its RAM is higher than the start's.
    """
    assignment, fused_groups = partition_and_fuse(graph, profile)
    counts = node_counts(graph)
    flash = flash_bytes(graph, profile)
    plan = _plan(graph, profile, counts, flash, assignment, fused_groups)
    chosen = _earliest_finish_targets(graph, profile, counts, plan)
    if chosen != assignment:
        moved = _plan(graph, profile, counts, flash, chosen, fuse(graph, chosen))
        old, new = plan.estimates, moved.estimates
        if (new.latency_ms < old.latency_ms and new.energy_mj <= old.energy_mj
                and new.ram_peak_bytes <= old.ram_peak_bytes):
            plan = moved
    return plan


def _plan(
    graph: GraphIR,
    profile: HardwareProfile,
    counts: dict[str, tuple[int, int]],
    flash: int,
    assignment: dict[str, str],
    fused_groups: list[list[str]],
) -> DeploymentPlan:
    """Cost (from the graph's `node_counts`), schedule, place the arena of
    and estimate these groups, each on its nodes' target. The estimate
    reuses the per-group costs the schedule was built from; `flash` is the
    graph's `flash_bytes`, which no target choice changes."""
    costs = [group_cost(grp, assignment[grp[0]], counts, profile) for grp in fused_groups]
    targets = {c.group: c.target for c in costs}
    latencies = {c.group: c.latency_us for c in costs}
    deps = group_dependencies(graph, fused_groups)
    timeline = schedule(fused_groups, deps, targets, latencies, profile)
    lifetimes = tensor_lifetimes(graph, timeline, fused_groups)
    memory = place_lifetimes(lifetimes)
    verify_memory_plan(memory, lifetimes)
    return DeploymentPlan(
        model=graph.name,
        profile=profile.name,
        assignment=assignment,
        fused_groups=fused_groups,
        timeline=timeline,
        memory_plan=memory,
        flash_bytes=flash,
        estimates=_plan_estimate(timeline, memory, costs, flash, profile),
    )


def _earliest_finish_targets(
    graph: GraphIR,
    profile: HardwareProfile,
    counts: dict[str, tuple[int, int]],
    plan: DeploymentPlan,
) -> dict[str, str]:
    """Node id -> target when the plan's groups, taken in upward-rank
    order, each run where they finish first: an NPU group may also run on
    the CPU, and a tie keeps its own target."""
    options: dict[str, list[tuple[str, float]]] = {}
    for grp, cost in zip(plan.fused_groups, plan.estimates.per_group_breakdown):
        options[cost.group] = [(cost.target, cost.latency_us)]
        if cost.target == "NPU":
            cpu = group_cost(grp, "CPU", counts, profile)
            options[cost.group].append(("CPU", cpu.latency_us))
    gids = list(options)
    deps = group_dependencies(graph, plan.fused_groups)
    latencies = {gid: opts[0][1] for gid, opts in options.items()}
    order = _rank_order(gids, deps, latencies)
    timeline = _run_list_schedule(order, deps, options, profile.transfer_latency_us)
    target_of = {e.group: e.target for e in timeline}
    node_group = group_index(plan.fused_groups)
    return {n.id: target_of[node_group[n.id]] for n in graph.nodes}


def load_plan(path: str | Path) -> DeploymentPlan:
    """Read a plan written by `DeploymentPlan.save`.

    `model_io.decode` reads it: fields must be present with their JSON
    types and no key may be unknown, or MappingError names the field.
    Whether the plan is the one `map` builds is the `estimate`
    subcommand's check.
    """
    return decode(DeploymentPlan, read_json(path, MappingError), f"plan {path}", MappingError)


def render_report(plan: DeploymentPlan) -> str:
    """Human-readable plan summary."""
    est = plan.estimates
    lines = [
        f"model: {plan.model}    profile: {plan.profile}",
        f"makespan: {plan.makespan_us:.1f} us    arena peak: "
        f"{plan.memory_plan.arena_peak_bytes} B    flash: {plan.flash_bytes} B",
        "",
        f"{'group':<40} {'target':<6} {'start_us':>10} {'end_us':>10}",
        *(f"{e.group:<40} {e.target:<6} {e.start_us:>10.1f} {e.end_us:>10.1f}"
          for e in plan.timeline),
        "",
        f"latency: {est.latency_ms:.3f} ms    energy: {est.energy_mj:.3f} mJ    "
        f"ram peak: {est.ram_peak_bytes} B",
        "budget flags: " + ", ".join(f"{k}={v}" for k, v in sorted(est.budget_flags.items())),
    ]
    return "\n".join(lines) + "\n"
