"""Earliest-finish target choice on the bench's compile_branchy graphs."""
import pytest

from graphutil import compile_branchy_graphs
from test_mapping import PROFILES, _support_based_plan
from tinydeploy import mapping
from tinydeploy.costmodel import flash_bytes, node_counts
from tinydeploy.data_files import load_profile
from tinydeploy.graph import GraphIR
from tinydeploy.mapping import build_deployment_plan, fuse


@pytest.fixture(scope="module")
def branchy_graphs():
    return compile_branchy_graphs()


def _all_moves_or_none_plan(graph, profile, start):
    """The plan with every move of the earliest-finish pass if it is
    strictly faster at no more energy or RAM than `start`, the
    support-based plan; else `start`."""
    links, counts = mapping._links(graph), node_counts(graph)
    moves = mapping._earliest_finish_moves(links, profile, counts, start)
    assignment = {**start.assignment, **{nid: "CPU" for grp in moves for nid in grp}}
    every = mapping._plan(links, profile, counts, flash_bytes(graph, profile),
                          assignment, fuse(graph, assignment))
    new, old = every.estimates, start.estimates
    if (new.latency_ms < old.latency_ms and new.energy_mj <= old.energy_mj
            and new.ram_peak_bytes <= old.ram_peak_bytes):
        return every
    return start


def test_each_move_that_pays_alone_is_kept(branchy_graphs):
    """On the 30 compile_branchy seed-1 graphs under both builtin
    profiles, every plan is no worse on latency, energy or RAM than the
    support-based plan, and no worse by latency, then energy, than the
    plan that keeps all of the pass's moves or none. Nine desk-profile
    plans, whose every-move plan raises energy or RAM, keep the moves
    that pay alone and are faster."""
    faster = {}
    for graph in branchy_graphs:
        for name in PROFILES:
            profile = load_profile(name)
            start = _support_based_plan(graph, profile)
            either = _all_moves_or_none_plan(graph, profile, start).estimates
            est, old = build_deployment_plan(graph, profile).estimates, start.estimates
            assert est.latency_ms <= old.latency_ms and est.energy_mj <= old.energy_mj
            assert est.ram_peak_bytes <= old.ram_peak_bytes
            assert (est.latency_ms, est.energy_mj) <= (either.latency_ms, either.energy_mj)
            if est.latency_ms < either.latency_ms:
                faster[graph.name, name] = (round(either.latency_ms, 3), round(est.latency_ms, 3))
    desk = "builtin:profile_desk_calibrated"
    assert set(faster) == {(f"branchy_{i:02d}", desk) for i in (0, 1, 7, 9, 12, 15, 21, 25, 27)}
    assert faster["branchy_21", desk] == (6.425, 5.843)


def test_a_plan_build_reads_the_graph_structure_once(monkeypatch, branchy_graphs):
    """`build_deployment_plan` builds the topological order and the
    producer and consumer maps once, and shares them with every plan it
    builds: on branchy_21 under the desk profile, the start, the plan
    with every move and the plans that try each move alone."""
    graph = next(g for g in branchy_graphs if g.name == "branchy_21")
    built = []
    for name in ("producer_map", "consumer_map"):
        real = getattr(GraphIR, name)
        monkeypatch.setattr(GraphIR, name,
                            lambda g, name=name, real=real: built.append(name) or real(g))
    real_order = mapping.topological_order
    monkeypatch.setattr(mapping, "topological_order",
                        lambda g: built.append("topological_order") or real_order(g))
    plans = []
    real_plan = mapping._plan
    monkeypatch.setattr(mapping, "_plan", lambda *args: plans.append(args) or real_plan(*args))
    build_deployment_plan(graph, load_profile("builtin:profile_desk_calibrated"))
    assert len(plans) > 2
    assert sorted(built) == ["consumer_map", "producer_map", "topological_order"]


def test_no_build_plans_one_assignment_twice(monkeypatch, branchy_graphs):
    """Over the 30 compile_branchy seed-1 graphs under both builtin
    profiles, no `build_deployment_plan` call builds two plans with one
    assignment: in particular it does not try the last move when every
    earlier move was kept, since that trial is the plan with every move."""
    real_plan = mapping._plan
    assignments = []
    monkeypatch.setattr(mapping, "_plan",
                        lambda *args: assignments.append(args[4]) or real_plan(*args))
    repeated = []
    for graph in branchy_graphs:
        for name in PROFILES:
            assignments.clear()
            build_deployment_plan(graph, load_profile(name))
            if any(a in assignments[:i] for i, a in enumerate(assignments)):
                repeated.append((graph.name, name))
    assert repeated == []
