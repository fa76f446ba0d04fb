"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned inline; brute-force oracles live in graphutil and
are independent implementations of the paths they check.
"""
import random
from contextlib import contextmanager

import numpy as np
import pytest

from graphutil import (
    brute_force_arena_peak,
    brute_force_hybrid_accuracy,
    brute_force_makespan,
    build_prune_plan,
    two_conv_chain,
)
from tinydeploy.costmodel import flash_bytes
from tinydeploy.datasets import generate_dataset
from tinydeploy.downlink import DownlinkScenario, LinkBudget, simulate
from tinydeploy.executor import InferenceRecord, calibrate, evaluate, run_f32, run_int8
from tinydeploy.data_files import load_profile
from tinydeploy.graph import DType, GraphIR, OpKind, OpNode, QuantParams, TensorKind, TensorSpec, infer_shapes
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import (
    Lifetime,
    build_deployment_plan,
    partition_and_fuse,
    place_lifetimes,
    schedule,
    tensor_lifetimes,
    verify_memory_plan,
)
from tinydeploy.model_io import save_model
from tinydeploy.pipeline import PipelineConfig, run_pipeline
from tinydeploy.pruning import apply_masks, materialize, new_plan, plan_next_stage, rank_filters
from tinydeploy.quantization import compute_qparams, dequantize_tensor, quantize_graph, quantize_tensor
from tinydeploy.executor import TensorRange


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{title}]: PASS")


def test_criterion_01_downlink_arithmetic():
    with criterion(1, "downlink arithmetic"):
        confidences = [0.5] * 768 + [0.99] * (5400 - 768)
        records = [
            InferenceRecord(f"s{i:05d}", 0, c, 0) for i, c in enumerate(confidences)
        ]
        scenario = DownlinkScenario(
            num_samples=5400, bytes_per_sample=12_300.0, threshold=0.95,
            onboard_records=records,
        )
        report = simulate(scenario, LinkBudget("sband", 256_000, 4, 600.0))
        assert abs(report.full_volume_bytes - 66.4e6) <= 0.1e6
        assert report.transmitted_count == 768
        assert abs(report.transmitted_volume_bytes - 9.45e6) <= 0.01e6
        assert abs(report.reduction_pct - 85.78) <= 0.05


def test_criterion_02_quantization_roundtrip():
    with criterion(2, "quantization roundtrip"):
        rng = np.random.default_rng(2024)
        n = 10_000
        lo = rng.uniform(-1e3, 1e3, size=n)
        hi = lo + rng.uniform(1e-6, 2e3, size=n)
        errs = np.empty(n)
        scales = np.empty(n)
        for i in range(n):
            qp = compute_qparams(TensorRange("t", lo[i], hi[i]))
            wlo, whi = min(lo[i], 0.0), max(hi[i], 0.0)
            r = rng.uniform(wlo, whi)
            back = dequantize_tensor(quantize_tensor(np.array([r]), qp), qp)[0]
            errs[i] = abs(back - r)
            scales[i] = qp.scale
            # zero is exactly representable in every activation quantization
            z = dequantize_tensor(quantize_tensor(np.array([0.0]), qp), qp)[0]
            assert z == 0.0
        # |dequant(quant(r)) - r| <= S/2 (float64 evaluation epsilon: 1e-9 relative)
        assert np.all(errs <= scales / 2 * (1 + 1e-9))


def test_criterion_03_flash_reduction(small_convnet, dwsep_net, test_samples):
    with criterion(3, "flash reduction"):
        profile = HardwareProfile()
        metadata_allowance = 4096  # covers bias widening + scale tables
        for graph in (small_convnet, dwsep_net):
            ranges = calibrate(graph, [s[1] for s in test_samples[:16]])
            quantized = quantize_graph(graph, ranges)
            assert flash_bytes(quantized, profile) <= (
                0.26 * flash_bytes(graph, profile) + metadata_allowance
            )
            # full pipeline: prune 20% then quantize -> >= 70% flash reduction
            plan = build_prune_plan(graph, [0.10, 0.05, 0.05])
            pruned = materialize(graph, plan)
            pruned_ranges = calibrate(pruned, [s[1] for s in test_samples[:16]])
            pq = quantize_graph(pruned, pruned_ranges)
            reduction = 100.0 * (1 - flash_bytes(pq, profile) / flash_bytes(graph, profile))
            assert reduction >= 70.0


def test_criterion_04_ram_planning(small_convnet_quantized, dwsep_net_quantized):
    with criterion(4, "ram planning"):
        profile = HardwareProfile()
        for graph in (small_convnet_quantized, dwsep_net_quantized):
            plan = build_deployment_plan(graph, profile)
            lifetimes = tensor_lifetimes(graph, plan.timeline, plan.fused_groups)
            verify_memory_plan(plan.memory_plan, lifetimes)
            assert plan.memory_plan.arena_peak_bytes < sum(lt.size for lt in lifetimes)

        # chain of three 100 KB tensors: third reuses the first's slot
        kb100 = 100_000
        chain = [
            Lifetime("A", kb100, 0.0, 1.0),
            Lifetime("B", kb100, 0.0, 2.0),
            Lifetime("C", kb100, 1.0, 3.0),
        ]
        assert place_lifetimes(chain).arena_peak_bytes == 200_000

        # greedy within 1.5x of the exhaustive optimum on <= 6-tensor instances
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(2, 6)
            lifetimes = []
            for i in range(n):
                start = rng.randint(0, 6)
                lifetimes.append(
                    Lifetime(f"t{i}", rng.randint(1, 64) * 8, float(start),
                             float(start + rng.randint(1, 6)))
                )
            greedy = place_lifetimes(lifetimes).arena_peak_bytes
            optimal = brute_force_arena_peak(lifetimes)
            assert optimal <= greedy <= 1.5 * optimal


def test_criterion_05_pruning_correctness(small_convnet, dwsep_net):
    with criterion(5, "pruning correctness"):
        # per-stage, per-layer: max L2(removed) <= min L2(kept) at ranking time
        for graph in (small_convnet, dwsep_net):
            plan = new_plan(graph, [0.10, 0.05, 0.05])
            current = graph
            for _ in range(3):
                scores = {
                    layer: {s.filter_index: s.l2_norm for s in layer_scores}
                    for layer, layer_scores in rank_filters(current).items()
                }
                already = {layer: plan.removed(layer) for layer in plan.original_counts}
                plan = plan_next_stage(current, plan)
                for layer, removed in plan.stages[-1].items():
                    live = set(scores[layer]) - already[layer]
                    kept = live - set(removed)
                    if removed and kept:
                        assert max(scores[layer][i] for i in removed) <= min(
                            scores[layer][i] for i in kept
                        )
                current = apply_masks(graph, plan)

            # masked vs materialized: <= 1e-5 elementwise on 20 random inputs
            masked = apply_masks(graph, plan)
            mat = materialize(graph, plan)
            rng = np.random.default_rng(17)
            out_id = graph.graph_outputs[0]
            for _ in range(20):
                x = rng.normal(0, 1, size=graph.tensors["in"].shape).astype(np.float32)
                a = run_f32(masked, x)[out_id]
                b = run_f32(mat, x)[out_id]
                assert np.abs(a - b).max() <= 1e-5

        # 40-filter layer retains exactly 32 under the default schedule
        wide = two_conv_chain(first_filters=40)
        plan = build_prune_plan(wide, [0.10, 0.05, 0.05])
        assert sum(plan.masks["c1"]) == 32


def test_criterion_06_int8_fidelity(small_convnet, small_convnet_quantized, test_samples):
    with criterion(6, "int8 executor fidelity"):
        # unit-scale identity: integer-valued input passes through exactly
        from tinydeploy.quantization import fixed_point_multiplier

        sig, shift = fixed_point_multiplier(1.0)
        per_ch = QuantParams(scale=np.ones(1), zero_point=np.zeros(1, dtype=np.int64),
                             granularity="per_channel", axis=0, symmetric=True)
        nodes = [OpNode("conv", OpKind.CONV2D, {
            "kernel_h": 1, "kernel_w": 1, "stride_h": 1, "stride_w": 1,
            "padding": "VALID",
            "requant": {"significand": [sig], "shift": [shift]},
        }, ["in", "w"], ["out"])]
        tensors = {
            "in": TensorSpec("in", (1, 4, 4, 1), DType.INT8, TensorKind.INPUT,
                             quant=QuantParams(scale=1.0, zero_point=0)),
            "w": TensorSpec("w", (1, 1, 1, 1), DType.INT8, TensorKind.WEIGHT,
                            quant=per_ch, data=np.ones((1, 1, 1, 1), dtype=np.int8)),
            "out": TensorSpec("out", (1, 4, 4, 1), DType.INT8, TensorKind.ACTIVATION,
                              quant=QuantParams(scale=1.0, zero_point=0)),
        }
        g, _ = infer_shapes(GraphIR("id", nodes, tensors, ["in"], ["out"]))
        x = np.array(np.random.default_rng(0).integers(-128, 128, size=(1, 4, 4, 1)),
                     dtype=np.float32)
        np.testing.assert_array_equal(run_int8(g, x)["out"], x)

        # top-1 agreement INT8 vs Float32 >= 90% on the 200-sample set
        rf, _ = evaluate(small_convnet, test_samples)
        rq, _ = evaluate(small_convnet_quantized, test_samples)
        agreement = float(np.mean(
            [a.predicted_class == b.predicted_class for a, b in zip(rf, rq)]
        ))
        assert len(test_samples) == 200
        assert agreement >= 0.90


def test_criterion_07_mapping_soundness(small_convnet_quantized, test_samples):
    with criterion(7, "mapping soundness"):
        profile = HardwareProfile()
        assignment, groups = partition_and_fuse(small_convnet_quantized, profile)
        nodes = {n.id: n for n in small_convnet_quantized.nodes}
        for grp in groups:
            if assignment[grp[0]] == "NPU":
                assert all(profile.supports(nodes[nid].kind) for nid in grp)
        # fused-plan INT8 outputs bit-identical to unfused
        for _, x, _ in test_samples[:10]:
            t_unfused, t_fused = {}, {}
            run_int8(small_convnet_quantized, x, trace=t_unfused)
            run_int8(small_convnet_quantized, x, fused_groups=groups, trace=t_fused)
            for tid, value in t_fused.items():
                np.testing.assert_array_equal(value, t_unfused[tid])

        # [Conv, ReLU, Softmax] -> NPU{Conv+ReLU} / CPU{Softmax}
        from graphutil import conv_relu_softmax

        g3 = conv_relu_softmax(out_c=2, in_shape=(1, 4, 4, 2))
        g3.nodes = [n for n in g3.nodes if n.id != "flat"]
        g3.node("softmax").inputs = ["relu_out"]
        del g3.tensors["flat_out"]
        g3, _ = infer_shapes(g3)
        ranges = calibrate(g3, [np.ones((1, 4, 4, 2), dtype=np.float32)])
        q3 = quantize_graph(g3, ranges)
        assignment, groups = partition_and_fuse(q3, HardwareProfile())
        assert ["conv", "relu"] in groups
        assert ["softmax"] in groups
        assert assignment["conv"] == "NPU" and assignment["relu"] == "NPU"
        assert assignment["softmax"] == "CPU"


def test_criterion_08_scheduling():
    with criterion(8, "scheduling"):
        profile = HardwareProfile(per_op_overhead_us=0.0)
        deps = {"a": set(), "b": set()}
        targets = {"a": "NPU", "b": "CPU"}
        latencies = {"a": 4000.0, "b": 3000.0}
        timeline = schedule([["a"], ["b"]], deps, targets, latencies, profile)
        assert max(e.end_us for e in timeline) == 4000.0

        rng = random.Random(321)
        for _ in range(150):
            n = rng.randint(2, 5)
            gids = [f"g{i}" for i in range(n)]
            deps = {g: set() for g in gids}
            for i in range(1, n):
                for j in range(i):
                    if rng.random() < 0.4:
                        deps[gids[i]].add(gids[j])
            targets = {g: rng.choice(["CPU", "NPU"]) for g in gids}
            lats = {g: float(rng.randint(1, 50)) for g in gids}
            timeline = schedule([[g] for g in gids], deps, targets, lats, profile)
            makespan = max(e.end_us for e in timeline)
            optimal = brute_force_makespan(gids, deps, targets, lats)
            assert makespan <= 1.2 * optimal + 1e-9


def test_criterion_09_cost_budget(small_convnet, test_samples):
    with criterion(9, "cost-model budgets (calibration fixture)"):
        profile = load_profile("builtin:profile_desk_calibrated")
        plan = build_prune_plan(small_convnet, [0.10, 0.05, 0.05])
        pruned = materialize(small_convnet, plan)
        ranges = calibrate(pruned, [s[1] for s in test_samples[:32]])
        quantized = quantize_graph(pruned, ranges)
        deployment = build_deployment_plan(quantized, profile)
        est = deployment.estimates
        assert 3.22 <= est.latency_ms <= 30.38
        assert 0.68 <= est.energy_mj <= 6.45
        assert profile.deadline_fps == 5.0
        assert est.budget_flags["deadline_ok"]


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch, small_convnet):
    with criterion(10, "end-to-end determinism"):
        assets = tmp_path / "assets"
        generate_dataset(assets / "dataset", num_samples=120, seed=7)
        save_model(small_convnet, assets / "model")
        config_json = {
            "model": str(assets / "model.json"),
            "dataset": str(assets / "dataset"),
            "output_dir": "out",
            "calibration_samples": 16,
            "prune": {"schedule": [0.10, 0.05, 0.05], "skip": False},
            "confidence_threshold": 0.95,
            "bytes_per_sample": 12288.0,
            "hardware_profile": "builtin:profile_desk_calibrated",
            "link_budget": "builtin:link_sband_256k",
            "seed": 0,
        }
        trees = []
        for run in ("a", "b"):
            workdir = tmp_path / run
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            run_pipeline(PipelineConfig.from_json(config_json))
            tree = {
                str(p.relative_to(workdir / "out")): p.read_bytes()
                for p in sorted((workdir / "out").rglob("*")) if p.is_file()
            }
            trees.append(tree)
        assert set(trees[0]) == set(trees[1])
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name


def test_criterion_11_hybrid_accuracy():
    with criterion(11, "hybrid accuracy"):
        rng = np.random.default_rng(555)
        link = LinkBudget("sband", 256_000, 4, 600.0)
        for _ in range(10):
            n = 100
            onboard = [
                InferenceRecord(
                    f"s{i:04d}",
                    int(rng.uniform() < 0.6),  # predicted matches label 1 sometimes
                    float(rng.uniform()),
                    1,
                )
                for i in range(n)
            ]
            ground = [
                InferenceRecord(f"s{i:04d}", int(rng.uniform() < 0.9), 1.0, 1)
                for i in range(n)
            ]
            report = simulate(DownlinkScenario(n, 1.0, 0.95, onboard, ground), link)
            expect = brute_force_hybrid_accuracy(onboard, ground, 0.95)
            assert report.hybrid_accuracy == pytest.approx(expect, abs=1e-12)

            # transmitted count monotone over a 20-threshold sweep
            prev = -1
            for k in range(1, 21):
                rep = simulate(
                    DownlinkScenario(n, 1.0, k * 0.05, onboard, ground), link
                )
                assert rep.transmitted_count >= prev
                prev = rep.transmitted_count
