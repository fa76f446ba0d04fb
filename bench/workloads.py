"""The benchmark's workloads.

Each workload generates its inputs from the seed when it is built, runs
one iteration with `run(tracer)`, and reads its results back from the
artifact tree under `out`: the modelled target cost, the structural
per-layer counts and the checks. A pipeline iteration is one call to
`pipeline.run_pipeline`, a compile iteration one `compile_sweep`. With a
`spans.Tracer`, the same call runs with every layer function it looks up
at call time wrapped in a span (`traced_calls`), so traced and untraced
iterations run the same driver and must write byte-identical trees.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import branchy
import oracle
from tinydeploy import cli, costmodel, pipeline
from tinydeploy.data_files import load_profile, resolve_path
from tinydeploy.executor import calibrate, run_int8
from tinydeploy.graph import OpKind
from tinydeploy.mapping import build_deployment_plan
from tinydeploy.model_io import load_model, save_model
from tinydeploy.pruning import (
    Checkpoint,
    apply_masks,
    export_checkpoint,
    import_checkpoint,
    materialize,
    new_plan,
    plan_next_stage,
)
from tinydeploy.quantization import quantize_graph

CONFIG = Path("configs/example_pipeline.json")
CHECK_SAMPLES = 12
GRAPH_COUNT = 30
CALIBRATION_INPUTS = 4
PRUNE_SCHEDULE = (0.10, 0.05, 0.05)
PROFILES = ("profile_default", "profile_desk_calibrated")


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and content, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text())


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# tracing: a span around every layer call a driver makes


def _evaluate_span(graph, *_) -> str:
    return "executor.evaluate_int8" if graph.is_quantized() else "executor.evaluate_f32"


def _evaluate_stage_span(model_path, dataset_path, out_prefix) -> str:
    # run_pipeline evaluates into eval_float, eval_pruned and eval_quantized.
    return "pipeline.stage." + Path(out_prefix).name.replace("eval_", "evaluate-")


def _count_written(tr, paths, args) -> None:
    tr.count("model_io.bytes_written", sum(p.stat().st_size for p in paths))


def _count_evaluated(tr, result, args) -> None:
    records, _ = result
    tr.count(f"executor.{'int8' if args[0].is_quantized() else 'f32'}_samples", len(records))


def _count_calibrated(tr, result, args) -> None:
    tr.count("executor.f32_samples", len(args[1]))


# Function name -> (span name, or a function of the call's arguments that
# gives it; None, or a counter called with (tracer, result, arguments)).
TRACED_CALLS = {
    "load_model": ("model_io.load", None),
    "save_model": ("model_io.save", _count_written),
    "load_dataset": ("datasets.load", None),
    "validate": ("graph.validate", None),
    "evaluate": (_evaluate_span, _count_evaluated),
    "calibrate": ("executor.calibrate", _count_calibrated),
    "new_plan": ("pruning.plan_stage", None),
    "plan_next_stage": ("pruning.plan_stage", None),
    "apply_masks": ("pruning.apply_masks", None),
    "import_checkpoint": ("pruning.checkpoint", None),
    "export_checkpoint": ("pruning.checkpoint", None),
    "materialize": ("pruning.materialize", None),
    "quantize_graph": ("quantization.quantize", None),
    "build_deployment_plan": ("mapping.plan", None),
    "estimate_deployment": ("costmodel.estimate", None),
    "simulate": ("downlink.simulate", None),
    "stage_evaluate": (_evaluate_stage_span, None),
    "stage_prune_step": ("pipeline.stage.prune", None),
    "stage_calibrate": ("pipeline.stage.calibrate", None),
    "stage_quantize": ("pipeline.stage.quantize", None),
    "stage_map": ("pipeline.stage.map", None),
    "stage_estimate": ("pipeline.stage.estimate", None),
    "stage_downlink": ("pipeline.stage.simulate-downlink", None),
    "stage_report": ("pipeline.stage.report", None),
}


def in_span(tr, fn, span, count):
    """`fn`, run inside a span of `tr` named `span` (or `span(*args)`)."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tr.span(span(*args, **kwargs) if callable(span) else span):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tr, result, args)
        return result
    return call


@contextlib.contextmanager
def traced_calls(tr, *namespaces):
    """Within the block, every TRACED_CALLS function that one of the
    modules looks up at call time runs inside a span of `tr`."""
    saved = [(ns, name, getattr(ns, name)) for ns in namespaces for name in TRACED_CALLS
             if hasattr(ns, name)]
    for ns, name, fn in saved:
        setattr(ns, name, in_span(tr, fn, *TRACED_CALLS[name]))
    try:
        yield
    finally:
        for ns, name, fn in saved:
            setattr(ns, name, fn)


def compile_sweep(graphs, inputs, profiles, out: Path, pause=None) -> None:
    """Save/load, 3 prune stages with checkpoints, materialize, calibrate,
    quantize, then plan and estimate every graph for every profile.

    `pause`, when given, is called after each graph.
    """
    for graph, graph_inputs in zip(graphs, inputs):
        d = out / graph.name
        d.mkdir(parents=True)
        save_model(graph, d / "model_float")
        g = load_model(d / "model_float.json")
        plan = new_plan(g, PRUNE_SCHEDULE)
        for k in range(1, len(PRUNE_SCHEDULE) + 1):
            if k > 1:
                g = import_checkpoint(g, Checkpoint.load(d / f"checkpoint_stage{k - 1}.json"))
            plan = plan_next_stage(g, plan)
            g = apply_masks(g, plan)
            export_checkpoint(g).save(d / f"checkpoint_stage{k}")
        pruned = materialize(g, plan)
        ranges = calibrate(pruned, graph_inputs)
        quantized = quantize_graph(pruned, ranges)
        save_model(quantized, d / "model_quantized")
        for ref, profile in profiles:
            deployment = build_deployment_plan(quantized, profile)
            estimate = costmodel.estimate_deployment(deployment, quantized, profile)
            deployment.save(d / f"plan_{ref}.json")
            _write_json(d / f"cost_{ref}.json", estimate.to_json())
        if pause is not None:
            pause()


# ---------------------------------------------------------------------------
# reading results back from the tree


def plan_stats(plans: list[tuple[dict, dict]]) -> dict[str, float]:
    """Mapping and cost-model counts over (plan, estimate) pairs."""
    groups = npu_groups = overlap = arena = arena_tensors = npu_busy = cpu_busy = 0.0
    for plan, estimate in plans:
        timeline = plan["timeline"]
        cpu = [(e["start_us"], e["end_us"]) for e in timeline if e["target"] == "CPU"]
        npu = [(e["start_us"], e["end_us"]) for e in timeline if e["target"] == "NPU"]
        # Groups on one resource never overlap, so pairwise sums are exact.
        overlap += sum(max(0.0, min(c1, n1) - max(c0, n0)) for c0, c1 in cpu for n0, n1 in npu)
        groups += len(timeline)
        npu_groups += len(npu)
        arena += plan["memory_plan"]["arena_peak_bytes"]
        arena_tensors += sum(t["size"] for t in plan["memory_plan"]["tensors"].values())
        for g in estimate["per_group_breakdown"]:
            if g["target"] == "NPU":
                npu_busy += g["latency_us"]
            else:
                cpu_busy += g["latency_us"]
    n = len(plans)
    return {
        "mapping.groups": groups / n,
        "mapping.npu_groups_frac": npu_groups / groups,
        "mapping.overlap_us": overlap / n,
        "mapping.arena_peak_bytes": arena / n,
        "mapping.arena_reuse_ratio": arena_tensors / arena,
        "costmodel.npu_busy_us": npu_busy / n,
        "costmodel.cpu_busy_us": cpu_busy / n,
    }


def _parameters(manifest_path: Path) -> int:
    tensors = _read_json(manifest_path)["tensors"].values()
    return sum(math.prod(t["shape"]) for t in tensors if t["blob"] is not None)


def _geomean(values) -> float:
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0]  # exp(log(x)) may not give x back exactly
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _target_metrics(estimates: list[dict]) -> dict[str, float]:
    return {
        "target_latency_ms": _geomean(e["latency_ms"] for e in estimates),
        "target_energy_mj": _geomean(e["energy_mj"] for e in estimates),
        "target_ram_bytes": _geomean(e["ram_peak_bytes"] for e in estimates),
        "target_flash_bytes": _geomean(e["flash_bytes"] for e in estimates),
    }


def program_logits(model_path: Path, samples) -> dict[str, np.ndarray]:
    """The INT8 interpreter's logit codes entering Softmax, per sample."""
    graph = load_model(model_path)
    softmax_in = next(n for n in graph.nodes if n.kind == OpKind.SOFTMAX).inputs[0]
    logits = {}
    for sample_id, x, _ in samples:
        trace: dict = {}
        run_int8(graph, x, trace=trace)
        logits[sample_id] = trace[softmax_in]
    return logits


class PipelineWorkload:
    """`pipeline.run_pipeline` on the example config with make-assets inputs."""

    def __init__(self, model: str, seed: int, work: Path):
        self.seed = seed
        assets = work / "assets"
        with contextlib.redirect_stdout(sys.stderr):
            if cli.main(["make-assets", "--out", str(assets), "--seed", str(seed)]) != 0:
                raise RuntimeError("make-assets failed")
        config = pipeline.PipelineConfig.load(CONFIG)
        config.model = str(assets / f"{model}.json")
        config.dataset = str(assets / "dataset")
        config.output_dir = str(work / "out")
        self.config = config
        self.out = Path(config.output_dir)

    def run(self, tracer=None, pause=None) -> None:
        """One iteration; `run_pipeline` offers no point to call `pause` at."""
        with traced_calls(tracer, pipeline, costmodel) if tracer else contextlib.nullcontext():
            pipeline.run_pipeline(self.config)

    def check(self) -> list[str]:
        samples = oracle.read_dataset(self.config.dataset)
        subset = [samples[i] for i in oracle.pick_subset(len(samples), self.seed, CHECK_SAMPLES)]
        failures = []
        for stem, records in (("model_float", "eval_float"), ("model_pruned", "eval_pruned"),
                              ("model_quantized", "eval_quantized")):
            model = self.out / f"{stem}.json"
            logits = program_logits(model, subset) if stem == "model_quantized" else None
            failures += oracle.check_model(
                model, subset, oracle.read_records(self.out / f"{records}.csv"), logits
            )
        profile = _read_json(resolve_path(self.config.hardware_profile))
        failures += oracle.check_plan(
            self.out / "model_quantized.json", _read_json(self.out / "deployment_plan.json"), profile
        )
        return failures

    def targets(self) -> dict[str, float]:
        return _target_metrics([_read_json(self.out / "cost_estimate.json")])

    def info(self) -> dict[str, tuple[float, str]]:
        report = _read_json(self.out / "report.json")
        stages, downlink = report["stages"], report["downlink"]
        return {
            "top1_float": (stages["float"]["accuracy"], "frac"),
            "top1_pruned": (stages["pruned"]["accuracy"], "frac"),
            "top1_quantized": (stages["quantized"]["accuracy"], "frac"),
            "hybrid_top1": (downlink["hybrid_accuracy"], "frac"),
            "downlink_reduction_pct": (downlink["reduction_pct"], "%"),
            "flash_reduction_pct": (report["flash_reduction_pct"], "%"),
        }

    def structure(self) -> dict[str, float]:
        downlink = _read_json(self.out / "downlink_report.json")
        return {
            "pruning.params_removed_frac":
                1.0 - _parameters(self.out / "model_pruned.json") / _parameters(self.out / "model_float.json"),
            "quantization.weight_bytes": (self.out / "model_quantized.bin").stat().st_size,
            "downlink.transmitted_frac": downlink["transmitted_count"] / downlink["num_samples"],
            **plan_stats([(_read_json(self.out / "deployment_plan.json"),
                           _read_json(self.out / "cost_estimate.json"))]),
        }

    def stage_models(self) -> list[Path]:
        return [self.out / f"model_{s}.json" for s in ("float", "pruned", "quantized")]


class CompileWorkload:
    """Compile-only sweep over seeded branchy graphs, no dataset evaluation."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.graphs = branchy.make_graph_set(seed, GRAPH_COUNT)
        self.inputs = [
            branchy.calibration_inputs(g, seed, i, CALIBRATION_INPUTS) for i, g in enumerate(self.graphs)
        ]
        self.profiles = [(ref, load_profile(f"builtin:{ref}")) for ref in PROFILES]
        self.out = work / "out"

    def run(self, tracer=None, pause=None) -> None:
        """One sweep; `pause` is called after each graph."""
        self.out.mkdir(parents=True, exist_ok=True)
        with traced_calls(tracer, sys.modules[__name__], costmodel) if tracer else contextlib.nullcontext():
            compile_sweep(self.graphs, self.inputs, self.profiles, self.out, pause)

    def _results(self):
        for graph in self.graphs:
            d = self.out / graph.name
            for ref in PROFILES:
                yield d, ref, _read_json(d / f"plan_{ref}.json"), _read_json(d / f"cost_{ref}.json")

    def check(self) -> list[str]:
        failures = []
        for d, ref, plan, _ in self._results():
            profile = _read_json(resolve_path(f"builtin:{ref}"))
            failures += oracle.check_plan(d / "model_quantized.json", plan, profile)
        return failures

    def targets(self) -> dict[str, float]:
        return _target_metrics([estimate for *_, estimate in self._results()])

    def graph_table(self) -> list[dict]:
        """Node count, fused-group count and MACs of every graph, per profile."""
        return [
            {"graph": d.name, "profile": ref, "nodes": len(plan["assignment"]),
             "groups": len(plan["fused_groups"]),
             "macs": sum(g["macs"] for g in estimate["per_group_breakdown"])}
            for d, ref, plan, estimate in self._results()
        ]

    def info(self) -> dict[str, tuple[float, str]]:
        table = self.graph_table()
        return {
            "graphs": (len(self.graphs), "count"),
            "graph_nodes_mean": (float(np.mean([r["nodes"] for r in table])), "count"),
            "graph_groups_mean": (float(np.mean([r["groups"] for r in table])), "count"),
            "graph_macs_geomean": (_geomean(r["macs"] for r in table), "count"),
        }

    def structure(self) -> dict[str, float]:
        float_params = sum(_parameters(self.out / g.name / "model_float.json") for g in self.graphs)
        kept = sum(_parameters(self.out / g.name / "model_quantized.json") for g in self.graphs)
        return {
            "pruning.params_removed_frac": 1.0 - kept / float_params,
            "quantization.weight_bytes":
                sum((self.out / g.name / "model_quantized.bin").stat().st_size for g in self.graphs),
            "downlink.transmitted_frac": 0.0,
            **plan_stats([(plan, estimate) for *_, plan, estimate in self._results()]),
        }

    def stage_models(self) -> list[Path]:
        return [self.out / g.name / f"model_{s}.json" for g in self.graphs for s in ("float", "quantized")]


WORKLOADS = ("pipeline_small_convnet", "pipeline_dwsep_net", "compile_branchy")


def make_workload(name: str, seed: int, work: Path):
    if name == "compile_branchy":
        return CompileWorkload(seed, work)
    if name in WORKLOADS:
        return PipelineWorkload(name.removeprefix("pipeline_"), seed, work)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
