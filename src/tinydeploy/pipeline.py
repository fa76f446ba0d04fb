"""End-to-end pipeline: load -> baseline eval -> staged pruning with
checkpoint round-trips -> calibrate -> quantize -> map -> estimate ->
downlink simulation -> combined report.

Every stage is a file-in/file-out function shared between run_pipeline
and the CLI subcommands, so running the stages one file at a time is
bit-identical to the monolithic run (given no external fine-tuning).
All randomness (calibration subset sampling) derives from the config
seed; re-running a config produces byte-identical output trees.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import costmodel, model_io
from .data_files import load_link_budget, load_profile, resolve_path
from .datasets import load_dataset
from .downlink import DownlinkScenario, simulate
from .executor import (
    ExecutionError,
    calibrate,
    evaluate,
    ranges_from_json,
    ranges_to_json,
    read_records_csv,
    write_records_csv,
    write_records_json,
)
from .graph import parameter_count
from .mapping import (
    MappingError, build_deployment_plan, group_dependencies, load_plan, render_report,
    tensor_lifetimes, verify_memory_plan, verify_timeline,
)
from .model_io import load_model, save_model
from .pruning import (
    DEFAULT_SCHEDULE,
    Checkpoint,
    PrunePlan,
    apply_masks,
    export_checkpoint,
    import_checkpoint,
    materialize,
    new_plan,
    plan_next_stage,
)
from .quantization import quantize_graph


def _config_form(value, kind):
    """`value` with the config-only text forms read as `kind`: a numeric
    string as its number, an integral float as int, an int as float, 0/1
    as false/true, and a record's field values by their annotations.
    Anything else is left for `model_io.decode` to judge."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            return value
        kinds = {f.name: PruneConfig if f.type == "PruneConfig" else model_io.KINDS.get(f.type)
                 for f in fields(kind)}
        return {k: _config_form(v, kinds.get(k)) for k, v in value.items()}
    if isinstance(kind, list):
        return [_config_form(v, kind[0]) for v in value] if isinstance(value, list) else value
    try:
        if kind is int and (isinstance(value, str) or type(value) is float and value.is_integer()):
            return int(value)
        if kind is model_io.NUMBER and (isinstance(value, str) or type(value) is int):
            return float(value)
    except (ValueError, OverflowError):
        return value
    return bool(value) if kind is bool and type(value) is int and value in (0, 1) else value


class PipelineError(RuntimeError):
    pass


# Lowest accepted value of the int fields that have one.
MINIMUM = {"seed": 0, "calibration_samples": 1}


@dataclass
class PruneConfig:
    schedule: list[float] = field(default_factory=lambda: list(DEFAULT_SCHEDULE))
    skip: bool = False


@dataclass
class PipelineConfig:
    model: str
    dataset: str
    output_dir: str
    calibration_samples: int = 32
    prune: PruneConfig = field(default_factory=PruneConfig)
    confidence_threshold: float = 0.95
    bytes_per_sample: float = 12288.0
    hardware_profile: str = "builtin:profile_desk_calibrated"
    link_budget: str = "builtin:link_sband_256k"
    seed: int = 0

    def __post_init__(self) -> None:
        for key, minimum in MINIMUM.items():
            if getattr(self, key) < minimum:
                raise PipelineError(
                    f"config key {key!r} must be at least {minimum}, got {getattr(self, key)}"
                )

    @classmethod
    def from_json(cls, obj) -> "PipelineConfig":
        """The config a JSON object holds, in its `_config_form`, read by
        `model_io.decode`. "_docs" is ignored; any other unknown key is an
        error, so a misspelt key cannot silently run with the default."""
        if isinstance(obj, dict):
            obj = {k: v for k, v in obj.items() if k != "_docs"}
        return model_io.decode(cls, _config_form(obj, cls), "config", PipelineError)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json(model_io.read_json(path, PipelineError))


# ---------------------------------------------------------------------------
# stage functions (file in, file out)


def stage_evaluate(model_path, dataset_path, out_prefix) -> tuple[int, float]:
    """Evaluate a model on a dataset; writes <prefix>.csv and <prefix>.json."""
    graph = load_model(model_path)
    samples = load_dataset(dataset_path)
    records, accuracy = evaluate(graph, samples)
    out_prefix = Path(out_prefix)
    write_records_csv(records, out_prefix.with_suffix(".csv"))
    write_records_json(records, out_prefix.with_suffix(".json"))
    return len(records), accuracy


def stage_prune_step(
    model_in,
    plan_path,
    out_masked,
    schedule,
    out_pruned=None,
    checkpoint_in=None,
    checkpoint_out=None,
    expect_stage: int | None = None,
) -> PrunePlan:
    """One prune iteration: rank, extend the plan, mask, export checkpoint.

    `checkpoint_in` imports externally fine-tuned weights before ranking.
    When the plan reaches its last scheduled stage and `out_pruned` is
    given, masks are made permanent into a materialized model.
    """
    graph = load_model(model_in)
    plan_path = Path(plan_path)
    if plan_path.exists():
        plan = PrunePlan.load(plan_path)
    else:
        plan = new_plan(graph, schedule)
    if expect_stage is not None and len(plan.stages) != expect_stage:
        raise PipelineError(
            f"prune plan at stage {len(plan.stages)}, expected {expect_stage}"
        )
    if checkpoint_in is not None:
        graph = import_checkpoint(graph, Checkpoint.load(checkpoint_in))
    plan = plan_next_stage(graph, plan)
    masked = apply_masks(graph, plan)
    plan.save(plan_path)
    save_model(masked, out_masked)
    if checkpoint_out is not None:
        export_checkpoint(masked).save(checkpoint_out)
    if plan.complete and out_pruned is not None:
        save_model(materialize(masked, plan), out_pruned)
    return plan


def stage_calibrate(model_path, dataset_path, num_samples, seed, out_json) -> int:
    """Calibration ranges over a seeded subset of the dataset."""
    graph = load_model(model_path)
    samples = load_dataset(dataset_path)
    num_samples = min(int(num_samples), len(samples))
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(samples), size=num_samples, replace=False).tolist())
    ranges = calibrate(graph, [samples[i][1] for i in picked])
    model_io.write_json(out_json, ranges_to_json(ranges))
    return num_samples


def stage_quantize(model_path, ranges_json, out_model) -> None:
    graph = load_model(model_path)
    ranges = ranges_from_json(model_io.read_json(ranges_json, ExecutionError))
    save_model(quantize_graph(graph, ranges), out_model)


def stage_map(model_path, profile_ref, out_plan, out_text=None):
    graph = load_model(model_path)
    profile = load_profile(profile_ref)
    plan = build_deployment_plan(graph, profile)
    plan.save(out_plan)
    if out_text is not None:
        model_io.write_files([(out_text, render_report(plan))])
    return plan


def stage_estimate(model_path, plan_path, profile_ref, out_json):
    """Cost-estimate a plan on the profile it was built for, once its
    timeline is found to be a schedule of the model's modelled group costs
    (`verify_timeline`) and its slots the model's arena tensors, none
    overlapping."""
    graph = load_model(model_path)
    plan = load_plan(plan_path)
    profile = load_profile(profile_ref)
    if profile.name != plan.profile:
        raise MappingError(f"plan {plan_path} was built for profile {plan.profile!r}, "
                           f"not {profile.name!r}")
    est = costmodel.estimate_deployment(plan, graph, profile)
    verify_timeline(plan.timeline, group_dependencies(graph, plan.fused_groups),
                    est.per_group_breakdown, profile.transfer_latency_us)
    lifetimes = tensor_lifetimes(graph, plan.timeline, plan.fused_groups)
    need = {lt.tensor_id: lt.size for lt in lifetimes}
    have = {tid: slot.size for tid, slot in plan.memory_plan.tensors.items()}
    where = f"plan {plan_path}: memory_plan"
    for tid in sorted(need.keys() | have.keys()):
        if tid not in have:
            raise MappingError(f"{where} has no slot for arena tensor {tid}")
        if tid not in need:
            raise MappingError(f"{where} tensors[{tid}] is not an arena tensor of the model")
        if have[tid] != need[tid]:
            raise MappingError(f"{where} tensors[{tid}] size {have[tid]} != {need[tid]} bytes")
    verify_memory_plan(plan.memory_plan, lifetimes)
    model_io.write_json(out_json, asdict(est))
    return est


def stage_downlink(
    records_csv,
    link_ref,
    threshold,
    bytes_per_sample,
    out_json,
    ground_csv=None,
    out_text=None,
):
    records = read_records_csv(records_csv)
    ground = read_records_csv(ground_csv) if ground_csv else None
    link = load_link_budget(link_ref)
    scenario = DownlinkScenario(
        bytes_per_sample=float(bytes_per_sample),
        threshold=float(threshold),
        onboard_records=records,
        ground_records=ground,
    )
    report = simulate(scenario, link)
    model_io.write_json(out_json, asdict(report))
    if out_text is not None:
        model_io.write_files([(out_text, report.summary())])
    return report


# ---------------------------------------------------------------------------
# orchestration


def _accuracy_from_csv(path: Path) -> float:
    records = read_records_csv(path)
    return float(np.mean([r.correct for r in records])) if records else 0.0


def stage_report(out_dir, config: PipelineConfig) -> dict:
    """Combine stage artifacts into report.json / report.csv / plot data."""
    out = Path(out_dir)
    profile = load_profile(config.hardware_profile)

    stages: dict[str, dict | None] = {}
    for stage, model_file, eval_prefix in (
        ("float", "model_float", "eval_float"),
        ("pruned", "model_pruned", "eval_pruned"),
        ("quantized", "model_quantized", "eval_quantized"),
    ):
        model_path = out / f"{model_file}.json"
        if not model_path.exists():
            if stage != "pruned":  # only pruning may be skipped
                raise PipelineError(f"{model_path}: no {stage} model to report on")
            stages[stage] = None
            continue
        graph = load_model(model_path)
        if stage == "float":
            model_name = graph.name
        stages[stage] = {
            "accuracy": _accuracy_from_csv(out / f"{eval_prefix}.csv"),
            "parameters": parameter_count(graph),
            "flash_bytes": costmodel.flash_bytes(graph, profile),
        }

    estimate_path = out / "cost_estimate.json"
    est = model_io.decode(costmodel.CostEstimate, model_io.read_json(estimate_path, PipelineError),
                          str(estimate_path), PipelineError)
    downlink_report = model_io.read_json(out / "downlink_report.json", PipelineError)
    float_flash = stages["float"]["flash_bytes"]
    quant_flash = stages["quantized"]["flash_bytes"]
    report = {
        "model": model_name,
        "config": asdict(config),
        "stages": stages,
        "flash_reduction_pct": 100.0 * (1.0 - quant_flash / float_flash),
        "deployment": asdict(est),
        "downlink": downlink_report,
    }

    dataset_name = Path(config.dataset).name
    rows = [["model", "dataset", "stage", "accuracy", "parameters", "flash_bytes",
             "ram_peak_bytes", "latency_ms", "energy_mj"]]
    for stage in ("float", "pruned", "quantized"):
        entry = stages[stage]
        if entry is None:
            continue
        deployed = stage == "quantized"
        rows.append([
            report["model"], dataset_name, stage, repr(entry["accuracy"]),
            entry["parameters"], entry["flash_bytes"],
            est.ram_peak_bytes if deployed else "",
            repr(est.latency_ms) if deployed else "",
            repr(est.energy_mj) if deployed else "",
        ])
    plot = [["model", "latency_ms", "energy_mj"],
            [report["model"], repr(est.latency_ms), repr(est.energy_mj)]]
    model_io.write_files([
        (out / "report.json", model_io.json_text(report)),
        (out / "report.csv", model_io.csv_text(rows)),
        (out / "plot_latency_energy.csv", model_io.csv_text(plot)),
    ])
    return report


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `outputs` are the glob patterns of the artifacts the stage writes into
    the output directory; `run(out, config, dataset)` writes them. Stages
    marked `pruning` are skipped when the config sets `prune.skip`.
    """

    name: str
    outputs: tuple[str, ...]
    run: Callable[[Path, PipelineConfig, Path], object]
    pruning: bool = False


# The run functions look up the stage_* functions at call time, so code
# that rebinds a module-level stage_* name (tracing) sees every call.


def _evaluate(model: str, prefix: str):
    return lambda out, cfg, ds: stage_evaluate(out / f"{model}.json", ds, out / prefix)


def _prune(out: Path, config: PipelineConfig, dataset: Path) -> None:
    n_stages = len(config.prune.schedule)
    for k in range(1, n_stages + 1):
        stage_prune_step(
            out / ("model_float.json" if k == 1 else f"model_masked_stage{k-1}.json"),
            out / "prune_plan.json",
            out / f"model_masked_stage{k}",
            config.prune.schedule,
            out_pruned=(out / "model_pruned") if k == n_stages else None,
            # Identity fine-tuning: re-import the unmodified checkpoint.
            checkpoint_in=(out / f"checkpoint_stage{k-1}.json") if k > 1 else None,
            checkpoint_out=out / f"checkpoint_stage{k}",
        )


def _quant_source(out: Path, config: PipelineConfig) -> Path:
    return out / ("model_float.json" if config.prune.skip else "model_pruned.json")


STAGES = (
    Stage("evaluate-float", ("eval_float.*",), _evaluate("model_float", "eval_float")),
    Stage("prune", ("prune_plan.json", "model_masked_stage*.*", "checkpoint_stage*.*",
                    "model_pruned.*"), _prune, pruning=True),
    Stage("evaluate-pruned", ("eval_pruned.*",), _evaluate("model_pruned", "eval_pruned"),
          pruning=True),
    Stage("calibrate", ("calibration_ranges.json",), lambda out, cfg, ds: stage_calibrate(
        _quant_source(out, cfg), ds, cfg.calibration_samples, cfg.seed,
        out / "calibration_ranges.json")),
    Stage("quantize", ("model_quantized.*",), lambda out, cfg, ds: stage_quantize(
        _quant_source(out, cfg), out / "calibration_ranges.json", out / "model_quantized")),
    Stage("evaluate-quantized", ("eval_quantized.*",),
          _evaluate("model_quantized", "eval_quantized")),
    Stage("map", ("deployment_plan.*",), lambda out, cfg, ds: stage_map(
        out / "model_quantized.json", cfg.hardware_profile,
        out / "deployment_plan.json", out / "deployment_plan.txt")),
    Stage("estimate", ("cost_estimate.json",), lambda out, cfg, ds: stage_estimate(
        out / "model_quantized.json", out / "deployment_plan.json",
        cfg.hardware_profile, out / "cost_estimate.json")),
    Stage("simulate-downlink", ("downlink_report.*",), lambda out, cfg, ds: stage_downlink(
        out / "eval_quantized.csv", cfg.link_budget, cfg.confidence_threshold,
        cfg.bytes_per_sample, out / "downlink_report.json",
        ground_csv=out / "eval_float.csv", out_text=out / "downlink_report.txt")),
    Stage("report", ("report.json", "report.csv", "plot_latency_energy.csv"),
          lambda out, cfg, ds: stage_report(out, cfg)),
)
STAGE_ORDER = tuple(stage.name for stage in STAGES)


def _purge(out: Path) -> None:
    """Remove every artifact a run owns: model_float.* and all stage outputs."""
    for pattern in ("model_float.*",) + tuple(p for stage in STAGES for p in stage.outputs):
        for path in out.glob(pattern):
            path.unlink()


def run_pipeline(config: PipelineConfig, stop_after: str | None = None) -> dict | None:
    """Run the STAGES into config.output_dir; returns the combined report.

    Artifacts left by an earlier run are purged first, so a rerun in place
    regenerates everything. `stop_after` ends the run after the named stage
    (see STAGE_ORDER) and returns None, even when that stage was skipped; a
    stop after the last stage is a full run. A failing stage removes every
    artifact of the run and raises PipelineError tagged with its name.
    """
    if stop_after is not None and stop_after not in STAGE_ORDER:
        raise PipelineError(f"unknown stage {stop_after!r}; choose from {STAGE_ORDER}")
    model_path = resolve_path(config.model)
    dataset_path = resolve_path(config.dataset)
    for path, what in ((model_path, "model"), (dataset_path, "dataset")):
        if not Path(path).exists():
            raise PipelineError(f"config {what} path does not exist: {path}")

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _purge(out)
    name = "setup"
    try:
        save_model(load_model(model_path), out / "model_float.json")
        for stage in STAGES:
            name = stage.name
            if not (stage.pruning and config.prune.skip):
                result = stage.run(out, config, dataset_path)
            if name == stop_after:
                break
    except Exception as exc:
        _purge(out)
        raise PipelineError(f"{name}: {exc}") from exc
    return result if stage is STAGES[-1] else None
