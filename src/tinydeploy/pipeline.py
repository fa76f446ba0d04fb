"""End-to-end pipeline: load -> baseline eval -> staged pruning ->
calibrate -> quantize -> map -> estimate -> downlink simulation ->
combined report.

`run_pipeline` reads the config's model, dataset, hardware profile and
link budget once and hands each stage the objects it needs in memory:
every stage function takes graphs, samples, ranges, a profile, a plan or
records, writes its artifacts and returns the objects it made, so no
stage reads a file the run wrote. The CLI
subcommands are thin wrappers that load their input files and call the
same stage functions, so running the stages one file at a time is
bit-identical to the monolithic run. `run` has no trainer, so unlike
`prune-stage` it exports no checkpoints for external fine-tuning.

The calibration samples are a seeded subset of the evaluated ones
(`calibration_subset`). In a run, the evaluate pass of the quantization
source (the pruned model, or the Float32 one under `prune.skip`) folds
their ranges as it goes, and `stage_calibrate` only writes them to
calibration_ranges.json, one `TensorRange` record per tensor that
quantization reads a range for (`quantization.calibrated_tensors`). The
`calibrate` subcommand runs `executor.calibrate` over the same subset
and writes the same bytes.
All randomness (calibration subset sampling) derives from the config
seed; re-running a config produces byte-identical output trees.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import costmodel, model_io
from .data_files import load_link_budget, load_profile, resolve_path
from .datasets import load_dataset
from .downlink import DownlinkError, DownlinkReport, DownlinkScenario, LinkBudget, simulate
from .executor import InferenceRecord, TensorRange, evaluate, write_records_csv
from .graph import GraphIR, parameter_count
from .hardware import HardwareProfile
from .mapping import DeploymentPlan, build_deployment_plan, render_report
from .model_io import load_model, save_model
from .pruning import (
    DEFAULT_SCHEDULE,
    Checkpoint,
    PruneError,
    PrunePlan,
    apply_masks,
    export_checkpoint,
    import_checkpoint,
    materialize,
    new_plan,
    plan_next_stage,
)
from .quantization import quantize_graph

log = logging.getLogger(__name__)


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
        # The records these values make state their ranges; build them
        # empty so that a value the run would use is refused before any
        # stage runs. A skipped prune uses no schedule.
        try:
            DownlinkScenario(self.bytes_per_sample, self.confidence_threshold, ())
        except DownlinkError as exc:
            raise PipelineError(f"config: {exc}") from None
        try:
            if not self.prune.skip:
                PrunePlan(self.prune.schedule, {})
        except PruneError as exc:
            raise PipelineError(f"config prune: {exc}") from None

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
# stage functions (objects in, objects out; each writes its artifacts)


@dataclass
class Observed:
    """Samples to evaluate, with the indices of the calibration subset
    among them: `stage_evaluate` fills `ranges` with what
    `executor.calibrate` returns for that subset."""

    samples: list
    subset: list[int]
    ranges: dict[str, TensorRange] = field(default_factory=dict)


def stage_evaluate(graph: GraphIR, samples, out_prefix) -> tuple[list[InferenceRecord], float]:
    """Evaluate a graph on samples; writes <prefix>.csv and returns the
    records and their top-1 accuracy. `Observed` samples also get their
    calibration ranges from the same pass.

    The subset rides in `samples`, and `evaluate` takes its arguments by
    position, because tracing (`bench/workloads.py`) names its spans from
    these calls' positional arguments.
    """
    if isinstance(samples, Observed):
        records, accuracy = evaluate(graph, samples.samples, samples.subset, samples.ranges)
    else:
        records, accuracy = evaluate(graph, samples)
    write_records_csv(records, Path(out_prefix).with_suffix(".csv"))
    return records, accuracy


def stage_prune_step(
    graph: GraphIR,
    plan: PrunePlan,
    out_plan,
    out_masked,
    out_pruned=None,
    checkpoint_in: Checkpoint | None = None,
    checkpoint_out=None,
    expect_stage: int | None = None,
) -> tuple[PrunePlan, GraphIR, GraphIR | None]:
    """One prune iteration: rank, extend the plan, mask.

    `checkpoint_in` imports externally fine-tuned weights before ranking;
    `checkpoint_out` exports the masked ones for a trainer. When the plan
    reaches its last scheduled stage and `out_pruned` is given, masks are
    made permanent into a materialized model. Returns the extended plan,
    the masked graph and the materialized graph (None when not written).
    """
    if expect_stage is not None and len(plan.stages) != expect_stage:
        raise PipelineError(
            f"prune plan at stage {len(plan.stages)}, expected {expect_stage}"
        )
    if checkpoint_in is not None:
        graph = import_checkpoint(graph, checkpoint_in)
    plan = plan_next_stage(graph, plan)
    masked = apply_masks(graph, plan)
    plan.save(out_plan)
    save_model(masked, out_masked)
    if checkpoint_out is not None:
        export_checkpoint(masked).save(checkpoint_out)
    pruned = None
    if plan.complete and out_pruned is not None:
        pruned = materialize(masked, plan)
        save_model(pruned, out_pruned)
    return plan, masked, pruned


def calibration_subset(n: int, calibration_samples: int, seed: int) -> list[int]:
    """The sorted indices of the samples, out of n, that calibration runs
    over: min(calibration_samples, n) of them, drawn by `seed`."""
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(int(calibration_samples), n), replace=False).tolist())


def stage_calibrate(ranges: dict[str, TensorRange], out_json) -> dict[str, TensorRange]:
    """Write calibration ranges, keyed by tensor id, to `out_json` and
    return them. A run passes the ranges its evaluate pass observed
    (`Observed`); the `calibrate` subcommand those of `executor.calibrate`."""
    model_io.write_json(out_json, ranges)
    return ranges


def stage_quantize(graph: GraphIR, ranges, out_model) -> GraphIR:
    quantized = quantize_graph(graph, ranges)
    save_model(quantized, out_model)
    return quantized


def stage_map(
    graph: GraphIR, profile: HardwareProfile, out_plan, out_text=None
) -> DeploymentPlan:
    plan = build_deployment_plan(graph, profile)
    plan.save(out_plan)
    if out_text is not None:
        model_io.write_files([(out_text, render_report(plan))])
    return plan


def stage_estimate(graph, plan: DeploymentPlan, profile: HardwareProfile, out_json):
    """Write and return `plan.estimates`, read through
    `costmodel.estimate_deployment` so that traced runs keep its span."""
    est = costmodel.estimate_deployment(plan, graph, profile)
    model_io.write_json(out_json, est)
    return est


def stage_downlink(
    records,
    link: LinkBudget,
    threshold,
    bytes_per_sample,
    out_json,
    ground=None,
    out_text=None,
) -> DownlinkReport:
    scenario = DownlinkScenario(
        bytes_per_sample=float(bytes_per_sample),
        threshold=float(threshold),
        onboard_records=records,
        ground_records=ground,
    )
    report = simulate(scenario, link)
    model_io.write_json(out_json, report)
    if out_text is not None:
        model_io.write_files([(out_text, report.summary())])
    return report


# The model stages a report covers; only "pruned" may be missing.
REPORTED = ("float", "pruned", "quantized")


def stage_report(out_dir, config: PipelineConfig, profile: HardwareProfile, stages: dict,
                 est: costmodel.CostEstimate, downlink: DownlinkReport) -> dict:
    """Combine the stage results into report.json / report.csv / plot data.

    `profile` is the one `config.hardware_profile` names. `stages` maps
    each of REPORTED to its (graph, top-1 accuracy), or None for a skipped
    pruning. Returns the report as written, its config, estimate and
    downlink report as given.
    """
    out = Path(out_dir)
    entries: dict[str, dict | None] = {
        stage: None if stages[stage] is None else {
            "accuracy": stages[stage][1],
            "parameters": parameter_count(stages[stage][0]),
            "flash_bytes": costmodel.flash_bytes(stages[stage][0], profile),
        }
        for stage in REPORTED
    }
    float_flash = entries["float"]["flash_bytes"]
    quant_flash = entries["quantized"]["flash_bytes"]
    report = {
        "model": stages["float"][0].name,
        "config": config,
        "stages": entries,
        "flash_reduction_pct": 100.0 * (1.0 - quant_flash / float_flash),
        "deployment": est,
        "downlink": downlink,
    }

    dataset_name = Path(config.dataset).name
    rows = [["model", "dataset", "stage", "accuracy", "parameters", "flash_bytes",
             "ram_peak_bytes", "latency_ms", "energy_mj"]]
    for stage in REPORTED:
        entry = entries[stage]
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


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class Run:
    """One run in progress: where it writes, its config, the samples,
    hardware profile and link budget the config names, and every object a
    stage made, keyed by the stem of the file the stage wrote it to
    ("model_pruned", "eval_float", "deployment_plan", ...), plus the
    ranges the quantization source's evaluate pass observed, as
    "observed_ranges", which `calibrate` writes."""

    out: Path
    config: PipelineConfig
    samples: list
    profile: HardwareProfile
    link: LinkBudget
    made: dict[str, object]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    `outputs` are the glob patterns of the artifacts the stage writes into
    the output directory; `run(run)` writes them and returns the objects it
    made, by file stem, for `Run.made`. Stages marked `pruning` are
    skipped when the config sets `prune.skip`.
    """

    name: str
    outputs: tuple[str, ...]
    run: Callable[[Run], dict[str, object]]
    pruning: bool = False


# The run functions look up the stage_* functions at call time, so code
# that rebinds a module-level stage_* name (tracing) sees every call.


def _evaluate(model: str, prefix: str):
    def run(r: Run) -> dict[str, object]:
        if model != _quant_source(r):
            return {prefix: stage_evaluate(r.made[model], r.samples, r.out / prefix)}
        observed = Observed(r.samples, calibration_subset(
            len(r.samples), r.config.calibration_samples, r.config.seed))
        return {prefix: stage_evaluate(r.made[model], observed, r.out / prefix),
                "observed_ranges": observed.ranges}
    return run


def _prune(r: Run) -> dict[str, object]:
    schedule = r.config.prune.schedule
    graph = r.made["model_float"]
    plan = new_plan(graph, schedule)
    for k in range(1, len(schedule) + 1):
        plan, graph, pruned = stage_prune_step(
            graph, plan, r.out / "prune_plan.json", r.out / f"model_masked_stage{k}",
            out_pruned=(r.out / "model_pruned") if k == len(schedule) else None)
    return {"model_pruned": pruned}


def _quant_source(r: Run) -> str:
    """The stem of the model that is calibrated and quantized."""
    return "model_float" if r.config.prune.skip else "model_pruned"


def _report(r: Run) -> dict[str, object]:
    stages = {stage: (r.made[f"model_{stage}"], r.made[f"eval_{stage}"][1])
              if f"model_{stage}" in r.made else None for stage in REPORTED}
    return {"report": stage_report(r.out, r.config, r.profile, stages, r.made["cost_estimate"],
                                   r.made["downlink_report"])}


STAGES = (
    Stage("evaluate-float", ("eval_float.*",), _evaluate("model_float", "eval_float")),
    Stage("prune", ("prune_plan.json", "model_masked_stage*.*", "model_pruned.*"), _prune,
          pruning=True),
    Stage("evaluate-pruned", ("eval_pruned.*",), _evaluate("model_pruned", "eval_pruned"),
          pruning=True),
    Stage("calibrate", ("calibration_ranges.json",), lambda r: {
        "calibration_ranges": stage_calibrate(
            r.made["observed_ranges"], r.out / "calibration_ranges.json")}),
    Stage("quantize", ("model_quantized.*",), lambda r: {
        "model_quantized": stage_quantize(
            r.made[_quant_source(r)], r.made["calibration_ranges"], r.out / "model_quantized")}),
    Stage("evaluate-quantized", ("eval_quantized.*",),
          _evaluate("model_quantized", "eval_quantized")),
    Stage("map", ("deployment_plan.*",), lambda r: {
        "deployment_plan": stage_map(
            r.made["model_quantized"], r.profile,
            r.out / "deployment_plan.json", r.out / "deployment_plan.txt")}),
    Stage("estimate", ("cost_estimate.json",), lambda r: {
        "cost_estimate": stage_estimate(
            r.made["model_quantized"], r.made["deployment_plan"], r.profile,
            r.out / "cost_estimate.json")}),
    Stage("simulate-downlink", ("downlink_report.*",), lambda r: {
        "downlink_report": stage_downlink(
            r.made["eval_quantized"][0], r.link, r.config.confidence_threshold,
            r.config.bytes_per_sample, r.out / "downlink_report.json",
            ground=r.made["eval_float"][0], out_text=r.out / "downlink_report.txt")}),
    Stage("report", ("report.json", "report.csv", "plot_latency_energy.csv"), _report),
)
STAGE_ORDER = tuple(stage.name for stage in STAGES)


def _purge(out: Path) -> None:
    """Remove every artifact a run owns: model_float.* and all stage outputs."""
    for pattern in ("model_float.*",) + tuple(p for stage in STAGES for p in stage.outputs):
        for path in out.glob(pattern):
            path.unlink()


def run_pipeline(config: PipelineConfig, stop_after: str | None = None) -> dict | None:
    """Run the STAGES into config.output_dir; returns the combined report
    (`stage_report`: report.json's value, with the config, the cost
    estimate and the downlink report as records).

    The hardware profile, the link budget, the model and the dataset are
    read once, in a "setup" step that also writes model_float, so a bad
    profile or link ref fails as "setup: ..." before any stage runs; the
    stages then hand each other what they made in memory. Each stage's
    name and wall time are logged at INFO level.
    Artifacts left by an earlier run are purged first, so a rerun in place
    regenerates everything. `stop_after` ends the run after the named stage
    (see STAGE_ORDER) and returns None, even when that stage was skipped; a
    stop after the last stage is a full run. A failing step removes every
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
        start = time.perf_counter()
        profile = load_profile(config.hardware_profile)
        link = load_link_budget(config.link_budget)
        graph = load_model(model_path)
        save_model(graph, out / "model_float.json")
        run = Run(out, config, load_dataset(dataset_path), profile, link, {"model_float": graph})
        log.info("%s took %.3f s", name, time.perf_counter() - start)
        for stage in STAGES:
            name = stage.name
            if not (stage.pruning and config.prune.skip):
                start = time.perf_counter()
                run.made.update(stage.run(run))
                log.info("stage %s took %.3f s", name, time.perf_counter() - start)
            if name == stop_after:
                break
    except Exception as exc:
        _purge(out)
        raise PipelineError(f"{name}: {exc}") from exc
    return run.made["report"] if stage is STAGES[-1] else None
