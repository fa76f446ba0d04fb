"""Command-line interface.

Each stage subcommand is a thin file wrapper around the pipeline stage
function that `run` calls: it loads the input files and the stage writes
the outputs, so stages can interleave with external fine-tuning between
prune-stage invocations. `run` chains the stages in memory from a single
JSON config.
Exit code 0 on success, 1 with a stage-tagged diagnostic on failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import pipeline
from .costmodel import CostEstimate
from .data_files import load_link_budget, load_profile, resolve_path
from .datasets import (
    DEFAULT_NUM_SAMPLES, DEFAULT_SEED, generate_dataset, load_dataset, synthetic_samples,
)
from .downlink import DownlinkError, DownlinkReport
from .executor import ExecutionError, calibrate, ranges_from_json, read_records_csv, top1_accuracy
from .mapping import MappingError, build_deployment_plan, load_plan
from .model_io import decode, first_difference, load_model, read_json, save_model
from .models import BUNDLED_MODELS, build_bundled_model, fit_classifier
from .pipeline import MINIMUM, REPORTED, PipelineConfig, PipelineError
from .pruning import DEFAULT_SCHEDULE, Checkpoint, PrunePlan, new_plan


def _parse_schedule(text: str) -> list[float]:
    return [float(f) for f in text.split(",") if f.strip()]


def _at_least(command: str, option: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{command} {option} must be at least {minimum}, got {value}")


def _cmd_run(args) -> int:
    config = PipelineConfig.load(args.config)
    if args.out:
        config.output_dir = args.out
    if args.seed is not None:
        _at_least("run", "--seed", args.seed, MINIMUM["seed"])
        config.seed = args.seed
    report = pipeline.run_pipeline(config, stop_after=args.stage)
    if report is not None:
        print(f"report written to {Path(config.output_dir) / 'report.json'}")
        quant = report["stages"]["quantized"]
        print(
            f"quantized accuracy {quant['accuracy']:.4f}, "
            f"flash reduction {report['flash_reduction_pct']:.1f}%, "
            f"downlink reduction {report['downlink'].reduction_pct:.2f}%"
        )
    else:
        print(f"stopped after stage {args.stage}; outputs in {config.output_dir}")
    return 0


def _cmd_validate_model(args) -> int:
    graph = load_model(args.model)
    print(f"{graph.name}: ok ({len(graph.nodes)} nodes, {len(graph.tensors)} tensors)")
    return 0


def _cmd_evaluate(args) -> int:
    records, accuracy = pipeline.stage_evaluate(
        load_model(args.model), load_dataset(resolve_path(args.dataset)), args.out
    )
    print(f"{len(records)} samples, top-1 accuracy {accuracy:.4f}")
    return 0


def _cmd_prune_stage(args) -> int:
    graph = load_model(args.model)
    plan_path = Path(args.plan)
    if plan_path.exists():
        plan = PrunePlan.load(plan_path)
    else:
        plan = new_plan(graph, _parse_schedule(args.schedule))
    plan, *_ = pipeline.stage_prune_step(
        graph,
        plan,
        plan_path,
        args.out_masked,
        out_pruned=args.out_pruned,
        checkpoint_in=Checkpoint.load(args.checkpoint_in) if args.checkpoint_in else None,
        checkpoint_out=args.checkpoint_out,
        expect_stage=args.stage,
    )
    removed = sum(len(v) for v in plan.stages[-1].values())
    print(f"stage {len(plan.stages)}/{len(plan.schedule)}: removed {removed} structures")
    if plan.complete and args.out_pruned:
        print(f"masks made permanent: {args.out_pruned}")
    return 0


def _cmd_calibrate(args) -> int:
    _at_least("calibrate", "--samples", args.samples, MINIMUM["calibration_samples"])
    _at_least("calibrate", "--seed", args.seed, MINIMUM["seed"])
    graph, samples = load_model(args.model), load_dataset(resolve_path(args.dataset))
    picked = pipeline.calibration_subset(len(samples), args.samples, args.seed)
    pipeline.stage_calibrate(calibrate(graph, [samples[i][1] for i in picked]), args.out)
    print(f"calibrated on {len(picked)} samples -> {args.out}")
    return 0


def _cmd_quantize(args) -> int:
    ranges = ranges_from_json(read_json(args.ranges, ExecutionError))
    pipeline.stage_quantize(load_model(args.model), ranges, args.out)
    print(f"quantized model written to {args.out}")
    return 0


def _cmd_map(args) -> int:
    plan = pipeline.stage_map(load_model(args.model), load_profile(args.profile), args.out,
                              args.report)
    print(
        f"plan: {len(plan.fused_groups)} groups, makespan {plan.makespan_us:.1f} us, "
        f"arena peak {plan.memory_plan.arena_peak_bytes} B"
    )
    return 0


def _cmd_estimate(args) -> int:
    profile = load_profile(args.profile)
    graph, plan = load_model(args.model), load_plan(args.plan)
    built = build_deployment_plan(graph, profile)
    if plan != built:
        raise MappingError(f"plan {args.plan} {first_difference(plan, built)} "
                           "(map builds it from this model and profile)")
    est = pipeline.stage_estimate(graph, plan, profile, args.out)
    print(
        f"latency {est.latency_ms:.3f} ms, energy {est.energy_mj:.3f} mJ, "
        f"ram {est.ram_peak_bytes} B, flash {est.flash_bytes} B"
    )
    return 0


@dataclass
class ScenarioFile:
    """A `simulate-downlink --scenario` file: each non-null key beats its flag."""

    records: str | None = None
    ground_records: str | None = None
    threshold: float | None = None
    bytes_per_sample: float | None = None


def _cmd_simulate_downlink(args) -> int:
    if args.scenario:
        scenario = decode(ScenarioFile, read_json(args.scenario, DownlinkError),
                          f"scenario {args.scenario}", DownlinkError)
        vars(args).update((key, v) for key, v in vars(scenario).items() if v is not None)
    if not args.records:
        print("error: no records CSV given (flag --records or scenario file)", file=sys.stderr)
        return 1
    report = pipeline.stage_downlink(
        read_records_csv(args.records),
        load_link_budget(args.link),
        args.threshold,
        args.bytes_per_sample,
        args.out,
        ground=read_records_csv(args.ground_records) if args.ground_records else None,
        out_text=args.summary,
    )
    print(report.summary(), end="")
    return 0


def _cmd_report(args) -> int:
    config = PipelineConfig.load(args.config)
    run_dir = Path(args.run_dir)
    stages = {}
    for stage in REPORTED:
        model_path = run_dir / f"model_{stage}.json"
        if model_path.exists():
            records = run_dir / f"eval_{stage}.csv"
            stages[stage] = load_model(model_path), top1_accuracy(read_records_csv(records))
        elif stage == "pruned":  # only pruning may be skipped
            stages[stage] = None
        else:
            raise PipelineError(f"{model_path}: no {stage} model to report on")

    def record(cls, name: str):
        path = run_dir / name
        return decode(cls, read_json(path, PipelineError), str(path), PipelineError)

    pipeline.stage_report(run_dir, config, load_profile(config.hardware_profile), stages,
                          record(CostEstimate, "cost_estimate.json"),
                          record(DownlinkReport, "downlink_report.json"))
    print(f"report written to {run_dir / 'report.json'}")
    return 0


def _cmd_make_assets(args) -> int:
    _at_least("make-assets", "--samples", args.samples, 1)
    _at_least("make-assets", "--train-samples", args.train_samples, 1)
    _at_least("make-assets", "--seed", args.seed, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset_dir = generate_dataset(out / "dataset", args.samples, args.seed)
    train = synthetic_samples(args.train_samples, args.seed, noise_seed=args.seed + 8668)
    for name in BUNDLED_MODELS:
        graph = fit_classifier(build_bundled_model(name), train)
        save_model(graph, out / name)
        print(f"model: {out / name}.json")
    print(f"dataset: {dataset_dir} ({args.samples} samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinydeploy",
        description="ConvNet compression and deployment planning for CPU/NPU microcontrollers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--stage", choices=pipeline.STAGE_ORDER, help="stop after this stage")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate-model", help="check graph invariants")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_validate_model)

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset directory")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output prefix; records go to <prefix>.csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("prune-stage", help="run one prune iteration of the schedule")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True, help="plan JSON, created on first stage")
    p.add_argument("--schedule", default=",".join(map(str, DEFAULT_SCHEDULE)))
    p.add_argument("--out-masked", required=True)
    p.add_argument("--out-pruned", help="materialized model, written after the final stage")
    p.add_argument("--checkpoint-in", help="fine-tuned checkpoint to import before ranking")
    p.add_argument("--checkpoint-out", help="checkpoint export for external fine-tuning")
    p.add_argument("--stage", type=int, help="expected 0-based stage index (sanity check)")
    p.set_defaults(func=_cmd_prune_stage)

    p = sub.add_parser("calibrate", help="record activation ranges on a dataset subset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--samples", type=int, default=PipelineConfig.calibration_samples)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("quantize", help="quantize a model with calibration ranges")
    p.add_argument("--model", required=True)
    p.add_argument("--ranges", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("map", help="partition, fuse, schedule and plan memory")
    p.add_argument("--model", required=True)
    p.add_argument("--profile", default="builtin:profile_default")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write a human-readable plan table")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("estimate", help="cost-estimate a deployment plan")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--profile", default="builtin:profile_default")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate-downlink", help="confidence-threshold transmission tradeoff")
    p.add_argument("--records", help="onboard records CSV from evaluate")
    p.add_argument("--ground-records", help="ground model records CSV for hybrid accuracy")
    p.add_argument("--scenario", help="scenario JSON (records, ground_records, threshold, bytes_per_sample)")
    p.add_argument("--link", default=PipelineConfig.link_budget)
    p.add_argument("--threshold", type=float, default=PipelineConfig.confidence_threshold)
    p.add_argument("--bytes-per-sample", type=float, default=PipelineConfig.bytes_per_sample)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="also write a human-readable summary")
    p.set_defaults(func=_cmd_simulate_downlink)

    p = sub.add_parser("report", help="combine stage artifacts into the final report")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("make-assets", help="generate the bundled models and dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p.add_argument("--train-samples", type=int, default=300)
    p.set_defaults(func=_cmd_make_assets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error [{exc}]", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
