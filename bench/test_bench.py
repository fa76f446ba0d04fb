"""Controls for the benchmark's own checks.

Run from the repository root: python3 -m pytest bench

Each negative control plants one defect in a small pipeline run's
outputs and requires the reference checks in oracle.py to report it.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import branchy  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from tinydeploy import costmodel, pipeline  # noqa: E402
from tinydeploy.data_files import load_profile, resolve_path  # noqa: E402
from tinydeploy.datasets import generate_dataset  # noqa: E402
from tinydeploy.model_io import save_model  # noqa: E402
from tinydeploy.models import build_small_convnet  # noqa: E402
from tinydeploy.pipeline import STAGE_ORDER, PipelineConfig, run_pipeline  # noqa: E402

PROFILE = "builtin:profile_desk_calibrated"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("pipeline")
    generate_dataset(base / "dataset", num_samples=20)
    save_model(build_small_convnet(), base / "model")
    run_pipeline(PipelineConfig(
        model=str(base / "model.json"), dataset=str(base / "dataset"),
        output_dir=str(base / "out"), hardware_profile=PROFILE,
    ))
    return base


def _samples(run_dir: Path, k: int = 6):
    samples = oracle.read_dataset(run_dir / "dataset")
    return [samples[i] for i in oracle.pick_subset(len(samples), 0, k)]


def _check(run_dir: Path, model: Path, records_csv: Path, logits=None) -> list[str]:
    return oracle.check_model(model, _samples(run_dir), oracle.read_records(records_csv), logits)


def _plan(run_dir: Path) -> dict:
    return json.loads((run_dir / "out" / "deployment_plan.json").read_text())


def _profile() -> dict:
    return json.loads(resolve_path(PROFILE).read_text())


def test_clean_run_passes(run_dir):
    out = run_dir / "out"
    for stem, records in (("model_float", "eval_float"), ("model_pruned", "eval_pruned"),
                          ("model_quantized", "eval_quantized")):
        model = out / f"{stem}.json"
        logits = workloads.program_logits(model, _samples(run_dir)) if stem == "model_quantized" else None
        assert _check(run_dir, model, out / f"{records}.csv", logits) == []
    assert oracle.check_plan(out / "model_quantized.json", _plan(run_dir), _profile()) == []


@pytest.mark.parametrize("stem", ["float", "quantized"])
def test_flipped_prediction_fails(run_dir, tmp_path, stem):
    out = run_dir / "out"
    with open(out / f"eval_{stem}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    target = _samples(run_dir)[0][0]
    for row in rows:
        if row["sample_id"] == target:
            row["predicted_class"] = str((int(row["predicted_class"]) + 1) % 10)
    flipped = tmp_path / "flipped.csv"
    with open(flipped, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert len(_check(run_dir, out / f"model_{stem}.json", flipped)) == 1


def test_int8_logit_off_by_one_fails(run_dir):
    out = run_dir / "out"
    model = out / "model_quantized.json"
    logits = workloads.program_logits(model, _samples(run_dir))
    first = next(iter(logits))
    logits[first] = logits[first].astype(np.int64) + np.eye(1, logits[first].size, 3, dtype=np.int64)
    failures = _check(run_dir, model, out / "eval_quantized.csv", logits)
    assert failures == [f"model_quantized.json {first}: INT8 logits differ from the reference"]


def test_perturbed_requant_shift_fails(run_dir, tmp_path):
    out = run_dir / "out"
    manifest = json.loads((out / "model_quantized.json").read_text())
    requant = next(n for n in manifest["nodes"] if n["id"] == "fc")["attrs"]["requant"]
    requant["shift"][0] += 1
    (tmp_path / "model_quantized.json").write_text(json.dumps(manifest))
    shutil.copy(out / "model_quantized.bin", tmp_path / "model_quantized.bin")
    assert _check(run_dir, tmp_path / "model_quantized.json", out / "eval_quantized.csv")


def test_overlapping_arena_blocks_fail(run_dir):
    plan = _plan(run_dir)
    for block in plan["memory_plan"]["tensors"].values():
        block["offset"] = 0
    failures = oracle.check_plan(run_dir / "out" / "model_quantized.json", plan, _profile())
    assert any("share arena bytes" in f for f in failures)


def test_two_groups_on_one_resource_fail(run_dir):
    plan = _plan(run_dir)
    for entry in plan["timeline"]:
        entry["start_us"] = 0.0
    failures = oracle.check_plan(run_dir / "out" / "model_quantized.json", plan, _profile())
    assert any("at once" in f for f in failures)
    assert any("before its input" in f for f in failures)


def test_tree_digest_sees_one_byte(run_dir, tmp_path):
    tree = shutil.copytree(run_dir / "out", tmp_path / "out")
    before = workloads.tree_digest(tree)
    path = tree / "report.csv"
    path.write_bytes(path.read_bytes()[:-1] + b"?")
    assert workloads.tree_digest(tree) != before


def test_branchy_graphs_overlap_cpu_and_npu(tmp_path):
    graphs = branchy.make_graph_set(seed=5, count=3)
    inputs = [branchy.calibration_inputs(g, 5, i, 2) for i, g in enumerate(graphs)]
    profiles = [(ref, load_profile(f"builtin:{ref}")) for ref in workloads.PROFILES]
    workloads.compile_sweep(graphs, inputs, profiles, tmp_path)
    for graph in graphs:
        assert {"Concat", "MaxPool2D"} <= {n.kind.value for n in graph.nodes}
        for ref, _ in profiles:
            plan = json.loads((tmp_path / graph.name / f"plan_{ref}.json").read_text())
            cost = json.loads((tmp_path / graph.name / f"cost_{ref}.json").read_text())
            profile = json.loads(resolve_path(f"builtin:{ref}").read_text())
            assert oracle.check_plan(tmp_path / graph.name / "model_quantized.json", plan, profile) == []
            assert workloads.plan_stats([(plan, cost)])["mapping.overlap_us"] > 0


def test_traced_run_writes_the_untraced_tree(run_dir, tmp_path):
    config = PipelineConfig(
        model=str(run_dir / "model.json"), dataset=str(run_dir / "dataset"),
        output_dir=str(tmp_path / "out"), hardware_profile=PROFILE,
    )
    run_pipeline(config)
    untraced = workloads.tree_digest(tmp_path / "out")
    load_model = pipeline.load_model
    tracer = Tracer()
    with workloads.traced_calls(tracer, pipeline, costmodel):
        run_pipeline(config)
    assert workloads.tree_digest(tmp_path / "out") == untraced
    assert pipeline.load_model is load_model
    names = {span[0] for span in tracer.spans}
    assert {f"pipeline.stage.{stage}" for stage in STAGE_ORDER} <= names
    assert {"executor.evaluate_f32", "executor.evaluate_int8", "mapping.plan",
            "costmodel.estimate", "pruning.materialize"} <= names
    assert tracer.counters[0]["executor.int8_samples"] == 20
