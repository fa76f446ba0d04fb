import inspect
import json
import logging
import os
import re
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from graphutil import build_prune_plan, graphs_equal, inception_graph
from tinydeploy import executor, mapping, model_io, pipeline
from tinydeploy.cli import _parse_schedule, build_parser, main
from tinydeploy.data_files import load_profile
from tinydeploy.datasets import generate_dataset
from tinydeploy.downlink import DownlinkError, DownlinkScenario, LinkBudget, simulate
from tinydeploy.executor import InferenceRecord, read_records_csv, write_records_csv
from tinydeploy.graph import OpKind, validate
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import MappingError, build_deployment_plan, load_plan
from tinydeploy.model_io import load_model, save_model
from tinydeploy.models import BUNDLED_MODELS, build_bundled_model
from tinydeploy.pipeline import STAGE_ORDER, PipelineConfig, PipelineError, run_pipeline
from tinydeploy.pruning import (
    DEFAULT_SCHEDULE, Checkpoint, PrunePlan, export_checkpoint, materialize, new_plan,
)
from tinydeploy.quantization import quantize_graph


@pytest.fixture(scope="module")
def assets(tmp_path_factory, small_convnet, dwsep_net):
    root = tmp_path_factory.mktemp("assets")
    generate_dataset(root / "dataset", num_samples=120, seed=7)
    save_model(small_convnet, root / "small_convnet")
    save_model(dwsep_net, root / "dwsep_net")
    return root


def make_config(assets, out_dir, **overrides) -> PipelineConfig:
    base = {
        "model": str(assets / "small_convnet.json"),
        "dataset": str(assets / "dataset"),
        "output_dir": str(out_dir),
        "calibration_samples": 16,
        "prune": {"schedule": [0.10, 0.05, 0.05], "skip": False},
        "confidence_threshold": 0.95,
        "bytes_per_sample": 12288.0,
        "hardware_profile": "builtin:profile_desk_calibrated",
        "link_budget": "builtin:link_sband_256k",
        "seed": 0,
    }
    base.update(overrides)
    return PipelineConfig.from_json(base)


def tree_digest(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_run_pipeline_produces_all_artifacts(assets, tmp_path):
    config = make_config(assets, tmp_path / "out")
    report = run_pipeline(config)
    out = tmp_path / "out"
    expected = [
        "model_float.json", "eval_float.csv", "prune_plan.json",
        "model_pruned.json", "eval_pruned.csv", "calibration_ranges.json",
        "model_quantized.json", "eval_quantized.csv", "deployment_plan.json",
        "cost_estimate.json", "downlink_report.json", "report.json", "report.csv",
        "plot_latency_energy.csv",
    ]
    for name in expected:
        assert (out / name).exists(), name
    assert report["stages"]["float"]["accuracy"] > 0.9
    assert report["flash_reduction_pct"] >= 70.0
    assert report["deployment"]["budget_flags"]["deadline_ok"]
    # every emitted artifact reloads and revalidates
    for name in ("model_float", "model_pruned", "model_quantized"):
        g = load_model(out / f"{name}.json")
        assert validate(g).ok
    from tinydeploy.mapping import load_plan
    from tinydeploy.pruning import PrunePlan

    plan = load_plan(out / "deployment_plan.json")
    assert plan.estimates is not None
    assert PrunePlan.load(out / "prune_plan.json").complete
    json.loads((out / "cost_estimate.json").read_text())
    json.loads((out / "calibration_ranges.json").read_text())


def test_run_pipeline_deterministic(assets, tmp_path):
    config_a = make_config(assets, tmp_path / "a")
    config_b = make_config(assets, tmp_path / "b")
    run_pipeline(config_a)
    run_pipeline(config_b)
    da, db = tree_digest(tmp_path / "a"), tree_digest(tmp_path / "b")
    assert set(da) == set(db)
    for name in da:
        if name == "report.json":
            # the echoed config contains the differing output_dir by construction
            ja = json.loads(da[name]); jb = json.loads(db[name])
            ja["config"].pop("output_dir"); jb["config"].pop("output_dir")
            assert ja == jb
        else:
            assert da[name] == db[name], name


def test_rerun_in_same_output_dir(assets, tmp_path):
    config = make_config(assets, tmp_path / "out")
    run_pipeline(config)
    first = tree_digest(tmp_path / "out")
    run_pipeline(config)  # stale artifacts (incl. the complete plan) purged
    second = tree_digest(tmp_path / "out")
    assert first == second


def test_prune_skip_config(assets, tmp_path):
    config = make_config(assets, tmp_path / "out", prune={"schedule": [0.1], "skip": True})
    report = run_pipeline(config)
    out = tmp_path / "out"
    assert not (out / "model_pruned.json").exists()
    assert not (out / "prune_plan.json").exists()
    assert (out / "model_quantized.json").exists()
    assert report["stages"]["pruned"] is None
    assert report["stages"]["quantized"] is not None


def test_pipeline_error_removes_partial_outputs(assets, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not a pipeline artifact\n")
    config = make_config(assets, out, calibration_samples=16)
    config.confidence_threshold = 5.0  # breaks the downlink stage
    with pytest.raises(PipelineError, match="simulate-downlink"):
        run_pipeline(config)
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "not a pipeline artifact\n"


def test_missing_model_path_reported(assets, tmp_path):
    config = make_config(assets, tmp_path / "out", model=str(assets / "nope.json"))
    with pytest.raises(PipelineError, match="model path"):
        run_pipeline(config)


# The files each stage adds, in run order, written out by hand so that the
# test checks the stage table in pipeline.py rather than repeating it.
STAGE_FILES = {
    "evaluate-float": ["eval_float.csv"],
    "prune": [
        "prune_plan.json",
        "model_masked_stage1.json", "model_masked_stage1.bin",
        "model_masked_stage2.json", "model_masked_stage2.bin",
        "model_masked_stage3.json", "model_masked_stage3.bin",
        "model_pruned.json", "model_pruned.bin",
    ],
    "evaluate-pruned": ["eval_pruned.csv"],
    "calibrate": ["calibration_ranges.json"],
    "quantize": ["model_quantized.json", "model_quantized.bin"],
    "evaluate-quantized": ["eval_quantized.csv"],
    "map": ["deployment_plan.json", "deployment_plan.txt"],
    "estimate": ["cost_estimate.json"],
    "simulate-downlink": ["downlink_report.json", "downlink_report.txt"],
    "report": ["report.json", "report.csv", "plot_latency_energy.csv"],
}


@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_stop_after_stage(assets, tmp_path, stage, skip):
    out = tmp_path / "out"
    config = make_config(assets, out, prune={"schedule": [0.10, 0.05, 0.05], "skip": skip})
    result = run_pipeline(config, stop_after=stage)
    # Stopping after the last stage is a full run, which returns the report.
    assert (result is None) == (stage != "report")
    expected = {"model_float.json", "model_float.bin"}
    for name, files in STAGE_FILES.items():
        if not (skip and name in ("prune", "evaluate-pruned")):
            expected.update(files)
        if name == stage:
            break
    assert {p.name for p in out.iterdir()} == expected


@pytest.mark.parametrize("skip", [False, True])
def test_run_reads_model_and_dataset_once(assets, tmp_path, monkeypatch, skip):
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    # load_model reads its manifest through model_io.read_json too, so the
    # JSON reads are counted on the module as pipeline sees it.
    through = SimpleNamespace(**vars(model_io))
    monkeypatch.setattr(pipeline, "model_io", through)
    for owner, name in ((pipeline, "load_model"), (pipeline, "load_dataset"),
                        (pipeline, "load_plan"), (executor, "read_records_csv"),
                        (PrunePlan, "load"), (Checkpoint, "load"), (through, "read_json"),
                        (pipeline, "export_checkpoint"), (pipeline, "import_checkpoint"),
                        (pipeline, "load_profile"), (pipeline, "load_link_budget")):
        count(owner, name)
    run_pipeline(make_config(assets, tmp_path / "out", prune={"schedule": [0.1, 0.1], "skip": skip}))
    assert dict(calls) == {"load_model": 1, "load_dataset": 1, "load_profile": 1,
                           "load_link_budget": 1}


@pytest.mark.parametrize("key, ref, message", [
    ("hardware_profile", "builtin:profile_nope",
     "setup: hardware profile builtin:profile_nope: no builtin data file 'profile_nope.json'"),
    ("link_budget", "nope/link.json", "setup: link budget nope/link.json: No such file"),
], ids=["unknown_builtin_profile", "missing_link_file"])
def test_bad_profile_or_link_ref_fails_at_setup(assets, tmp_path, capsys, monkeypatch,
                                               key, ref, message):
    """Refused before any stage runs, with one stage-tagged line and no artifacts."""
    monkeypatch.setattr(pipeline, "load_model", mock.Mock(side_effect=AssertionError))
    out = tmp_path / "out"
    config = {**asdict(make_config(assets, out)), key: ref}
    assert main(["run", "--config", str(_write(tmp_path / "cfg.json", json.dumps(config)))]) == 1
    assert_one_error_line(capsys, message)
    assert list(out.iterdir()) == []


def test_run_refuses_a_dataset_without_samples_at_setup(assets, tmp_path, capsys):
    dataset = _dataset(tmp_path, _header_only)
    out = tmp_path / "out"
    config = {**asdict(make_config(assets, out)), "dataset": str(dataset)}
    assert main(["run", "--config", str(_write(tmp_path / "cfg.json", json.dumps(config)))]) == 1
    assert_one_error_line(capsys, f"setup: {dataset / 'index.csv'}: lists no samples")
    assert list(out.iterdir()) == []


def test_run_logs_each_stage_and_its_wall_time(assets, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=pipeline.__name__)
    run_pipeline(make_config(assets, tmp_path / "out"))
    logged = [r.getMessage() for r in caplog.records if r.name == pipeline.__name__]
    assert all(r.levelno == logging.INFO for r in caplog.records if r.name == pipeline.__name__)
    assert [re.fullmatch(r"(?:stage )?(\S+) took \d+\.\d{3} s", m)[1] for m in logged] == [
        "setup", *STAGE_ORDER]


@pytest.mark.parametrize("model", BUNDLED_MODELS)
def test_save_load_round_trip_is_identity_on_every_graph_the_run_hands_on(
    request, tmp_path, test_samples, model
):
    """The run hands these graphs on in memory where it used to reload
    them, which is only the same run if saving and loading changes nothing."""
    graph = request.getfixturevalue(model)
    plan = new_plan(graph, DEFAULT_SCHEDULE)
    handed_on = {}
    for k in range(1, len(DEFAULT_SCHEDULE) + 1):
        plan, graph, pruned = pipeline.stage_prune_step(
            graph, plan, tmp_path / "plan.json", tmp_path / f"masked{k}",
            out_pruned=tmp_path / "pruned")
        handed_on[f"model_masked_stage{k}"] = graph
    handed_on["model_pruned"] = pruned
    ranges, _ = pipeline.stage_calibrate(pruned, test_samples, 32, 0, tmp_path / "ranges.json")
    handed_on["model_quantized"] = pipeline.stage_quantize(pruned, ranges, tmp_path / "quantized")
    for name, g in handed_on.items():
        manifest, _ = save_model(g, tmp_path / f"{name}_round_trip")
        assert graphs_equal(g, load_model(manifest)), name


def test_config_rejects_unknown_keys(assets, tmp_path):
    with pytest.raises(PipelineError, match="config: unknown key 'confidence_treshold'"):
        make_config(assets, tmp_path / "out", confidence_treshold=0.5)
    with pytest.raises(PipelineError, match="config prune: unknown key 'skp'"):
        make_config(assets, tmp_path / "out", prune={"schedule": [0.1], "skp": True})


def test_config_defaults_and_coercion():
    config = PipelineConfig.from_json({"model": "m", "dataset": "d", "output_dir": "o"})
    assert config == PipelineConfig("m", "d", "o")
    config = PipelineConfig.from_json({
        "model": "m", "dataset": "d", "output_dir": "o", "calibration_samples": "16",
        "seed": 3.0, "bytes_per_sample": 100, "prune": {"schedule": ["0.5", 1], "skip": 1},
    })
    assert (config.calibration_samples, config.seed, config.bytes_per_sample) == (16, 3, 100.0)
    assert type(config.seed) is int and type(config.bytes_per_sample) is float
    assert config.prune.schedule == [0.5, 1.0] and config.prune.skip is True
    with pytest.raises(PipelineError, match="config: missing key 'dataset'"):
        PipelineConfig.from_json({"model": "m", "output_dir": "o"})
    for obj, message in (
        ([], "config: expected an object, got list"),
        ({"model": "m", "dataset": "d", "output_dir": "o", "prune": [0.1]},
         "config prune: expected an object, got list"),
    ):
        with pytest.raises(PipelineError, match=re.escape(message)):
            PipelineConfig.from_json(obj)
    # Int fields take integral numbers only: no truncation, no true/false.
    for key, value in [("seed", 1.5), ("seed", True), ("calibration_samples", "1.5")]:
        message = f"config: key {key!r} must be int, got {type(value).__name__}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            PipelineConfig.from_json({"model": "m", "dataset": "d", "output_dir": "o", key: value})


@pytest.mark.parametrize("edit, message", [
    ({"seed": [1]}, "config: key 'seed' must be int, got list"),
    ({"seed": float("inf")}, "config: key 'seed' must be int, got float"),
    ({"calibration_samples": "many"}, "config: key 'calibration_samples' must be int, got str"),
    ({"prune": {"schedule": 0.1}}, "config prune: key 'schedule' must be list, got float"),
    ({"prune": {"schedule": ["a"]}}, "config prune: key 'schedule'[0] must be int or float, got str"),
    ({"hardware_profile": 5}, "config: key 'hardware_profile' must be str, got int"),
    ({"link_budget": ["x"]}, "config: key 'link_budget' must be str, got list"),
    ({"prune": {"skip": 2}}, "config prune: key 'skip' must be bool, got int"),
], ids=["seed_list", "seed_infinite", "samples_word", "schedule_number", "schedule_word",
        "profile_int", "link_list", "skip_two"])
def test_config_value_that_will_not_coerce_rejected(edit, message):
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_json({"model": "m", "dataset": "d", "output_dir": "o", **edit})
    assert str(info.value) == message


@pytest.mark.parametrize("edit, message", [
    ({"seed": -1}, "config key 'seed' must be at least 0, got -1"),
    ({"calibration_samples": -2}, "config key 'calibration_samples' must be at least 1, got -2"),
    ({"calibration_samples": 0}, "config key 'calibration_samples' must be at least 1, got 0"),
], ids=["seed_negative", "samples_negative", "samples_zero"])
def test_config_value_below_minimum_rejected(edit, message):
    with pytest.raises(PipelineError) as info:
        PipelineConfig.from_json({"model": "m", "dataset": "d", "output_dir": "o", **edit})
    assert str(info.value) == message


def test_example_config_loads():
    config = PipelineConfig.load(Path(__file__).parent.parent / "configs" / "example_pipeline.json")
    assert config.prune.schedule == [0.10, 0.05, 0.05]
    assert config.calibration_samples == 32


def test_shared_defaults_agree(tmp_path):
    meta = json.loads((generate_dataset(tmp_path / "ds", num_samples=1) / "meta.json").read_text())
    for name in BUNDLED_MODELS:
        graph = build_bundled_model(name)
        assert list(graph.tensors[graph.graph_inputs[0]].shape) == meta["shape"]
        assert graph.tensors[graph.graph_outputs[0]].shape == (1, meta["num_classes"])
    config = PipelineConfig("m", "d", "o")

    def defaults(*argv):
        return build_parser().parse_args(list(argv))

    calibrate = defaults("calibrate", "--model", "m", "--dataset", "d", "--out", "o")
    assert (calibrate.samples, calibrate.seed) == (config.calibration_samples, config.seed)
    downlink = defaults("simulate-downlink", "--out", "o")
    assert (downlink.link, downlink.threshold, downlink.bytes_per_sample) == (
        config.link_budget, config.confidence_threshold, config.bytes_per_sample)
    prune = defaults("prune-stage", "--model", "m", "--plan", "p", "--out-masked", "o")
    assert _parse_schedule(prune.schedule) == config.prune.schedule == list(DEFAULT_SCHEDULE)
    assets = defaults("make-assets", "--out", "o")
    params = inspect.signature(generate_dataset).parameters
    assert (assets.samples, assets.seed) == (params["num_samples"].default, meta["seed"])


# --- CLI -------------------------------------------------------------------


@pytest.mark.parametrize("skip", [False, True])
def test_cli_stagewise_equals_monolithic(assets, tmp_path, skip):
    # The run takes its calibration ranges from the evaluate pass of the
    # model it quantizes (model_pruned, or model_float under prune.skip);
    # the `calibrate` subcommand runs executor.calibrate on that model.
    prune = {"schedule": [0.10, 0.05, 0.05], "skip": skip}
    out_a = tmp_path / "mono"
    config = make_config(assets, out_a, prune=prune)
    run_pipeline(config)

    out_b = tmp_path / "staged"
    out_b.mkdir()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(make_config(assets, out_b, prune=prune))))
    model = str(assets / "small_convnet.json")
    dataset = str(assets / "dataset")

    # mirror the monolithic file layout subcommand by subcommand
    import shutil
    shutil.copy(assets / "small_convnet.json", out_b / "model_float.json")
    shutil.copy(assets / "small_convnet.bin", out_b / "model_float.bin")
    assert main(["evaluate", "--model", str(out_b / "model_float.json"),
                 "--dataset", dataset, "--out", str(out_b / "eval_float")]) == 0
    source = out_b / ("model_float.json" if skip else "model_pruned.json")
    if not skip:
        prev_ckpt = None
        for k in (1, 2, 3):
            model_in = str(out_b / ("model_float.json" if k == 1
                                    else f"model_masked_stage{k-1}.json"))
            argv = [
                "prune-stage", "--model", model_in,
                "--plan", str(out_b / "prune_plan.json"),
                "--schedule", "0.10,0.05,0.05",
                "--out-masked", str(out_b / f"model_masked_stage{k}"),
                "--checkpoint-out", str(out_b / f"checkpoint_stage{k}"),
                "--stage", str(k - 1),
            ]
            if k == 3:
                argv += ["--out-pruned", str(out_b / "model_pruned")]
            if prev_ckpt:
                argv += ["--checkpoint-in", prev_ckpt]  # an unmodified checkpoint
            assert main(argv) == 0
            prev_ckpt = str(out_b / f"checkpoint_stage{k}.json")
        assert main(["evaluate", "--model", str(out_b / "model_pruned.json"),
                     "--dataset", dataset, "--out", str(out_b / "eval_pruned")]) == 0
    assert main(["calibrate", "--model", str(source),
                 "--dataset", dataset, "--samples", "16", "--seed", "0",
                 "--out", str(out_b / "calibration_ranges.json")]) == 0
    assert main(["quantize", "--model", str(source),
                 "--ranges", str(out_b / "calibration_ranges.json"),
                 "--out", str(out_b / "model_quantized")]) == 0
    assert main(["evaluate", "--model", str(out_b / "model_quantized.json"),
                 "--dataset", dataset, "--out", str(out_b / "eval_quantized")]) == 0
    assert main(["map", "--model", str(out_b / "model_quantized.json"),
                 "--profile", "builtin:profile_desk_calibrated",
                 "--out", str(out_b / "deployment_plan.json"),
                 "--report", str(out_b / "deployment_plan.txt")]) == 0
    assert main(["estimate", "--model", str(out_b / "model_quantized.json"),
                 "--plan", str(out_b / "deployment_plan.json"),
                 "--profile", "builtin:profile_desk_calibrated",
                 "--out", str(out_b / "cost_estimate.json")]) == 0
    assert main(["simulate-downlink", "--records", str(out_b / "eval_quantized.csv"),
                 "--ground-records", str(out_b / "eval_float.csv"),
                 "--link", "builtin:link_sband_256k", "--threshold", "0.95",
                 "--bytes-per-sample", "12288", "--out", str(out_b / "downlink_report.json"),
                 "--summary", str(out_b / "downlink_report.txt")]) == 0
    assert main(["report", "--run-dir", str(out_b), "--config", str(cfg_path)]) == 0

    da, db = tree_digest(out_a), tree_digest(out_b)
    for name in sorted(set(da) & set(db)):
        if name == "report.json":
            ja = json.loads(da[name]); jb = json.loads(db[name])
            ja["config"].pop("output_dir"); jb["config"].pop("output_dir")
            assert ja == jb
        else:
            assert da[name] == db[name], name
    # `run` writes no checkpoints; the staged run adds only its own.
    checkpoints = {f"checkpoint_stage{k}.{ext}" for k in (1, 2, 3) for ext in ("json", "bin")}
    if skip:
        checkpoints = set()
        assert "model_pruned.json" not in da
    assert set(db) == set(da) | checkpoints and not set(da) & checkpoints


def test_cli_report_rejects_short_cost_estimate(assets, tmp_path, capsys):
    out = tmp_path / "out"
    config = make_config(assets, out)
    run_pipeline(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(config)))
    estimate_path = out / "cost_estimate.json"
    estimate = json.loads(estimate_path.read_text())
    for edit, message in (
        (lambda e: e.pop("latency_ms"), "missing key 'latency_ms'"),
        (lambda e: e.update(energy_mj="1.5"), "key 'energy_mj' must be int or float, got str"),
    ):
        broken = dict(estimate)
        edit(broken)
        estimate_path.write_text(json.dumps(broken))
        assert main(["report", "--run-dir", str(out), "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error [{estimate_path}: {message}]\n"


def test_cli_report_needs_float_and_quantized_models(mapped, tmp_path, capsys):
    cfg_path = _write(tmp_path / "cfg.json", '{"model": "m", "dataset": "d", "output_dir": "o"}')
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    argv = ["report", "--run-dir", str(run_dir), "--config", str(cfg_path)]
    assert main(argv) == 1
    missing = run_dir / "model_float.json"
    assert capsys.readouterr().err == f"error [{missing}: no float model to report on]\n"
    # With the float model and its evaluation; pruning may be skipped, quantizing not.
    for src, dst in [("model_float.json",) * 2, ("model_float.bin",) * 2,
                     ("records.csv", "eval_float.csv")]:
        (run_dir / dst).write_bytes((mapped / src).read_bytes())
    assert main(argv) == 1
    missing = run_dir / "model_quantized.json"
    assert capsys.readouterr().err == f"error [{missing}: no quantized model to report on]\n"


def test_cli_staged_pruning_matches_one_shot_plan(assets, tmp_path, small_convnet):
    # identity fine-tuning: staged CLI result equals the one-shot library plan
    out = tmp_path / "staged"
    out.mkdir()
    prev = str(assets / "small_convnet.json")
    ckpt = None
    for k in (1, 2, 3):
        argv = [
            "prune-stage", "--model", prev,
            "--plan", str(out / "plan.json"),
            "--schedule", "0.10,0.05,0.05",
            "--out-masked", str(out / f"masked{k}"),
            "--checkpoint-out", str(out / f"ckpt{k}"),
        ]
        if k == 3:
            argv += ["--out-pruned", str(out / "pruned")]
        if ckpt:
            argv += ["--checkpoint-in", ckpt]
        assert main(argv) == 0
        prev = str(out / f"masked{k}.json")
        ckpt = str(out / f"ckpt{k}.json")
    staged = load_model(out / "pruned.json")
    plan = build_prune_plan(small_convnet, [0.10, 0.05, 0.05])
    oneshot = materialize(small_convnet, plan)
    assert graphs_equal(staged, oneshot)


def test_cli_map_rejects_float_model(assets, capsys):
    rc = main(["map", "--model", str(assets / "small_convnet.json"),
               "--out", "/tmp/unused_plan.json"])
    assert rc == 1
    assert "quantized" in capsys.readouterr().err


def test_cli_validate_model(assets, capsys):
    assert main(["validate-model", "--model", str(assets / "small_convnet.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_run_rejects_misspelt_config_key(assets, tmp_path, capsys):
    cfg = asdict(make_config(assets, tmp_path / "out"))
    cfg["confidence_treshold"] = cfg.pop("confidence_threshold")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error [config: unknown key 'confidence_treshold']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_config_value_that_will_not_coerce(assets, tmp_path, capsys):
    cfg = asdict(make_config(assets, tmp_path / "out"))
    cfg["seed"] = [1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error [config: key 'seed' must be int, got list]\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_negative_config_seed(assets, tmp_path, capsys):
    cfg = asdict(make_config(assets, tmp_path / "out"))
    cfg["seed"] = -1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error [config key 'seed' must be at least 0, got -1]\n"
    assert not (tmp_path / "out").exists()


def test_cli_missing_file_nonzero(capsys):
    rc = main(["evaluate", "--model", "/nonexistent/m.json",
               "--dataset", "/nonexistent", "--out", "/tmp/x"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_downlink_matches_library(assets, tmp_path):
    out = tmp_path / "dl"
    out.mkdir()
    config = make_config(assets, out / "run")
    run_pipeline(config)
    records_csv = out / "run" / "eval_quantized.csv"
    ground_csv = out / "run" / "eval_float.csv"
    assert main(["simulate-downlink", "--records", str(records_csv),
                 "--ground-records", str(ground_csv),
                 "--link", "builtin:link_sband_256k",
                 "--threshold", "0.95", "--bytes-per-sample", "12288",
                 "--out", str(out / "cli_report.json")]) == 0
    cli_report = json.loads((out / "cli_report.json").read_text())

    records = read_records_csv(records_csv)
    ground = read_records_csv(ground_csv)
    lib_report = simulate(
        DownlinkScenario(12288.0, 0.95, records, ground),
        LinkBudget("sband-256k", 256000, 4, 600.0),
    )
    assert cli_report == asdict(lib_report)


def test_cli_downlink_scenario_json(assets, tmp_path):
    out = tmp_path / "dl2"
    out.mkdir()
    config = make_config(assets, out / "run")
    run_pipeline(config)
    scenario = {
        "records": str(out / "run" / "eval_quantized.csv"),
        "ground_records": str(out / "run" / "eval_float.csv"),
        "threshold": 0.95,
        "bytes_per_sample": 12288.0,
    }
    (out / "scenario.json").write_text(json.dumps(scenario))
    assert main(["simulate-downlink", "--scenario", str(out / "scenario.json"),
                 "--link", "builtin:link_sband_256k",
                 "--out", str(out / "from_scenario.json")]) == 0
    library = json.loads((out / "run" / "downlink_report.json").read_text())
    assert json.loads((out / "from_scenario.json").read_text()) == library


def test_cli_run_and_make_assets(tmp_path, capsys):
    assert main(["make-assets", "--out", str(tmp_path / "assets"),
                 "--samples", "40", "--train-samples", "60"]) == 0
    cfg = {
        "model": str(tmp_path / "assets" / "dwsep_net.json"),
        "dataset": str(tmp_path / "assets" / "dataset"),
        "output_dir": str(tmp_path / "out"),
        "calibration_samples": 8,
        "prune": {"schedule": [0.10], "skip": False},
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("option, value", [
    ("--train-samples", "0"), ("--train-samples", "-3"), ("--samples", "0"), ("--samples", "-1"),
])
def test_cli_make_assets_rejects_empty_sample_count(tmp_path, capsys, option, value):
    assert main(["make-assets", "--out", str(tmp_path / "assets"), option, value]) == 1
    assert_one_error_line(capsys, f"make-assets {option} must be at least 1, got {value}")
    assert not (tmp_path / "assets").exists()


def _config_file(assets: Path, tmp_path: Path) -> Path:
    return _write(tmp_path / "cfg.json", json.dumps(asdict(make_config(assets, tmp_path / "out"))))


# A negative seed or sample count is rejected before anything runs or is written.
@pytest.mark.parametrize("argv, message", [
    (lambda a, t: ["make-assets", "--out", str(t / "out"), "--seed", "-1"],
     "make-assets --seed must be at least 0, got -1"),
    (lambda a, t: ["calibrate", "--model", str(a / "small_convnet.json"),
                   "--dataset", str(a / "dataset"), "--seed", "-1", "--out", str(t / "out")],
     "calibrate --seed must be at least 0, got -1"),
    (lambda a, t: ["calibrate", "--model", str(a / "small_convnet.json"),
                   "--dataset", str(a / "dataset"), "--samples", "-2", "--out", str(t / "out")],
     "calibrate --samples must be at least 1, got -2"),
    (lambda a, t: ["run", "--config", str(_config_file(a, t)), "--seed", "-1"],
     "run --seed must be at least 0, got -1"),
], ids=["make_assets_seed", "calibrate_seed", "calibrate_samples", "run_seed"])
def test_cli_rejects_negative_seed_or_sample_count(assets, tmp_path, capsys, argv, message):
    assert main(argv(assets, tmp_path)) == 1
    assert_one_error_line(capsys, message)
    assert not (tmp_path / "out").exists()


# --- malformed plan, profile and link files --------------------------------


@pytest.fixture(scope="module")
def mapped(tmp_path_factory, small_convnet, small_convnet_quantized):
    root = tmp_path_factory.mktemp("mapped")
    save_model(small_convnet, root / "model_float")
    save_model(small_convnet_quantized, root / "model")
    build_deployment_plan(small_convnet_quantized, HardwareProfile()).save(root / "plan.json")
    write_records_csv([InferenceRecord("s0", 1, 0.5, 1)], root / "records.csv")
    return root


def assert_one_error_line(capsys, message):
    """stderr is one line naming `message`: `error: ...`, or `error [...]`
    as the CLI prints a PipelineError (a config or a pipeline stage)."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") or err.startswith("error [") and err.endswith("]\n")
    assert err.count("\n") == 1 and message in err and "Traceback" not in err


def _drop_timeline_entry(plan, gid):
    plan["timeline"] = [e for e in plan["timeline"] if e["group"] != gid]


def _retarget(plan, gid, target):
    next(e for e in plan["timeline"] if e["group"] == gid)["target"] = target


# (edit, message, whether `decode` rejects it): `load_plan` decodes keys
# and kinds; that the plan is the one `map` builds is `estimate`'s check.
@pytest.mark.parametrize("edit, message, by_decode", [
    (lambda p: p.pop("timeline"), "missing key 'timeline'", True),
    (lambda p: _drop_timeline_entry(p, "conv1+conv1_relu"), "timeline: length 5 != 6", False),
    (lambda p: p["fused_groups"].append(["conv1"]), "fused_groups: length 7 != 6", False),
    (lambda p: p["memory_plan"].update(tensors=[]), "key 'tensors' must be dict, got list", True),
    (lambda p: _retarget(p, "conv1+conv1_relu", "GPU"), "timeline[0] target: 'GPU' != 'NPU'",
     False),
    (lambda p: _retarget(p, "conv1+conv1_relu", "CPU"), "timeline[0] target: 'CPU' != 'NPU'",
     False),
    (lambda p: p["estimates"].pop("energy_mj"), "estimates: missing key 'energy_mj'", True),
    (lambda p: p["estimates"]["per_group_breakdown"][0].update(macs="12"),
     "per_group_breakdown[0]: key 'macs' must be int, got str", True),
    (lambda p: p.update(estimates=[1.0]), "estimates: expected an object, got list", True),
    (lambda p: p["estimates"]["per_group_breakdown"][1].update(group_id="conv1"),
     "estimates per_group_breakdown[1]: unknown key 'group_id'", True),
    (lambda p: p["memory_plan"]["tensors"]["in"].update(z=3),
     "memory_plan tensors[in]: unknown key 'z'", True),
    (lambda p: p["memory_plan"]["tensors"]["in"].update(offset=-1),
     "memory_plan tensors[in] offset: -1 != 16384", False),
], ids=["missing_timeline", "group_without_entry", "node_in_two_groups", "tensors_list",
        "gpu_target", "target_not_assigned", "estimates_without_energy",
        "breakdown_macs_string", "estimates_list", "breakdown_unknown_key",
        "memory_tensor_unknown_key", "memory_tensor_negative_offset"])
def test_malformed_plan_rejected(mapped, tmp_path, capsys, edit, message, by_decode):
    plan = json.loads((mapped / "plan.json").read_text())
    edit(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    if by_decode:
        with pytest.raises(MappingError, match=re.escape(message)):
            load_plan(path)
    rc = main(["estimate", "--model", str(mapped / "model.json"), "--plan", str(path),
               "--out", str(tmp_path / "est.json")])
    assert rc == 1
    assert_one_error_line(capsys, message)
    assert not (tmp_path / "est.json").exists()


def test_estimate_rejects_a_profile_the_plan_was_not_built_for(
    mapped, tmp_path, capsys, small_convnet_quantized
):
    plan = build_deployment_plan(small_convnet_quantized,
                                 load_profile("builtin:profile_desk_calibrated"))
    plan.save(tmp_path / "plan.json")
    argv = ["estimate", "--model", str(mapped / "model.json"),
            "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / "est.json")]
    assert main(argv) == 1
    assert_one_error_line(capsys, "plan.json profile: 'stm32n6-desk-calibrated' != "
                                  "'stm32n6-default' (map builds it from this model and profile)")
    assert not (tmp_path / "est.json").exists()
    assert main(argv + ["--profile", "builtin:profile_desk_calibrated"]) == 0
    assert json.loads((tmp_path / "est.json").read_text()) == asdict(plan.estimates)


@pytest.mark.parametrize("profile, message", [
    ({"name": "p", "npu_throughput": 600.0}, "unknown key 'npu_throughput'"),
    ({"name": "p", "cpu_freq_mhz": "800"}, "key 'cpu_freq_mhz' must be int or float, got str"),
    ([{"name": "p"}], "expected an object, got list"),
], ids=["unknown_key", "string_value", "top_level_list"])
def test_malformed_profile_rejected(mapped, tmp_path, capsys, profile, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    with pytest.raises(ValueError, match=re.escape(message)):
        HardwareProfile.load(path)
    rc = main(["map", "--model", str(mapped / "model.json"), "--profile", str(path),
               "--out", str(tmp_path / "plan.json")])
    assert rc == 1
    assert_one_error_line(capsys, message)


@pytest.mark.parametrize("link, message", [
    ({"name": "l", "data_rate_bps": 9600, "passes_per_day": 4}, "missing key 'pass_duration_s'"),
    ([9600, 4, 600], "expected an object, got list"),
    ({"name": "l", "data_rate_bps": 9600, "passes_per_day": 4.5, "pass_duration_s": 600},
     "key 'passes_per_day' must be int, got float"),
], ids=["missing_key", "top_level_list", "passes_fraction"])
def test_malformed_link_budget_rejected(mapped, tmp_path, capsys, link, message):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link))
    with pytest.raises(DownlinkError, match=re.escape(message)):
        LinkBudget.load(path)
    rc = main(["simulate-downlink", "--records", str(mapped / "records.csv"),
               "--link", str(path), "--out", str(tmp_path / "downlink.json")])
    assert rc == 1
    assert_one_error_line(capsys, message)


# --- malformed plans, ranges, scenarios, records and datasets --------------


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _dataset(tmp_path: Path, edit) -> Path:
    root = generate_dataset(tmp_path / "ds", num_samples=4, seed=7)
    edit(root)
    return root


def _drop_shape(root: Path) -> None:
    meta = json.loads((root / "meta.json").read_text())
    del meta["shape"]
    (root / "meta.json").write_text(json.dumps(meta))


def _truncate_sample(root: Path) -> None:
    sample = root / "samples" / "s00001.bin"
    sample.write_bytes(sample.read_bytes()[:100])


def _repeat_first_id(root: Path) -> None:
    index = root / "index.csv"
    index.write_text(index.read_text().replace("s00001,", "s00000,", 1))


def _header_only(root: Path) -> None:
    index = root / "index.csv"
    index.write_text(index.read_text().splitlines(keepends=True)[0])


RECORDS_HEADER = "sample_id,predicted_class,confidence,true_label,correct\n"
# small_convnet's prunable layers and their filter counts
PLAN_COUNTS = {"conv1": 16, "conv2": 32, "conv3": 64}


def _checkpoint_in(m: Path, t: Path, tid: str, shape) -> list[str]:
    """prune-stage argv importing the Float32 model's checkpoint with `tid`'s shape edited."""
    manifest_path, _ = export_checkpoint(load_model(m / "model_float.json")).save(t / "c")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"][tid]["shape"] = shape
    manifest_path.write_text(json.dumps(manifest))
    return ["prune-stage", "--model", str(m / "model_float.json"), "--plan", str(t / "p.json"),
            "--out-masked", str(t / "masked"), "--checkpoint-in", str(manifest_path)]


def _prune_stage(m: Path, t: Path, counts: dict, stages: list,
                 schedule=(0.1, 0.1)) -> list[str]:
    """prune-stage argv on the Float32 model with a plan file, by default of two stages."""
    plan = {"schedule": list(schedule), "original_counts": counts, "stages": stages}
    return ["prune-stage", "--model", str(m / "model_float.json"),
            "--plan", str(_write(t / "p.json", json.dumps(plan))), "--out-masked", str(t / "masked")]


def _run_config(m: Path, t: Path, **edit) -> list[str]:
    """run argv for a config on the mapped model with `edit` applied; its
    dataset does not exist, so only a config check can name the fault."""
    config = {"model": str(m / "model.json"), "dataset": str(t / "dataset"),
              "output_dir": str(t / "out"), **edit}
    return ["run", "--config", str(_write(t / "cfg.json", json.dumps(config)))]


def _tensors_edited(m: Path, t: Path, edit, part: str = "tensors") -> list[str]:
    """validate-model argv for the quantized model with `edit` applied to
    its manifest's `part` object, by default its tensors."""
    manifest = json.loads((m / "model.json").read_text())
    edit(manifest[part])
    _write(t / "model.json", json.dumps(manifest))
    (t / "model.bin").write_bytes((m / "model.bin").read_bytes())
    return ["validate-model", "--model", str(t / "model.json")]


def _stack_slots(plan: dict) -> None:
    """Every arena tensor at offset 0, in an arena as large as the largest one."""
    slots = plan["memory_plan"]["tensors"].values()
    for slot in slots:
        slot["offset"] = 0
    plan["memory_plan"]["arena_peak_bytes"] = max(slot["size"] for slot in slots)


def _plan_edited(m: Path, t: Path, edit) -> list[str]:
    """estimate argv for the mapped model's plan with `edit` applied."""
    plan = json.loads((m / "plan.json").read_text())
    edit(plan)
    return ["estimate", "--model", str(m / "model.json"),
            "--plan", str(_write(t / "plan.json", json.dumps(plan))), "--out", str(t / "est.json")]


def _drop_group(plan: dict, group: list[str]) -> None:
    """Leave `group` out of the plan: its fused group, timeline entry and assignment."""
    plan["fused_groups"].remove(group)
    _drop_timeline_entry(plan, "+".join(group))
    for nid in group:
        del plan["assignment"][nid]


def _scale_timeline(plan: dict, factor: float) -> None:
    for entry in plan["timeline"]:
        entry["start_us"] *= factor
        entry["end_us"] *= factor


def _shift_timeline(plan: dict, us: float) -> None:
    for entry in plan["timeline"]:
        entry["start_us"] += us
        entry["end_us"] += us


def _all_npu() -> HardwareProfile:
    """The default profile with every op kind on the NPU, under its own name."""
    return replace(HardwareProfile(), npu_supported_ops=tuple(kind.value for kind in OpKind))


def _plan_built(m: Path, t: Path, profile: HardwareProfile, merge_last: int = 1) -> list[str]:
    """estimate argv, under the default profile, for the plan that
    `build_deployment_plan` makes of the mapped model under `profile`
    with its last `merge_last` fused groups merged into one: consistent
    in itself, but not the plan `map` builds."""
    partition = mapping.partition_and_fuse

    def merged(graph, prof):
        assignment, groups = partition(graph, prof)
        return assignment, groups[:-merge_last] + [sum(groups[-merge_last:], [])]
    with mock.patch.object(mapping, "partition_and_fuse", merged):
        plan = build_deployment_plan(load_model(m / "model.json"), profile)
    return _plan_edited(m, t, lambda p: p.update(asdict(plan)))


def _overlap_on_npu(m: Path, t: Path) -> list[str]:
    """estimate argv for the all-NPU plan of `inception_graph` with the
    MaxPool `mp` moved to start with `q`: both read only the stem's
    output and both stay on the NPU, so the two overlap there while
    every input is still ready in time."""
    inception = inception_graph()
    xs = np.random.default_rng(3).normal(size=(4, 1, 6, 6, 3)).astype(np.float32)
    graph = quantize_graph(inception, executor.calibrate(inception, xs))
    save_model(graph, t / "inception")
    plan = asdict(build_deployment_plan(graph, _all_npu()))
    q, mp = (next(e for e in plan["timeline"] if e["group"] == gid) for gid in ("q+q_relu", "mp"))
    assert q["target"] == mp["target"] == "NPU"
    mp["start_us"], mp["end_us"] = q["start_us"], q["start_us"] + mp["end_us"] - mp["start_us"]
    return ["estimate", "--model", str(t / "inception.json"),
            "--plan", str(_write(t / "plan.json", json.dumps(plan))),
            "--profile", str(_write(t / "profile.json", json.dumps(asdict(_all_npu())))),
            "--out", str(t / "est.json")]


def _start_at_zero(plan: dict, gid: str) -> None:
    """Move group `gid`'s timeline entry to start at 0 us, keeping its duration."""
    entry = next(e for e in plan["timeline"] if e["group"] == gid)
    entry["start_us"], entry["end_us"] = 0.0, entry["end_us"] - entry["start_us"]


def _rename_node(plan: dict, old: str, new: str) -> None:
    """Rename node `old` to `new` in the plan, as the first node of its group."""
    text = json.dumps(plan).replace(f'"{old}"', f'"{new}"').replace(f'"{old}+', f'"{new}+')
    plan.update(json.loads(text))


# case -> (argv for a directory holding the mapped model, the message)
MALFORMED_INPUTS = {
    "config_skip_string": (
        lambda m, t: _run_config(m, t, prune={"skip": "false"}),
        "config prune: key 'skip' must be bool, got str"),
    "config_threshold_true": (
        lambda m, t: _run_config(m, t, confidence_threshold=True),
        "config: key 'confidence_threshold' must be int or float, got bool"),
    "config_schedule_true": (
        lambda m, t: _run_config(m, t, prune={"schedule": [0.1, True]}),
        "config prune: key 'schedule'[1] must be int or float, got bool"),
    "config_output_dir_int": (
        lambda m, t: _run_config(m, t, output_dir=3),
        "config: key 'output_dir' must be str, got int"),
    "config_bytes_per_sample_negative": (
        lambda m, t: _run_config(m, t, bytes_per_sample=-1),
        "config: bytes_per_sample -1.0 must be finite and > 0"),
    "config_threshold_above_one": (
        lambda m, t: _run_config(m, t, confidence_threshold=1.5),
        "config: threshold 1.5 outside (0, 1]"),
    "config_schedule_sum_one": (
        lambda m, t: _run_config(m, t, prune={"schedule": [0.5, 0.6]}),
        "config prune: prune plan: schedule fractions must sum below 1: [0.5, 0.6]"),
    "plan_count_fraction": (
        lambda m, t: _prune_stage(m, t, {**PLAN_COUNTS, "conv1": 16.7}, []),
        "prune plan: key 'original_counts'[conv1] must be int, got float"),
    "plan_stage_fraction_and_true": (
        lambda m, t: _prune_stage(m, t, PLAN_COUNTS, [{"conv1": [1.5, True]}]),
        "prune plan: key 'stages'[0][conv1][0] must be int, got float"),
    "plan_basis_other": (
        lambda m, t: ["prune-stage", "--model", str(m / "model_float.json"), "--plan",
                      str(_write(t / "p.json", json.dumps({
                          "schedule": [0.1], "original_counts": PLAN_COUNTS, "stages": [],
                          "basis": 7}))),
                      "--out-masked", str(t / "masked")],
        "prune plan: key 'basis' must be 'original_count', got 7"),
    "plan_schedule_negative": (
        lambda m, t: _prune_stage(m, t, PLAN_COUNTS, [], schedule=[-0.1, 0.05]),
        "prune plan: schedule fractions must lie in (0, 1): [-0.1, 0.05]"),
    "manifest_symmetric_string": (
        lambda m, t: _tensors_edited(m, t, lambda ts: ts["in"]["quant"].update(symmetric="false")),
        "tensor in: bad quantization params: key 'symmetric' must be bool, got str"),
    "manifest_zero_point_fraction": (
        lambda m, t: _tensors_edited(m, t, lambda ts: ts["in"]["quant"].update(zero_point=1.7)),
        "tensor in: bad quantization params: key 'zero_point' must be int, got float"),
    "manifest_axis_true": (
        lambda m, t: _tensors_edited(m, t, lambda ts: ts["conv1_w"]["quant"].update(axis=True)),
        "tensor conv1_w: bad quantization params: key 'axis' must be int or NoneType, got bool"),
    "manifest_shape_true": (
        lambda m, t: _tensors_edited(m, t, lambda ts: ts["in"].update(shape=[True, 32, 32, 3])),
        "tensor in: key 'shape'[0] must be int, got bool"),
    "manifest_shape_not_inferred": (
        lambda m, t: _tensors_edited(m, t, lambda ts: ts["conv1_out"].update(shape=[1, 64, 64, 16])),
        "tensor conv1_out: shape [1, 64, 64, 16] != inferred [1, 32, 32, 16]"),
    "manifest_dangling_input": (
        lambda m, t: _tensors_edited(
            m, t, lambda nodes: (nodes[1].update(id="conv1"), nodes[2].update(inputs=["nowhere"])),
            part="nodes"),
        "cannot infer shapes on invalid graph: duplicate node id conv1; "
        "node pool1: unknown tensor nowhere"),
    "manifest_stride_true": (
        lambda m, t: _tensors_edited(
            m, t, lambda nodes: nodes[0]["attrs"].update(stride_h=True), part="nodes"),
        "node conv1: attr stride_h=True must be an integer >= 1"),
    "profile_bytes_fraction": (
        lambda m, t: ["map", "--model", str(m / "model.json"), "--profile",
                      str(_write(t / "profile.json", '{"op_metadata_bytes": 64.5}')),
                      "--out", str(t / "plan.json")],
        "profile.json: key 'op_metadata_bytes' must be int, got float"),
    "profile_utilization_nan": (
        lambda m, t: ["map", "--model", str(m / "model.json"), "--profile",
                      str(_write(t / "profile.json", '{"npu_utilization": NaN}')),
                      "--out", str(t / "plan.json")],
        "profile.json: malformed JSON: non-finite number NaN"),
    "plan_without_original_counts": (
        lambda m, t: ["prune-stage", "--model", str(m / "model.json"), "--plan",
                      str(_write(t / "p.json", '{"schedule": [0.1], "stages": []}')),
                      "--out-masked", str(t / "masked")],
        "prune plan: missing key 'original_counts'"),
    "plan_layer_not_in_model": (
        lambda m, t: _prune_stage(m, t, {**PLAN_COUNTS, "ghost": 4}, []),
        "layer ghost: in the prune plan but not a prunable layer of the model"),
    "plan_layer_not_prunable": (
        lambda m, t: _prune_stage(m, t, {**PLAN_COUNTS, "conv1_relu": 16}, []),
        "layer conv1_relu: in the prune plan but not a prunable layer of the model"),
    "plan_index_past_filters": (
        lambda m, t: _prune_stage(m, t, PLAN_COUNTS, [{"conv1": [999]}]),
        "layer conv1: filter index 999 outside [0, 16)"),
    "plan_stage_layer_not_counted": (
        lambda m, t: _prune_stage(m, t, PLAN_COUNTS, [{"ghost": [0]}]),
        "prune plan stage 1: layer ghost is not in original_counts"),
    "checkpoint_shape_mismatch": (
        lambda m, t: _checkpoint_in(m, t, "conv1_w", [1]),
        "tensor conv1_w: checkpoint shape [1] != [16, 3, 3, 3]"),
    "checkpoint_shape_string": (
        lambda m, t: _checkpoint_in(m, t, "conv1_w", "garbage"),
        "checkpoint tensor conv1_w: key 'shape' must be list, got str"),
    "link_unknown_key": (
        lambda m, t: ["simulate-downlink", "--records", str(m / "records.csv"), "--link",
                      str(_write(t / "link.json", json.dumps({
                          "name": "l", "data_rate_bps": 9600, "passes_per_day": 4,
                          "pass_duration_s": 600, "data_rate": 9600}))),
                      "--out", str(t / "d.json")],
        "link.json: unknown key 'data_rate'"),
    "link_missing_file": (
        lambda m, t: ["simulate-downlink", "--records", str(m / "records.csv"), "--link",
                      str(t / "nope.json"), "--out", str(t / "d.json")],
        "nope.json: No such file or directory"),
    "profile_unknown_builtin": (
        lambda m, t: ["map", "--model", str(m / "model.json"), "--profile", "builtin:nope",
                      "--out", str(t / "plan.json")],
        "hardware profile builtin:nope: no builtin data file 'nope.json'"),
    "downlink_bytes_per_sample_negative": (
        lambda m, t: ["simulate-downlink", "--records", str(m / "records.csv"),
                      "--bytes-per-sample", "-12288", "--out", str(t / "d.json")],
        "bytes_per_sample -12288.0 must be finite and > 0"),
    "plan_timeline_unknown_key": (
        lambda m, t: _plan_edited(m, t, lambda p: p["timeline"][0].update(group_id="conv1")),
        "timeline[0]: unknown key 'group_id'"),
    "plan_unknown_key": (
        lambda m, t: _plan_edited(m, t, lambda p: p.update(x=1)),
        "plan.json: unknown key 'x'"),
    "plan_memory_unknown_key": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"].update(y=2)),
        "plan.json memory_plan: unknown key 'y'"),
    "plan_node_not_in_model": (
        lambda m, t: _plan_edited(m, t, lambda p: _rename_node(p, "conv1", "ghost")),
        "plan.json assignment[conv1]: absent != 'NPU'"),
    "plan_leaves_out_node": (
        lambda m, t: _plan_edited(m, t, lambda p: _drop_group(p, ["conv1", "conv1_relu"])),
        "plan.json assignment[conv1]: absent != 'NPU'"),
    "plan_timeline_scaled": (
        lambda m, t: _plan_edited(m, t, lambda p: _scale_timeline(p, 0.01)),
        "timeline[0] end_us: 0.08058346666666667 != 8.058346666666667"),
    "plan_group_before_its_input": (
        lambda m, t: _plan_edited(m, t, lambda p: _start_at_zero(p, "pool1")),
        "timeline[1] start_us: 0.0 != 8.058346666666667 "
        "(map builds it from this model and profile)"),
    "plan_arena_negative": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"].update(arena_peak_bytes=-5)),
        "memory_plan arena_peak_bytes: -5 != 20480"),
    "plan_slot_past_arena": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"]["tensors"]["in"].update(
            offset=1, size=p["memory_plan"]["arena_peak_bytes"])),
        "memory_plan tensors[in] offset: 1 != 16384"),
    "plan_slots_overlap": (
        lambda m, t: _plan_edited(m, t, _stack_slots),
        "memory_plan tensors[pool1_out] offset: 0 != 16384"),
    "plan_slot_resized": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"]["tensors"]["in"].update(
            size=3071)),
        "memory_plan tensors[in] size: 3071 != 3072"),
    "plan_slot_missing": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"]["tensors"].pop("in")),
        "memory_plan tensors[in]: absent != a Slot"),
    "plan_slot_not_in_model": (
        lambda m, t: _plan_edited(m, t, lambda p: p["memory_plan"]["tensors"].update(
            ghost={"offset": 0, "size": 1})),
        "memory_plan tensors[ghost]: a Slot != absent"),
    "plan_timeline_shifted": (
        lambda m, t: _plan_edited(m, t, lambda p: _shift_timeline(p, 5000.0)),
        "timeline[0] start_us: 5000.0 != 0.0"),
    "plan_all_on_npu": (
        lambda m, t: _plan_built(m, t, _all_npu()),
        "plan.json assignment[pool1]: 'NPU' != 'CPU'"),
    "plan_head_fused": (  # conv3+conv3_relu joins the CPU's pool3+flatten+fc+softmax
        lambda m, t: _plan_built(m, t, HardwareProfile(), merge_last=2),
        "plan.json fused_groups: length 5 != 6"),
    "plan_groups_overlap_on_npu": (
        _overlap_on_npu,
        "timeline[3] start_us: 5.04032 != 10.14592"),
    "ranges_without_max": (
        lambda m, t: ["quantize", "--model", str(m / "model.json"), "--ranges",
                      str(_write(t / "r.json", '{"x": {"min": 0.0}}')), "--out", str(t / "q")],
        "calibration range x: missing key 'max'"),
    "scenario_list": (
        lambda m, t: ["simulate-downlink", "--scenario", str(_write(t / "s.json", "[1]")),
                      "--out", str(t / "d.json")],
        "expected an object, got list"),
    "scenario_records_int": (
        lambda m, t: ["simulate-downlink", "--scenario",
                      str(_write(t / "s.json", '{"records": 5}')), "--out", str(t / "d.json")],
        "key 'records' must be str, got int"),
    "records_without_confidence": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", "sample_id,predicted_class,true_label\ns0,1,1\n")),
                      "--out", str(t / "d.json")],
        "r.csv: missing column 'confidence'"),
    "records_class_not_int": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,0.5,1,1\ns1,one,0.5,1,0\n")),
                      "--out", str(t / "d.json")],
        "r.csv line 3: column 'predicted_class': 'one' is not int"),
    "evaluate_meta_without_shape": (
        lambda m, t: ["evaluate", "--model", str(m / "model.json"),
                      "--dataset", str(_dataset(t, _drop_shape)), "--out", str(t / "e")],
        "meta.json: missing key 'shape'"),
    "calibrate_meta_without_shape": (
        lambda m, t: ["calibrate", "--model", str(m / "model.json"),
                      "--dataset", str(_dataset(t, _drop_shape)), "--out", str(t / "c.json")],
        "meta.json: missing key 'shape'"),
    "short_sample_file": (
        lambda m, t: ["evaluate", "--model", str(m / "model.json"),
                      "--dataset", str(_dataset(t, _truncate_sample)), "--out", str(t / "e")],
        "samples/s00001.bin: 100 bytes, shape [1, 32, 32, 3] needs 12288"),
    "dataset_duplicate_id": (
        lambda m, t: ["evaluate", "--model", str(m / "model.json"),
                      "--dataset", str(_dataset(t, _repeat_first_id)), "--out", str(t / "e")],
        "index.csv line 3: sample_id 's00000' repeats line 2"),
    "dataset_no_samples": (
        lambda m, t: ["evaluate", "--model", str(m / "model.json"),
                      "--dataset", str(_dataset(t, _header_only)), "--out", str(t / "e")],
        "index.csv: lists no samples"),
    "records_negative_label": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,0.5,1,1\ns1,1,0.5,-1,0\n")),
                      "--out", str(t / "d.json")],
        "r.csv line 3: column 'true_label': -1 is negative"),
    "records_confidence_above_one": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,1.5,1,1\n")),
                      "--out", str(t / "d.json")],
        "r.csv line 2: column 'confidence': 1.5 outside [0, 1]"),
    "records_negative_class": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,-2,0.5,1,0\n")),
                      "--out", str(t / "d.json")],
        "r.csv line 2: column 'predicted_class': -2 is negative"),
    "records_correct_contradicts": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,0.5,1,7\n")),
                      "--out", str(t / "d.json")],
        "r.csv line 2: column 'correct': 7 is not 1 (predicted_class 1, true_label 1)"),
    "ground_labels_differ": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,0.5,1,1\ns1,0,0.5,0,1\n")),
                      "--ground-records",
                      str(_write(t / "g.csv", RECORDS_HEADER + "s0,2,0.9,2,1\ns1,1,0.9,1,1\n")),
                      "--out", str(t / "d.json")],
        "sample id 's0': ground true_label 2 != onboard true_label 1"),
    "records_duplicate_id": (
        lambda m, t: ["simulate-downlink", "--records",
                      str(_write(t / "r.csv", RECORDS_HEADER + "s0,1,0.5,1,1\ns0,0,0.9,1,0\n")),
                      "--out", str(t / "d.json")],
        "onboard records repeat sample id 's0'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_file_rejected(mapped, tmp_path, capsys, case):
    argv, message = MALFORMED_INPUTS[case]
    assert main(argv(mapped, tmp_path)) == 1
    assert_one_error_line(capsys, message)


def test_runs_leave_no_temporary_files(assets, tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_pipeline(make_config(assets, out))
    assert (out / "report.csv").exists() and not list(tmp_path.rglob(".*.tmp"))
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == "report.csv":  # after report.json, before the plot CSV
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(PipelineError, match="report: disk full"):
        run_pipeline(make_config(assets, out))
    assert not list(tmp_path.rglob(".*.tmp")) and not list(out.iterdir())


def test_dataset_index_written_after_its_samples(tmp_path, monkeypatch):
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == "meta.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        generate_dataset(tmp_path / "ds", num_samples=4, seed=7)
    # Every sample is in place, the index that names them is not.
    assert len(list((tmp_path / "ds" / "samples").iterdir())) == 4
    assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == ["samples"]
