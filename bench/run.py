"""tinydeploy benchmark: host time and modelled target cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a tinydeploy checkout; the program is imported
from the checkout's `src/`. Workloads (closed loop, one caller):

- pipeline_small_convnet: `pipeline.run_pipeline` on the example config
  with `make-assets --seed N` inputs. The evaluate stages dominate.
- pipeline_dwsep_net: the same with dwsep_net, whose interpreter time
  sits in other kernels (depthwise, AvgPool, a 4096-input FC).
- compile_branchy: compile-only sweep over seeded branchy graphs
  (pruning, mapping, quantization, model_io); the only workload whose
  schedules have CPU/NPU overlap.

`--trace 0` measures the end-to-end metrics untraced; `--trace 1`
traces every iteration after the untraced warm-up and reports per-layer
self times, counts and the tracing overhead, and writes the spans to
`.bench_out/`. Every metric is printed as `name value unit`; the last
line is the JSON result. An iteration fails when it raises, when its
artifact tree differs from the warm-up's, or when the warm-up's outputs
fail the reference checks in `oracle.py`.
"""
from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
# One BLAS/OpenMP thread: fewer than nproc, and no run-to-run variation
# from thread scheduling. Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up is timed in this process and in this many fresh child processes,
# which also give the peak resident memory.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120
PROBE_REPEATS = 3
SETUP_REFERENCE_CALLS = 10
# Traced no-op calls timed, per repeat, to price one span.
SPAN_COST_CALLS = 5000
SPAN_COST_REPEATS = 5

TIMED_LAYERS = {
    "datasets.load_s": ("datasets.load",),
    "model_io.load_s": ("model_io.load",),
    "model_io.save_s": ("model_io.save",),
    "executor.evaluate_s": ("executor.evaluate_f32", "executor.evaluate_int8"),
    "executor.calibrate_s": ("executor.calibrate",),
    "pruning.plan_stage_s": ("pruning.plan_stage",),
    "pruning.apply_masks_s": ("pruning.apply_masks",),
    "pruning.checkpoint_s": ("pruning.checkpoint",),
    "pruning.materialize_s": ("pruning.materialize",),
    "quantization.quantize_s": ("quantization.quantize",),
    "mapping.plan_s": ("mapping.plan",),
    "costmodel.estimate_s": ("costmodel.estimate",),
    "downlink.simulate_s": ("downlink.simulate",),
    "trace.unattributed_s": ("iteration",),
}


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "tinydeploy" / "__init__.py").is_file():
        sys.exit(f"error: no tinydeploy sources at {src}; run inside a tinydeploy checkout")
    sys.path.insert(0, str(src))


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time set-up and peak RSS in a fresh process (see SETUP_CHILDREN).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class _Pauses:
    """One reference call at each of a workload's pause points; their time is
    kept so that it can be taken out of the iteration's wall time."""

    def __init__(self, speed) -> None:
        self.speed = speed
        self.slowdowns: list[float] = []
        self.seconds = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        self.slowdowns.append(self.speed.slowdown(1))
        self.seconds += time.perf_counter() - start


def _iterate(wl, tracer, iteration: int, pause=None) -> tuple[float, bool]:
    """One closed-loop iteration on a fresh output tree: (wall seconds, raised)."""
    shutil.rmtree(wl.out, ignore_errors=True)
    start = time.perf_counter()
    try:
        if tracer is None:
            wl.run(None, pause)
        else:
            tracer.iteration = iteration
            with tracer.span("iteration"):
                wl.run(tracer)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, True
    return time.perf_counter() - start, False


def _run_child(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--child"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(walls: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(walls)
    if n < 20:
        return "wall_s_max", max(walls)
    pct = int(100 * (1 - 10 / n))
    return f"wall_s_p{pct}", statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]


def _probe_ms(fn, graph) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn(graph)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def _span_cost_s(speed) -> float:
    """Seconds that one traced call adds, at nominal machine speed: a no-op
    wrapped the way `traced_calls` wraps a layer call, less the bare no-op."""
    from spans import Tracer
    from workloads import in_span

    def noop() -> None:
        pass

    traced = in_span(Tracer(), noop, "probe", None)
    costs = []
    before = speed.slowdown()
    for _ in range(SPAN_COST_REPEATS):
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        costs.append((time.perf_counter() - start - bare) / SPAN_COST_CALLS)
    return statistics.median(costs) / statistics.fmean([before, speed.slowdown()])


def _layer_metrics(tracer, wl, slowdowns, speed) -> dict[str, float]:
    """Per-layer numbers at nominal machine speed; `slowdowns` maps each
    traced iteration to the machine slowdown measured around it."""
    from tinydeploy.graph import infer_shapes, validate
    from tinydeploy.model_io import load_model
    from tinydeploy.pipeline import STAGE_ORDER

    own, total = (
        {i: {name: t / slowdowns[i] for name, t in spans.items()} for i, spans in times.items()}
        for times in tracer.durations()
    )
    iterations = sorted(own)

    def median_of(value) -> float:
        return statistics.median(value(i) for i in iterations)

    metrics = {
        name: median_of(lambda i, spans=spans: sum(own[i].get(s, 0.0) for s in spans))
        for name, spans in TIMED_LAYERS.items()
    }
    for stage in STAGE_ORDER:
        metrics[f"pipeline.stage_s.{stage}"] = median_of(
            lambda i, stage=stage: total[i].get(f"pipeline.stage.{stage}", 0.0))

    counts = tracer.counters[iterations[0]]
    f32_samples, int8_samples = counts.get("executor.f32_samples", 0), counts.get("executor.int8_samples", 0)
    metrics["executor.samples"] = f32_samples + int8_samples
    metrics["executor.f32_ms_per_sample"] = median_of(
        lambda i: 1000.0 * (own[i].get("executor.evaluate_f32", 0.0) + own[i].get("executor.calibrate", 0.0))
        / f32_samples)
    metrics["executor.int8_ms_per_sample"] = median_of(
        lambda i: 1000.0 * own[i].get("executor.evaluate_int8", 0.0) / int8_samples) if int8_samples else 0.0
    metrics["model_io.bytes_written"] = counts.get("model_io.bytes_written", 0)
    metrics.update(wl.structure())

    graphs = [load_model(path) for path in wl.stage_models()]
    before = speed.slowdown()
    infer_ms = statistics.fmean(_probe_ms(infer_shapes, g) for g in graphs)
    validate_ms = statistics.fmean(_probe_ms(validate, g) for g in graphs)
    slowdown = statistics.fmean([before, speed.slowdown()])
    metrics["graph.infer_shapes_ms"] = infer_ms / slowdown
    metrics["graph.validate_ms"] = validate_ms / slowdown
    spans_per_iteration = statistics.median(Counter(span[4] for span in tracer.spans).values())
    metrics["trace.overhead_s"] = spans_per_iteration * _span_cost_s(speed)
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.chdir(ROOT)
    _import_program()
    import workloads
    from spans import Tracer
    from speed import Reference

    suffix = ".child" if args.child else ""
    work = Path(".bench_work") / f"{args.workload}{suffix}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        start = time.perf_counter()
        speed = Reference()
        slowdown_before = speed.slowdown(SETUP_REFERENCE_CALLS)
        reference_s = time.perf_counter() - start
        wl = workloads.make_workload(args.workload, args.seed, work)
        _, raised = _iterate(wl, None, 0)
        if raised:
            return 1
        setup_raw_s = time.perf_counter() - START - reference_s
        setup_s = setup_raw_s / statistics.fmean([slowdown_before, speed.slowdown(SETUP_REFERENCE_CALLS)])
        if args.child:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                              "peak_rss_mb": peak_kib / 1024.0}))
            return 0

        reference = workloads.tree_digest(wl.out)
        bad_outputs = wl.check()
        for failure in bad_outputs:
            print(f"check failed: {failure}", file=sys.stderr)
        targets, info = wl.targets(), wl.info()

        tracer = Tracer() if args.trace else None
        walls, raw_walls, slowdowns = [], [], []  # walls at nominal speed, raw walls
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        before = speed.slowdown()
        while attempted < 1 or time.perf_counter() < deadline:
            # Reference calls inside a traced iteration would land in its spans.
            pauses = _Pauses(speed)
            wall, raised = _iterate(wl, tracer, attempted, None if tracer else pauses)
            after = speed.slowdown()
            wall -= pauses.seconds
            slowdowns.append(statistics.fmean([before, *pauses.slowdowns, after]))
            before = after
            raw_walls.append(wall)
            walls.append(wall / slowdowns[-1])
            attempted += 1
            digest_ok = not raised and workloads.tree_digest(wl.out) == reference
            if not digest_ok and not raised:
                print(f"iteration {attempted}: artifact tree differs from the warm-up's", file=sys.stderr)
            failed += not digest_ok or bool(bad_outputs)

        lines: list[tuple[str, float, str]] = []
        if args.trace:
            metrics = _layer_metrics(tracer, wl, slowdowns, speed)
            out = Path(".bench_out")
            tracer.write(out / f"spans_{args.workload}_seed{args.seed}.json")
        else:
            children = [_run_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
            metrics = {
                "setup_s": statistics.median([setup_s] + [c["setup_s"] for c in children]),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
                **targets,
            }
            tail_name, tail = _tail(walls)
            lines += [
                (tail_name, tail, "s"),
                ("wall_samples", len(walls), "count"),
                ("wall_raw_s", statistics.median(raw_walls), "s"),
                ("setup_raw_s", statistics.median([setup_raw_s] + [c["setup_raw_s"] for c in children]), "s"),
                ("machine_slowdown", statistics.median(slowdowns), "ratio"),
            ]
        # BENCHMARK.json names every metric of each kind and its unit.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
        result = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec}
        lines += [("failed_frac", failed / attempted, "frac")]
        lines += [(name, value, unit) for name, (value, unit) in info.items()]
        for name, (value, unit) in result.items():
            print(f"{name} {value!r} {unit}")
        for name, value, unit in lines:
            print(f"{name} {value!r} {unit}")
        print(f"tree_sha256 {reference}")
        if isinstance(wl, workloads.CompileWorkload):
            out = Path(".bench_out")
            out.mkdir(exist_ok=True)
            (out / f"graphs_seed{args.seed}.json").write_text(json.dumps(wl.graph_table(), indent=1) + "\n")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
