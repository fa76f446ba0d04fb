import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tinydeploy
from tinydeploy import executor
from tinydeploy.executor import run_f32
from tinydeploy.graph import OpKind
from tinydeploy.models import build_dwsep_net, build_small_convnet, fit_classifier


def _fc_features(graph, samples) -> np.ndarray:
    """The last FullyConnected layer's input for each sample, float64 rows."""
    fc_in = [n for n in graph.nodes if n.kind == OpKind.FULLY_CONNECTED][-1].inputs[0]
    trace: dict = {}
    run_f32(graph, np.concatenate([x for _, x, _ in samples]), trace)
    return trace[fc_in].reshape(len(samples), -1).astype(np.float64)


def test_dual_fit_equals_primal_reference(small_convnet, train_samples):
    # small_convnet is fit_classifier(build_small_convnet(), train_samples);
    # the fit leaves every tensor before the classifier as built.
    x_mat = _fc_features(build_small_convnet(), train_samples)
    n, f = x_mat.shape
    assert n < f  # the case fit_classifier's n x n dual system is for
    labels = np.array([label for _, _, label in train_samples])
    targets = np.full((n, 10), -6.0)
    targets[np.arange(n), labels] = 6.0
    xa = np.hstack([x_mat, np.ones((n, 1))])
    gram = xa.T @ xa
    gram[np.diag_indices_from(gram)] += 0.1 * np.trace(gram) / (f + 1)
    primal = np.linalg.solve(gram, xa.T @ targets)  # (f+1) x (f+1) normal equations
    w_ref = primal[:-1].T.astype(np.float32)
    b_ref = primal[-1].astype(np.float32)

    w = small_convnet.tensors["fc_w"].data
    b = small_convnet.tensors["fc_b"].data
    np.testing.assert_array_max_ulp(w, w_ref, maxulp=1)
    np.testing.assert_array_max_ulp(b, b_ref, maxulp=1)
    train_x = x_mat.astype(np.float32)
    np.testing.assert_array_equal(
        np.argmax(train_x @ w.T + b, axis=1), np.argmax(train_x @ w_ref.T + b_ref, axis=1)
    )


# Fits dwsep_net on the pickled samples read from stdin and prints the
# tracemalloc peak in bytes; argv[1], when given, is the worker count.
_FIT_PEAK = """
import pickle, sys, tracemalloc
from tinydeploy import executor
from tinydeploy.models import build_dwsep_net, fit_classifier
if len(sys.argv) > 1:
    executor.usable_cpus = lambda: int(sys.argv[1])
samples = pickle.load(sys.stdin.buffer)
graph = build_dwsep_net()
tracemalloc.start()
fit_classifier(graph, samples)
print(tracemalloc.get_traced_memory()[1])
"""


def _fit_peak_mb(train_samples, *workers) -> float:
    """The tracemalloc peak of fitting dwsep_net, in MB, measured in a
    fresh interpreter: in this one, a fit that grows a process-wide table
    such as the interned-string dict would count it too, by as much as
    3.7 MB depending on how many strings earlier tests interned."""
    env = {**os.environ, "PYTHONPATH": str(Path(tinydeploy.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _FIT_PEAK, *map(str, workers)],
                         input=pickle.dumps(train_samples), env=env,
                         capture_output=True, check=True).stdout
    return int(out) / 2**20


def test_fit_classifier_memory_peak(train_samples):
    # About 13 MB for the dual fit: 13.9 MB while the feature pass kept
    # each chunk's features past the hook call and ReLU copied its dying
    # input, 22 MB while it kept every activation of a chunk; a primal
    # (f+1)^2 solve holds two 4097 x 4097 float64 matrices (147.5 MB peak).
    peak = _fit_peak_mb(train_samples)
    assert peak < 13.4, f"peak {peak:.1f} MB"


@pytest.mark.parametrize("workers", [2, 4])
def test_fit_classifier_memory_peak_on_more_workers(workers, train_samples):
    # The chunk shrinks to EVAL_CHUNK // workers, so all workers together
    # hold one EVAL_CHUNK of samples. Two workers on chunks of 16 peaked
    # at about 16.3 MB.
    peak = _fit_peak_mb(train_samples, workers)
    assert peak < 13.4, f"peak {peak:.1f} MB"


# 37 is a multiple of none of the chunk sizes 16, 8 and 5, so the last
# chunk is partial for every worker count below.
FIT_SAMPLES = 37


@pytest.mark.parametrize("build", [build_small_convnet, build_dwsep_net])
def test_fit_classifier_is_the_same_on_any_worker_count(build, train_samples, monkeypatch):
    fits = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(executor, "usable_cpus", lambda: workers)
        g = fit_classifier(build(), train_samples[:FIT_SAMPLES])
        fits.append([g.tensors[t].data.tobytes() for t in ("fc_w", "fc_b")])
    assert fits[1] == fits[0] and fits[2] == fits[0]


@pytest.mark.parametrize("edit, message", [
    # -1 would index class 9 and 10 past the targets.
    pytest.param(lambda x, _: (x, -1), r"label -1 outside \[0, 10\)", id="-1"),
    pytest.param(lambda x, _: (x, 10), r"label 10 outside \[0, 10\)", id="10"),
    # Would fail inside np.concatenate, naming neither sample nor shape.
    pytest.param(lambda x, label: (x[:, :16, :16], label),
                 r"input shape \(1, 16, 16, 3\) != graph input shape \(1, 32, 32, 3\)",
                 id="wrong-shape"),
    # 1e300 is inf as float32, and would fit NaN weights.
    pytest.param(lambda x, label: (np.full(x.shape, 1e300), label),
                 "input is not finite as float32", id="non-finite"),
])
def test_fit_classifier_rejects_a_label_out_of_range(edit, message, train_samples, monkeypatch):
    # One bad sample among good ones is named, and no sample runs.
    monkeypatch.setattr(executor, "map_batches", lambda *_: pytest.fail("a sample ran"))
    samples = list(train_samples[:5])
    sample_id, x, label = samples[3]
    samples[3] = (sample_id, *edit(x, label))
    with pytest.raises(ValueError, match=rf"sample {sample_id}: {message}"):
        fit_classifier(build_small_convnet(), samples)


def test_fit_classifier_rejects_empty_training_set():
    with pytest.raises(ValueError, match="no training samples"):
        fit_classifier(build_small_convnet(), [])
