import tracemalloc

import numpy as np
import pytest

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


def test_fit_classifier_memory_peak(train_samples):
    # About 13 MB for the dual fit: 13.9 MB while the feature pass kept
    # each chunk's features past the hook call and ReLU copied its dying
    # input, 22 MB while it kept every activation of a chunk; a primal
    # (f+1)^2 solve holds two 4097 x 4097 float64 matrices (147.5 MB peak).
    graph = build_dwsep_net()
    tracemalloc.start()
    try:
        fit_classifier(graph, train_samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_fit_classifier_rejects_empty_training_set():
    with pytest.raises(ValueError, match="no training samples"):
        fit_classifier(build_small_convnet(), [])
