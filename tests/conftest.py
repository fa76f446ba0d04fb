import pytest

from tinydeploy import graph as graph_module
from tinydeploy.datasets import synthetic_samples
from tinydeploy.executor import calibrate
from tinydeploy.models import build_dwsep_net, build_small_convnet, fit_classifier
from tinydeploy.quantization import quantize_graph


@pytest.fixture(scope="session")
def train_samples():
    return synthetic_samples(num_samples=300, seed=7, noise_seed=8675)


@pytest.fixture(scope="session")
def test_samples():
    return synthetic_samples(num_samples=200, seed=7)


@pytest.fixture(scope="session")
def small_convnet(train_samples):
    return fit_classifier(build_small_convnet(), train_samples)


@pytest.fixture(scope="session")
def dwsep_net(train_samples):
    return fit_classifier(build_dwsep_net(), train_samples)


@pytest.fixture(scope="session")
def small_convnet_quantized(small_convnet, test_samples):
    ranges = calibrate(small_convnet, [s[1] for s in test_samples[:32]])
    return quantize_graph(small_convnet, ranges)


@pytest.fixture(scope="session")
def dwsep_net_quantized(dwsep_net, test_samples):
    ranges = calibrate(dwsep_net, [s[1] for s in test_samples[:32]])
    return quantize_graph(dwsep_net, ranges)


@pytest.fixture
def validations(monkeypatch):
    """Names of the graphs that validation passes see, one per pass.

    Counts through `graph._checked_order`, which `validate`,
    `checked_order` and `infer_shapes` all run.
    """
    seen = []
    real = graph_module._checked_order
    monkeypatch.setattr(graph_module, "_checked_order", lambda g: seen.append(g.name) or real(g))
    return seen
