"""Bundled desk-scale models with deterministic, seeded weights.

Two small nets sized for fast end-to-end runs: a plain 4-layer ConvNet
and a depthwise-separable variant. Weights are He-scaled Gaussians from
a fixed seed, standing in for externally trained checkpoints.
"""
from __future__ import annotations

import numpy as np

from .datasets import INPUT_SHAPE, NUM_CLASSES
from .graph import DType, GraphIR, OpKind, OpNode, TensorKind, TensorSpec, infer_shapes

_BIAS_SCALE = 0.05  # biases are uniform in [-_BIAS_SCALE, _BIAS_SCALE)
_MARGIN = 6.0  # fit_classifier's targets
_RIDGE = 0.1  # fit_classifier's ridge term, relative to the feature energy


class _Builder:
    """Appends nodes to a chain: each op reads the current head tensor.

    Conv2D and DepthwiseConv2D use stride 1 and SAME padding and are
    always followed by a ReLU; pools use a 2x2 window with stride 2.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.nodes: list[OpNode] = []
        self.tensors: dict[str, TensorSpec] = {
            "in": TensorSpec("in", INPUT_SHAPE, DType.FLOAT32, TensorKind.INPUT)
        }
        self.head = "in"
        self.channels = INPUT_SHAPE[-1]  # channel count at the head

    def _weights(self, tid: str, shape: tuple[int, ...], gain: float = 1.0) -> str:
        fan_in = int(np.prod(shape[1:]))
        std = gain * np.sqrt(2.0 / fan_in)
        data = self.rng.normal(0.0, std, size=shape).astype(np.float32)
        self.tensors[tid] = TensorSpec(tid, shape, DType.FLOAT32, TensorKind.WEIGHT, data=data)
        return tid

    def _bias(self, tid: str, n: int) -> str:
        data = self.rng.uniform(-_BIAS_SCALE, _BIAS_SCALE, size=(n,)).astype(np.float32)
        self.tensors[tid] = TensorSpec(tid, (n,), DType.FLOAT32, TensorKind.BIAS, data=data)
        return tid

    def _op(self, nid: str, kind: OpKind, attrs: dict, inputs: list[str]) -> None:
        """Append `nid` reading `inputs`; its output `<nid>_out` becomes the head."""
        out = f"{nid}_out"
        self.tensors[out] = TensorSpec(out, (1, 1), DType.FLOAT32, TensorKind.ACTIVATION)
        self.nodes.append(OpNode(nid, kind, attrs, inputs, [out]))
        self.head = out

    def conv(self, nid: str, out_c: int, kernel: int = 3) -> None:
        w = self._weights(f"{nid}_w", (out_c, kernel, kernel, self.channels))
        b = self._bias(f"{nid}_b", out_c)
        self._op(nid, OpKind.CONV2D, _window(kernel, 1, "SAME"), [self.head, w, b])
        self.channels = out_c
        self.relu(f"{nid}_relu")

    def depthwise(self, nid: str) -> None:
        w = self._weights(f"{nid}_w", (1, 3, 3, self.channels))
        b = self._bias(f"{nid}_b", self.channels)
        self._op(nid, OpKind.DEPTHWISE_CONV2D, _window(3, 1, "SAME"), [self.head, w, b])
        self.relu(f"{nid}_relu")

    def relu(self, nid: str) -> None:
        self._op(nid, OpKind.RELU, {}, [self.head])

    def pool(self, nid: str, kind: OpKind) -> None:
        self._op(nid, kind, _window(2, 2, "VALID"), [self.head])

    def classifier(self, in_f: int) -> GraphIR:
        """Append Flatten, a NUM_CLASSES-way FullyConnected layer over its
        `in_f` features and the Softmax that writes "probs"; the graph."""
        self._op("flatten", OpKind.FLATTEN, {}, [self.head])
        w = self._weights("fc_w", (NUM_CLASSES, in_f), gain=2.0)
        b = self._bias("fc_b", NUM_CLASSES)
        self._op("fc", OpKind.FULLY_CONNECTED, {}, [self.head, w, b])
        self.tensors["probs"] = TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT)
        self.nodes.append(OpNode("softmax", OpKind.SOFTMAX, {}, [self.head], ["probs"]))
        graph = GraphIR(self.name, self.nodes, self.tensors, ["in"], ["probs"])
        graph, _ = infer_shapes(graph)
        return graph


def _window(kernel: int, stride: int, padding: str) -> dict:
    return {"kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding}


def build_small_convnet() -> GraphIR:
    """Plain 4-layer ConvNet: 3 conv blocks + classifier."""
    b = _Builder("small_convnet", seed=11)
    b.conv("conv1", 16)
    b.pool("pool1", OpKind.MAX_POOL2D)
    b.conv("conv2", 32)
    b.pool("pool2", OpKind.MAX_POOL2D)
    b.conv("conv3", 64)
    b.pool("pool3", OpKind.MAX_POOL2D)
    return b.classifier(4 * 4 * 64)


def build_dwsep_net() -> GraphIR:
    """Depthwise-separable net: conv, two dw+pointwise blocks, classifier."""
    b = _Builder("dwsep_net", seed=23)
    b.conv("conv1", 16)
    b.depthwise("dw1")
    b.conv("pw1", 32, kernel=1)
    b.pool("pool1", OpKind.MAX_POOL2D)
    b.depthwise("dw2")
    b.conv("pw2", 64, kernel=1)
    b.pool("pool2", OpKind.AVG_POOL2D)
    return b.classifier(8 * 8 * 64)


_BUILDERS = {"small_convnet": build_small_convnet, "dwsep_net": build_dwsep_net}
BUNDLED_MODELS = tuple(_BUILDERS)


def build_bundled_model(name: str) -> GraphIR:
    if name not in _BUILDERS:
        raise ValueError(f"unknown bundled model {name!r}; choose from {BUNDLED_MODELS}")
    return _BUILDERS[name]()


def fit_classifier(graph: GraphIR, samples) -> GraphIR:
    """Deterministic closed-form ridge fit of the final classifier layer.

    Solves the regularized least-squares problem mapping the penultimate
    features to +-_MARGIN one-vs-rest targets and writes the solution into
    the last FullyConnected layer. Stands in for an externally trained
    checkpoint: no gradient descent, fully reproducible from the inputs.
    The ridge term scales with the mean feature energy so the same value
    works across models with different activation magnitudes.

    With Xa the n x (f+1) feature matrix (a ones column for the bias) and
    lam = _RIDGE * ||Xa||_F^2 / (f+1), the solution is taken in its dual
    form W = Xa^T (Xa Xa^T + lam I)^-1 T (Saunders et al., ICML 1998),
    which equals the primal (Xa^T Xa + lam I)^-1 Xa^T T. Every caller fits
    fewer samples than features (300 against 1024 or 4096), so the n x n
    system is the smaller one: 0.7 MB for n = 300, where the primal
    system is 134 MB for dwsep_net.

    `samples` are (sample_id, input, label) triples, checked by
    `executor.checked_samples` before any sample runs: a label outside
    [0, n_classes), an input of the wrong shape or a non-finite one raises
    ExecutionError naming the sample. The feature pass runs on
    `executor.map_batches` in chunks of EVAL_CHUNK // workers, so all
    workers together hold at most one EVAL_CHUNK of samples. Each chunk
    writes its rows of Xa from the `on_step` hook and keeps nothing else;
    a sample's features do not depend on its chunk, so the fit is the
    same for any thread count.
    """
    from .executor import EVAL_CHUNK, checked_samples, map_batches, pool_workers, prepare

    g = graph.copy()
    fc = [n for n in g.nodes if n.kind == OpKind.FULLY_CONNECTED][-1]
    feat_id = fc.inputs[0]
    n_classes = g.tensors[fc.inputs[1]].shape[0]

    program = prepare(g)
    _, inputs, labels = checked_samples(samples, program.input.shape, n_classes)
    if not inputs:
        raise ValueError("fit_classifier: no training samples")
    n, f = len(inputs), int(np.prod(program.graph.tensors[feat_id].shape[1:]))
    # Each chunk's features go straight into Xa, whose last column is ones,
    # while the hook is called: the array it is handed is valid only then.
    xa = np.empty((n, f + 1))
    xa[:, f] = 1.0
    chunk = max(1, EVAL_CHUNK // pool_workers(n))

    def features(i: int, batch: np.ndarray) -> None:
        start = i * chunk

        def keep(tid: str, values: np.ndarray) -> None:
            if tid == feat_id:
                xa[start:start + len(values), :f] = values.reshape(len(values), -1)
        program.run(batch, on_step=keep)

    map_batches(features, inputs, chunk)
    targets = np.full((n, n_classes), -_MARGIN)
    targets[np.arange(n), labels] = _MARGIN

    kernel = xa @ xa.T
    # trace(Xa Xa^T) = trace(Xa^T Xa) = ||Xa||_F^2
    ridge_eff = _RIDGE * np.trace(kernel) / (f + 1)
    kernel[np.diag_indices_from(kernel)] += ridge_eff
    sol = xa.T @ np.linalg.solve(kernel, targets)

    g.tensors[fc.inputs[1]].data = np.ascontiguousarray(sol[:-1].T, dtype=np.float32)
    if len(fc.inputs) == 3:
        g.tensors[fc.inputs[2]].data = np.ascontiguousarray(sol[-1], dtype=np.float32)
    return g
