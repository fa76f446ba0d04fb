"""Bundled desk-scale models with deterministic, seeded weights.

Two small nets sized for fast end-to-end runs: a plain 4-layer ConvNet
and a depthwise-separable variant. Weights are He-scaled Gaussians from
a fixed seed, standing in for externally trained checkpoints.
"""
from __future__ import annotations

import numpy as np

from .graph import DType, GraphIR, OpKind, OpNode, TensorKind, TensorSpec, infer_shapes

BUNDLED_MODELS = ("small_convnet", "dwsep_net")


class _Builder:
    def __init__(self, name: str, input_shape: tuple[int, ...], seed: int):
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.nodes: list[OpNode] = []
        self.tensors: dict[str, TensorSpec] = {
            "in": TensorSpec("in", input_shape, DType.FLOAT32, TensorKind.INPUT)
        }
        self.head = "in"
        self.channels = input_shape[-1]  # channel count at the head

    def _activation(self, tid: str) -> str:
        self.tensors[tid] = TensorSpec(tid, (1, 1), DType.FLOAT32, TensorKind.ACTIVATION)
        return tid

    def _weights(self, tid: str, shape: tuple[int, ...], gain: float = 1.0) -> str:
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        std = gain * np.sqrt(2.0 / fan_in)
        data = self.rng.normal(0.0, std, size=shape).astype(np.float32)
        self.tensors[tid] = TensorSpec(tid, shape, DType.FLOAT32, TensorKind.WEIGHT, data=data)
        return tid

    def _bias(self, tid: str, n: int, scale: float = 0.05) -> str:
        data = self.rng.uniform(-scale, scale, size=(n,)).astype(np.float32)
        self.tensors[tid] = TensorSpec(tid, (n,), DType.FLOAT32, TensorKind.BIAS, data=data)
        return tid

    def conv(self, nid: str, out_c: int, kernel: int = 3, stride: int = 1,
             padding: str = "SAME", relu: bool = True, gain: float = 1.0) -> None:
        w = self._weights(f"{nid}_w", (out_c, kernel, kernel, self.channels), gain)
        b = self._bias(f"{nid}_b", out_c)
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, OpKind.CONV2D, {
            "kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding,
        }, [self.head, w, b], [out]))
        self.head = out
        self.channels = out_c
        if relu:
            self.relu(f"{nid}_relu")

    def depthwise(self, nid: str, kernel: int = 3, stride: int = 1,
                  padding: str = "SAME", relu: bool = True) -> None:
        w = self._weights(f"{nid}_w", (1, kernel, kernel, self.channels))
        b = self._bias(f"{nid}_b", self.channels)
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, OpKind.DEPTHWISE_CONV2D, {
            "kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding,
        }, [self.head, w, b], [out]))
        self.head = out
        if relu:
            self.relu(f"{nid}_relu")

    def relu(self, nid: str) -> None:
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, OpKind.RELU, {}, [self.head], [out]))
        self.head = out

    def pool(self, nid: str, kind: OpKind, kernel: int = 2, stride: int = 2,
             padding: str = "VALID") -> None:
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, kind, {
            "kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding,
        }, [self.head], [out]))
        self.head = out

    def flatten(self, nid: str = "flatten") -> None:
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, OpKind.FLATTEN, {}, [self.head], [out]))
        self.head = out

    def fc(self, nid: str, in_f: int, out_f: int, gain: float = 1.0) -> None:
        w = self._weights(f"{nid}_w", (out_f, in_f), gain)
        b = self._bias(f"{nid}_b", out_f)
        out = self._activation(f"{nid}_out")
        self.nodes.append(OpNode(nid, OpKind.FULLY_CONNECTED, {}, [self.head, w, b], [out]))
        self.head = out

    def softmax(self, nid: str = "softmax") -> None:
        out = "probs"
        self.tensors[out] = TensorSpec(out, (1, 1), DType.FLOAT32, TensorKind.OUTPUT)
        self.nodes.append(OpNode(nid, OpKind.SOFTMAX, {}, [self.head], [out]))
        self.head = out

    def finish(self) -> GraphIR:
        graph = GraphIR(self.name, self.nodes, self.tensors, ["in"], [self.head])
        graph, _ = infer_shapes(graph)
        return graph


def build_small_convnet(seed: int = 11, num_classes: int = 10) -> GraphIR:
    """Plain 4-layer ConvNet: 3 conv blocks + classifier, 32x32x3 input."""
    b = _Builder("small_convnet", (1, 32, 32, 3), seed)
    b.conv("conv1", 16)
    b.pool("pool1", OpKind.MAX_POOL2D)
    b.conv("conv2", 32)
    b.pool("pool2", OpKind.MAX_POOL2D)
    b.conv("conv3", 64)
    b.pool("pool3", OpKind.MAX_POOL2D)
    b.flatten()
    b.fc("fc", 4 * 4 * 64, num_classes, gain=2.0)
    b.softmax()
    return b.finish()


def build_dwsep_net(seed: int = 23, num_classes: int = 10) -> GraphIR:
    """Depthwise-separable net: conv, two dw+pointwise blocks, classifier."""
    b = _Builder("dwsep_net", (1, 32, 32, 3), seed)
    b.conv("conv1", 16)
    b.depthwise("dw1")
    b.conv("pw1", 32, kernel=1)
    b.pool("pool1", OpKind.MAX_POOL2D)
    b.depthwise("dw2")
    b.conv("pw2", 64, kernel=1)
    b.pool("pool2", OpKind.AVG_POOL2D)
    b.flatten()
    b.fc("fc", 8 * 8 * 64, num_classes, gain=2.0)
    b.softmax()
    return b.finish()


def build_bundled_model(name: str, seed: int | None = None) -> GraphIR:
    if name == "small_convnet":
        return build_small_convnet() if seed is None else build_small_convnet(seed)
    if name == "dwsep_net":
        return build_dwsep_net() if seed is None else build_dwsep_net(seed)
    raise ValueError(f"unknown bundled model {name!r}; choose from {BUNDLED_MODELS}")


def fit_classifier(graph: GraphIR, samples, margin: float = 6.0, ridge: float = 0.1) -> GraphIR:
    """Deterministic closed-form ridge fit of the final classifier layer.

    Solves the regularized least-squares problem mapping the penultimate
    features to +-margin one-vs-rest targets and writes the solution into
    the last FullyConnected layer. Stands in for an externally trained
    checkpoint: no gradient descent, fully reproducible from the inputs.
    The ridge term scales with the mean feature energy so the same value
    works across models with different activation magnitudes.

    With Xa the n x (f+1) feature matrix (a ones column for the bias) and
    lam = ridge * ||Xa||_F^2 / (f+1), the solution is taken in its dual
    form W = Xa^T (Xa Xa^T + lam I)^-1 T (Saunders et al., ICML 1998),
    which equals the primal (Xa^T Xa + lam I)^-1 Xa^T T. Every caller fits
    fewer samples than features (300 against 1024 or 4096), so the n x n
    system is the smaller one: 0.7 MB for n = 300, where the primal
    system is 134 MB for dwsep_net.
    """
    from .executor import batches, prepare

    g = graph.copy()
    fc = [n for n in g.nodes if n.kind == OpKind.FULLY_CONNECTED][-1]
    feat_id = fc.inputs[0]

    program = prepare(g)
    samples = list(samples)
    if not samples:
        raise ValueError("fit_classifier: no training samples")
    labels = [int(label) for _, _, label in samples]
    n, f = len(samples), int(np.prod(program.graph.tensors[feat_id].shape[1:]))
    # Each chunk's features go straight into Xa, whose last column is ones,
    # while the hook is called: the array it is handed is valid only then.
    xa = np.empty((n, f + 1))
    xa[:, f] = 1.0
    start = 0

    def keep(tid: str, values: np.ndarray) -> None:
        if tid == feat_id:
            xa[start:start + len(values), :f] = values.reshape(len(values), -1)

    for batch in batches([x for _, x, _ in samples]):
        program.run(batch, on_step=keep)
        start += len(batch)
    n_classes = g.tensors[fc.inputs[1]].shape[0]
    targets = np.full((n, n_classes), -margin)
    targets[np.arange(n), labels] = margin

    kernel = xa @ xa.T
    # trace(Xa Xa^T) = trace(Xa^T Xa) = ||Xa||_F^2
    ridge_eff = ridge * np.trace(kernel) / (f + 1)
    kernel[np.diag_indices_from(kernel)] += ridge_eff
    sol = xa.T @ np.linalg.solve(kernel, targets)

    g.tensors[fc.inputs[1]].data = np.ascontiguousarray(sol[:-1].T, dtype=np.float32)
    if len(fc.inputs) == 3:
        g.tensors[fc.inputs[2]].data = np.ascontiguousarray(sol[-1], dtype=np.float32)
    return g
