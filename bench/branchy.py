"""Seeded generator of branchy Float32 graphs for the compile sweep.

Each graph is a stem convolution, a shuffled sequence of blocks and a
Flatten -> FullyConnected -> Softmax classifier. The block kinds cover
what the two bundled chain models lack:

- residual: Conv -> ReLU -> Conv joined to the block input by Add;
- inception: NPU convolution branches beside a CPU-only MaxPool branch,
  joined by Concat. Without the MaxPool branch the CPU has nothing to do
  while the NPU runs, and the scheduler finds no CPU/NPU overlap;
- dwsep: a DepthwiseConv2D + pointwise Conv2D pair;
- pool: MaxPool2D or AvgPool2D.

The stem and the dwsep and pool blocks use stride 1 or 2; SAME or VALID
padding is drawn per layer where the block allows it. Every graph is
checked with `graph.validate` and has its shapes inferred before it is
returned.

A graph's structure (input size, blocks, widths, kernel sizes, strides,
paddings) depends only on its index in the set; the seed draws its
weights and calibration inputs. The modelled target cost depends only
on structure, since pruning removes a fixed share of each layer, so it
is the same for every seed and can carry a tight bound. What the seed
changes is which channels pruning keeps and every value the program
computes.
"""
from __future__ import annotations

import numpy as np

from tinydeploy.graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    TensorKind,
    TensorSpec,
    conv_output_hw,
    infer_shapes,
    validate,
)

NUM_CLASSES = 10
BLOCK_KINDS = ("residual", "inception", "dwsep", "pool")


class _GraphBuilder:
    def __init__(self, name: str, hw: int, rng: np.random.Generator, weights: np.random.Generator):
        self.name = name
        self.rng = rng  # structure
        self.weights = weights
        self.nodes: list[OpNode] = []
        self.tensors: dict[str, TensorSpec] = {
            "in": TensorSpec("in", (1, hw, hw, 3), DType.FLOAT32, TensorKind.INPUT)
        }
        self.shapes: dict[str, tuple[int, int, int]] = {"in": (hw, hw, 3)}
        self.count = 0

    def _fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def _act(self, nid: str, shape: tuple[int, int, int]) -> str:
        tid = f"{nid}_out"
        self.tensors[tid] = TensorSpec(tid, (1, 1), DType.FLOAT32, TensorKind.ACTIVATION)
        self.shapes[tid] = shape
        return tid

    def _const(self, tid: str, data: np.ndarray, kind: TensorKind) -> str:
        data = data.astype(np.float32)
        self.tensors[tid] = TensorSpec(tid, data.shape, DType.FLOAT32, kind, data=data)
        return tid

    def _window(self, src: str, kernel: int, stride: int, padding: str) -> tuple[int, int]:
        h, w, _ = self.shapes[src]
        return conv_output_hw((h, w), (kernel, kernel), (stride, stride), padding)

    def conv(self, src: str, out_c: int, kernel: int, stride: int = 1,
             padding: str = "SAME", relu: bool = True, depthwise: bool = False) -> str:
        nid = self._fresh("dw" if depthwise else "conv")
        in_c = self.shapes[src][2]
        if depthwise:
            out_c = in_c
            w_shape = (1, kernel, kernel, in_c)
            fan_in = kernel * kernel
        else:
            w_shape = (out_c, kernel, kernel, in_c)
            fan_in = kernel * kernel * in_c
        w = self._const(f"{nid}_w", self.weights.normal(0.0, np.sqrt(2.0 / fan_in), w_shape),
                        TensorKind.WEIGHT)
        b = self._const(f"{nid}_b", self.weights.uniform(-0.05, 0.05, out_c), TensorKind.BIAS)
        oh, ow = self._window(src, kernel, stride, padding)
        out = self._act(nid, (oh, ow, out_c))
        kind = OpKind.DEPTHWISE_CONV2D if depthwise else OpKind.CONV2D
        self.nodes.append(OpNode(nid, kind, {
            "kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding,
        }, [src, w, b], [out]))
        return self.relu(out) if relu else out

    def relu(self, src: str) -> str:
        nid = self._fresh("relu")
        out = self._act(nid, self.shapes[src])
        self.nodes.append(OpNode(nid, OpKind.RELU, {}, [src], [out]))
        return out

    def pool(self, src: str, kind: OpKind, kernel: int, stride: int, padding: str) -> str:
        nid = self._fresh("maxpool" if kind == OpKind.MAX_POOL2D else "avgpool")
        oh, ow = self._window(src, kernel, stride, padding)
        out = self._act(nid, (oh, ow, self.shapes[src][2]))
        self.nodes.append(OpNode(nid, kind, {
            "kernel_h": kernel, "kernel_w": kernel,
            "stride_h": stride, "stride_w": stride, "padding": padding,
        }, [src], [out]))
        return out

    def add(self, a: str, b: str) -> str:
        nid = self._fresh("add")
        out = self._act(nid, self.shapes[a])
        self.nodes.append(OpNode(nid, OpKind.ADD, {}, [a, b], [out]))
        return out

    def concat(self, parts: list[str]) -> str:
        nid = self._fresh("concat")
        h, w, _ = self.shapes[parts[0]]
        out = self._act(nid, (h, w, sum(self.shapes[p][2] for p in parts)))
        self.nodes.append(OpNode(nid, OpKind.CONCAT, {"axis": 3}, list(parts), [out]))
        return out

    def head(self, src: str) -> None:
        h, w, c = self.shapes[src]
        flat = "flatten_out"
        self.tensors[flat] = TensorSpec(flat, (1, 1), DType.FLOAT32, TensorKind.ACTIVATION)
        self.nodes.append(OpNode("flatten", OpKind.FLATTEN, {}, [src], [flat]))
        features = h * w * c
        w_fc = self._const("fc_w", self.weights.normal(0.0, np.sqrt(2.0 / features),
                                                       (NUM_CLASSES, features)), TensorKind.WEIGHT)
        b_fc = self._const("fc_b", self.weights.uniform(-0.05, 0.05, NUM_CLASSES), TensorKind.BIAS)
        logits = "fc_out"
        self.tensors[logits] = TensorSpec(logits, (1, 1), DType.FLOAT32, TensorKind.ACTIVATION)
        self.nodes.append(OpNode("fc", OpKind.FULLY_CONNECTED, {}, [flat, w_fc, b_fc], [logits]))
        self.tensors["probs"] = TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT)
        self.nodes.append(OpNode("softmax", OpKind.SOFTMAX, {}, [logits], ["probs"]))

    def finish(self) -> GraphIR:
        graph = GraphIR(self.name, self.nodes, self.tensors, ["in"], ["probs"])
        report = validate(graph)
        if not report.ok:
            raise ValueError(f"{self.name}: generated graph invalid: {report.violations}")
        graph, _ = infer_shapes(graph)
        return graph


def _choice(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _block(b: _GraphBuilder, kind: str, x: str) -> str:
    rng = b.rng
    h, _, c = b.shapes[x]
    if kind == "residual":
        # Add needs equal shapes, so both convolutions keep size and channels.
        y = b.conv(x, _choice(rng, (16, 24, 32)), kernel=3)
        y = b.conv(y, c, kernel=_choice(rng, (1, 3)), relu=False)
        return b.relu(b.add(x, y))
    if kind == "inception":
        # Concat needs equal spatial sizes: every branch is stride 1, SAME.
        branches = [
            b.conv(x, _choice(rng, (8, 16)), kernel=1),
            b.conv(b.conv(x, _choice(rng, (16, 24)), kernel=1), _choice(rng, (16, 24)), kernel=3),
        ]
        pooled = b.pool(x, OpKind.MAX_POOL2D, kernel=3, stride=1, padding="SAME")
        if rng.random() < 0.5:
            pooled = b.conv(pooled, 8, kernel=1)
        branches.append(pooled)
        return b.concat(branches)
    stride = 2 if h >= 16 else 1
    padding = _choice(rng, ("SAME", "VALID")) if h >= 6 else "SAME"
    if kind == "dwsep":
        y = b.conv(x, 0, kernel=3, stride=stride, padding=padding, depthwise=True)
        return b.conv(y, _choice(rng, (16, 24, 32, 40)), kernel=1)
    pool_kind = _choice(rng, (OpKind.MAX_POOL2D, OpKind.AVG_POOL2D))
    return b.pool(x, pool_kind, kernel=_choice(rng, (2, 3)), stride=2 if h >= 4 else 1,
                  padding=padding)


def make_branchy_graph(rng: np.random.Generator, weights: np.random.Generator, name: str,
                       hw: int, stem_stride: int, kinds: list[str]) -> GraphIR:
    """Stem, the given blocks in order, classifier; `rng` draws the
    structure, `weights` the weights."""
    b = _GraphBuilder(name, hw, rng, weights)
    x = b.conv("in", _choice(rng, (16, 24, 32)), kernel=3, stride=stem_stride,
               padding=_choice(rng, ("SAME", "VALID")))
    for kind in kinds:
        x = _block(b, kind, x)
    # Shrink the classifier input so the FullyConnected layer stays small.
    while b.shapes[x][0] > 4:
        x = b.pool(x, OpKind.MAX_POOL2D, kernel=2, stride=2, padding="VALID")
    b.head(x)
    return b.finish()


def graph_skeleton(index: int) -> tuple[int, int, list[str]]:
    """(input size, stem stride, block kinds in order) of graph `index`.

    They cycle through fixed values, so that a set of 18 or more graphs
    has every input size, stem stride, block count and inception position.
    """
    extra = [BLOCK_KINDS[(index + j) % len(BLOCK_KINDS)] for j in range(2 + index // 6 % 3)]
    at = index % (len(extra) + 1)
    return (16, 24, 32)[index % 3], (1, 2)[index // 3 % 2], extra[:at] + ["inception"] + extra[at:]


def make_graph_set(seed: int, count: int) -> list[GraphIR]:
    """`count` graphs; graph i has the structure drawn for index i and
    weights drawn from `seed`."""
    return [
        make_branchy_graph(
            np.random.default_rng(np.random.SeedSequence([i, 0xB7A9C4])),
            np.random.default_rng(np.random.SeedSequence([seed, 0xB7A9C4, i])),
            f"branchy_{i:02d}", *graph_skeleton(i),
        )
        for i in range(count)
    ]


def calibration_inputs(graph: GraphIR, seed: int, index: int, count: int) -> list[np.ndarray]:
    """Seeded Gaussian inputs matching the graph's input shape."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11B, index]))
    shape = graph.tensors[graph.graph_inputs[0]].shape
    return [rng.normal(0.0, 1.0, shape).astype(np.float32) for _ in range(count)]
