"""Shared graph builders and independent brute-force oracles for tests.

The oracles here deliberately avoid the production code paths: naive
loop convolutions, permutation search for memory packing, topological
enumeration for schedules, direct enumeration for hybrid accuracy.
"""
from __future__ import annotations

import itertools

import numpy as np

from tinydeploy.graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    TensorKind,
    TensorSpec,
    infer_shapes,
    same_padding_amounts,
)


def act(tid, shape=(1, 1)):
    return TensorSpec(tid, shape, DType.FLOAT32, TensorKind.ACTIVATION)


def const(tid, data, kind=TensorKind.WEIGHT):
    data = np.asarray(data, dtype=np.float32)
    return TensorSpec(tid, data.shape, DType.FLOAT32, kind, data=data)


def conv_attrs(kernel=3, stride=1, padding="VALID"):
    return {
        "kernel_h": kernel, "kernel_w": kernel,
        "stride_h": stride, "stride_w": stride, "padding": padding,
    }


def make_graph(name, nodes, tensors, inputs, outputs, infer=True):
    g = GraphIR(name, nodes, {t.id: t for t in tensors}, inputs, outputs)
    if infer:
        g, _ = infer_shapes(g)
    return g


def conv_relu_softmax(out_c=4, in_shape=(1, 8, 8, 3), seed=0):
    """Minimal Conv -> ReLU -> Softmax-over-flat graph used around the suite."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 0.4, size=(out_c, 3, 3, in_shape[3]))
    b = rng.normal(0, 0.1, size=(out_c,))
    nodes = [
        OpNode("conv", OpKind.CONV2D, conv_attrs(), ["in", "w", "b"], ["conv_out"]),
        OpNode("relu", OpKind.RELU, {}, ["conv_out"], ["relu_out"]),
        OpNode("flat", OpKind.FLATTEN, {}, ["relu_out"], ["flat_out"]),
        OpNode("softmax", OpKind.SOFTMAX, {}, ["flat_out"], ["probs"]),
    ]
    tensors = [
        TensorSpec("in", in_shape, DType.FLOAT32, TensorKind.INPUT),
        const("w", w), const("b", b, TensorKind.BIAS),
        act("conv_out"), act("relu_out"), act("flat_out"),
        TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT),
    ]
    return make_graph("conv_relu_softmax", nodes, tensors, ["in"], ["probs"])


def two_conv_chain(first_filters=8, second_filters=16, seed=0):
    """Conv(first) -> ReLU -> Conv(second) -> ReLU -> Flatten -> Softmax."""
    rng = np.random.default_rng(seed)
    nodes = [
        OpNode("c1", OpKind.CONV2D, conv_attrs(padding="SAME"), ["in", "w1", "b1"], ["t1"]),
        OpNode("r1", OpKind.RELU, {}, ["t1"], ["t2"]),
        OpNode("c2", OpKind.CONV2D, conv_attrs(padding="SAME"), ["t2", "w2", "b2"], ["t3"]),
        OpNode("r2", OpKind.RELU, {}, ["t3"], ["t4"]),
        OpNode("fl", OpKind.FLATTEN, {}, ["t4"], ["t5"]),
        OpNode("sm", OpKind.SOFTMAX, {}, ["t5"], ["probs"]),
    ]
    tensors = [
        TensorSpec("in", (1, 6, 6, 3), DType.FLOAT32, TensorKind.INPUT),
        const("w1", rng.normal(size=(first_filters, 3, 3, 3))),
        const("b1", rng.normal(size=(first_filters,)), TensorKind.BIAS),
        const("w2", rng.normal(size=(second_filters, 3, 3, first_filters))),
        const("b2", rng.normal(size=(second_filters,)), TensorKind.BIAS),
        act("t1"), act("t2"), act("t3"), act("t4"), act("t5"),
        TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT),
    ]
    return make_graph("two_conv", nodes, tensors, ["in"], ["probs"])


# ---------------------------------------------------------------------------
# naive reference ops (loop-based, independent of the executor)


def naive_conv2d(x, w, b, stride, padding):
    """x (1,H,W,Cin), w (Cout,kh,kw,Cin): direct quadruple loop."""
    _, h, wdt, cin = x.shape
    cout, kh, kw, _ = w.shape
    sh = sw = stride
    if padding == "SAME":
        ph = same_padding_amounts(h, kh, sh)
        pw = same_padding_amounts(wdt, kw, sw)
        xp = np.zeros((1, h + ph[0] + ph[1], wdt + pw[0] + pw[1], cin), dtype=np.float64)
        xp[:, ph[0]:ph[0] + h, pw[0]:pw[0] + wdt, :] = x
        oh, ow = -(-h // sh), -(-wdt // sw)
    else:
        xp = x.astype(np.float64)
        oh, ow = (h - kh) // sh + 1, (wdt - kw) // sw + 1
    out = np.zeros((1, oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(cout):
                acc = 0.0
                for iy in range(kh):
                    for ix in range(kw):
                        for ic in range(cin):
                            acc += xp[0, oy * sh + iy, ox * sw + ix, ic] * w[oc, iy, ix, ic]
                out[0, oy, ox, oc] = acc + (b[oc] if b is not None else 0.0)
    return out


def naive_maxpool(x, kernel, stride):
    _, h, w, c = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.zeros((1, oh, ow, c))
    for oy in range(oh):
        for ox in range(ow):
            for ch in range(c):
                window = [
                    x[0, oy * stride + iy, ox * stride + ix, ch]
                    for iy in range(kernel) for ix in range(kernel)
                ]
                out[0, oy, ox, ch] = max(window)
    return out


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force_makespan(group_ids, deps, targets, latencies):
    """Minimal makespan of any topological order under earliest-start rules.

    Enumerates every topological permutation and simulates list execution
    in that priority order on the two resources.
    """
    best = float("inf")
    for order in itertools.permutations(group_ids):
        pos = {g: i for i, g in enumerate(order)}
        if any(pos[d] > pos[g] for g in group_ids for d in deps[g]):
            continue
        done, free = {}, {"CPU": 0.0, "NPU": 0.0}
        for g in order:
            ready = max((done[d] for d in deps[g]), default=0.0)
            start = max(ready, free[targets[g]])
            done[g] = start + latencies[g]
            free[targets[g]] = done[g]
        best = min(best, max(done.values()))
    return best


def brute_force_arena_peak(lifetimes):
    """Optimal arena size by permutation search with lowest-feasible offsets.

    Some optimal packing is reachable by placing blocks in ascending-offset
    order, each at the lowest feasible offset; enumerating all placement
    orders therefore visits an optimal solution.
    """
    items = list(lifetimes)
    best = float("inf")
    for order in itertools.permutations(range(len(items))):
        placed = []
        peak = 0
        for idx in order:
            lt = items[idx]
            ranges = sorted(
                (off, off + other.size) for other, off in placed if other.overlaps(lt)
            )
            offset = 0
            for lo, hi in ranges:
                if lo - offset >= lt.size:
                    break
                offset = max(offset, hi)
            placed.append((lt, offset))
            peak = max(peak, offset + lt.size)
        best = min(best, peak)
    return best


def brute_force_hybrid_accuracy(onboard, ground, threshold):
    """Direct per-sample enumeration of the hybrid decision rule."""
    ground_by_id = {r.sample_id: r for r in ground}
    hits = 0
    for r in onboard:
        if r.confidence < threshold:
            hits += int(ground_by_id[r.sample_id].correct)
        else:
            hits += int(r.correct)
    return hits / len(onboard)


def per_sample_records(run, graph, samples):
    """(id, class, repr(confidence), label) from one `run(graph, x)` per sample.

    The reference for chunked `evaluate`: the loop it replaced.
    """
    out_id = graph.graph_outputs[0]
    records = []
    for sample_id, x, label in samples:
        probs = run(graph, x)[out_id].reshape(-1)
        predicted = int(np.argmax(probs))
        records.append((sample_id, predicted, repr(float(probs[predicted])), int(label)))
    return records


def record_tuples(records):
    return [(r.sample_id, r.predicted_class, repr(r.confidence), r.true_label) for r in records]
