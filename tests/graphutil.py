"""Shared graph builders, independent brute-force oracles and test-only
helpers.

The oracles here deliberately avoid the production code paths: naive
loop convolutions, permutation search for memory packing, topological
enumeration for schedules, direct enumeration for hybrid accuracy.
`graphs_equal` (structural identity) and `build_prune_plan` (every
stage at once) serve only tests.
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
    conv_output_hw,
    infer_shapes,
    same_padding_amounts,
)
from tinydeploy.pruning import DEFAULT_SCHEDULE, PrunePlan, new_plan, plan_next_stage
from tinydeploy.quantization import QMAX, QMIN, fixed_point_multiplier, requantize_fixed_point


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


def make_graph(name, nodes, tensors, inputs, outputs):
    g, _ = infer_shapes(GraphIR(name, nodes, {t.id: t for t in tensors}, inputs, outputs))
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


def skip_branch_graph(seed=0):
    """A residual block and an inception block, with skip edges.

    The input is read again by the Add two steps after the first
    convolution, and the Add's output by the Concat four steps later.
    The block's ReLU output `rs` is a graph output that later steps
    also read. Conv -> ReLU -> Conv, Add(in, .) -> ReLU, then Concat of
    a 1x1 Conv branch, a MaxPool branch and the Add output, and a
    Flatten -> FullyConnected -> Softmax head.
    """
    rng = np.random.default_rng(seed)
    same = conv_attrs(padding="SAME")
    nodes = [
        OpNode("c1", OpKind.CONV2D, same, ["in", "w1", "b1"], ["a"]),
        OpNode("r1", OpKind.RELU, {}, ["a"], ["ra"]),
        OpNode("c2", OpKind.CONV2D, conv_attrs(kernel=1), ["ra", "w2", "b2"], ["b"]),
        OpNode("add", OpKind.ADD, {}, ["in", "b"], ["s"]),
        OpNode("r2", OpKind.RELU, {}, ["s"], ["rs"]),
        OpNode("c3", OpKind.CONV2D, conv_attrs(kernel=1), ["rs", "w3", "b3"], ["p"]),
        OpNode("mp", OpKind.MAX_POOL2D, same, ["rs"], ["m"]),
        OpNode("cat", OpKind.CONCAT, {"axis": 3}, ["p", "m", "s"], ["cat"]),
        OpNode("fl", OpKind.FLATTEN, {}, ["cat"], ["flat"]),
        OpNode("fc", OpKind.FULLY_CONNECTED, {}, ["flat", "w4", "b4"], ["logits"]),
        OpNode("sm", OpKind.SOFTMAX, {}, ["logits"], ["probs"]),
    ]
    tensors = [
        TensorSpec("in", (1, 6, 6, 4), DType.FLOAT32, TensorKind.INPUT),
        const("w1", rng.normal(0, 0.3, size=(8, 3, 3, 4))),
        const("b1", rng.normal(0, 0.1, size=(8,)), TensorKind.BIAS),
        const("w2", rng.normal(0, 0.3, size=(4, 1, 1, 8))),
        const("b2", rng.normal(0, 0.1, size=(4,)), TensorKind.BIAS),
        const("w3", rng.normal(0, 0.3, size=(6, 1, 1, 4))),
        const("b3", rng.normal(0, 0.1, size=(6,)), TensorKind.BIAS),
        const("w4", rng.normal(0, 0.1, size=(5, 6 * 6 * 14))),
        const("b4", rng.normal(0, 0.1, size=(5,)), TensorKind.BIAS),
        *(act(t) for t in ("a", "ra", "b", "s", "rs", "p", "m", "cat", "flat", "logits")),
        TensorSpec("probs", (1, 1), DType.FLOAT32, TensorKind.OUTPUT),
    ]
    return make_graph("skip_branch", nodes, tensors, ["in"], ["probs", "rs"])


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


def fancy_patches(x, attrs, pad_value):
    """(B,H,W,C) -> (B,Ho,Wo,kh,kw,C) windows gathered through index arrays.

    The gather the executor used before it read windows through strided
    views, kept as the reference its window kernels must reproduce.
    """
    kernel = (attrs["kernel_h"], attrs["kernel_w"])
    stride = (attrs["stride_h"], attrs["stride_w"])
    h, w = x.shape[1:3]
    if attrs["padding"] == "SAME":
        ph = same_padding_amounts(h, kernel[0], stride[0])
        pw = same_padding_amounts(w, kernel[1], stride[1])
        x = np.pad(x, ((0, 0), ph, pw, (0, 0)), mode="constant", constant_values=pad_value)
    oh, ow = conv_output_hw((h, w), kernel, stride, attrs["padding"])
    rows = np.arange(oh)[:, None] * stride[0] + np.arange(kernel[0])[None, :]
    cols = np.arange(ow)[:, None] * stride[1] + np.arange(kernel[1])[None, :]
    return x[:, rows[:, None, :, None], cols[None, :, None, :], :]


def _valid_counts(attrs, hw):
    ones = np.ones((1, *hw, 1), dtype=np.int64)
    return fancy_patches(ones, attrs, 0).sum(axis=(3, 4))[0]  # (Ho, Wo, 1)


def reference_window_f32(node, x, w=None, b=None):
    """A Float32 windowed node's output, computed as before strided views."""
    if node.kind == OpKind.MAX_POOL2D:
        return fancy_patches(x, node.attrs, -np.inf).max(axis=(3, 4)).astype(np.float32)
    if node.kind == OpKind.AVG_POOL2D:
        total = fancy_patches(x, node.attrs, 0.0).astype(np.float64).sum(axis=(3, 4))
        return (total / _valid_counts(node.attrs, x.shape[1:3])).astype(np.float32)
    patches = fancy_patches(x, node.attrs, 0.0)
    if node.kind == OpKind.CONV2D:
        w_mat = w.reshape(w.shape[0], -1)
        cols = patches.reshape(-1, w_mat.shape[1])
        out = np.einsum("xk,ok->xo", cols, w_mat, optimize=False)
        out = out.reshape(patches.shape[:3] + (w_mat.shape[0],))
    else:
        out = np.einsum("nhwijc,ijc->nhwc", patches, w[0], optimize=False)
    return (out + b).astype(np.float32)


def reference_window_int8(graph, codes):
    """Output codes of a quantized graph's one windowed node, from its input
    codes, with the accumulators computed in int64 over gathered windows."""
    node = graph.nodes[0]
    q_in = graph.tensors[node.inputs[0]].quant
    q_out = graph.tensors[node.outputs[0]].quant
    if node.kind == OpKind.MAX_POOL2D:
        return fancy_patches(codes, node.attrs, QMIN).max(axis=(3, 4))
    centered = fancy_patches(codes.astype(np.int64) - q_in.zero_point, node.attrs, 0)
    if node.kind == OpKind.AVG_POOL2D:
        counts = _valid_counts(node.attrs, codes.shape[1:3])
        sig, shift = np.vectorize(
            lambda n: fixed_point_multiplier(q_in.scale / (float(n) * q_out.scale))
        )(counts)
        acc = centered.sum(axis=(3, 4))
    else:
        w = graph.tensors[node.inputs[1]].data.astype(np.int64)
        if node.kind == OpKind.CONV2D:
            acc = np.tensordot(centered, w, axes=([3, 4, 5], [1, 2, 3]))
        else:
            acc = np.einsum("nhwijc,ijc->nhwc", centered, w[0], optimize=False)
        acc = acc + graph.tensors[node.inputs[2]].data.astype(np.int64)
        sig = np.asarray(node.attrs["requant"]["significand"], dtype=np.int64)
        shift = np.asarray(node.attrs["requant"]["shift"], dtype=np.int64)
    q = requantize_fixed_point(acc, sig, shift) + q_out.zero_point
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def naive_depthwise_acc(centered, w):
    """VALID stride-1 depthwise accumulators by direct loops over Python ints."""
    b, h, wdt, c = centered.shape
    _, kh, kw, _ = w.shape
    out = np.zeros((b, h - kh + 1, wdt - kw + 1, c), dtype=np.int64)
    for n, oy, ox, ch in itertools.product(*map(range, out.shape)):
        out[n, oy, ox, ch] = sum(
            int(centered[n, oy + iy, ox + ix, ch]) * int(w[0, iy, ix, ch])
            for iy in range(kh) for ix in range(kw)
        )
    return out


# ---------------------------------------------------------------------------
# brute-force oracles


def reference_topological_order(graph):
    """Reference for `graph.topological_order`'s heap: Kahn's algorithm that
    re-sorts the ready list by node position at every step, so the smallest
    original position among ready nodes goes first.
    """
    producers = graph.producer_map()
    indeg = {}
    dependents = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        deps = {producers[t].id for t in n.inputs if t in producers}
        indeg[n.id] = len(deps)
        for d in deps:
            dependents[d].append(n.id)

    order = []
    ready = [n.id for n in graph.nodes if indeg[n.id] == 0]
    position = {n.id: i for i, n in enumerate(graph.nodes)}
    while ready:
        ready.sort(key=lambda nid: position[nid])
        nid = ready.pop(0)
        order.append(nid)
        for dep in dependents[nid]:
            indeg[dep] -= 1
            if indeg[dep] == 0:
                ready.append(dep)
    if len(order) != len(graph.nodes):
        raise ValueError("dependency cycle among nodes")
    return order


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


def graphs_equal(a: GraphIR, b: GraphIR) -> bool:
    """Structural identity: same nodes/attrs/io and bit-identical constants."""
    if a.name != b.name or a.graph_inputs != b.graph_inputs or a.graph_outputs != b.graph_outputs:
        return False
    if len(a.nodes) != len(b.nodes) or set(a.tensors) != set(b.tensors):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if (na.id, na.kind, na.attrs, na.inputs, na.outputs) != (
            nb.id, nb.kind, nb.attrs, nb.inputs, nb.outputs,
        ):
            return False
    for tid, ta in a.tensors.items():
        tb = b.tensors[tid]
        if (ta.shape, ta.dtype, ta.kind) != (tb.shape, tb.dtype, tb.kind):
            return False
        if (ta.quant is None) != (tb.quant is None):
            return False
        if ta.quant is not None and not ta.quant.equals(tb.quant):
            return False
        if (ta.data is None) != (tb.data is None):
            return False
        if ta.data is not None and ta.data.tobytes() != tb.data.tobytes():
            return False
    return True


def build_prune_plan(graph: GraphIR, schedule=DEFAULT_SCHEDULE) -> PrunePlan:
    """All stages at once (no fine-tuning between: weights never change)."""
    plan = new_plan(graph, schedule)
    for _ in plan.schedule:
        plan = plan_next_stage(graph, plan)
    return plan
