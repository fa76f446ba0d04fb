"""Output checks that do not go through tinydeploy's own code paths.

Models are read straight from the manifest + blob pair. The Float32
reference runs in float64 with explicit loops over kernel offsets; the
INT8 reference uses exact integers from the manifest's `significand` /
`shift` tables, rounding half away from zero. Deployment plans are
checked for dependency order, one group per resource at a time, and
disjoint arena blocks for tensors that are live at the same time.

Every check returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

F32_TOLERANCE = 1e-5
QMIN, QMAX = -128, 127
_DTYPES = {"float32": "<f4", "int8": "i1", "int32": "<i4"}


# ---------------------------------------------------------------------------
# inputs


def read_manifest(path: str | Path) -> dict:
    """The manifest as a dict; each tensor entry gains "data" (None or an array)."""
    path = Path(path)
    manifest = json.loads(path.read_text())
    blob = path.with_suffix(".bin").read_bytes()
    for entry in manifest["tensors"].values():
        loc = entry["blob"]
        entry["data"] = None
        if loc is not None:
            raw = blob[loc["offset"]:loc["offset"] + loc["length"]]
            entry["data"] = np.frombuffer(raw, dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"])
    return manifest


def read_dataset(path: str | Path) -> list[tuple[str, np.ndarray, int]]:
    path = Path(path)
    shape = tuple(json.loads((path / "meta.json").read_text())["shape"])
    with open(path / "index.csv", newline="") as fh:
        return [
            (row["sample_id"],
             np.frombuffer((path / row["file"]).read_bytes(), dtype="<f4").reshape(shape),
             int(row["label"]))
            for row in csv.DictReader(fh)
        ]


def read_records(path: str | Path) -> dict[str, tuple[int, float]]:
    with open(path, newline="") as fh:
        return {
            row["sample_id"]: (int(row["predicted_class"]), float(row["confidence"]))
            for row in csv.DictReader(fh)
        }


def pick_subset(n: int, seed: int, k: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC1E]))
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


# ---------------------------------------------------------------------------
# shared window loop


def _pad_amounts(size: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    if padding == "VALID":
        return 0, 0
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _offsets(x: np.ndarray, attrs: dict, fill):
    """Yield (i, j, view) for every kernel offset; view is (oh, ow, C)."""
    kh, kw = attrs["kernel_h"], attrs["kernel_w"]
    sh, sw = attrs["stride_h"], attrs["stride_w"]
    h, w = x.shape[:2]
    top, bottom = _pad_amounts(h, kh, sh, attrs["padding"])
    left, right = _pad_amounts(w, kw, sw, attrs["padding"])
    xp = np.full((h + top + bottom, w + left + right) + x.shape[2:], fill, dtype=x.dtype)
    xp[top:top + h, left:left + w] = x
    oh = (xp.shape[0] - kh) // sh + 1
    ow = (xp.shape[1] - kw) // sw + 1
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[i:i + sh * (oh - 1) + 1:sh, j:j + sw * (ow - 1) + 1:sw]


def _window_sum(x: np.ndarray, attrs: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sum of in-bounds cells per window and the number of those cells."""
    total = sum(view for _, _, view in _offsets(x, attrs, 0))
    ones = np.ones(x.shape[:2] + (1,), dtype=np.int64)
    counts = sum(view for _, _, view in _offsets(ones, attrs, 0))
    return total, counts


def _topological(manifest: dict) -> list[dict]:
    ready = set(manifest["graph_inputs"]) | {
        tid for tid, t in manifest["tensors"].items() if t["data"] is not None
    }
    pending, order = list(manifest["nodes"]), []
    while pending:
        node = next(n for n in pending if all(t in ready for t in n["inputs"]))
        pending.remove(node)
        order.append(node)
        ready.update(node["outputs"])
    return order


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Float32 reference in float64


def forward_f64(manifest: dict, x: np.ndarray) -> np.ndarray:
    """Class probabilities of one (1, H, W, C) sample, in float64."""
    tensors = manifest["tensors"]
    const = {tid: np.asarray(t["data"], dtype=np.float64)
             for tid, t in tensors.items() if t["data"] is not None}
    env = {manifest["graph_inputs"][0]: np.asarray(x, dtype=np.float64)[0]}
    for node in _topological(manifest):
        kind, attrs, ins = node["kind"], node["attrs"], node["inputs"]
        a = env.get(ins[0])
        if kind in ("Conv2D", "DepthwiseConv2D"):
            w = const[ins[1]]
            out = 0.0
            for i, j, view in _offsets(a, attrs, 0.0):
                out = out + (view @ w[:, i, j, :].T if kind == "Conv2D" else view * w[0, i, j, :])
            y = out + (const[ins[2]] if len(ins) == 3 else 0.0)
        elif kind == "FullyConnected":
            y = const[ins[1]] @ a + (const[ins[2]] if len(ins) == 3 else 0.0)
        elif kind == "ReLU":
            y = np.maximum(a, 0.0)
        elif kind == "MaxPool2D":
            y = np.max([view for _, _, view in _offsets(a, attrs, -np.inf)], axis=0)
        elif kind == "AvgPool2D":
            total, counts = _window_sum(a, attrs)
            y = total / counts
        elif kind == "Flatten":
            y = a.reshape(-1)
        elif kind == "Softmax":
            y = _softmax(a)
        else:
            raise ValueError(f"reference has no {kind}")
        env[node["outputs"][0]] = y
    return env[manifest["graph_outputs"][0]]


# ---------------------------------------------------------------------------
# INT8 reference in exact integers


def _round_half_away(num: np.ndarray, shift) -> np.ndarray:
    """round(num / 2**shift), ties away from zero, as an exact integer."""
    mag = (2 * np.abs(num) + (1 << shift)) // (1 << (shift + 1))
    return np.sign(num) * mag


def _requant(acc: np.ndarray, significand, shift) -> np.ndarray:
    sig = np.asarray(significand, dtype=object)
    sh = np.asarray(shift, dtype=object)
    prod = acc.astype(object) * sig
    out = np.empty(prod.shape, dtype=object)
    # Per-channel tables broadcast along the last axis.
    for c in range(prod.shape[-1]):
        s = int(sh[c] if sh.ndim else sh)
        out[..., c] = _round_half_away(prod[..., c], s)
    return out.astype(np.int64)


def _multiplier(m: float) -> tuple[int, int]:
    """(significand, shift) with m ~= significand / 2**shift, 31-bit significand."""
    mant, exp = math.frexp(m)
    sig = round(mant * (1 << 31))
    if sig == 1 << 31:
        sig //= 2
        exp += 1
    return sig, 31 - exp


def _quant(entry: dict) -> tuple[float, int]:
    q = entry["quant"]
    return q["scale"], q["zero_point"]


def forward_int8(manifest: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(INT8 logit codes entering Softmax, float32 probabilities) of one sample."""
    tensors = manifest["tensors"]
    s_in, z_in = _quant(tensors[manifest["graph_inputs"][0]])
    r = np.asarray(x, dtype=np.float64)[0] / s_in
    q = np.sign(r) * np.floor(np.abs(r) + 0.5) + z_in
    env = {manifest["graph_inputs"][0]: np.clip(q, QMIN, QMAX).astype(np.int64)}
    logits = None
    for node in _topological(manifest):
        kind, attrs, ins = node["kind"], node["attrs"], node["inputs"]
        a = env[ins[0]]
        out_entry = tensors[node["outputs"][0]]
        if kind in ("Conv2D", "DepthwiseConv2D", "FullyConnected"):
            _, zx = _quant(tensors[ins[0]])
            w = tensors[ins[1]]["data"].astype(np.int64)
            centered = a - zx
            if kind == "FullyConnected":
                acc = w @ centered
            else:
                acc = 0
                for i, j, view in _offsets(centered, attrs, 0):
                    acc = acc + (view @ w[:, i, j, :].T if kind == "Conv2D" else view * w[0, i, j, :])
            if len(ins) == 3:
                acc = acc + tensors[ins[2]]["data"].astype(np.int64)
            rq = attrs["requant"]
            y = _requant(np.asarray(acc), rq["significand"], rq["shift"]) + _quant(out_entry)[1]
            y = np.clip(y, QMIN, QMAX)
        elif kind == "ReLU":
            y = np.maximum(a, _quant(tensors[ins[0]])[1])
        elif kind == "MaxPool2D":
            y = np.max([view for _, _, view in _offsets(a, attrs, QMIN)], axis=0)
        elif kind == "AvgPool2D":
            sx, zx = _quant(tensors[ins[0]])
            so, zo = _quant(out_entry)
            total, counts = _window_sum(a - zx, attrs)
            y = np.zeros_like(total)
            for count in np.unique(counts):
                sig, shift = _multiplier(sx / (float(count) * so))
                cells = counts[..., 0] == count
                y[cells] = _requant(total[cells], sig, shift)
            y = np.clip(y + zo, QMIN, QMAX)
        elif kind == "Flatten":
            y = a.reshape(-1)
        elif kind == "Softmax":
            logits = a
            scale, zp = _quant(tensors[ins[0]])
            real = (a.astype(np.float64) - zp) * scale
            y = _softmax(real[None, :]).astype(np.float32)[0]
        else:
            raise ValueError(f"INT8 reference has no {kind}")
        env[node["outputs"][0]] = y
    return logits, env[manifest["graph_outputs"][0]]


def check_model(
    model_path: str | Path,
    samples: list[tuple[str, np.ndarray, int]],
    records: dict[str, tuple[int, float]],
    program_logits: dict[str, np.ndarray] | None = None,
) -> list[str]:
    """Compare a model's recorded predictions on `samples` with the reference.

    Float32 models: the recorded class must be the reference's top class
    (or tie with it within the tolerance) and the confidence must match
    within F32_TOLERANCE. INT8 models: the program's logit codes, when
    given, and the recorded class and confidence must match bit for bit.
    """
    manifest = read_manifest(model_path)
    name = Path(model_path).name
    failures = []
    quantized = any(t["dtype"] == "int8" for t in manifest["tensors"].values())
    for sample_id, x, _ in samples:
        if sample_id not in records:
            failures.append(f"{name} {sample_id}: no record")
            continue
        predicted, confidence = records[sample_id]
        if quantized:
            logits, probs = forward_int8(manifest, x)
            if program_logits is not None and not np.array_equal(
                np.asarray(program_logits[sample_id], dtype=np.int64).reshape(-1), logits
            ):
                failures.append(f"{name} {sample_id}: INT8 logits differ from the reference")
            expected = int(np.argmax(probs))
            if predicted != expected or confidence != float(probs[expected]):
                failures.append(
                    f"{name} {sample_id}: recorded ({predicted}, {confidence!r}) != "
                    f"reference ({expected}, {float(probs[expected])!r})"
                )
        else:
            probs = forward_f64(manifest, x)
            top = float(probs.max())
            if not 0 <= predicted < len(probs) or probs[predicted] < top - F32_TOLERANCE:
                failures.append(f"{name} {sample_id}: class {predicted} is not the reference top class")
            elif abs(confidence - float(probs[predicted])) > F32_TOLERANCE:
                failures.append(
                    f"{name} {sample_id}: confidence {confidence!r} differs from reference "
                    f"{float(probs[predicted])!r}"
                )
    return failures


# ---------------------------------------------------------------------------
# deployment plans

_EPS_US = 1e-6


def check_plan(model_path: str | Path, plan: dict, profile: dict) -> list[str]:
    """Dependency order, one group per resource at a time, disjoint live blocks."""
    manifest = read_manifest(model_path)
    tensors = manifest["tensors"]
    name = f"{Path(model_path).name}/{plan['profile']}"
    failures = []

    group_of: dict[str, str] = {}
    for group in plan["fused_groups"]:
        for nid in group:
            if nid in group_of:
                failures.append(f"{name}: node {nid} in two groups")
            group_of[nid] = "+".join(group)
    node_ids = {n["id"] for n in manifest["nodes"]}
    if set(group_of) != node_ids:
        failures.append(f"{name}: fused groups do not cover the graph's nodes")
        return failures

    entries = {e["group"]: e for e in plan["timeline"]}
    if set(entries) != set(group_of.values()) or len(entries) != len(plan["timeline"]):
        failures.append(f"{name}: timeline does not hold every group once")
        return failures
    for node in manifest["nodes"]:
        target = plan["assignment"][node["id"]]
        if target != entries[group_of[node["id"]]]["target"]:
            failures.append(f"{name}: node {node['id']} runs off its group's target")
        if target == "NPU" and node["kind"] not in profile["npu_supported_ops"]:
            failures.append(f"{name}: {node['kind']} {node['id']} on the NPU")

    producer = {t: n["id"] for n in manifest["nodes"] for t in n["outputs"]}
    consumers: dict[str, list[str]] = {}
    for node in manifest["nodes"]:
        gid = group_of[node["id"]]
        for tid in node["inputs"]:
            consumers.setdefault(tid, []).append(node["id"])
            if tid not in producer or group_of[producer[tid]] == gid:
                continue
            dep = entries[group_of[producer[tid]]]
            ready = dep["end_us"]
            if dep["target"] != entries[gid]["target"]:
                ready += profile["transfer_latency_us"]
            if entries[gid]["start_us"] < ready - _EPS_US:
                failures.append(f"{name}: group {gid} starts before its input {tid} is ready")

    for target in ("CPU", "NPU"):
        spans = sorted((e["start_us"], e["end_us"]) for e in plan["timeline"] if e["target"] == target)
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0 - _EPS_US:
                failures.append(f"{name}: two groups on the {target} at once ({s1} < {e0})")

    makespan = max(e["end_us"] for e in plan["timeline"])
    blocks = plan["memory_plan"]["tensors"]
    live = {}
    for tid, t in tensors.items():
        if t["data"] is not None:
            continue
        users = consumers.get(tid, [])
        inside = tid in producer and users and tid not in manifest["graph_outputs"] and all(
            group_of[u] == group_of[producer[tid]] for u in users
        )
        if inside and len(users) == 1:
            continue
        if tid not in blocks:
            failures.append(f"{name}: tensor {tid} has no arena block")
            continue
        size = math.prod(t["shape"]) * np.dtype(_DTYPES[t["dtype"]]).itemsize
        if blocks[tid]["size"] != size:
            failures.append(f"{name}: tensor {tid} block size {blocks[tid]['size']} != {size}")
        start = entries[group_of[producer[tid]]]["start_us"] if tid in producer else 0.0
        end = max((entries[group_of[u]]["end_us"] for u in users), default=start)
        if tid in manifest["graph_outputs"]:
            end = makespan
        live[tid] = (start, end)
    items = sorted((tid, blocks[tid]["offset"], blocks[tid]["size"]) for tid in live)
    for k, (ta, oa, sa) in enumerate(items):
        if oa + sa > plan["memory_plan"]["arena_peak_bytes"]:
            failures.append(f"{name}: tensor {ta} ends past the arena peak")
        for tb, ob, sb in items[k + 1:]:
            (s_a, e_a), (s_b, e_b) = live[ta], live[tb]
            if s_a < e_b and s_b < e_a and oa < ob + sb and ob < oa + sa:
                failures.append(f"{name}: live tensors {ta} and {tb} share arena bytes")
    return failures
