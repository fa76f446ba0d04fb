"""On-disk model format: `<name>.json` manifest + `<name>.bin` weight blob.

The manifest holds nodes, tensors, attributes and per-tensor blob
offsets/lengths; the blob is the little-endian concatenation of constant
tensor payloads in manifest order. Float32 is 4-byte IEEE-754, Int8 signed
bytes, Int32 little-endian. Field names are part of the contract (see
README "Model file format").
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    TensorKind,
    TensorSpec,
    validate,
)

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Malformed manifest or blob; message names the offending location."""


def pack_tensor(data, dtype: DType) -> bytes:
    """A constant tensor's blob payload: its elements in `dtype`, little-endian."""
    raw = np.ascontiguousarray(data, dtype=dtype.np_dtype)
    return raw.astype(raw.dtype.newbyteorder("<")).tobytes()


def unpack_tensor(raw: bytes, dtype: DType, shape) -> np.ndarray:
    """Inverse of pack_tensor: a native-order array of `shape`."""
    data = np.frombuffer(raw, dtype=np.dtype(dtype.value).newbyteorder("<"))
    return data.astype(dtype.np_dtype).reshape(shape)


def _quant_to_json(qp: QuantParams | None) -> dict | None:
    if qp is None:
        return None
    if qp.granularity == "per_channel":
        return {
            "scale": [float(s) for s in np.asarray(qp.scale).ravel()],
            "zero_point": [int(z) for z in np.asarray(qp.zero_point).ravel()],
            "granularity": "per_channel",
            "axis": int(qp.axis),
            "symmetric": bool(qp.symmetric),
        }
    return {
        "scale": float(qp.scale),
        "zero_point": int(qp.zero_point),
        "granularity": "per_tensor",
        "axis": None,
        "symmetric": bool(qp.symmetric),
    }


def _quant_from_json(obj: dict | None, where: str) -> QuantParams | None:
    if obj is None:
        return None
    try:
        return QuantParams(
            scale=obj["scale"],
            zero_point=obj["zero_point"],
            granularity=obj["granularity"],
            axis=obj.get("axis"),
            symmetric=bool(obj.get("symmetric", False)),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"{where}: bad quantization params: {exc}") from None


def save_model(graph: GraphIR, path: str | Path) -> tuple[Path, Path]:
    """Write `<path>.json` + `<path>.bin`; returns both paths.

    `path` may omit the extension or end in `.json`.
    """
    report = validate(graph)
    if not report.ok:
        raise ModelFormatError("refusing to save invalid graph: " + "; ".join(report.violations))

    path = Path(path)
    if path.suffix == ".json":
        path = path.with_suffix("")
    manifest_path = path.with_suffix(".json")
    blob_path = path.with_suffix(".bin")

    # Canonical layout: blob payloads in sorted tensor-id order, so saving
    # is a pure function of graph content (load+save is byte-stable).
    blob = bytearray()
    tensors_json = {}
    for tid, t in sorted(graph.tensors.items()):
        entry = {
            "shape": list(t.shape),
            "dtype": t.dtype.value,
            "kind": t.kind.value,
            "quant": _quant_to_json(t.quant),
            "blob": None,
        }
        if t.data is not None:
            payload = pack_tensor(t.data, t.dtype)
            entry["blob"] = {"offset": len(blob), "length": len(payload)}
            blob.extend(payload)
        tensors_json[tid] = entry

    manifest = {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "graph_inputs": list(graph.graph_inputs),
        "graph_outputs": list(graph.graph_outputs),
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "attrs": n.attrs,
                "inputs": list(n.inputs),
                "outputs": list(n.outputs),
            }
            for n in graph.nodes
        ],
        "tensors": tensors_json,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    blob_path.write_bytes(bytes(blob))
    return manifest_path, blob_path


def _field(obj, key: str, where: str):
    """obj[key] from a manifest object, or a ModelFormatError naming both."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ModelFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def load_model(path: str | Path) -> GraphIR:
    """Load a manifest + blob pair saved by save_model."""
    path = Path(path)
    if path.suffix == ".json":
        path = path.with_suffix("")
    manifest_path = path.with_suffix(".json")
    blob_path = path.with_suffix(".bin")

    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{manifest_path}: malformed manifest: {exc}") from None
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{manifest_path}: unsupported format_version {version!r}")
    blob = blob_path.read_bytes() if blob_path.exists() else b""

    top = str(manifest_path)
    tensors: dict[str, TensorSpec] = {}
    for tid, entry in _field(manifest, "tensors", top).items():
        where = f"tensor {tid}"
        dtype_name, kind_name = _field(entry, "dtype", where), _field(entry, "kind", where)
        try:
            dtype = DType(dtype_name)
        except ValueError:
            raise ModelFormatError(f"{where}: unsupported dtype {dtype_name!r}") from None
        try:
            kind = TensorKind(kind_name)
        except ValueError:
            raise ModelFormatError(f"{where}: unsupported kind {kind_name!r}") from None
        shape = tuple(int(d) for d in _field(entry, "shape", where))
        data = None
        loc = entry.get("blob")
        if loc is not None:
            offset = _field(loc, "offset", f"{where} blob")
            length = _field(loc, "length", f"{where} blob")
            expected = int(np.prod(shape)) * dtype.size_bytes
            if length != expected:
                raise ModelFormatError(
                    f"{where}: blob length mismatch (manifest {length}, shape implies {expected})"
                )
            if offset + length > len(blob):
                raise ModelFormatError(
                    f"{where}: blob length mismatch (needs bytes up to "
                    f"{offset + length}, blob has {len(blob)})"
                )
            data = unpack_tensor(blob[offset:offset + length], dtype, shape)
        tensors[tid] = TensorSpec(
            id=tid,
            shape=shape,
            dtype=dtype,
            kind=kind,
            quant=_quant_from_json(entry.get("quant"), where),
            data=data,
        )

    nodes = []
    for i, entry in enumerate(_field(manifest, "nodes", top)):
        nid = _field(entry, "id", f"node {i}")
        where = f"node {nid}"
        kind_name = _field(entry, "kind", where)
        try:
            kind = OpKind(kind_name)
        except ValueError:
            raise ModelFormatError(f"{where}: unsupported op kind {kind_name!r}") from None
        nodes.append(
            OpNode(
                id=nid,
                kind=kind,
                attrs=dict(entry.get("attrs", {})),
                inputs=list(_field(entry, "inputs", where)),
                outputs=list(_field(entry, "outputs", where)),
            )
        )

    graph = GraphIR(
        name=_field(manifest, "name", top),
        nodes=nodes,
        tensors=tensors,
        graph_inputs=list(_field(manifest, "graph_inputs", top)),
        graph_outputs=list(_field(manifest, "graph_outputs", top)),
    )
    report = validate(graph)
    if not report.ok:
        raise ModelFormatError(f"{manifest_path}: invalid graph: " + "; ".join(report.violations))
    return graph


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
