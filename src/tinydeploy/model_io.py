"""Artifact files: every one is written by `write_files`, atomically.

`json_text` and `csv_text` hold the JSON and CSV layouts; `read_json`,
`read_csv` and `_field` name the file, line or key of malformed input.
Records (profiles, link budgets, deployment plans with their timeline,
memory slots and cost estimates) are read by `decode`, the one record
reader, and written with `dataclasses.asdict`: a record's dataclass is
the one statement of its JSON form. A record nested in a record, in a
list or under the keys of an object is named by its path, such as
`plan.json memory_plan tensors[in]` or `timeline[0]`.
Models and checkpoints are a `<name>.json` manifest + `<name>.bin` blob
(`pair_paths`, `write_pair`); the manifest gives each constant tensor's
blob offset/length. `pack_blob` concatenates the payloads little-endian
in sorted tensor-id order and `read_blob` reads one back, bounds-checked.
Float32 is 4-byte IEEE-754, Int8 signed bytes, Int32 little-endian. Field
names are part of the contract (see README "File formats").
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .graph import (
    DType,
    GraphIR,
    OpKind,
    OpNode,
    QuantParams,
    ShapeError,
    TensorKind,
    TensorSpec,
    infer_shapes,
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
    where = f"{where}: bad quantization params"
    granularity = _field(obj, "granularity", where, str)
    per_channel = granularity == "per_channel"
    scale = _field(obj, "scale", where, [NUMBER] if per_channel else NUMBER)
    zero_point = _field(obj, "zero_point", where, [int] if per_channel else int)
    axis = _field(obj, "axis", where, (int, type(None)))
    symmetric = _field(obj, "symmetric", where, bool)
    try:
        return QuantParams(scale, zero_point, granularity, axis, symmetric)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def pair_paths(path: str | Path) -> tuple[Path, Path]:
    """`<path>.json` and `<path>.bin`; `path` may omit the extension or end in `.json`."""
    path = Path(path)
    if path.suffix == ".json":
        path = path.with_suffix("")
    return path.with_suffix(".json"), path.with_suffix(".bin")


def pack_blob(tensors: dict[str, TensorSpec]) -> tuple[bytes, dict[str, dict]]:
    """The payloads of the tensors holding data, in sorted id order (so
    load+save is byte-stable), and each one's `{offset, length}` by id."""
    blob = bytearray()
    locations = {}
    for tid, t in sorted(tensors.items()):
        if t.data is not None:
            payload = pack_tensor(t.data, t.dtype)
            locations[tid] = {"offset": len(blob), "length": len(payload)}
            blob.extend(payload)
    return bytes(blob), locations


def read_blob(blob: bytes, location, dtype: DType, shape, where: str, error=ModelFormatError):
    """The array at `location` (`{offset, length}` ints) in `blob`, or an
    `error` naming `where` unless `length` fits `shape` and `dtype` and
    the bytes lie inside `blob`."""
    offset = _field(location, "offset", where, int, error)
    length = _field(location, "length", where, int, error)
    expected = int(np.prod(shape)) * dtype.size_bytes
    if length != expected:
        raise error(f"{where}: blob length mismatch (manifest {length}, shape implies {expected})")
    if offset < 0:
        raise error(f"{where}: negative blob offset {offset}")
    if offset + length > len(blob):
        raise error(
            f"{where}: blob length mismatch (needs bytes up to {offset + length}, "
            f"blob has {len(blob)})"
        )
    return unpack_tensor(blob[offset:offset + length], dtype, shape)


def write_pair(path: str | Path, manifest: dict, blob: bytes) -> tuple[Path, Path]:
    """Write a manifest+blob pair, the manifest renamed last; returns both paths."""
    manifest_path, blob_path = pair_paths(path)
    write_files([(blob_path, blob), (manifest_path, json_text(manifest))])
    return manifest_path, blob_path


def save_model(graph: GraphIR, path: str | Path) -> tuple[Path, Path]:
    """Write `<path>.json` + `<path>.bin`; returns both paths.

    `path` may omit the extension or end in `.json`.
    """
    report = validate(graph)
    if not report.ok:
        raise ModelFormatError("refusing to save invalid graph: " + "; ".join(report.violations))

    blob, locations = pack_blob(graph.tensors)
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
        "tensors": {
            tid: {
                "shape": list(t.shape),
                "dtype": t.dtype.value,
                "kind": t.kind.value,
                "quant": _quant_to_json(t.quant),
                "blob": locations.get(tid),
            }
            for tid, t in graph.tensors.items()
        },
    }
    return write_pair(path, manifest, blob)


def write_files(files: Iterable[tuple[str | Path, bytes | str]]) -> None:
    """Write each (path, payload) without leaving a half-written file behind.

    Every payload (a str is UTF-8 encoded) goes to a temporary file in its
    target directory; then they are renamed over the final names in the
    order given. No temporary file survives.
    """
    pending = []
    try:
        for final, payload in files:
            final = Path(final)
            tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
            pending.append((tmp, final))
            try:
                tmp.write_bytes(payload.encode() if isinstance(payload, str) else payload)
            except OSError as exc:
                if exc.filename is not None:
                    exc.filename = str(final)  # name the artifact, not its temporary file
                raise
        for tmp, final in pending:
            os.replace(tmp, final)
    finally:
        for tmp, _ in pending:
            tmp.unlink(missing_ok=True)


def json_text(obj) -> str:
    """The JSON layout of every artifact."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj) -> None:
    write_files([(path, json_text(obj))])


def csv_text(rows: Iterable[Iterable]) -> str:
    """Rows as the csv module writes them, CRLF line ends included."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def read_json(path: str | Path, error: type[Exception]):
    """A JSON file's value; `error` names the file if it does not decode."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: malformed JSON: {exc}") from None


def read_csv(
    path: str | Path, columns: dict[str, Callable], error: type[Exception]
) -> list[dict]:
    """The rows of a CSV file with a header line, as dicts of `columns`.

    Each column's value is converted by its function (str, int, float).
    A missing column, a short row or a value that does not convert raises
    `error` naming the file, the line and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [key for key in columns if key not in (reader.fieldnames or ())]
        if missing:
            raise error(f"{path}: missing column {missing[0]!r}")
        rows = []
        for row in reader:
            out = {}
            for key, convert in columns.items():
                value = row[key]
                if value is None:
                    raise error(f"{path} line {reader.line_num}: no value for column {key!r}")
                try:
                    out[key] = convert(value)
                except ValueError:
                    raise error(
                        f"{path} line {reader.line_num}: column {key!r}: "
                        f"{value!r} is not {convert.__name__}"
                    ) from None
            rows.append(out)
    return rows


NUMBER = (int, float)

# The JSON kind of a dataclass field annotation: configs and `decode`d
# records are read by annotation through `_field`.
KINDS = {"str": str, "int": int, "float": NUMBER, "bool": bool, "dict": dict,
         "dict[str, str]": {str: str}, "list[float]": [NUMBER], "list[list[str]]": [[str]],
         "tuple[str, ...]": [str]}


def _field(
    obj, key: str, where: str, kind=None, error: type[Exception] = ModelFormatError,
):
    """obj[key] from a JSON object, or an `error` naming both.

    With `kind` the value must also be of that JSON kind: a type (str,
    dict, list, int, bool), a tuple of types such as NUMBER, a
    one-element list such as [NUMBER] for a list whose every element is
    of that kind, or {str: kind} for an object whose every value is.
    JSON true/false is a bool only, and 3.0 is not an int.
    """
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise error(f"{where}: missing key {key!r}")
    if kind is not None:
        _check_kind(obj[key], kind, f"{where}: key {key!r}", error)
    return obj[key]


def decode(cls, obj, where: str, error: type[Exception]):
    """The `cls` dataclass record a JSON object holds.

    Every key must name a field, and a field without a default is
    required. Each value must be of its annotation's `KINDS` kind or hold
    records, decoded in turn: a record, `record | None` (null is None),
    or a list or `dict[str, ...]` of records. `error` names `where` and
    the key at fault; a nested record is `<where> <field>`, with `[i]` or
    `[key]` appended for an entry of a list or dict.
    """
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object, got {type(obj).__name__}")
    names = {f.name for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise error(f"{where}: unknown key {key!r}")
    values = {}
    for f in fields(cls):
        if f.name not in obj and (f.default is not MISSING or f.default_factory is not MISSING):
            continue
        value = _field(obj, f.name, where, KINDS.get(f.type), error)
        if f.type not in KINDS:
            value = _records(get_type_hints(cls)[f.name], value, where, f.name, error)
        values[f.name] = value
    return cls(**values)


def _records(hint, value, where: str, name: str, error: type[Exception]):
    """Field `name`'s `value` decoded as its records annotation `hint`."""
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:  # record | None
        return None if value is None else _records(args[0], value, where, name, error)
    if origin is list:
        _check_kind(value, list, f"{where}: key {name!r}", error)
        return [_records(args[0], v, where, f"{name}[{i}]", error) for i, v in enumerate(value)]
    if origin is dict:
        _check_kind(value, dict, f"{where}: key {name!r}", error)
        return {k: _records(args[1], v, where, f"{name}[{k}]", error) for k, v in value.items()}
    return decode(hint, value, f"{where} {name}", error)


def _check_kind(value, kind, what: str, error: type[Exception]) -> None:
    if isinstance(kind, (list, dict)):  # [element kind] or {str: value kind}
        _check_kind(value, type(kind), what, error)
        items = value.items() if isinstance(kind, dict) else enumerate(value)
        element = kind[str] if isinstance(kind, dict) else kind[0]
        for key, item in items:
            _check_kind(item, element, f"{what}[{key}]", error)
        return
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise error(f"{what} must be {names}, got {type(value).__name__}")


def load_model(path: str | Path) -> GraphIR:
    """Load a manifest + blob pair saved by save_model."""
    manifest_path, blob_path = pair_paths(path)
    manifest = read_json(manifest_path, ModelFormatError)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{manifest_path}: unsupported format_version {version!r}")
    blob = blob_path.read_bytes() if blob_path.exists() else b""

    top = str(manifest_path)
    tensors: dict[str, TensorSpec] = {}
    for tid, entry in _field(manifest, "tensors", top, dict).items():
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
        shape = tuple(_field(entry, "shape", where, [int]))
        loc = entry.get("blob")
        data = None if loc is None else read_blob(blob, loc, dtype, shape, f"{where} blob")
        tensors[tid] = TensorSpec(
            id=tid,
            shape=shape,
            dtype=dtype,
            kind=kind,
            quant=_quant_from_json(entry.get("quant"), where),
            data=data,
        )

    nodes = []
    for i, entry in enumerate(_field(manifest, "nodes", top, list)):
        nid = _field(entry, "id", f"node {i}", str)
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
                attrs=dict(_field(entry, "attrs", where, dict) if "attrs" in entry else {}),
                inputs=list(_field(entry, "inputs", where, list)),
                outputs=list(_field(entry, "outputs", where, list)),
            )
        )

    graph = GraphIR(
        name=_field(manifest, "name", top, str),
        nodes=nodes,
        tensors=tensors,
        graph_inputs=list(_field(manifest, "graph_inputs", top, list)),
        graph_outputs=list(_field(manifest, "graph_outputs", top, list)),
    )
    try:
        inferred, _ = infer_shapes(graph)  # validates the graph first
    except ShapeError as exc:
        raise ModelFormatError(f"{manifest_path}: {exc}") from None
    for tid, t in inferred.tensors.items():
        if t.shape != tensors[tid].shape:
            raise ModelFormatError(
                f"tensor {tid}: shape {list(tensors[tid].shape)} != inferred {list(t.shape)}"
            )
    return graph

