"""Artifact files: every one is written by `write_files`, atomically.

`json_text` and `csv_text` hold the JSON and CSV layouts; `read_json`,
`read_csv` and `_field` name the file, line or key of malformed input.
`json_text` writes the bytes of `json.dumps(indent=2, sort_keys=True)`
plus a newline, for dicts with str keys, lists, tuples, records, str,
int, float, bool and None of exactly those types; it refuses anything
else, and NaN and Infinity, which `read_json` would not read back.
Records (profiles, link budgets, deployment plans with their timeline,
memory slots and cost estimates) are read by `decode`, the one record
reader, and written by `json_text` as an object of their fields: a
record's dataclass is the one statement of its JSON form. A record
nested in a record, in a list or under the keys of an object is named
by its path, such as
`plan.json memory_plan tensors[in]` or `timeline[0]`; `first_difference`
names where two records differ by the same paths.
A manifest's `quant` is a `QuantParams` record that `json_text` writes,
but the strict `_quant_from_json` reads it: `decode` would let its
defaulted keys go missing, and cannot check a number or a list per
granularity.
Models and checkpoints are a `<name>.json` manifest + `<name>.bin` blob
(`pair_paths`, `write_pair`); the manifest gives each constant tensor's
blob offset/length. `pack_blob` concatenates the payloads little-endian
in sorted tensor-id order and `read_blob` reads one back, bounds-checked.
Dataset samples are raw tensor files of that codec (`tensor_file`,
`read_tensor_file`). Float32 is 4-byte IEEE-754, Int8 signed bytes, Int32
little-endian. Field names are part of the contract (README "File formats").
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import MISSING, fields, is_dataclass
from json.encoder import encode_basestring_ascii
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
from .quantization import WEIGHT_CHANNEL_AXIS, bias_params, requant_attrs

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


def tensor_file(path: str | Path, data, dtype: DType) -> tuple[str | Path, bytes]:
    """`(path, payload)` for `write_files`: a raw tensor file of `data` in `dtype`."""
    return path, pack_tensor(data, dtype)


def read_tensor_file(path: str | Path, dtype: DType, shape, error: type[Exception]) -> np.ndarray:
    """The array of `shape` a raw tensor file holds, or an `error` naming
    the file when its size is not that of `shape` in `dtype`."""
    raw = Path(path).read_bytes()
    size = int(np.prod(shape)) * dtype.size_bytes
    if len(raw) != size:
        raise error(f"{path}: {len(raw)} bytes, shape {shape} needs {size}")
    return unpack_tensor(raw, dtype, shape)


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
                "quant": t.quant,
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
    """The JSON layout of every artifact: the text of
    `json.dumps(obj, indent=2, sort_keys=True)` and a newline.

    `obj` is built of dicts with str keys, lists, tuples (written as
    arrays), dataclass records (written as an object of their fields),
    str, int, float, bool and None, each of exactly that type. Anything
    else raises TypeError; NaN and Infinity, which JSON has no number
    for, raise ValueError.
    """
    return _json(obj, "\n") + "\n"


def _finite(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r} has no JSON form")
    return float.__repr__(value)


# A leaf's text by its exact type: a bool is not an int, nor a str subclass a str.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """A record class's field names, sorted; TypeError for any other class."""
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return tuple(sorted(f.name for f in fields(cls)))


def _json(value, newline: str) -> str:
    """`value`'s JSON text, its lines continued by `newline` (a newline and
    the indent of `value`'s own level). A container turns leaves into text
    by `_LEAVES` itself, so only containers recurse."""
    kind = type(value)
    inner = newline + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = []
        for item in value:
            leaf = _LEAVES.get(type(item))
            items.append(leaf(item) if leaf is not None else _json(item, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        pairs = sorted(value.items())  # keys are unique, so values are never compared
    else:
        leaf = _LEAVES.get(kind)
        if leaf is not None:
            return leaf(value)
        pairs = [(name, getattr(value, name)) for name in _field_names(kind)]
    if not pairs:
        return "{}"
    items = []
    for name, item in pairs:
        leaf = _LEAVES.get(type(item))
        text = leaf(item) if leaf is not None else _json(item, inner)
        items.append(encode_basestring_ascii(name) + ": " + text)
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def write_json(path: str | Path, obj) -> None:
    write_files([(path, json_text(obj))])


def csv_text(rows: Iterable[Iterable]) -> str:
    """Rows as the csv module writes them, CRLF line ends included."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json(path: str | Path, error: type[Exception]):
    """A JSON file's value; `error` names the file if it does not decode
    or holds NaN, Infinity, -Infinity or a number that overflows a float
    (1e999), none of which is a finite number."""
    try:
        return json.loads(Path(path).read_bytes(), parse_constant=_finite, parse_float=_finite)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, _finite
        raise error(f"{path}: malformed JSON: {exc}") from None


def read_csv(
    path: str | Path, columns: dict[str, Callable], error: type[Exception]
) -> list[tuple[int, dict]]:
    """The rows of a CSV file with a header line, as (line number, dict of
    `columns`) pairs.

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
            rows.append((reader.line_num, out))
    return rows


NUMBER = (int, float)

# The JSON kind of a dataclass field annotation: configs and `decode`d
# records are read by annotation through `_field`.
KINDS = {"str": str, "int": int, "float": NUMBER, "float | None": (*NUMBER, type(None)),
         "bool": bool, "dict": dict, "dict[str, str]": {str: str}, "dict[str, int]": {str: int},
         "list[float]": [NUMBER], "list[list[str]]": [[str]],
         "list[dict[str, list[int]]]": [{str: [int]}], "tuple[str, ...]": [str]}


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
    `[key]` appended for an entry of a list or dict. A ValueError of the
    record's own checks becomes an `error` naming `where`.
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
            value = _records(_type_hints(cls)[f.name], value, where, f.name, error)
        values[f.name] = value
    try:
        return cls(**values)
    except ValueError as exc:  # an `error` of the record's own checks passes unchanged
        raise exc if isinstance(exc, error) else error(f"{where}: {exc}") from None


def first_difference(have, want, path: str = "") -> str | None:
    """Where record `have` first differs from `want`, or None when they are equal.

    Records compare field by field, lists and tuples first by length, dicts
    key by key (`want`'s keys first) and the rest by type and `==`, as JSON
    texts do (39.0 is not 39). The answer names the value by its path, as
    `decode` does, with both sides: `timeline[3] start_us: 5400.0 != 400.0`.
    """
    if is_dataclass(have) and type(have) is type(want):
        pairs = [(f"{path} {f.name}".lstrip(), getattr(have, f.name), getattr(want, f.name))
                 for f in fields(want)]
    elif isinstance(want, (list, tuple)) and type(have) is type(want):
        if len(have) != len(want):
            return f"{path}: length {len(have)} != {len(want)}"
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(have, want))]
    elif isinstance(have, dict) and isinstance(want, dict):
        pairs = [(f"{path}[{key}]", have.get(key, _ABSENT), want.get(key, _ABSENT))
                 for key in [*want, *(key for key in have if key not in want)]]
    else:
        same = type(have) is type(want) and have == want
        return None if same else f"{path}: {_brief(have)} != {_brief(want)}"
    diffs = (first_difference(a, b, where) for where, a, b in pairs)
    return next((diff for diff in diffs if diff is not None), None)


_ABSENT = object()  # the value of a dict key one side lacks


def _brief(value) -> str:
    if value is _ABSENT:
        return "absent"
    container = is_dataclass(value) or isinstance(value, (list, tuple, dict))
    return f"a {type(value).__name__}" if container else repr(value)


@functools.cache
def _type_hints(cls) -> dict:
    """`cls`'s resolved field annotations, computed once per record class."""
    return get_type_hints(cls)


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
    if graph.is_quantized():
        _check_derived(graph)
    return graph


def _check_derived(graph: GraphIR) -> None:
    """Refuse requant tables or bias params other than those `quantization`
    derives from the scales, naming the first entry that differs."""
    for node in graph.nodes:
        if any(graph.tensors[tid].quant is None for tid in (*node.inputs[:2], *node.outputs)):
            continue  # no scales to derive from; `executor.prepare` refuses the node
        try:
            pairs = [(key, node.attrs.get(key, _ABSENT), want)
                     for key, want in requant_attrs(graph, node).items()]
        except ValueError as exc:  # a multiplier or bias scale out of range
            raise ModelFormatError(f"node {node.id}: {exc}") from None
        if node.kind in WEIGHT_CHANNEL_AXIS and len(node.inputs) == 3:
            bias = graph.tensors[node.inputs[2]]
            pairs.append((f"bias {bias.id}", bias.quant, bias_params(graph, node)))
        for key, have, want in pairs:
            diff = first_difference(have, want, f"node {node.id} {key}")
            if diff is not None:
                raise ModelFormatError(diff)
