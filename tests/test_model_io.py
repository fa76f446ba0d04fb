from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import pytest

import tinydeploy
from graphutil import conv_relu_softmax, graphs_equal
from tinydeploy.cli import main
from tinydeploy.costmodel import CostEstimate, GroupCost
from tinydeploy.downlink import DownlinkError, LinkBudget
from tinydeploy.executor import InferenceRecord, write_records_csv
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import MappingError, TimelineEntry, build_deployment_plan
from tinydeploy.model_io import (
    ModelFormatError,
    decode,
    json_text,
    load_model,
    save_model,
    write_json,
)
from tinydeploy.models import build_small_convnet
from tinydeploy.pruning import PrunePlan, export_checkpoint


def test_roundtrip_structural_identity(tmp_path):
    g = conv_relu_softmax()
    save_model(g, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert graphs_equal(g, loaded)


def test_roundtrip_bundled_model_bit_identical(tmp_path):
    g = build_small_convnet()
    save_model(g, tmp_path / "m")
    loaded = load_model(tmp_path / "m.json")
    assert graphs_equal(g, loaded)
    for tid, t in g.tensors.items():
        if t.data is not None:
            assert t.data.tobytes() == loaded.tensors[tid].data.tobytes()


def test_truncated_blob_reports_length_mismatch(tmp_path):
    g = conv_relu_softmax()
    _, blob_path = save_model(g, tmp_path / "m")
    blob = blob_path.read_bytes()
    blob_path.write_bytes(blob[:-1])
    with pytest.raises(ModelFormatError, match="blob length mismatch"):
        load_model(tmp_path / "m")


def test_unknown_op_kind_rejected(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["nodes"][0]["kind"] = "LSTM"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="unsupported op kind"):
        load_model(tmp_path / "m")


def test_malformed_manifest_rejected(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    manifest_path.write_text("{not json")
    with pytest.raises(ModelFormatError, match=re.escape(f"{manifest_path}: malformed JSON")):
        load_model(tmp_path / "m")


def test_manifest_length_field_checked(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"]["w"]["blob"]["length"] -= 4
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="blob length mismatch"):
        load_model(tmp_path / "m")


def test_negative_blob_offset_rejected(tmp_path, capsys):
    # b's 16 bytes come first; blob[-32:-16] has the right length, so an
    # unchecked offset would load other bytes without an error.
    manifest_path, _ = save_model(conv_relu_softmax(), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"]["b"]["blob"]["offset"] = -32
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="tensor b blob: negative blob offset -32"):
        load_model(manifest_path)
    assert main(["validate-model", "--model", str(manifest_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "negative blob offset -32" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _drop_key(manifest, path):
    *parents, key = path
    for p in parents:
        manifest = manifest[p]
    del manifest[key]


MISSING_KEYS = [
    ("nodes",),
    ("graph_outputs",),
    ("tensors", "w", "dtype"),
    ("tensors", "w", "blob", "offset"),
    ("nodes", 0, "inputs"),
    ("nodes", 1, "id"),
]


@pytest.mark.parametrize("path", MISSING_KEYS, ids=lambda p: ".".join(map(str, p)))
def test_missing_manifest_key_rejected(tmp_path, path):
    manifest_path, _ = save_model(conv_relu_softmax(), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    _drop_key(manifest, path)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=f"missing key '{path[-1]}'"):
        load_model(tmp_path / "m")


def _set_key(manifest, path, value):
    *parents, key = path
    for p in parents:
        manifest = manifest[p]
    manifest[key] = value


WRONG_TYPES = [
    (("tensors",), [], "key 'tensors' must be dict, got list"),
    (("nodes",), {}, "key 'nodes' must be list, got dict"),
    (("nodes", 0, "inputs"), 3, "key 'inputs' must be list, got int"),
    (("nodes", 0, "attrs"), [], "key 'attrs' must be dict, got list"),
    (("graph_inputs",), "in", "key 'graph_inputs' must be list, got str"),
    (("tensors", "w", "shape"), 36, "key 'shape' must be list, got int"),
    (("tensors", "w", "shape"), ["4"], "key 'shape'[0] must be int, got str"),
    (("tensors", "w", "blob", "length"), "4", "key 'length' must be int, got str"),
    (("tensors", "w", "blob", "offset"), False, "key 'offset' must be int, got bool"),
    (("tensors", "w", "quant"), [1], "bad quantization params"),
]


@pytest.mark.parametrize("path,value,message", WRONG_TYPES, ids=[
    ".".join(map(str, path)) + "=" + type(value).__name__ for path, value, _ in WRONG_TYPES
])
def test_wrong_manifest_type_rejected(tmp_path, path, value, message):
    manifest_path, _ = save_model(conv_relu_softmax(), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    _set_key(manifest, path, value)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("key,value", [("tensors", []), ("nodes", 7)])
def test_cli_validate_model_reports_wrong_type(tmp_path, capsys, key, value):
    manifest_path, _ = save_model(conv_relu_softmax(), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    assert main(["validate-model", "--model", str(manifest_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"key {key!r} must be" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class _DiskFull:
    """A file that takes half of what is written to it, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def _fail_nth_write(monkeypatch, n):
    real_open = Path.open
    writes = []

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if "w" in mode:
            writes.append(self)
            if len(writes) == n:
                return _DiskFull(fh)
        return fh

    monkeypatch.setattr(Path, "open", open_)


# writer -> (write the artifact for (seed, directory, a quantized graph), the
# write to fail): a pair fails on its second file, after the first is complete.
WRITERS = {
    "save_model": (lambda seed, d, q: save_model(conv_relu_softmax(seed=seed), d / "m"), 2),
    "Checkpoint.save": (
        lambda seed, d, q: export_checkpoint(conv_relu_softmax(seed=seed)).save(d / "m"), 2),
    "PrunePlan.save": (
        lambda seed, d, q: PrunePlan([0.5], {"conv": 4 + seed}).save(d / "plan.json"), 1),
    "DeploymentPlan.save": (
        lambda seed, d, q: build_deployment_plan(q, HardwareProfile(name=f"p{seed}"))
        .save(d / "plan.json"), 1),
    "write_records_csv": (
        lambda seed, d, q: write_records_csv([InferenceRecord("s0", seed, 0.5, 1)], d / "r.csv"),
        1),
    "write_json": (lambda seed, d, q: write_json(d / "x.json", {"seed": seed}), 1),
}


@pytest.mark.parametrize("writer", list(WRITERS))
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_half_written_pair(
    tmp_path, monkeypatch, small_convnet_quantized, writer, existing,
):
    write, nth = WRITERS[writer]
    if existing:
        write(0, tmp_path, small_convnet_quantized)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_nth_write(monkeypatch, nth)
    with pytest.raises(OSError, match="disk full"):
        write(1, tmp_path, small_convnet_quantized)
    # The earlier files (or nothing) under the final names, no temporary files.
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    write(1, tmp_path, small_convnet_quantized)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} != before


def test_cli_validate_model_reports_missing_key(tmp_path, capsys):
    manifest_path, _ = save_model(conv_relu_softmax(), tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    del manifest["nodes"]
    manifest_path.write_text(json.dumps(manifest))
    assert main(["validate-model", "--model", str(manifest_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key 'nodes'" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_save_is_deterministic(tmp_path):
    g = build_small_convnet()
    save_model(g, tmp_path / "a")
    save_model(g, tmp_path / "b")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_quantized_roundtrip(tmp_path, small_convnet_quantized):
    save_model(small_convnet_quantized, tmp_path / "q")
    loaded = load_model(tmp_path / "q")
    assert graphs_equal(small_convnet_quantized, loaded)
    assert loaded.is_quantized()


GROUP_COST = GroupCost("conv1+conv1_relu", "NPU", 442368, 412.5, 103.125)

# Each record `decode` reads, with the error its loader raises.
RECORDS = {
    "profile": (HardwareProfile(name="p", npu_supported_ops=("Conv2D",)), ValueError),
    "link_budget": (LinkBudget("l", 9600.0, 4, 600.0), DownlinkError),
    "timeline_entry": (TimelineEntry("conv1+conv1_relu", "NPU", 0.0, 412.5), MappingError),
    "group_cost": (GROUP_COST, MappingError),
    "cost_estimate": (
        CostEstimate(1.8, 0.5, 60000, 200000, [GROUP_COST, GROUP_COST], {"ram_ok": True}),
        MappingError),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_decode_inverts_asdict(name):
    record, error = RECORDS[name]
    assert decode(type(record), json.loads(json_text(asdict(record))), "r", error) == record


@pytest.mark.parametrize("name", list(RECORDS))
def test_decode_rejects_unknown_key_and_wrong_kind(name):
    record, error = RECORDS[name]
    obj = {**asdict(record), "bogus": 1}
    with pytest.raises(error, match=re.escape("record x: unknown key 'bogus'")):
        decode(type(record), obj, "record x", error)
    key = fields(record)[0].name
    obj = {**asdict(record), key: None}
    with pytest.raises(error, match=re.escape(f"record x: key {key!r} must be ")):
        decode(type(record), obj, "record x", error)


@dataclass
class Leaf:
    n: int


@dataclass
class Tree:
    leaf: Leaf
    by_key: dict[str, Leaf]
    tags: dict[str, str]
    rows: list[list[str]]
    maybe: Leaf | None = None


TREE = Tree(Leaf(1), {"a": Leaf(2), "b": Leaf(3)}, {"x": "y"}, [["p", "q"], []], Leaf(4))


def test_decode_reads_nested_optional_and_keyed_records():
    assert decode(Tree, json.loads(json_text(asdict(TREE))), "t", ValueError) == TREE
    absent = {k: v for k, v in asdict(TREE).items() if k != "maybe"}
    assert decode(Tree, absent, "t", ValueError).maybe is None
    assert decode(Tree, {**absent, "maybe": None}, "t", ValueError).maybe is None


@pytest.mark.parametrize("edit, message", [
    (lambda t: t["leaf"].update(n="1"), "t leaf: key 'n' must be int, got str"),
    (lambda t: t["leaf"].pop("n"), "t leaf: missing key 'n'"),
    (lambda t: t.update(leaf=[1]), "t leaf: expected an object, got list"),
    (lambda t: t["by_key"]["b"].update(z=0), "t by_key[b]: unknown key 'z'"),
    (lambda t: t["by_key"].update(c=None), "t by_key[c]: expected an object, got NoneType"),
    (lambda t: t.update(by_key=[]), "t: key 'by_key' must be dict, got list"),
    (lambda t: t.update(maybe={"n": 1.5}), "t maybe: key 'n' must be int, got float"),
    (lambda t: t.update(maybe=7), "t maybe: expected an object, got int"),
    (lambda t: t["tags"].update(x=1), "t: key 'tags'[x] must be str, got int"),
    (lambda t: t["rows"][1].append(2), "t: key 'rows'[1][0] must be str, got int"),
], ids=["leaf_kind", "leaf_missing", "leaf_list", "keyed_unknown", "keyed_null",
        "keyed_list", "optional_kind", "optional_int", "tags_value", "rows_item"])
def test_decode_names_the_path_of_a_nested_error(edit, message):
    obj = json.loads(json_text(asdict(TREE)))
    edit(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        decode(Tree, obj, "t", ValueError)


def test_only_model_io_encodes_reads_or_writes_files():
    """json, csv, open(), Path writes and the tensor codec appear in model_io.py alone."""
    codec = {"pack_tensor", "unpack_tensor"}
    offenders = []
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        if path.name == "model_io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            names = (
                {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else set()
            )
            func = node.func if isinstance(node, ast.Call) else None
            if ({"json", "csv"} & set(imported)
                    or codec & names
                    or isinstance(node, ast.Attribute) and node.attr in codec
                    or isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
                    or isinstance(func, ast.Name) and func.id == "open"):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_library_observes_runs_only_through_on_step():
    """No module passes `trace=` to a run: library code reads activations
    through `Program.run`'s `on_step` hook, which keeps none it does not
    ask for."""
    offenders = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and any(kw.arg == "trace" for kw in node.keywords)
    ]
    assert offenders == []


def _calls(node, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def test_json_decoders_leave_kinds_to_field():
    """The JSON decoders (`*from_json`, `load_plan`) convert nothing with
    int/float/bool/str; those names appear there only as kinds given to
    `_field` or `isinstance`. No function wraps `_field` in a nested one."""
    converters = {"int", "float", "bool", "str"}
    offenders = []
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for inner in ast.walk(func):
                if (inner is not func and isinstance(inner, (ast.FunctionDef, ast.Lambda))
                        and any(_calls(n, "_field") for n in ast.walk(inner))):
                    offenders.append(f"{path.name}:{inner.lineno} {func.name} wraps _field")
            if not (func.name.endswith("from_json") or func.name == "load_plan"):
                continue
            body = [node for stmt in func.body for node in ast.walk(stmt)]
            hints = {id(n) for node in body if isinstance(node, ast.AnnAssign)
                     for n in ast.walk(node.annotation)}
            kinds = {
                id(name)
                for call in body if _calls(call, "_field") or _calls(call, "isinstance")
                for arg in call.args for name in ast.walk(arg)
            }
            called = {id(call.func) for call in body if isinstance(call, ast.Call)}
            for name in body:
                if (isinstance(name, ast.Name) and name.id in converters and id(name) not in hints
                        and (id(name) not in kinds or id(name) in called)):
                    offenders.append(f"{path.name}:{name.lineno} {func.name} uses {name.id}")
    assert offenders == []
