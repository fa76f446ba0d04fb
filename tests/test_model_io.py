from __future__ import annotations

import ast
import importlib
import json
import re
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tinydeploy
from graphutil import conv_relu_softmax, graphs_equal, node, residual_chain_graph
from tinydeploy import model_io
from tinydeploy.cli import main
from tinydeploy.costmodel import CostEstimate, GroupCost
from tinydeploy.downlink import DownlinkError, DownlinkReport, LinkBudget
from tinydeploy.executor import InferenceRecord, TensorRange, calibrate, write_records_csv
from tinydeploy.graph import QMAX, QMIN, QuantParams
from tinydeploy.hardware import HardwareProfile
from tinydeploy.mapping import (
    DeploymentPlan, MappingError, TimelineEntry, build_deployment_plan, load_plan,
)
from tinydeploy.model_io import (
    ModelFormatError,
    decode,
    first_difference,
    json_text,
    load_model,
    read_json,
    save_model,
    write_json,
)
from tinydeploy.models import build_small_convnet
from tinydeploy.pipeline import PipelineConfig, PipelineError, PruneConfig
from tinydeploy.pruning import PruneError, PrunePlan, export_checkpoint
from tinydeploy.quantization import quantize_graph


def test_roundtrip_structural_identity(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    loaded = load_model(tmp_path / "m")
    assert graphs_equal(g, loaded)
    # A node may leave out its attrs.
    manifest = json.loads(manifest_path.read_text())
    del manifest["nodes"][1]["attrs"]
    manifest_path.write_text(json.dumps(manifest))
    assert graphs_equal(g, load_model(manifest_path))


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
    with pytest.raises(ModelFormatError, match=re.escape("node conv: unsupported kind 'LSTM'")):
        load_model(tmp_path / "m")
    manifest["nodes"][0]["kind"] = "Conv2D"
    manifest["tensors"]["w"]["dtype"] = "float64"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=re.escape("tensor w: unsupported dtype 'float64'")):
        load_model(tmp_path / "m")


def test_malformed_manifest_rejected(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    manifest_path.write_text("{not json")
    with pytest.raises(ModelFormatError, match=re.escape(f"{manifest_path}: malformed JSON")):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_read_json_rejects_non_finite_numbers(tmp_path, number):
    path = tmp_path / "x.json"
    path.write_text(f'{{"a": [1.5, {number}]}}')
    with pytest.raises(ValueError) as info:
        read_json(path, ValueError)
    assert str(info.value) == f"{path}: malformed JSON: non-finite number {number}"


def _dumps_text(value) -> str:
    """The artifact layout as the json module writes it."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1, -1e-7, 1.7976931348623157e308])
    | st.text() | st.sampled_from(["", "\x00\x1f\x7f\"\\/", "caf\u00e9 \u2028", "\U0001f600"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40,
)


@given(JSON_VALUES)
@example({"a": {}, "b": [[]], "c": (), "d": [True, 1, 1.0, None]})
@example(())
@example(-0.0)
@settings(max_examples=300, deadline=None)
def test_json_text_is_the_json_module_layout(value):
    assert json_text(value) == _dumps_text(value)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_non_finite_numbers_and_writes_nothing(tmp_path, number):
    with pytest.raises(ValueError, match="non-finite number"):
        write_json(tmp_path / "x.json", {"a": [1.5, {"b": number}]})
    assert list(tmp_path.iterdir()) == []


class _Float(float):
    pass


@pytest.mark.parametrize("value", [
    {1: "a"}, {"a": 1, 2: "b"}, {None: 0}, [np.float64(0.5)], {"n": np.int64(3)}, {"a", "b"},
    [_Float(1.5)], {"path": Path("x")}, [b"raw"], GroupCost,
], ids=["int_key", "mixed_keys", "none_key", "np_float", "np_int", "set", "float_subclass",
        "path", "bytes", "record_class"])
def test_json_text_refuses_values_of_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)


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
    (("nodes", 0, "inputs"), 3, "node conv: key 'inputs' must be list, got int"),
    (("nodes", 0, "attrs"), [], "node conv: key 'attrs' must be dict, got list"),
    (("nodes", 0, "id"), 3, "node 0: key 'id' must be str, got int"),
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


# Edits a manifest of the quantized small_convnet must be refused for,
# naming what is wrong.
REFUSED_MANIFESTS = [
    ("version_true", lambda m: m.update(format_version=True), "unsupported format_version True"),
    ("version_float", lambda m: m.update(format_version=1.0), "unsupported format_version 1.0"),
    ("top_unknown", lambda m: m.update(notes="x"), "m.json: unknown key 'notes'"),
    ("node_unknown", lambda m: m["nodes"][0].update(notes="x"),
     "node conv1: unknown key 'notes'"),
    ("tensor_unknown", lambda m: m["tensors"]["conv1_w"].update(notes="x"),
     "tensor conv1_w: unknown key 'notes'"),
    ("blob_unknown", lambda m: m["tensors"]["conv1_w"]["blob"].update(notes="x"),
     "tensor conv1_w blob: unknown key 'notes'"),
    ("quant_unknown", lambda m: m["tensors"]["conv1_w"]["quant"].update(notes="x"),
     "tensor conv1_w: bad quantization params: unknown key 'notes'"),
]


@pytest.mark.parametrize("edit,message", [c[1:] for c in REFUSED_MANIFESTS],
                         ids=[c[0] for c in REFUSED_MANIFESTS])
def test_manifest_refuses_other_versions_and_unknown_keys(
    tmp_path, small_convnet_quantized, edit, message
):
    manifest_path, _ = save_model(small_convnet_quantized, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(manifest_path)


@pytest.mark.parametrize("reader", ["pool2", "add1"])
def test_zero_point_outside_int8_refused_at_load(tmp_path, dwsep_net_quantized, reader):
    # dwsep_net's AvgPool2D and residual_chain_graph's first Add: no kernel
    # of theirs checks an input zero point, so `QuantParams` must.
    if reader == "pool2":
        graph = dwsep_net_quantized
    else:
        graph = residual_chain_graph()
        xs = np.random.default_rng(3).normal(size=(4, 1, 6, 6, 3)).astype(np.float32)
        graph = quantize_graph(graph, calibrate(graph, xs))
    tid = node(graph, reader).inputs[-1]
    manifest_path, _ = save_model(graph, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"][tid]["quant"]["zero_point"] = 2**29 - 129
    manifest_path.write_text(json.dumps(manifest))
    message = f"tensor {tid}: bad quantization params: zero point {2**29 - 129} outside Int8 range"
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(tmp_path / "m")


def test_save_model_refuses_per_channel_params_that_do_not_match_their_tensor(
    tmp_path, small_convnet_quantized
):
    graph = small_convnet_quantized.copy()
    bias = graph.tensors["conv1_b"]
    bias.quant = replace(bias.quant, scale=bias.quant.scale[1:])
    message = ("refusing to save invalid graph: tensor conv1_b: "
               "15 scales and 16 zero points along axis 0 of shape [16]")
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        save_model(graph, tmp_path / "m")
    assert list(tmp_path.iterdir()) == []


# Scales as quantize_graph makes them and integral ones, which JSON must
# still write as floats (2.0, not 2).
QUANT_SCALES = (st.floats(min_value=1e-30, max_value=1e30) | st.integers(1, 1000)
                | st.integers(1, 1000).map(float))


@st.composite
def quant_params_and_json(draw):
    """A QuantParams built from numpy or plain values, and the five-key
    object its manifest entry holds."""
    symmetric = draw(st.booleans())
    zero_points = st.just(0) if symmetric else st.integers(QMIN, QMAX)
    if draw(st.booleans()):
        scale, zero_point = draw(QUANT_SCALES), draw(zero_points)
        # A per-tensor axis, even a numpy one, is written as null.
        axis = draw(st.none() | st.integers(0, 3) | st.integers(0, 3).map(np.int64))
        params = QuantParams(scale, zero_point, "per_tensor", axis, symmetric)
        return params, {"scale": float(scale), "zero_point": zero_point,
                        "granularity": "per_tensor", "axis": None, "symmetric": symmetric}
    channels = draw(st.integers(1, 5))
    scales = draw(st.lists(QUANT_SCALES, min_size=channels, max_size=channels))
    zps = draw(st.lists(zero_points, min_size=channels, max_size=channels))
    axis = draw(st.integers(0, 3))
    as_numpy = draw(st.booleans())
    params = QuantParams(
        np.array(scales, dtype=np.float64) if as_numpy else scales,
        np.array(zps, dtype=np.int64) if as_numpy else zps,
        "per_channel", np.int64(axis) if as_numpy else axis, np.bool_(symmetric),
    )
    return params, {"scale": [float(s) for s in scales], "zero_point": zps,
                    "granularity": "per_channel", "axis": axis, "symmetric": symmetric}


@given(quant_params_and_json())
@example((QuantParams(1.0, 0, axis=2), {"scale": 1.0, "zero_point": 0,
          "granularity": "per_tensor", "axis": None, "symmetric": False}))
@settings(max_examples=300, deadline=None)
def test_quant_params_json_is_the_manifest_quant_object(case):
    params, obj = case
    assert json_text(params) == _dumps_text(obj)
    assert model_io._quant_from_json(json.loads(json_text(params))) == params


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
    "prune_plan": (PrunePlan([0.1, 0.05], {"conv1": 16, "fc": 10}, [{"conv1": [3, 7]}]),
                   PruneError),
    "pipeline_config": (PipelineConfig("m", "d", "o", prune=PruneConfig([0.2], True)),
                        PipelineError),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_json_text_writes_a_record_as_its_asdict(name):
    record, _ = RECORDS[name]
    assert json_text(record) == _dumps_text(asdict(record))
    assert json_text([record, {"r": record}]) == _dumps_text([asdict(record), {"r": asdict(record)}])


def test_prune_plan_save_writes_its_fields_basis_and_masks(tmp_path):
    plan, _ = RECORDS["prune_plan"]
    plan.save(tmp_path / "plan.json")
    expected = {**asdict(plan), "basis": "original_count", "masks": plan.masks}
    assert (tmp_path / "plan.json").read_text() == _dumps_text(expected)


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


def _decoded_records() -> set[type]:
    """The record classes `src/` hands to `decode`: the class a call
    `decode(<name>, ...)` names, `cls` being the class whose method makes
    the call, and a parameter of a function the classes that function is
    called with. `model_io._records`, decode's own recursion, is no loader."""
    records = set()
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"tinydeploy.{path.stem}")
        tree = ast.parse(path.read_text())
        found = []  # (name, enclosing class, enclosing function)

        def visit(node, cls, func):
            for child in ast.iter_child_nodes(node):
                if _calls(child, "decode") and getattr(func, "name", None) != "_records":
                    found.append((child.args[0].id, cls, func))
                visit(child, child if isinstance(child, ast.ClassDef) else cls,
                      child if isinstance(child, ast.FunctionDef) else func)

        visit(tree, None, None)
        for name, cls, func in found:
            params = [arg.arg for arg in func.args.args] if func else []
            if name == "cls" and cls is not None:
                records.add(getattr(module, cls.name))
            elif name in params:
                at = params.index(name)
                records.update(getattr(module, call.args[at].id) for call in ast.walk(tree)
                               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                               and call.func.id == func.name)
            else:
                records.add(getattr(module, name))
    return records


def _held_class(hint):
    """The record or enum class `model_io._records` reads for the resolved
    field `hint`, or None when it would read none: `record | None` is
    read as its first member, and a dict must be keyed by str."""
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args or origin is list:
        return _held_class(args[0])
    if origin is dict:
        return _held_class(args[1]) if args[0] is str else None
    is_enum = isinstance(hint, type) and issubclass(hint, Enum)
    return hint if is_dataclass(hint) or is_enum else None


def _kindless_fields(classes) -> list[str]:
    """Fields, of `classes` and the records they hold, whose annotation is
    neither a `KINDS` key nor a hint that holds records or an enum."""
    out, todo, seen = [], list(classes), set()
    while todo:
        cls = todo.pop(0)
        if cls in seen:
            continue
        seen.add(cls)
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.type in model_io.KINDS or "read" in f.metadata:
                continue
            held = _held_class(hints[f.name])
            if held is None:
                out.append(f"{cls.__name__}.{f.name}: {f.type}")
            elif is_dataclass(held):
                todo.append(held)
    return out


@dataclass
class Trap:
    xs: list[bool]
    y: None | float
    leaf: Leaf | None = None


def test_every_decoded_field_has_a_kind_or_holds_records():
    # `decode` reads an annotation missing from `KINDS` as records, so such
    # a field refuses every plain value: `list[bool]` refuses [true, false].
    decoded = _decoded_records()
    # The scan finds a class by its name, as `cls` and through a helper's parameter.
    assert {TensorRange, HardwareProfile, DownlinkReport} <= decoded
    assert _kindless_fields(sorted(decoded, key=lambda cls: cls.__name__)) == []
    assert _kindless_fields([Trap]) == ["Trap.xs: list[bool]", "Trap.y: None | float"]
    with pytest.raises(ValueError, match=re.escape("probe xs[0]: expected an object, got bool")):
        decode(Trap, {"xs": [True, False], "y": None}, "probe", ValueError)


@pytest.mark.parametrize("have, difference", [
    (replace(TREE, leaf=Leaf(5)), "leaf n: 5 != 1"),
    (replace(TREE, by_key={"a": Leaf(2)}), "by_key[b]: absent != a Leaf"),
    (replace(TREE, by_key={**TREE.by_key, "c": Leaf(0)}), "by_key[c]: a Leaf != absent"),
    (replace(TREE, tags={"x": "z"}), "tags[x]: 'z' != 'y'"),
    (replace(TREE, rows=[["p", "q"]]), "rows: length 1 != 2"),
    (replace(TREE, rows=[["p", "r"], []]), "rows[0][1]: 'r' != 'q'"),
    (replace(TREE, maybe=None), "maybe: None != a Leaf"),
], ids=["leaf_value", "key_absent", "key_extra", "str_value", "list_length", "nested_item",
        "optional_none"])
def test_first_difference_names_the_path_and_both_values(have, difference):
    assert first_difference(TREE, replace(TREE)) is None
    assert have != TREE and first_difference(have, TREE) == difference


def test_decode_resolves_type_hints_once_per_record_class(
    tmp_path, monkeypatch, small_convnet_quantized
):
    build_deployment_plan(small_convnet_quantized, HardwareProfile()).save(tmp_path / "plan.json")
    calls = []
    get_type_hints = model_io.get_type_hints
    monkeypatch.setattr(model_io, "get_type_hints",
                        lambda cls: calls.append(cls) or get_type_hints(cls))
    load_plan(tmp_path / "plan.json")
    load_plan(tmp_path / "plan.json")
    # DeploymentPlan, MemoryPlan and CostEstimate hold records.
    assert len(calls) <= 3


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


def test_json_text_is_the_only_json_writer():
    """No `json.dumps` outside model_io.py, and no `asdict` call but the one
    in `CostEstimate.to_json`: records are written by `json_text` itself."""
    offenders = []
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "CostEstimate":
                allowed |= {id(node) for func in cls.body
                            if isinstance(func, ast.FunctionDef) and func.name == "to_json"
                            for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (_calls(node, "asdict") and id(node) not in allowed
                    or _calls(node, "dumps") and path.name != "model_io.py"):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_no_hand_written_json_encoders():
    """No function or method named `to_json` or `*_to_json` but
    `CostEstimate.to_json`: `json_text` writes a record from its fields."""
    offenders = []
    for path in sorted(Path(tinydeploy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(func) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "CostEstimate"
                   for func in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (node.name == "to_json" or node.name.endswith("_to_json"))
                    and id(node) not in allowed):
                offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert offenders == []


def test_version_is_stated_once():
    """pyproject.toml states no version of its own: setuptools reads
    `tinydeploy.__version__`."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(tinydeploy.__file__).parents[2] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {"version": {"attr": "tinydeploy.__version__"}}


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
