import json

import pytest

from graphutil import conv_relu_softmax
from tinydeploy.cli import main
from tinydeploy.model_io import ModelFormatError, graphs_equal, load_model, save_model
from tinydeploy.models import build_small_convnet


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
    with pytest.raises(ModelFormatError, match="malformed manifest"):
        load_model(tmp_path / "m")


def test_manifest_length_field_checked(tmp_path):
    g = conv_relu_softmax()
    manifest_path, _ = save_model(g, tmp_path / "m")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"]["w"]["blob"]["length"] -= 4
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ModelFormatError, match="blob length mismatch"):
        load_model(tmp_path / "m")


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
