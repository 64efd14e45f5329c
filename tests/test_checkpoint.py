import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from adaptkit import cli, store
from adaptkit.checkpoint import (MAGIC, load_backbone, load_checkpoint, save_backbone,
                                 save_checkpoint)
from adaptkit.data import GeneratorSpec, generate, save_dataset
from adaptkit.errors import StorageError
from adaptkit.layers import ArchSpec, build_network
from adaptkit.tensor import Tensor


@pytest.fixture
def net():
    return build_network(ArchSpec(5, (8, 6), 4), np.random.default_rng(3))


def test_round_trip_identical_logits(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(0).normal(size=(7, 5))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_round_trip_many_batches_exact(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=(rng.integers(2, 9), 5))
        diff = np.abs(net.forward(x) - loaded.forward(x))
        assert diff.max() == 0.0


def test_round_trip_preserves_running_stats(net, tmp_path):
    # push running stats away from init, then compare eval outputs
    rng = np.random.default_rng(2)
    for _ in range(5):
        net.forward(rng.normal(3.0, 2.0, size=(16, 5)), train=True)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    x = rng.normal(size=(6, 5))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_architecture_mismatch_on_load(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    with pytest.raises(StorageError, match="architecture mismatch"):
        load_checkpoint(path, expect_arch=ArchSpec(5, (8,), 4))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(StorageError, match="bad magic"):
        load_checkpoint(path)


def test_corrupt_header_rejected(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = bytearray(path.read_bytes())
    raw[14] = 0xFF  # stomp inside the JSON header
    path.write_bytes(bytes(raw))
    with pytest.raises(StorageError):
        load_checkpoint(path)


HEADER_EDITS = {
    "no_tensors": lambda h: h.pop("tensors"),
    "no_arch": lambda h: h.pop("arch"),
    "negative_shape": lambda h: h["tensors"][0].update(shape=[-1, 5]),
    "float_shape": lambda h: h["tensors"][0].update(shape=[8.0, 5]),
    "duplicate_name": lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]),
    "negative_input_dim": lambda h: h["arch"].update(input_dim=-2),
    "zero_width": lambda h: h["arch"].update(hidden=[8, 0]),
    "one_class": lambda h: h["arch"].update(num_classes=1),
    "str_batchnorm": lambda h: h["arch"].update(batchnorm="yes"),
    # a width that numpy refuses to allocate at once, with the file's tensors unchanged
    "huge_width": lambda h: h["arch"].update(hidden=[10**12, 6]),
    # a zero-size array at the end of the blob: valid layout, unused by the arch
    "stray_tensor": lambda h: h["tensors"].append({"name": "stray", "shape": [0], "offset": (
        h["tensors"][-1]["offset"] + 8 * int(np.prod(h["tensors"][-1]["shape"])))}),
}


def _save_edited_header(net, path, edit):
    """A checkpoint of `net` whose JSON header `edit` has changed in place."""
    save_checkpoint(net, path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    payload = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(payload).to_bytes(4, "little") + payload + raw[12 + hlen :])


@pytest.mark.parametrize("case", sorted(HEADER_EDITS))
def test_malformed_header_keys_rejected(net, tmp_path, case):
    path = tmp_path / "net.ckpt"
    _save_edited_header(net, path, HEADER_EDITS[case])
    with pytest.raises(StorageError):
        load_checkpoint(path)


def test_cli_evaluate_huge_width_header_is_io_error(net, tmp_path, capsys):
    data, model = tmp_path / "d.ds", tmp_path / "m.ckpt"
    save_dataset(generate(GeneratorSpec(n_per_class=5, num_classes=4, input_dim=5), 0), data)
    _save_edited_header(net, model, HEADER_EDITS["huge_width"])
    assert cli.main(["evaluate", "--model", str(model), "--data", str(data)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("i/o error:") == 1 and str(model) in err


def test_header_arch_is_checked_before_any_draw(tmp_path):
    # 133 bytes whose header asks for a 100000-wide layer (~36 MB drawn) and holds no tensor
    path = tmp_path / "wide.ckpt"
    store.write(path, MAGIC, {"arch": asdict(ArchSpec(32, (100000,), 10))}, {})
    assert path.stat().st_size == 133
    tracemalloc.start()
    try:
        with pytest.raises(StorageError, match="wide.ckpt"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_truncated_data_rejected(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(StorageError, match="truncated"):
        load_checkpoint(path)


def test_version_field_and_magic(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    assert raw[:4] == b"OTAC"
    assert int.from_bytes(raw[4:8], "little") == 1
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(StorageError, match="version 2"):
        load_checkpoint(path)


def test_backbone_round_trip(tmp_path, net):
    path = tmp_path / "backbone.ckpt"
    save_backbone(net.arch, {t.name: t.data for t in net.backbone_tensors()}, path)
    loaded = load_backbone(path)
    assert loaded.arch == net.arch
    assert [t.name for t in loaded.backbone_tensors()] == [t.name for t in net.backbone_tensors()]
    for got, t in zip(loaded.backbone_tensors(), net.backbone_tensors()):
        assert np.array_equal(got.data, t.data)


def _save_edited_backbone(net, path, **edits):
    """A backbone file of `net` with tensors replaced, added or (None) dropped."""
    tensors = {**{t.name: t.data for t in net.backbone_tensors()}, **edits}
    save_backbone(net.arch, {k: v for k, v in tensors.items() if v is not None}, path)


# (how to write the file, how to read it)
BAD_FILES = {
    "stray_tensor": (lambda net, p: _save_edited_backbone(net, p, stray=np.zeros(3)),
                     load_backbone),
    "missing_tensor": (lambda net, p: _save_edited_backbone(
        net, p, **{"block1.bn.running_var": None}), load_backbone),
    "misshaped_bias": (lambda net, p: _save_edited_backbone(
        net, p, **{"block0.dense.bias": np.zeros(1)}), load_backbone),
    "misshaped_gamma": (lambda net, p: _save_edited_backbone(
        net, p, **{"block1.bn.gamma": np.ones((1, 6))}), load_backbone),
    "full_as_backbone": (save_checkpoint, load_backbone),
    "backbone_as_full": (_save_edited_backbone, load_checkpoint),
    # a backbone file's classifier is drawn, not read: one numpy refuses at once
    "huge_class_count": (lambda net, p: save_backbone(
        replace(net.arch, num_classes=10**12),
        {t.name: t.data for t in net.backbone_tensors()}, p), load_backbone),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_backbone_files_rejected(net, tmp_path, case):
    write, read = BAD_FILES[case]
    path = tmp_path / "backbone.ckpt"
    write(net, path)
    with pytest.raises(StorageError):
        read(path)


@pytest.mark.parametrize("case", ["missing_tensor", "misshaped_bias", "misshaped_gamma",
                                  "stray_tensor", "huge_class_count"])
def test_cli_distill_rejects_bad_backbone(net, tmp_path, capsys, case):
    data, teacher, backbone = tmp_path / "d.ds", tmp_path / "t.ckpt", tmp_path / "b.ckpt"
    save_dataset(generate(GeneratorSpec(n_per_class=40, num_classes=4, input_dim=5), 0), data)
    save_checkpoint(net, teacher)
    BAD_FILES[case][0](net, backbone)
    out = tmp_path / "student.ckpt"
    assert cli.main(["distill", "--teacher", str(teacher), "--target", str(data),
                     "--student-init", str(backbone), "--out", str(out)]) == 3
    assert "i/o error:" in capsys.readouterr().err
    assert not out.exists()
