import errno
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptkit import store
from adaptkit.checkpoint import load_backbone, load_checkpoint, save_backbone, save_checkpoint
from adaptkit.data import (GeneratorSpec, ShiftSpec, apply_shift, generate, load_dataset,
                           save_dataset)
from adaptkit.errors import ConfigError, NumericalError, StorageError
from adaptkit.layers import ArchSpec, build_network


def test_round_trip_keeps_order_and_bits(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"b": rng.normal(size=(3, 2)), "a": np.array([np.inf, -0.0, 1e-310]),
              "empty": np.zeros((0, 4))}
    path = tmp_path / "x.bin"
    store.write(path, b"TEST", {"note": "hi"}, arrays)
    header, loaded = store.read(path, b"TEST")
    assert header["note"] == "hi"
    assert list(loaded) == ["b", "a", "empty"]
    for name, data in arrays.items():
        assert loaded[name].shape == data.shape
        assert loaded[name].tobytes() == data.tobytes()
    # a container that ends right after its header holds no arrays
    store.write(path, b"TEST", {"note": "none"}, {})
    header, loaded = store.read(path, b"TEST")
    assert (header["note"], header["tensors"], loaded) == ("none", [], {})


def _fail_replace(*args):
    raise OSError("replace failed")


class _FullDisk(io.FileIO):
    """A file that is created, and then takes no bytes."""

    def write(self, b):
        raise OSError(errno.ENOSPC, "no space left on device")


@pytest.mark.parametrize("old", [None, b"old bytes"])
@pytest.mark.parametrize("fail", ["replace", "write"])
def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch, old, fail):
    path = tmp_path / "x.bin"
    if old is not None:
        path.write_bytes(old)
    if fail == "replace":
        monkeypatch.setattr(store.os, "replace", _fail_replace)
    else:
        monkeypatch.setattr(store, "open", lambda p, mode: _FullDisk(p, "w"), raising=False)
    with pytest.raises(StorageError, match="cannot write"):
        store.write(path, b"TEST", {}, {"a": np.ones(3)})
    assert list(tmp_path.iterdir()) == ([] if old is None else [path])
    if old is not None:
        assert path.read_bytes() == old


def test_write_replaces_an_old_file_whole(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old bytes, longer than nothing" * 100)
    store.write(path, b"TEST", {}, {"a": np.arange(3.0)})
    assert list(tmp_path.iterdir()) == [path]
    assert store.read(path, b"TEST")[1]["a"].tolist() == [0.0, 1.0, 2.0]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small checkpoint, its backbone and a small labeled target dataset, as bytes."""
    d = tmp_path_factory.mktemp("valid")
    net = build_network(ArchSpec(4, (5,), 3), np.random.default_rng(0))
    save_checkpoint(net, d / "net.ckpt")
    save_backbone(net.arch, {t.name: t.data for t in net.backbone_tensors()}, d / "bb.ckpt")
    src = generate(GeneratorSpec(n_per_class=3, num_classes=3, input_dim=4), 0)
    save_dataset(apply_shift(src, ShiftSpec("rotation", 30.0), 1), d / "x.ds")
    return d, {"ckpt": (d / "net.ckpt").read_bytes(), "backbone": (d / "bb.ckpt").read_bytes(),
               "ds": (d / "x.ds").read_bytes()}


LOADERS = {"ckpt": load_checkpoint, "backbone": load_backbone, "ds": load_dataset}

# bytes that turn JSON digits and literals into other valid JSON, plus anything
_BYTE = st.sampled_from(b" -.0129eE\"[]{}\x00\xff") | st.integers(0, 255)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_file_loads_or_raises_storage_error(valid_files, kind, data):
    d, valid = valid_files
    raw = bytearray(valid[kind])
    how = data.draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if how == "overwrite":
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(_BYTE)
    elif how == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)):]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    path = d / f"mutated.{kind}"
    path.write_bytes(bytes(raw))
    try:
        LOADERS[kind](path)
    except StorageError:
        pass
    except NumericalError:
        # a mutated feature can decode as NaN/Inf: non-finite input data is exit 2
        _, arrays = store.read(path, b"OTAD")
        assert kind == "ds" and not np.all(np.isfinite(arrays["features"]))


def test_from_dict_names_a_missing_required_field():
    # ArchSpec's widths have no default: leaving one out is a ConfigError that names
    # it, not the TypeError a bare constructor call raises
    with pytest.raises(ConfigError, match=r"arch needs the keys \['hidden'\]"):
        store.from_dict(ArchSpec, {"input_dim": 4, "num_classes": 3}, "arch")
    assert store.from_dict(ArchSpec, {"input_dim": 4, "hidden": [5], "num_classes": 3},
                           "arch") == ArchSpec(4, (5,), 3)
