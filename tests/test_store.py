import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptkit import store
from adaptkit.checkpoint import load_checkpoint, save_checkpoint
from adaptkit.data import (GeneratorSpec, ShiftSpec, apply_shift, generate, load_dataset,
                           save_dataset)
from adaptkit.errors import NumericalError, StorageError
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


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small checkpoint and a small labeled target dataset, as bytes."""
    d = tmp_path_factory.mktemp("valid")
    save_checkpoint(build_network(ArchSpec(4, (5,), 3), np.random.default_rng(0)), d / "net.ckpt")
    src = generate(GeneratorSpec(n_per_class=3, num_classes=3, input_dim=4))
    save_dataset(apply_shift(src, ShiftSpec("rotation", 30.0, seed=1)), d / "x.ds")
    return d, {"ckpt": (d / "net.ckpt").read_bytes(), "ds": (d / "x.ds").read_bytes()}


LOADERS = {"ckpt": load_checkpoint, "ds": load_dataset}

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
