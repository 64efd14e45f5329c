"""The one file container behind checkpoints and dataset files.

Layout: 4-byte magic, u32 version, u32 header length, a sorted-key UTF-8
JSON header, then one little-endian float64 blob. The header's ``tensors``
table gives each array's name, shape and byte offset into the blob. Arrays
sit back to back in table order, so each offset is the running sum of the
sizes before it and the blob ends where the last array does. Raw f64 bytes
make the round trip bit-exact. Callers own the magic and the other header
keys; this module owns the layout and checks every file it reads against it.
"""
from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import StorageError

VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header length


def is_count(v, least: int = 0) -> bool:
    """True for a JSON integer (not a bool) of at least `least`."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def write(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` in insertion order, with `header`'s keys beside the table. The
    file is written under a temporary name in its directory and renamed into place,
    so a failed write leaves whatever was at `path` before and no temporary file."""
    entries, blobs, offset = [], [], 0
    for name, data in arrays.items():
        if not name:
            raise StorageError(f"{path}: cannot store an unnamed array")
        raw = data.astype("<f8").tobytes()
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    payload = json.dumps({**header, "format_version": VERSION, "tensors": entries},
                         sort_keys=True).encode("utf-8")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_PREFIX.pack(magic, VERSION, len(payload)))
            f.write(payload)
            for raw in blobs:
                f.write(raw)
        os.replace(tmp, path)
    except OSError as e:
        raise StorageError(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)


def _is_entry(e) -> bool:
    return (isinstance(e, dict) and isinstance(e.get("name"), str) and e["name"] != ""
            and is_count(e.get("offset")) and isinstance(e.get("shape"), list)
            and all(is_count(v) for v in e["shape"]))


def read(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and check a container file; returns (header, name -> array)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise StorageError(f"cannot read {path}: {e}") from e
    if len(raw) < _PREFIX.size or raw[:4] != magic:
        raise StorageError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    _, version, hlen = _PREFIX.unpack_from(raw)
    if version != VERSION:
        raise StorageError(f"{path}: unsupported {magic.decode()} version {version}")
    start = _PREFIX.size + hlen
    if len(raw) < start:
        raise StorageError(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size : start].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise StorageError(f"{path}: corrupt header: {e}") from e
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(entries, list) or not all(_is_entry(e) for e in entries):
        raise StorageError(f"{path}: header needs a tensors table whose entries have a "
                           "name, an offset and a shape of non-negative integers")
    blob = memoryview(raw)[start:]
    arrays, offset = {}, 0
    for e in entries:
        name, shape = e["name"], tuple(e["shape"])
        if name in arrays:
            raise StorageError(f"{path}: duplicate tensor {name!r}")
        if e["offset"] != offset:
            raise StorageError(f"{path}: tensor {name!r} at offset {e['offset']}, "
                               f"expected {offset}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise StorageError(f"{path}: truncated data for tensor {name!r}")
        arrays[name] = np.frombuffer(blob, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(blob):
        raise StorageError(f"{path}: {len(blob) - offset} trailing bytes after the data")
    return header, arrays
