"""The one file container behind checkpoints and dataset files, the one writer
behind every output file, and the typed reader of configs and dataset headers.

Layout: 4-byte magic, u32 version, u32 header length, a sorted-key UTF-8
JSON header, then one little-endian float64 blob. The header repeats the
version as ``format_version``, and its ``tensors`` table gives each array's
name, shape and byte offset into the blob. Arrays sit back to back in table
order, so each offset is the running sum of the sizes before it and the blob
ends where the last array does. Raw f64 bytes make the round trip bit-exact.
Callers own the magic and the other header keys; this module owns the layout
and checks every file it reads against it.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, StorageError

VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header length


def is_count(v, least: int = 0) -> bool:
    """True for a JSON integer (not a bool) of at least `least`."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _fits(v, hint) -> bool:
    """Whether a parsed value fits a field's annotation: int (not bool), float
    (int allowed), bool, str, a config section, `X | None` or a tuple."""
    if get_origin(hint) is UnionType:
        return any(_fits(v, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if isinstance(v, tuple) and args[-1:] == (...,):
            args = args[:1] * len(v)
        return isinstance(v, tuple) and len(v) == len(args) and all(map(_fits, v, args))
    if hint in (int, float):
        return isinstance(v, (int, hint)) and not isinstance(v, bool)
    return isinstance(v, hint)


def from_dict(cls, d, what: str = ""):
    """Build dataclass `cls` from a parsed mapping, nested sections included; an unknown
    key, a required key left out, a value of the wrong type (a null in place of a section
    too) or a value that `cls` rejects is a ConfigError. An optional key takes its default."""
    what = what or cls.__name__
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(d).__name__}")
    hints, written = get_type_hints(cls), {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{what} needs the keys {missing}")
    kw = {}
    for key, v in d.items():
        if is_dataclass(hints[key]) and not isinstance(v, hints[key]):
            v = from_dict(hints[key], v)
        elif isinstance(v, list):
            v = tuple(v)
        if not _fits(v, hints[key]):
            raise ConfigError(f"{what}.{key} must be {written[key]}, got {v!r}")
        kw[key] = v
    try:
        return cls(**kw)
    except ConfigError as e:
        raise ConfigError(f"{what}: {e}") from e


def write_file(path, *chunks: bytes) -> None:
    """Write `chunks` to `path` whole or not at all: under a temporary name in its
    directory, then renamed into place, so a failed write leaves whatever was at
    `path` before and no temporary file."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except OSError as e:
        raise StorageError(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    """`obj` as sorted-key, 2-space-indented JSON with a final newline."""
    write_file(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def write_csv(path, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_file(path, buf.getvalue().encode())


def write(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` in insertion order, with `header`'s keys beside the table,
    through write_file."""
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
    write_file(path, _PREFIX.pack(magic, VERSION, len(payload)), payload, *blobs)


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
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON or JSON nested too deep
        raise StorageError(f"{path}: corrupt header: {e}") from e
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(entries, list) or not all(_is_entry(e) for e in entries):
        raise StorageError(f"{path}: header needs a tensors table whose entries have a "
                           "name, an offset and a shape of non-negative integers")
    stated = header.get("format_version")
    if not is_count(stated) or stated != version:  # true and 1.0 equal 1 but are no version
        raise StorageError(f"{path}: header format_version {stated!r}, expected {version}")
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
