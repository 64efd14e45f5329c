"""Binary checkpoint format.

Layout: magic b"OTAC", u32 version, u32 header length, UTF-8 JSON header,
then a single raw little-endian float64 blob. The header records the
architecture, tensor names/shapes/offsets into the blob, an optional RNG
state, and free-form metadata (e.g. backbone_only). Raw f64 bytes make the
round trip bit-exact.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .data import _is_count
from .errors import StorageError
from .layers import ArchSpec, Network, build_network
from .tensor import Tensor

MAGIC = b"OTAC"
VERSION = 1


def _write(path, arch: ArchSpec, tensors: list[tuple[str, np.ndarray]], meta: dict) -> None:
    entries = []
    offset = 0
    blobs = []
    for name, data in tensors:
        if not name:
            raise StorageError("cannot checkpoint an unnamed tensor")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        raw = data.astype("<f8").tobytes()
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": VERSION,
        "arch": arch.to_dict(),
        "tensors": entries,
        **meta,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(payload)))
            f.write(payload)
            for raw in blobs:
                f.write(raw)
    except OSError as e:
        raise StorageError(f"cannot write checkpoint {path}: {e}") from e


def _read(path) -> tuple[ArchSpec, dict, dict[str, np.ndarray]]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise StorageError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise StorageError(f"{path}: not a checkpoint file (bad magic)")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise StorageError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise StorageError(f"{path}: corrupt checkpoint header: {e}") from e
    try:
        arch = ArchSpec.from_dict(header["arch"])
        entries = list(header["tensors"])
        if not all(isinstance(e["name"], str) and _is_count(e["offset"])
                   and all(_is_count(v) for v in e["shape"]) for e in entries):
            raise StorageError(f"{path}: tensor entries need a name, an offset and a "
                               "shape of non-negative integers")
    except (KeyError, TypeError, ValueError) as e:
        raise StorageError(f"{path}: malformed checkpoint header: {e!r}") from e
    blob = raw[12 + hlen :]
    tensors = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        start = entry["offset"]
        end = start + 8 * math.prod(shape)
        if end > len(blob):
            raise StorageError(f"{path}: truncated checkpoint data")
        tensors[entry["name"]] = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
    return arch, header, tensors


def save_checkpoint(net: Network, path, rng_state: dict | None = None,
                    meta: dict | None = None) -> None:
    extra = dict(meta or {})
    if rng_state is not None:
        extra["rng_state"] = json.loads(json.dumps(rng_state, default=int))
    _write(path, net.arch, [(t.name, t.data) for t in net.all_tensors()], extra)


def load_checkpoint(path, expect_arch: ArchSpec | None = None) -> tuple[Network, dict]:
    """Rebuild a Network from a checkpoint; returns (net, header)."""
    arch, header, tensors = _read(path)
    if expect_arch is not None and arch != expect_arch:
        raise StorageError(
            f"architecture mismatch: checkpoint has {arch}, expected {expect_arch}"
        )
    if header.get("backbone_only"):
        raise StorageError(f"{path}: backbone-only checkpoint, expected a full network")
    net = build_network(arch, np.random.default_rng(0))
    _load_tensors(net.all_tensors(), tensors, path)
    net.eval()
    return net, header


def save_backbone(arch: ArchSpec, tensors: dict[str, np.ndarray], path,
                  meta: dict | None = None) -> None:
    """Write representation tensors (name -> array) in sorted-name order."""
    extra = {"backbone_only": True, **(meta or {})}
    _write(path, arch, sorted(tensors.items()), extra)


def load_backbone(path) -> tuple[ArchSpec, dict[str, np.ndarray], dict]:
    arch, header, tensors = _read(path)
    if not header.get("backbone_only"):
        raise StorageError(f"{path}: expected a backbone-only checkpoint")
    return arch, tensors, header


def _load_tensors(targets: list[Tensor], source: dict[str, np.ndarray], path) -> None:
    for t in targets:
        if t.name not in source:
            raise StorageError(f"{path}: missing tensor {t.name!r}")
        data = source[t.name]
        if data.shape != t.shape:
            raise StorageError(
                f"{path}: architecture mismatch for {t.name!r}: {data.shape} vs {t.shape}"
            )
        t.data = data
