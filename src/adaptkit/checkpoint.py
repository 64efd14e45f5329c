"""Checkpoint files: a network's tensors in the store container.

Magic b"OTAC". Besides the store's tensor table the header records the
architecture and, for a stage-2 backbone, backbone_only. An architecture
that ArchSpec rejects is a malformed file.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import store
from .errors import ConfigError, StorageError
from .layers import ArchSpec, Network, build_network

MAGIC = b"OTAC"


def _read(path) -> tuple[ArchSpec, dict, dict[str, np.ndarray]]:
    header, tensors = store.read(path, MAGIC)
    try:
        d = header["arch"]
        arch = ArchSpec(d["input_dim"], tuple(d["hidden"]), d["num_classes"], d["batchnorm"])
    except (KeyError, TypeError, ConfigError) as e:
        raise StorageError(f"{path}: malformed checkpoint arch: {e!r}") from e
    return arch, header, tensors


def save_checkpoint(net: Network, path) -> None:
    store.write(path, MAGIC, {"arch": asdict(net.arch)},
                {t.name: t.data for t in net.all_tensors()})


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
    unused = set(tensors) - {t.name for t in net.all_tensors()}
    if unused:
        raise StorageError(f"{path}: tensors {sorted(unused)} are not used by {arch}")
    for t in net.all_tensors():
        if t.name not in tensors:
            raise StorageError(f"{path}: missing tensor {t.name!r}")
        if tensors[t.name].shape != t.shape:
            raise StorageError(f"{path}: architecture mismatch for {t.name!r}: "
                               f"{tensors[t.name].shape} vs {t.shape}")
        t.data = tensors[t.name]
    net.eval()
    return net, header


def save_backbone(arch: ArchSpec, tensors: dict[str, np.ndarray], path) -> None:
    """Write representation tensors (name -> array) in sorted-name order."""
    store.write(path, MAGIC, {"arch": asdict(arch), "backbone_only": True},
                dict(sorted(tensors.items())))


def load_backbone(path) -> tuple[ArchSpec, dict[str, np.ndarray], dict]:
    arch, header, tensors = _read(path)
    if not header.get("backbone_only"):
        raise StorageError(f"{path}: expected a backbone-only checkpoint")
    return arch, tensors, header

