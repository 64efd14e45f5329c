"""Checkpoint files: a network's tensors in the store container.

Magic b"OTAC". Besides the store's tensor table the header records the
architecture and, for a stage-2 backbone, backbone_only. An architecture
that ArchSpec rejects is a malformed file, and so are a backbone_only that is
not a JSON bool and a tensor table that does not match the architecture's
tensors.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import store
from .errors import ConfigError, StorageError
from .layers import ArchSpec, Network, build_network

MAGIC = b"OTAC"


def _read(path, backbone_only: bool) -> Network:
    """Rebuild a network from a full or (backbone_only) a backbone file. A stray,
    missing or misshaped tensor, or a header arch larger than the file's tensors,
    is a StorageError. A backbone file leaves the classifier at its draw."""
    header, tensors = store.read(path, MAGIC)
    try:
        arch = store.from_dict(ArchSpec, header.get("arch"), "arch")
    except ConfigError as e:
        raise StorageError(f"{path}: malformed checkpoint arch: {e}") from e
    flag = header.get("backbone_only", False)
    if not isinstance(flag, bool):
        raise StorageError(f"{path}: header backbone_only must be a JSON bool, got {flag!r}")
    if flag != backbone_only:
        raise StorageError(f"{path}: expected a backbone-only checkpoint" if backbone_only
                           else f"{path}: backbone-only checkpoint, expected a full network")
    widths = (arch.input_dim, *arch.hidden)  # count the values arch reads before any draw
    need = sum((a + 1 + 4 * arch.batchnorm) * b for a, b in zip(widths, widths[1:]))
    need += 0 if backbone_only else (widths[-1] + 1) * arch.num_classes
    held = sum(t.size for t in tensors.values())
    if need > held:
        raise StorageError(f"{path}: {arch} needs {need} values, the file holds {held}")
    try:  # now no bigger than the file, but for a backbone file's drawn classifier
        net = build_network(arch, np.random.default_rng(0))
    except MemoryError as e:
        raise StorageError(f"{path}: cannot draw {arch}: {e}") from e
    wanted = net.backbone_tensors() if backbone_only else net.all_tensors()
    unused = set(tensors) - {t.name for t in wanted}
    if unused:
        raise StorageError(f"{path}: tensors {sorted(unused)} are not used by {arch}")
    for t in wanted:
        if t.name not in tensors:
            raise StorageError(f"{path}: missing tensor {t.name!r}")
        if tensors[t.name].shape != t.shape:
            raise StorageError(f"{path}: architecture mismatch for {t.name!r}: "
                               f"{tensors[t.name].shape} vs {t.shape}")
        t.data = tensors[t.name]
    return net


def save_checkpoint(net: Network, path) -> None:
    store.write(path, MAGIC, {"arch": asdict(net.arch)},
                {t.name: t.data for t in net.all_tensors()})


def load_checkpoint(path, expect_arch: ArchSpec | None = None) -> Network:
    """Rebuild a Network from a checkpoint."""
    net = _read(path, backbone_only=False)
    if expect_arch is not None and net.arch != expect_arch:
        raise StorageError(
            f"architecture mismatch: checkpoint has {net.arch}, expected {expect_arch}"
        )
    return net


def save_backbone(arch: ArchSpec, tensors: dict[str, np.ndarray], path) -> None:
    """Write representation tensors (name -> array) in sorted-name order."""
    store.write(path, MAGIC, {"arch": asdict(arch), "backbone_only": True},
                dict(sorted(tensors.items())))


def load_backbone(path) -> Network:
    """Read a backbone file, checked as load_checkpoint checks a full one."""
    return _read(path, backbone_only=True)
