"""Layer stack with explicit reverse-mode backprop.

A Network is an ordered list of layers whose last element is always a dense
classifier. The parameter set is partitioned into representation parameters
(everything before the classifier) and classifier parameters (final dense
weight + bias); the partition is what lets the adaptation stage freeze the
classifier while updating the features.

A Network holds no mode. `forward(x)` runs on the running statistics, keeps no
backprop cache and changes neither the network nor the batch; `forward(x,
train=True)` runs on batch statistics, updates the running statistics and also
returns the per-layer caches that `backward` reads.

A batch is a B x d array or a V x B x d stack of V views of the same B rows
(stage 2 runs its two augmented views as one stack). Every layer treats the
views independently: train-mode BatchNorm takes its statistics per view and
updates its running statistics once per view, in view order, and a parameter
grad is the sum of the per-view grads in view order. Each view's numbers are
bit for bit those of a separate B x d pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, ShapeError
from .store import is_count
from .tensor import Tensor, check_finite, fingerprint_all

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # new = 0.9 * old + 0.1 * batch


def _sum_views(g: np.ndarray, ndim: int) -> np.ndarray:
    """A parameter grad from a V-stack of per-view grads: their sum, added one view
    after the other as V separate passes would accumulate it."""
    return reduce(np.add, g) if g.ndim > ndim else g


class Dense:
    kind = "dense"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, prefix: str = ""):
        # Glorot-uniform weights, zero bias.
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_dim, in_dim)),
                             name=f"{prefix}.weight")
        self.bias = Tensor(np.zeros(out_dim), name=f"{prefix}.bias")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def parameters(self):
        return [self.weight, self.bias]

    def copy(self) -> "Dense":
        new = Dense.__new__(Dense)
        new.weight = self.weight.copy()
        new.bias = self.bias.copy()
        return new

    def forward(self, x: np.ndarray, train: bool):
        return self._infer(x, False), x

    def _infer(self, x: np.ndarray, own: bool) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense expected width {self.in_dim}, got {x.shape[-1]}")
        y = x @ self.weight.data.T
        return np.add(y, self.bias.data, out=y)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        x = cache
        self.weight.add_grad(_sum_views(np.swapaxes(dy, -1, -2) @ x, 2))
        self.bias.add_grad(_sum_views(dy.sum(axis=-2), 1))
        return dy @ self.weight.data


class BatchNorm:
    kind = "batchnorm"

    def __init__(self, dim: int, prefix: str = ""):
        self.gamma = Tensor(np.ones(dim), name=f"{prefix}.gamma")
        self.beta = Tensor(np.zeros(dim), name=f"{prefix}.beta")
        self.running_mean = Tensor(np.zeros(dim), name=f"{prefix}.running_mean")
        self.running_var = Tensor(np.ones(dim), name=f"{prefix}.running_var")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def parameters(self):
        return [self.gamma, self.beta]

    def state_tensors(self):
        return [self.running_mean, self.running_var]

    def copy(self) -> "BatchNorm":
        new = BatchNorm.__new__(BatchNorm)
        new.gamma = self.gamma.copy()
        new.beta = self.beta.copy()
        new.running_mean = self.running_mean.copy()
        new.running_var = self.running_var.copy()
        return new

    def forward(self, x: np.ndarray, train: bool):
        if train:
            n = x.shape[-2]
            if n < 2:
                raise ConfigError("batchnorm in train mode needs a batch of at least 2")
            # mean and biased variance per view, as x.mean and x.var compute them
            mean = x.sum(axis=-2, keepdims=True) / n
            d = x - mean
            var = (d * d).sum(axis=-2, keepdims=True) / n
            rm, rv = self.running_mean, self.running_var
            for m, v in zip(mean.reshape(-1, self.dim), var.reshape(-1, self.dim)):
                rm.data = (1 - BN_MOMENTUM) * rm.data + BN_MOMENTUM * m
                rv.data = (1 - BN_MOMENTUM) * rv.data + BN_MOMENTUM * v
        else:
            d = x - self.running_mean.data
            var = self.running_var.data
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = d * inv_std
        y = self.gamma.data * xhat + self.beta.data
        return y, (xhat, inv_std, train)

    def _infer(self, x: np.ndarray, own: bool) -> np.ndarray:
        y = np.subtract(x, self.running_mean.data, out=x if own else None)
        y *= 1.0 / np.sqrt(self.running_var.data + BN_EPS)
        y *= self.gamma.data
        return np.add(y, self.beta.data, out=y)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        xhat, inv_std, train = cache
        self.gamma.add_grad(_sum_views((dy * xhat).sum(axis=-2), 1))
        self.beta.add_grad(_sum_views(dy.sum(axis=-2), 1))
        dxhat = dy * self.gamma.data
        if train:
            # Batch statistics participate in the forward pass.
            n = dy.shape[-2]
            return (dxhat - dxhat.sum(axis=-2, keepdims=True) / n
                    - xhat * ((dxhat * xhat).sum(axis=-2, keepdims=True) / n)) * inv_std
        return dxhat * inv_std


class ReLU:
    kind = "relu"

    def parameters(self):
        return []

    def copy(self) -> "ReLU":
        return ReLU()

    def forward(self, x: np.ndarray, train: bool):
        mask = x > 0
        return x * mask, mask

    def _infer(self, x: np.ndarray, own: bool) -> np.ndarray:
        return np.multiply(x, x > 0, out=x if own else None)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        return dy * cache


def forward_layers(layers: list, x: np.ndarray, train: bool) -> tuple[np.ndarray, list]:
    """Run x through the layers in order; returns the output and the backprop cache."""
    caches = []
    for layer in layers:
        x, cache = layer.forward(x, train)
        caches.append(cache)
    return x, caches


def backward_layers(layers: list, caches: list, dy: np.ndarray) -> np.ndarray:
    """Accumulate parameter grads in reverse layer order; returns the input gradient."""
    if len(caches) != len(layers):
        raise ConfigError("backward called with a cache that does not match the forward pass")
    dy = np.asarray(dy, dtype=np.float64)
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(cache, dy)
    return dy


@dataclass(frozen=True)
class ArchSpec:
    """Dense net blueprint: dense(+batchnorm+relu) blocks then a dense classifier."""

    input_dim: int
    hidden: tuple[int, ...]
    num_classes: int
    batchnorm: bool = True

    def __post_init__(self):
        if not (all(is_count(w, 1) for w in (self.input_dim, *self.hidden))
                and is_count(self.num_classes, 2) and isinstance(self.batchnorm, bool)):
            raise ConfigError("an architecture needs positive integer widths, at least 2 "
                              f"classes and a boolean batchnorm, got {self}")


class Network:
    """Ordered layer stack whose final layer is the dense classifier."""

    def __init__(self, layers: list, arch: ArchSpec):
        if not layers or layers[-1].kind != "dense":
            raise ConfigError("last layer must be the dense classifier")
        self.layers = layers
        self.arch = arch
        self.classifier_index = len(layers) - 1

    # -- parameters ------------------------------------------------------
    @property
    def classifier(self) -> Dense:
        return self.layers[self.classifier_index]

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def representation_parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers[: self.classifier_index]:
            out.extend(layer.parameters())
        return out

    def classifier_parameters(self) -> list[Tensor]:
        return self.classifier.parameters()

    def state_tensors(self) -> list[Tensor]:
        """Non-trainable state: batchnorm running statistics."""
        out = []
        for layer in self.layers:
            if layer.kind == "batchnorm":
                out.extend(layer.state_tensors())
        return out

    def all_tensors(self) -> list[Tensor]:
        return self.parameters() + self.state_tensors()

    def backbone_tensors(self) -> list[Tensor]:
        """What a stage-2 backbone holds: representation parameters, then running stats."""
        return self.representation_parameters() + self.state_tensors()

    def classifier_fingerprint(self) -> str:
        return fingerprint_all(self.classifier_parameters())

    # -- forward / backward ----------------------------------------------
    def _forward(self, layers: list, batch: np.ndarray, train: bool, what: str):
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3):
            raise ShapeError(f"expected a 2-d batch or a 3-d stack of views, got shape {x.shape}")
        if 0 in x.shape[:-1]:
            raise ShapeError("empty batch")
        if train:
            x, caches = forward_layers(layers, x, True)
            return check_finite(x, what), caches
        for i, layer in enumerate(layers):  # forward(x, False)'s expressions, no cache,
            x = layer._infer(x, i > 0)  # in place on all but the batch
        return check_finite(x, what)

    def forward(self, batch: np.ndarray, train: bool = False):
        """Run the stack on the running statistics; with train=True, on batch statistics
        that update the running ones, and also return the backprop cache."""
        return self._forward(self.layers, batch, train, "network output")

    def forward_features(self, batch: np.ndarray, train: bool = False):
        """Like forward, through the representation layers only (no classifier)."""
        return self._forward(self.layers[: self.classifier_index], batch, train,
                             "feature output")

    def backward(self, caches: list, dout: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads from an upstream gradient; returns dx."""
        return backward_layers(self.layers, caches, dout)

    def backward_features(self, caches: list, dout: np.ndarray) -> np.ndarray:
        return backward_layers(self.layers[: self.classifier_index], caches, dout)

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers], self.arch)


def build_network(arch: ArchSpec, rng: np.random.Generator) -> Network:
    """Construct a fresh network for an ArchSpec with Glorot-uniform init."""
    layers: list = []
    prev = arch.input_dim
    for i, width in enumerate(arch.hidden):
        layers.append(Dense(prev, width, rng, prefix=f"block{i}.dense"))
        if arch.batchnorm:
            layers.append(BatchNorm(width, prefix=f"block{i}.bn"))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, arch.num_classes, rng, prefix="classifier"))
    return Network(layers, arch)
