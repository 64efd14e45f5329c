"""Layer stack with explicit reverse-mode backprop.

A Network is an ordered list of layers whose last element is always a dense
classifier: the classifier is `layers[-1]` and the representation (the
backbone) is `layers[:-1]`. That split is what lets the adaptation stage
freeze the classifier while updating the features.

A Network holds no mode. `forward(x)` runs on the running statistics, keeps no
backprop cache and changes neither the network nor the batch; `forward(x,
train=True)` runs on batch statistics, updates the running statistics and also
returns the per-layer caches that `backward` reads.

`forward(x)` walks the batch in `tensor.row_blocks`, the one block rule that every
whole-dataset inference pass follows (`pseudo_label` and each calibration round
walk it too). On each block it runs every layer's own `forward(y, train=False)`
and drops that layer's cache as soon as it returns, so its extra memory is a few
blocks' activations beside the output, however long the batch, and each row's
bits are those of one pass over the whole batch.

A batch is a B x d array or a V x B x d stack of V views of the same B rows
(stage 2 runs its two augmented views as one stack). Every layer treats the
views independently: train-mode BatchNorm takes its statistics per view and
updates its running statistics once per view, in view order, and a parameter
grad is the sum of the per-view grads in view order. Each view's numbers are
bit for bit those of a separate B x d pass.

BatchNorm (Ioffe and Szegedy 2015) is y = d (gamma inv_std) + beta on the centred d,
its cache. Per view, (1/n) 1^T x, 1^T dy and every other row sum is a gemv against a
cached vector; the variance and dgamma = inv_std sum(dy d) are einsums over d.

A pass allocates what it returns, except that in either mode each BatchNorm and
ReLU after the first layer writes over its input, which no other layer holds, and
a train-mode BatchNorm backward writes dx over its cache, so a cache is read once.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import ConfigError, ShapeError
from .store import is_count
from .tensor import Tensor, check_finite, row_blocks

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # new = 0.9 * old + 0.1 * batch


def _sum_views(g: np.ndarray, ndim: int) -> np.ndarray:
    """A parameter grad from a V-stack of per-view grads: their sum, added one view
    after the other as V separate passes would accumulate it."""
    return reduce(np.add, g) if g.ndim > ndim else g


@cache
def _fill(n: int, value: float) -> np.ndarray:
    """n copies of value, read-only, built once per (n, value): `_fill(n, 1) @ x` row-sums x."""
    v = np.full(n, float(value))
    v.flags.writeable = False
    return v


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

    def forward(self, x: np.ndarray, train: bool, own: bool = False):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense expected width {self.in_dim}, got {x.shape[-1]}")
        y = x @ self.weight.data.T
        y += self.bias.data
        return y, x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        self.param_grads(cache, dy)
        return dy @ self.weight.data

    def param_grads(self, cache, dy: np.ndarray) -> None:
        """backward's weight and bias grads, without its input grad."""
        self.weight.add_grad(_sum_views(np.swapaxes(dy, -1, -2) @ cache, 2))
        self.bias.add_grad(_sum_views(_fill(dy.shape[-2], 1) @ dy, 1))


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

    def forward(self, x: np.ndarray, train: bool, own: bool = False):
        # the centred x is the cache; y = d (gamma inv_std) + beta
        centred = x if own else None
        if train:
            n = x.shape[-2]
            if n < 2:
                raise ConfigError("batchnorm in train mode needs a batch of at least 2")
            mean = (_fill(n, 1 / n) @ x)[..., None, :]
            d = np.subtract(x, mean, out=centred)
            var = np.einsum("...ij,...ij->...j", d, d) / n
            for m, v in zip(mean.reshape(-1, self.dim), var.reshape(-1, self.dim)):
                for stat, batch in ((self.running_mean.data, m), (self.running_var.data, v)):
                    stat *= 1 - BN_MOMENTUM
                    stat += BN_MOMENTUM * batch
        else:
            d = np.subtract(x, self.running_mean.data, out=centred)
            var = self.running_var.data
        inv_std = (1.0 / np.sqrt(var + BN_EPS))[..., None, :]
        y = d * (self.gamma.data * inv_std)
        y += self.beta.data
        return y, (d, inv_std, train)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        d, inv_std, train = cache
        n = dy.shape[-2]
        dbeta = _fill(n, 1) @ dy
        dgamma = np.einsum("...ij,...ij->...j", dy, d) * inv_std[..., 0, :]
        self.gamma.add_grad(_sum_views(dgamma, 1))
        self.beta.add_grad(_sum_views(dbeta, 1))
        if not train:
            return dy * (self.gamma.data * inv_std)
        # Batch statistics participate in the forward pass: dx = gamma inv_std (dy -
        # dbeta / n - d inv_std dgamma / n), written over d, which no one reads again.
        dx = np.subtract(dy, np.multiply(d, inv_std * (dgamma / n)[..., None, :], out=d), out=d)
        dx -= (dbeta / n)[..., None, :]
        dx *= self.gamma.data * inv_std
        return dx


class ReLU:
    kind = "relu"

    def parameters(self):
        return []

    def forward(self, x: np.ndarray, train: bool, own: bool = False):
        y = np.maximum(x, 0.0, out=x if own else None)
        return y, y

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        return dy * (cache > 0)


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

    # -- parameters ------------------------------------------------------
    @property
    def classifier(self) -> Dense:
        return self.layers[-1]

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def representation_parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers[:-1]:
            out.extend(layer.parameters())
        return out

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

    # -- forward / backward ----------------------------------------------
    def forward(self, batch: np.ndarray, train: bool = False):
        """Run the stack on the running statistics; with train=True, on batch statistics
        that update the running ones, and also return the backprop cache."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3):
            raise ShapeError(f"expected a 2-d batch or a 3-d stack of views, got shape {x.shape}")
        if 0 in x.shape[:-1]:
            raise ShapeError("empty batch")
        if train:  # every layer but the first owns its input, unless it is a ReLU's cache
            caches = []
            for i, layer in enumerate(self.layers):
                x, cache = layer.forward(x, True, i > 0 and self.layers[i - 1].kind != "relu")
                caches.append(cache)
            return check_finite(x, "network output"), caches
        out = None
        for rows in row_blocks(x.shape[-2]):
            y = x[..., rows, :]
            for i, layer in enumerate(self.layers):  # each layer's cache dropped as it returns;
                y = layer.forward(y, False, i > 0)[0]  # BN, ReLU write over all but the batch
            if out is None:  # after the first block, so not on top of its layers' peak
                out = np.empty(x.shape[:-1] + y.shape[-1:])
            out[..., rows, :] = y
        return check_finite(out, "network output")

    def backward(self, caches: list, dout: np.ndarray) -> None:
        """Accumulate parameter grads from an upstream gradient. The input grad is not
        computed: nothing reads it, so a first Dense layer takes only its weight and bias
        grads."""
        if len(caches) != len(self.layers):
            raise ConfigError("backward called with a cache that does not match the forward pass")
        dy = np.asarray(dout, dtype=np.float64)
        for layer, cache in zip(self.layers[:0:-1], caches[:0:-1]):
            dy = layer.backward(cache, dy)
        first = self.layers[0]
        (first.param_grads if first.kind == "dense" else first.backward)(caches[0], dy)

    def copy(self) -> "Network":
        return copy.deepcopy(self)


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
