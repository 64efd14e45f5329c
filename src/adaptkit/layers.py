"""Layer stack with explicit reverse-mode backprop.

A Network is an ordered list of layers whose last element is always a dense
classifier: the classifier is `layers[-1]` and the representation (the
backbone) is `layers[:-1]`. That split is what lets the adaptation stage
freeze the classifier while updating the features.

A Network holds no mode. `forward(x)` runs on the running statistics, keeps no
backprop cache and changes neither the network nor the batch; `forward(x,
train=True)` runs on batch statistics, updates the running statistics and also
returns the per-layer caches that `backward` reads.

`forward(x)` walks the batch in `tensor.row_blocks`, the one block rule that
every whole-dataset inference pass follows (`pseudo_label` and calibration walk
it too), so its extra memory is a few blocks' activations beside the output,
however long the batch, and each row's bits are those of one pass over the
whole batch.

A batch is a B x d array or a V x B x d stack of V views of the same B rows
(stage 2 runs its two augmented views as one stack). Every layer treats the
views independently: train-mode BatchNorm takes its statistics per view and
updates its running statistics once per view, in view order, and a parameter
grad is the sum of the per-view grads in view order. Each view's numbers are
bit for bit those of a separate B x d pass.

A train-mode pass may write into a `Workspace`: each layer then puts its
batch-sized arrays in the workspace's arrays with `out=`, in the same
expressions, so the bits are those of a pass without one. `optim.fit` makes one
per training loop and hands it to every step, so the steps after the first
allocate no batch-sized array. A forward pass's outputs and caches, and the
weight grads a backward pass adds, live until the loop's next step, and `fit`
clears the grads when it returns; the input grad that `backward_layers`
returns lives until the next backward pass. Without a workspace a pass
allocates what it returns. Either way `forward_layers` lets each BatchNorm and
ReLU after the first layer write over its input, which no other layer holds.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, ShapeError
from .store import is_count
from .tensor import Tensor, check_finite, row_blocks

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # new = 0.9 * old + 0.1 * batch


class Workspace:
    """The arrays that the train steps of one `optim.fit` call write into, one flat
    array per key, as large as the largest batch seen. A step takes its first
    elements, reshaped, so a smaller batch (an epoch's trailing one) reuses the
    array and every array handed out is contiguous.

    What outlives a layer's call has a key of its own, (layer, role): outputs,
    caches and weight grads. Scratch that dies within the call is one array per
    role for all layers, and backward input grads take two arrays in turn. The
    small working set is what makes a step fast: with an array per (layer, role)
    for everything, a step ran ~10% slower than one that allocates its arrays."""

    def __init__(self):
        self._flat: dict = {}
        self._view: dict = {}
        self._turn = False

    def take(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        view = self._view.get(key)
        if view is None or view.shape != shape:
            size = math.prod(shape)
            flat = self._flat.get(key)
            if flat is None or flat.size < size:
                flat = self._flat[key] = np.empty(size, dtype)
            view = self._view[key] = flat[:size].reshape(shape)
        return view

    def take_dx(self, shape: tuple) -> np.ndarray:
        """The array for an input grad: not the one the previous call gave, so a layer
        never writes its input grad over the output grad it reads."""
        self._turn = not self._turn
        return self.take(("dx", self._turn), shape)


def _out(ws: Workspace | None, key, shape: tuple, dtype=np.float64) -> np.ndarray | None:
    """The `out=` array for `key`: the workspace's, or None (numpy allocates) without one."""
    return None if ws is None else ws.take(key, shape, dtype)


def _dx_out(ws: Workspace | None, shape: tuple) -> np.ndarray | None:
    """The `out=` array for a backward pass's input grad, or None without a workspace."""
    return None if ws is None else ws.take_dx(shape)


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

    def forward(self, x: np.ndarray, train: bool, ws: Workspace | None = None,
                own: bool = False):
        return self._infer(x, False, _out(ws, (self, "y"), x.shape[:-1] + (self.out_dim,))), x

    def _infer(self, x: np.ndarray, own: bool, out: np.ndarray | None = None) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense expected width {self.in_dim}, got {x.shape[-1]}")
        y = np.matmul(x, self.weight.data.T, out=out)
        return np.add(y, self.bias.data, out=y)

    def backward(self, cache, dy: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        self.param_grads(cache, dy, ws)
        return np.matmul(dy, self.weight.data, out=_dx_out(ws, cache.shape))

    def param_grads(self, cache, dy: np.ndarray, ws: Workspace | None = None) -> None:
        """backward's weight and bias grads, without its input grad."""
        dw = np.matmul(np.swapaxes(dy, -1, -2), cache,
                       out=_out(ws, (self, "dw"), dy.shape[:-2] + self.weight.shape))
        self.weight.add_grad(_sum_views(dw, 2))
        self.bias.add_grad(_sum_views(dy.sum(axis=-2), 1))


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

    def forward(self, x: np.ndarray, train: bool, ws: Workspace | None = None,
                own: bool = False):
        # the centred x becomes xhat in place
        centred = x if own else _out(ws, (self, "xhat"), x.shape)
        if train:
            n = x.shape[-2]
            if n < 2:
                raise ConfigError("batchnorm in train mode needs a batch of at least 2")
            # mean and biased variance per view, as x.mean and x.var compute them
            mean = x.sum(axis=-2, keepdims=True) / n
            d = np.subtract(x, mean, out=centred)
            var = np.multiply(d, d, out=_out(ws, "tmp", x.shape)).sum(
                axis=-2, keepdims=True) / n
            rm, rv = self.running_mean, self.running_var
            for m, v in zip(mean.reshape(-1, self.dim), var.reshape(-1, self.dim)):
                rm.data = (1 - BN_MOMENTUM) * rm.data + BN_MOMENTUM * m
                rv.data = (1 - BN_MOMENTUM) * rv.data + BN_MOMENTUM * v
        else:
            d = np.subtract(x, self.running_mean.data, out=centred)
            var = self.running_var.data
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = np.multiply(d, inv_std, out=d)
        y = np.multiply(self.gamma.data, xhat, out=_out(ws, (self, "y"), x.shape))
        return np.add(y, self.beta.data, out=y), (xhat, inv_std, train)

    def _infer(self, x: np.ndarray, own: bool) -> np.ndarray:
        y = np.subtract(x, self.running_mean.data, out=x if own else None)
        y *= 1.0 / np.sqrt(self.running_var.data + BN_EPS)
        y *= self.gamma.data
        return np.add(y, self.beta.data, out=y)

    def backward(self, cache, dy: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        xhat, inv_std, train = cache
        tmp = np.multiply(dy, xhat, out=_out(ws, "tmp", dy.shape))
        self.gamma.add_grad(_sum_views(tmp.sum(axis=-2), 1))
        self.beta.add_grad(_sum_views(dy.sum(axis=-2), 1))
        dxhat = np.multiply(dy, self.gamma.data, out=_out(ws, "dxhat", dy.shape))
        if train:
            # Batch statistics participate in the forward pass:
            # (dxhat - sum(dxhat) / n - xhat * (sum(dxhat * xhat) / n)) * inv_std
            n = dy.shape[-2]
            dx = np.subtract(dxhat, dxhat.sum(axis=-2, keepdims=True) / n,
                             out=_dx_out(ws, dy.shape))
            dx -= np.multiply(xhat, np.multiply(dxhat, xhat, out=tmp).sum(
                axis=-2, keepdims=True) / n, out=tmp)
            dx *= inv_std
            return dx
        return np.multiply(dxhat, inv_std, out=_dx_out(ws, dy.shape))


class ReLU:
    kind = "relu"

    def parameters(self):
        return []

    def forward(self, x: np.ndarray, train: bool, ws: Workspace | None = None,
                own: bool = False):
        mask = np.greater(x, 0, out=_out(ws, (self, "mask"), x.shape, bool))
        return np.multiply(x, mask, out=x if own else _out(ws, (self, "y"), x.shape)), mask

    def _infer(self, x: np.ndarray, own: bool) -> np.ndarray:
        return np.multiply(x, x > 0, out=x if own else None)

    def backward(self, cache, dy: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        return np.multiply(dy, cache, out=_dx_out(ws, dy.shape))


def forward_layers(layers: list, x: np.ndarray, train: bool,
                   ws: Workspace | None = None) -> tuple[np.ndarray, list]:
    """Run x through the layers in order; returns the output and the backprop cache.
    Every layer after the first owns its input, which no other layer holds (no layer
    caches its own output), and BatchNorm and ReLU write over it."""
    caches = []
    for i, layer in enumerate(layers):
        x, cache = layer.forward(x, train, ws, i > 0)
        caches.append(cache)
    return x, caches


def backward_layers(layers: list, caches: list, dy: np.ndarray,
                    ws: Workspace | None = None) -> np.ndarray:
    """Accumulate parameter grads in reverse layer order; returns the input gradient."""
    if len(caches) != len(layers):
        raise ConfigError("backward called with a cache that does not match the forward pass")
    dy = np.asarray(dy, dtype=np.float64)
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(cache, dy, ws)
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
    def _forward(self, layers: list, batch: np.ndarray, train: bool, what: str,
                 ws: Workspace | None):
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3):
            raise ShapeError(f"expected a 2-d batch or a 3-d stack of views, got shape {x.shape}")
        if 0 in x.shape[:-1]:
            raise ShapeError("empty batch")
        if train:
            x, caches = forward_layers(layers, x, True, ws)
            return check_finite(x, what), caches
        out = None
        for rows in row_blocks(x.shape[-2]):
            y = x[..., rows, :]
            for i, layer in enumerate(layers):  # forward(x, False)'s expressions, no cache,
                y = layer._infer(y, i > 0)  # in place on all but the batch
            if out is None:
                out = np.empty(x.shape[:-1] + y.shape[-1:])
            out[..., rows, :] = y
        return check_finite(out, what)

    def forward(self, batch: np.ndarray, train: bool = False, ws: Workspace | None = None):
        """Run the stack on the running statistics; with train=True, on batch statistics
        that update the running ones, and also return the backprop cache (written into
        `ws` when given one; an eval pass does not use it)."""
        return self._forward(self.layers, batch, train, "network output", ws)

    def forward_features(self, batch: np.ndarray) -> np.ndarray:
        """Like forward(batch), through the representation layers only (no classifier)."""
        return self._forward(self.layers[:-1], batch, False, "feature output", None)

    def backward(self, caches: list, dout: np.ndarray, ws: Workspace | None = None) -> None:
        """Accumulate parameter grads from an upstream gradient. The input grad is not
        computed: nothing reads it, so a first Dense layer takes only its weight and bias
        grads."""
        if len(caches) != len(self.layers):
            raise ConfigError("backward called with a cache that does not match the forward pass")
        first = self.layers[0]
        grads = first.param_grads if first.kind == "dense" else first.backward
        grads(caches[0], backward_layers(self.layers[1:], caches[1:], dout, ws), ws)

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
