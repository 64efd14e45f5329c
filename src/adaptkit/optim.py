"""SGD with momentum and selective weight decay, and the one epoch x minibatch
training loop every stage runs through, with the rule for its arguments."""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError
from .layers import Workspace
from .tensor import Tensor, check_finite

# Decay is skipped for biases and batchnorm affine parameters.
_NO_DECAY_SUFFIXES = (".bias", ".gamma", ".beta")


def decays(param: Tensor) -> bool:
    return not param.name.endswith(_NO_DECAY_SUFFIXES)


class SGD:
    """v <- momentum*v + grad + wd*param;  param <- param - lr*v.

    Both updates are in place: a caller that keeps a parameter's values across a
    step must hold a copy of `p.data`, not the array itself. The decay term and the
    update term are computed in one scratch array per parameter, kept with the
    optimizer, so a step allocates no parameter-sized array."""

    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if lr < 0:
            raise ConfigError("learning rate must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.decay = [bool(weight_decay) and decays(p) for p in self.params]
        self.scratch = [np.empty_like(p.data) for p in self.params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for p, v, decay, tmp in zip(self.params, self.velocity, self.decay, self.scratch):
            if p.grad is None:
                raise ConfigError(f"step() before backward: {p.name or 'parameter'} has no grad")
            g = p.grad
            if decay:
                g = np.add(g, np.multiply(self.weight_decay, p.data, out=tmp), out=tmp)
            v *= self.momentum
            v += g
            p.data -= np.multiply(lr, v, out=tmp)


def minibatches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled minibatch index blocks; drops a trailing singleton (batchnorm)."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        block = perm[start : start + batch_size]
        if len(block) >= 2:
            yield block


def check_fit_args(batch_size: int, lr: float, epochs: int = 0, momentum: float = 0.0,
                   weight_decay: float = 0.0) -> None:
    """The rule for what a stage config hands to `fit` and `SGD`: `fit` skips one-row
    minibatches (batchnorm needs two rows), so a batch size of 1 would train nothing;
    the lr may be infinite but not negative or NaN; momentum is in [0, 1), and weight
    decay is finite and non-negative."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be at least 2, got {batch_size}")
    if epochs < 0:
        raise ConfigError(f"epochs must be non-negative, got {epochs}")
    if not lr >= 0:
        raise ConfigError(f"lr must be non-negative, got {lr}")
    if not 0 <= momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    if not 0 <= weight_decay < np.inf:
        raise ConfigError(f"weight_decay must be finite and non-negative, got {weight_decay}")


def fit(opt: SGD, tensors: list[Tensor], epochs: int, n: int, batch_size: int,
        rng: np.random.Generator, grads, cosine: bool = False) -> tuple[list[dict], dict | None]:
    """The one epoch x minibatch loop: grads(idx, ws) runs forward and backward into the
    loop's one `Workspace` and returns {loss name: value}, then `opt` steps at a constant
    or cosine lr. Returns per-epoch mean losses and None, or, if a NumericalError put
    `tensors` back as at the start of its epoch and ended the run, the losses so far and
    the abort {"epoch", "reason"}. On return no tensor keeps a grad a step wrote."""
    ws, total = Workspace(), max(1, epochs * max(1, n // batch_size))
    history, step, abort = [], 0, None
    try:
        for epoch in range(epochs):
            start, losses = [t.data.copy() for t in tensors], []
            for idx in minibatches(n, batch_size, rng):
                for t in tensors:
                    t.zero_grad()
                losses.append(grads(idx, ws))
                opt.step(lr=0.5 * opt.lr * (1 + np.cos(np.pi * (min(step, total) / total)))
                         if cosine else opt.lr)
                step += 1
            for t in tensors:
                check_finite(t.data, t.name)
            history.append({"epoch": epoch, **{k: float(np.mean([b[k] for b in losses]))
                                               for k in (losses[0] if losses else ())}})
    except NumericalError as e:
        for t, data in zip(tensors, start):
            t.data = data
        abort = {"epoch": epoch, "reason": str(e)}
    finally:
        for t in tensors:
            t.zero_grad()
    return history, abort
