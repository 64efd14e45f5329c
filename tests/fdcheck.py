"""Central finite-difference oracles shared by the gradient tests, and the reference
walk over a list of layers that tests read one-pass caches, features and input grads
from (`Network.forward` and `Network.backward` walk their own layers)."""
import numpy as np


def forward_layers(layers: list, x: np.ndarray, train: bool) -> tuple[np.ndarray, list]:
    """Run x through the layers in order; returns the output and the backprop caches.
    Every layer after the first owns its input, which BatchNorm and ReLU write over,
    unless it follows a ReLU: a ReLU's output is its cache."""
    caches = []
    for i, layer in enumerate(layers):
        x, cache = layer.forward(x, train, i > 0 and layers[i - 1].kind != "relu")
        caches.append(cache)
    return x, caches


def backward_layers(layers: list, caches: list, dy: np.ndarray) -> np.ndarray:
    """Accumulate parameter grads in reverse layer order; returns the input gradient."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(cache, dy)
    return dy


def fd_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def fd_param_grads(loss_fn, params, h=1e-5):
    """Finite differences of a scalar loss over a list of parameter Tensors."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gf[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    """Max |a - n| / max(|a|, |n|, floor) over matched flat arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst
