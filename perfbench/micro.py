"""Kernel microbenchmarks at the shapes the pipeline runs.

Each kernel is timed call by call (inputs reset outside the timed interval)
and reported as the median in microseconds. Operation counts and bytes moved
are computed from the shapes, not measured: flops count the arithmetic the
numpy code performs (random draws excluded), bytes count float64 inputs read
and outputs written once each (intermediates excluded).
"""
from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

B = 128  # the pipeline's batch size
F64 = 8
MIN_SAMPLES = 30
MIN_SECONDS = 0.08


def _time_us(call, reset=None) -> float:
    for _ in range(3):
        if reset:
            reset()
        call()
    samples: list[float] = []
    start = perf_counter()
    while len(samples) < MIN_SAMPLES or perf_counter() - start < MIN_SECONDS:
        if reset:
            reset()
        t0 = perf_counter()
        call()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


def kernels(rng: np.random.Generator, workdir: Path):
    """Yield (name, call, reset, computed flop or None, computed bytes)."""
    from adaptkit import checkpoint, losses
    from adaptkit.data import AugmentationPolicy, augment
    from adaptkit.layers import ArchSpec, BatchNorm, Dense, ReLU, build_network
    from adaptkit.optim import SGD

    for i, o in ((32, 64), (64, 64), (32, 32), (32, 10)):
        layer = Dense(i, o, rng)
        x = rng.normal(size=(B, i))
        dy = rng.normal(size=(B, o))
        yield (f"dense_fwd_{i}x{o}", lambda l=layer, x=x: l.forward(x, True), None,
               2 * B * i * o + B * o, F64 * (B * i + i * o + o + B * o))
        yield (f"dense_bwd_{i}x{o}", lambda l=layer, x=x, dy=dy: l.backward(x, dy),
               lambda l=layer: (l.weight.zero_grad(), l.bias.zero_grad()),
               4 * B * i * o + B * o, F64 * (2 * B * o + 2 * B * i + 2 * i * o + o))

    for w in (64, 32):
        bn = BatchNorm(w)
        x = rng.normal(size=(B, w))
        dy = rng.normal(size=(B, w))
        _, cache = bn.forward(x, True)
        # forward writes y and the cached xhat; backward reads dy and xhat.
        yield (f"bn_fwd_train_{w}", lambda bn=bn, x=x: bn.forward(x, True), None,
               7 * B * w + 8 * w, F64 * (3 * B * w + 6 * w))
        yield (f"bn_bwd_train_{w}", lambda bn=bn, c=cache, dy=dy: bn.backward(c, dy),
               lambda bn=bn: (bn.gamma.zero_grad(), bn.beta.zero_grad()),
               11 * B * w, F64 * (3 * B * w + 3 * w))
        yield (f"bn_fwd_eval_{w}", lambda bn=bn, x=x: bn.forward(x, False), None,
               4 * B * w + 2 * w, F64 * (3 * B * w + 4 * w))

    relu = ReLU()
    x = rng.normal(size=(B, 64))
    _, mask = relu.forward(x, True)
    yield ("relu_fwd_64", lambda: relu.forward(x, True), None,
           2 * B * 64, (2 * F64 + 1) * B * 64)
    yield ("relu_bwd_64", lambda: relu.backward(mask, x), None,
           B * 64, (2 * F64 + 1) * B * 64)

    d = 16
    q, k = rng.normal(size=(B, d)), rng.normal(size=(B, d))
    yield ("infonce_128x16", lambda: losses.infonce_loss(q, k, 0.2), None,
           2 * B * B * d + 5 * B * B + 6 * B * d, F64 * (2 * B * d + B))
    yield ("infonce_grad_128x16", lambda: losses.infonce_loss_grad(q, k, 0.2), None,
           6 * B * B * d + 7 * B * B + 14 * B * d, F64 * 4 * B * d)

    c = 10
    probs = losses.softmax(rng.normal(size=(B, c)))
    targets = rng.integers(0, c, size=B)
    yield ("ce_128x10", lambda: losses.cross_entropy(probs, targets, 0.1), None,
           7 * B * c, F64 * (B * c + 2 * B))
    yield ("ce_grad_128x10", lambda: losses.cross_entropy_grad(probs, targets, 0.1), None,
           3 * B * c, F64 * (2 * B * c + B))

    policy = AugmentationPolicy()
    x = rng.normal(size=(B, 32))
    yield ("augment_strong_128x32", lambda: augment(x, policy, "strong", rng), None,
           5 * B * 32, F64 * 2 * B * 32)
    yield ("augment_weak_128x32", lambda: augment(x, policy, "weak", rng), None,
           2 * B * 32, F64 * 2 * B * 32)

    teacher = build_network(ArchSpec(32, (64, 64), 10), rng)
    params = teacher.parameters()
    for p in params:
        p.grad = rng.normal(size=p.shape)
    opt = SGD(params, 0.05, 0.9, 1e-4)
    n = sum(p.size for p in params)
    # weight decay (2 flops on decayed elements), momentum (2), update (2);
    # reads param, grad, velocity and writes velocity, param.
    decayed = sum(p.size for p in params if not p.name.endswith((".bias", ".gamma", ".beta")))
    yield ("sgd_step_teacher", opt.step, None, 4 * n + 2 * decayed, F64 * 5 * n)

    path = workdir / "micro.ckpt"
    checkpoint.save_checkpoint(teacher, path)
    size = path.stat().st_size
    yield ("ckpt_roundtrip_teacher",
           lambda: (checkpoint.save_checkpoint(teacher, path), checkpoint.load_checkpoint(path)),
           None, None, 2 * size)


def run(seed: int, workdir: Path) -> dict[str, tuple[float, str]]:
    """All kernels' metrics: micro.<kernel>.us plus computed flop and bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, call, reset, flop, nbytes in kernels(np.random.default_rng(seed), workdir):
        out[f"micro.{name}.us"] = (_time_us(call, reset), "us")
        if flop is not None:
            out[f"micro.{name}.computed_flop"] = (flop, "flop")
        out[f"micro.{name}.computed_bytes"] = (nbytes, "B")
    return out
