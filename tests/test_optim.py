import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adaptkit import source
from adaptkit.adapt import partition_parameters
from adaptkit.errors import ConfigError, NumericalError
from adaptkit.data import GeneratorSpec, generate
from adaptkit.layers import ArchSpec, build_network
from adaptkit.optim import SGD, decays, fit
from adaptkit.source import SourceConfig
from adaptkit.tensor import Tensor, keep_freed_memory


def scalar_param(value, name="p.weight"):
    return Tensor(np.array([value]), name=name)


def test_zero_grad_zero_velocity_no_move():
    p = scalar_param(1.0)
    p.add_grad(np.array([0.0]))
    SGD([p], lr=0.1).step()
    assert p.data[0] == 1.0


def test_single_step_arithmetic():
    p = scalar_param(1.0)
    p.add_grad(np.array([0.5]))
    SGD([p], lr=0.1).step()
    assert p.data[0] == pytest.approx(0.95, abs=1e-15)


def test_two_step_momentum_recurrence():
    # hand recurrence: v1=1.0 -> p=0.9; v2=0.9+1.0=1.9 -> p=0.71
    p = scalar_param(1.0)
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.add_grad(np.array([1.0]))
    opt.step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-15)
    p.zero_grad()
    p.add_grad(np.array([1.0]))
    opt.step()
    assert p.data[0] == pytest.approx(0.71, abs=1e-15)
    assert opt.velocity[0][0] == pytest.approx(1.9, abs=1e-15)


def test_weight_decay_applied_to_weights_only():
    w = scalar_param(2.0, "x.weight")
    b = scalar_param(2.0, "x.bias")
    g = scalar_param(2.0, "x.gamma")
    for p in (w, b, g):
        p.add_grad(np.array([0.0]))
    SGD([w, b, g], lr=0.1, weight_decay=0.5).step()
    assert w.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
    assert b.data[0] == 2.0
    assert g.data[0] == 2.0
    assert decays(w) and not decays(b) and not decays(g)


def test_step_without_grads_raises():
    p = scalar_param(1.0)
    with pytest.raises(ConfigError):
        SGD([p], lr=0.1).step()


def test_lr_zero_leaves_network_bit_identical():
    net = build_network(ArchSpec(4, (6,), 3), np.random.default_rng(0))
    before = [p.data.copy() for p in net.parameters()]
    x = np.random.default_rng(1).normal(size=(4, 4))
    logits, caches = net.forward(x, train=True)
    net.backward(caches, np.ones_like(logits))
    SGD(net.parameters(), lr=0.0, momentum=0.9, weight_decay=1e-4).step()
    for p, b in zip(net.parameters(), before):
        assert np.array_equal(p.data, b)


# ---------------------------------------------------------------------------
# lr schedule in fit


class RecordingSGD(SGD):
    """SGD that records the lr `fit` passes to every step."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.lrs = []

    def step(self, lr=None):
        self.lrs.append(lr)
        super().step(lr)


def fit_lrs(cosine, epochs, n, batch_size, lr=0.1):
    """Every lr `fit` passes to SGD.step over `epochs` passes of `n` rows."""
    p = scalar_param(1.0)
    opt = RecordingSGD([p], lr=lr, momentum=0.9)
    net = SimpleNamespace(all_tensors=lambda: [p], forward=lambda idx, train: (idx, None),
                          backward=lambda caches, dout: p.add_grad(np.array([0.5])))
    fit(opt, net, epochs, n, batch_size, np.random.default_rng(0), lambda idx: idx,
        lambda out, idx: ({}, None), cosine=cosine)
    return opt.lrs


def test_constant_schedule():
    lrs = fit_lrs(False, 3, 10, 4, lr=0.3)
    assert lrs == [0.3] * 9  # blocks of 4, 4 and 2 rows per epoch


def test_cosine_endpoints_and_midpoint():
    # blocks of 4, 4 and 2 rows: 3 steps per epoch, 6 scheduled steps over 2 epochs,
    # so the lr starts at its peak, crosses half of it at step 3 and never reaches 0.
    lrs = fit_lrs(True, 2, 10, 4)
    assert len(lrs) == 6
    assert lrs[0] == 0.1
    assert lrs[3] == pytest.approx(0.05, abs=1e-15)
    assert lrs[5] == pytest.approx(0.05 * (1 + np.cos(5 * np.pi / 6)), abs=1e-15)
    assert all(b < a for a, b in zip(lrs, lrs[1:]))
    assert min(lrs) > 0


def test_schedule_step_out_of_range():
    # The scheduled total is the count of steps fit runs: no step reaches the total,
    # where the lr would be 0, also when a trailing one-row block is dropped.
    for n, steps in ((10, 9), (9, 6)):  # blocks of 4, 4, 2 rows; of 4, 4 (and 1 dropped)
        lrs = fit_lrs(True, 3, n, 4)
        assert len(lrs) == steps
        assert lrs == [0.05 * (1 + np.cos(np.pi * (k / steps))) for k in range(steps)]
        assert lrs[-1] == pytest.approx(0.05 * (1 + np.cos(np.pi * (steps - 1) / steps)),
                                        abs=1e-15) and lrs[-1] > 0


# ---------------------------------------------------------------------------
# fit's step: batch, train forward, loss, backward, then the update


def test_fit_step_is_batch_forward_loss_backward_then_the_update():
    net = build_network(ArchSpec(4, (6,), 3), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(10, 4))
    events, values = [], []
    real_forward, real_backward = net.forward, net.backward

    def batch(idx):
        events.append(("batch", idx.copy()))
        return x[idx]

    def forward(b, train=False):
        out, caches = real_forward(b, train=train)
        events.append(("forward", b.copy(), train, out))
        return out, caches

    def loss(out, idx):
        k = len(values)
        values.append({"a": float(k), "b": float(k * k)})
        dout = np.full_like(out, 0.01 * (k + 1))
        events.append(("loss", out, idx.copy(), dout))
        return values[-1], dout

    def backward(caches, dout):
        events.append(("backward", dout))
        real_backward(caches, dout)

    opt = SGD(net.parameters(), lr=0.01, momentum=0.9)
    sgd_step = opt.step

    def step(lr=None):
        events.append(("update",))
        sgd_step(lr)

    net.forward, net.backward, opt.step = forward, backward, step
    history, abort = fit(opt, net, 2, len(x), 4, np.random.default_rng(2), batch, loss)
    assert abort is None
    steps = [events[i:i + 5] for i in range(0, len(events), 5)]
    assert len(steps) == 6  # blocks of 4, 4 and 2 rows in each of 2 epochs
    for step_events in steps:
        assert [e[0] for e in step_events] == ["batch", "forward", "loss", "backward", "update"]
        bt, fw, ls, bw, _ = step_events
        assert fw[1].tobytes() == x[bt[1]].tobytes() and fw[2] is True
        assert ls[1] is fw[3] and np.array_equal(ls[2], bt[1])
        assert bw[1] is ls[3]
    # the per-epoch means of a = k and b = k * k over steps k = 0..2 and 3..5
    assert history == [{"epoch": 0, "a": 1.0, "b": 5 / 3}, {"epoch": 1, "a": 4.0, "b": 50 / 3}]


def test_fit_abort_restores_every_tensor_of_the_net_not_only_the_trained_ones():
    # adapt's batchnorm_only: opt updates the BatchNorm affine alone, but the running
    # statistics move in every train forward, and an abort puts all of net.all_tensors()
    # back as at the start of its epoch
    net = build_network(ArchSpec(4, (6,), 3), np.random.default_rng(0))
    trainable, _ = partition_parameters(net, "batchnorm_only")
    x = np.random.default_rng(1).normal(size=(10, 4))
    calls, start, moved = [], [], []

    def batch(idx):
        if len(calls) == 3:  # the first step of epoch 1
            start.extend(t.data.copy() for t in net.all_tensors())
        calls.append(idx)
        return x[idx]

    def loss(out, idx):
        if len(calls) == 5:  # epoch 1's second step, after its first one updated
            moved.extend(t.name for t, d in zip(net.all_tensors(), start)
                         if not np.array_equal(t.data, d))
            raise NumericalError("injected")
        return {"mean": float(out.mean())}, out / out.size

    opt = SGD(trainable, lr=0.1, momentum=0.9)
    history, abort = fit(opt, net, 3, len(x), 4, np.random.default_rng(2), batch, loss)
    assert abort == {"epoch": 1, "reason": "injected"} and len(history) == 1
    assert moved == ["block0.bn.gamma", "block0.bn.beta", "block0.bn.running_mean",
                     "block0.bn.running_var"]
    assert len(start) == len(net.all_tensors())
    for t, d in zip(net.all_tensors(), start):
        assert t.data.tobytes() == d.tobytes() and t.grad is None


# ---------------------------------------------------------------------------
# a training loop leaves nothing behind, and its steps do not fault the heap back in


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lr", [0.05, np.inf], ids=["normal_end", "abort"])
def test_no_tensor_keeps_a_grad_after_fit(lr):
    # fit clears every grad a step wrote, also when it aborts, so a trained net's layers
    # hold their tensors and nothing else. One step per epoch: an infinite lr makes the parameters non-finite in the epoch's
    # only step, so the abort comes from the epoch-end check, after a backward pass.
    data = generate(GeneratorSpec(n_per_class=10, num_classes=3, input_dim=4), 0)
    net = build_network(ArchSpec(4, (6, 5), 3), np.random.default_rng(0))
    _, history, abort = source.train_source(
        net, data, SourceConfig(epochs=2, batch_size=30, lr=lr), np.random.default_rng(1))
    assert (abort is None) == (lr < 1) and len(history) == (2 if lr < 1 else 0)
    assert all(t.grad is None for t in net.all_tensors())
    assert all(isinstance(v, Tensor) for layer in net.layers for v in vars(layer).values())


# Stage 0 after make_datasets in a fresh process with one BLAS thread: its minor
# page faults. A step allocates and frees its batch-sized arrays; unless glibc keeps
# freed memory (`keep_freed_memory`, which fit calls), it grows and trims the heap
# every step (~120,000 faults at the default shapes or at width 256, batch 512,
# 5 epochs) until the process has freed an array large enough to raise glibc's
# trim threshold.
_STAGE0_FAULTS = """
import resource, sys
from dataclasses import replace
from adaptkit.harness import ExperimentConfig, make_datasets, stream
from adaptkit.layers import ArchSpec, build_network
from adaptkit.source import train_source
width, batch, epochs = map(int, sys.argv[1:])
cfg = ExperimentConfig(teacher_hidden=(width, width))
src, _ = make_datasets(cfg, 0)
net = build_network(ArchSpec(src.dim, cfg.teacher_hidden, src.num_classes), stream(0, "stage0"))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_source(net, src, replace(cfg.source_cfg, batch_size=batch, epochs=epochs),
             stream(0, "stage0"))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1")


@pytest.mark.parametrize("width,batch,epochs,most", [(64, 128, 30, 3_000),
                                                     (256, 512, 5, 20_000)],
                         ids=["default", "width256_batch512"])
def test_stage0_does_not_grow_and_trim_the_heap_every_step(width, batch, epochs, most):
    assert _stage0_faults(_STAGE0_FAULTS, width, batch, epochs) <= most


def test_without_the_heap_setting_stage0_faults_the_heap_back_every_step():
    # the bound above catches the cliff: with keep_freed_memory a no-op, the same
    # stage 0 at width 256 takes ~130,000 faults
    script = ("import adaptkit.optim\nadaptkit.optim.keep_freed_memory = lambda: None\n"
              + _STAGE0_FAULTS)
    assert _stage0_faults(script, 256, 512, 5) > 20_000


def _stage0_faults(script: str, width: int, batch: int, epochs: int) -> int:
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, str(width), str(batch), str(epochs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout)


def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    # a C library without glibc's mallopt (musl, macOS): nothing is set and nothing raised
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
    assert keep_freed_memory.__wrapped__() is None
    assert opened == [None]
