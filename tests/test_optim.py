import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adaptkit import source
from adaptkit.errors import ConfigError
from adaptkit.data import GeneratorSpec, generate
from adaptkit.harness import ExperimentConfig, make_datasets, stream
from adaptkit.layers import ArchSpec, Workspace, build_network
from adaptkit.optim import SGD, decays, fit
from adaptkit.source import SourceConfig
from adaptkit.tensor import Tensor


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

    def grads(idx, ws):
        p.add_grad(np.array([0.5]))
        return {}

    fit(opt, [p], epochs, n, batch_size, np.random.default_rng(0), grads, cosine=cosine)
    return opt.lrs


def test_constant_schedule():
    lrs = fit_lrs(False, 3, 10, 4, lr=0.3)
    assert lrs == [0.3] * 9  # blocks of 4, 4 and 2 rows per epoch


def test_cosine_endpoints_and_midpoint():
    # 2 epochs x 10 // 4 = 4 scheduled steps; 3 blocks per epoch make 6 steps.
    lrs = fit_lrs(True, 2, 10, 4)
    assert len(lrs) == 6
    assert lrs[0] == 0.1
    assert lrs[2] == pytest.approx(0.05, abs=1e-15)
    assert lrs[4] == pytest.approx(0.0, abs=1e-15)
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert min(lrs) >= 0


def test_schedule_step_out_of_range():
    # Steps past the scheduled total are clamped to it: the lr stays at its floor
    # instead of following the cosine back up.
    lrs = fit_lrs(True, 3, 10, 4)
    assert len(lrs) == 9  # 6 scheduled steps, 3 past the total
    assert lrs[6:] == [lrs[6]] * 3
    assert lrs[6] == pytest.approx(0.0, abs=1e-15) and lrs[6] >= 0


# ---------------------------------------------------------------------------
# a training loop reuses its step arrays


def test_fit_hands_one_workspace_to_every_step_of_a_call():
    p = scalar_param(1.0)
    seen = []

    def grads(idx, ws):
        seen.append(ws)
        p.add_grad(np.array([0.5]))
        return {}

    for _ in range(2):
        fit(SGD([p], lr=0.1), [p], 2, 10, 4, np.random.default_rng(0), grads)
    assert len(seen) == 12  # 2 calls x 2 epochs x blocks of 4, 4 and 2 rows
    assert isinstance(seen[0], Workspace)
    assert all(ws is seen[0] for ws in seen[:6]) and all(ws is seen[6] for ws in seen[6:])
    assert seen[6] is not seen[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lr", [0.05, np.inf], ids=["normal_end", "abort"])
def test_no_tensor_keeps_a_grad_after_fit(lr):
    # stage 0's Dense weight grads are arrays of its loop's workspace; none outlives fit.
    # One step per epoch: an infinite lr makes the parameters non-finite in the epoch's
    # only step, so the abort comes from the epoch-end check, after a backward pass.
    data = generate(GeneratorSpec(n_per_class=10, num_classes=3, input_dim=4), 0)
    net = build_network(ArchSpec(4, (6, 5), 3), np.random.default_rng(0))
    _, history, abort = source.train_source(
        net, data, SourceConfig(epochs=2, batch_size=30, lr=lr), np.random.default_rng(1))
    assert (abort is None) == (lr < 1) and len(history) == (2 if lr < 1 else 0)
    assert all(t.grad is None for t in net.all_tensors())


def test_stage0_step_after_the_first_allocates_little(monkeypatch):
    # from one step's start to the next: forward, backward and the SGD step at the
    # default shapes, the epoch's trailing 8-row batch included
    cfg = ExperimentConfig()
    src, _ = make_datasets(cfg, 0)
    net = build_network(ArchSpec(src.dim, cfg.teacher_hidden, src.num_classes),
                        stream(0, "stage0"))
    rises, starts = [], []

    def measured_fit(opt, tensors, epochs, n, batch_size, rng, grads, cosine=False):
        def measured(idx, ws):
            if starts:
                rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return grads(idx, ws)
        return fit(opt, tensors, epochs, n, batch_size, rng, measured, cosine)

    monkeypatch.setattr(source, "fit", measured_fit)
    tracemalloc.start()
    try:
        source.train_source(net, src, replace(cfg.source_cfg, epochs=2), stream(0, "stage0"))
    finally:
        tracemalloc.stop()
    assert len(rises) == 2 * 40 - 1  # one per step but the last, 40 steps per epoch
    assert max(rises[1:]) <= 160_000
    # the loop's workspace went with it: the layers hold their tensors and nothing else
    assert all(isinstance(v, Tensor) for layer in net.layers for v in vars(layer).values())


# Stage 0 after make_datasets in a fresh process with one BLAS thread: its minor
# page faults. A step that allocates and frees its batch-sized arrays makes glibc
# grow and trim the heap every step (~120,000 faults at the default shapes or at
# width 256, batch 512, 5 epochs) until the process has freed an array large
# enough to raise glibc's trim threshold.
_STAGE0_FAULTS = """
import resource, sys
from dataclasses import replace
from adaptkit.data import GeneratorSpec, generate
from adaptkit.harness import ExperimentConfig, make_datasets, stream
from adaptkit.layers import ArchSpec, Workspace, build_network
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
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _STAGE0_FAULTS, str(width), str(batch),
                           str(epochs)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) <= most
