import numpy as np
import pytest

from adaptkit.errors import ConfigError
from adaptkit.layers import ArchSpec, build_network
from adaptkit.optim import SGD, decays, fit
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
    logits, caches = net.train().forward(x, record=True)
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

    def grads(idx):
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
