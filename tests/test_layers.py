import copy
import tracemalloc

import numpy as np
import pytest

from adaptkit.errors import ConfigError, ShapeError
from adaptkit.layers import ArchSpec, BatchNorm, Dense, Network, ReLU, build_network
from adaptkit.losses import (cross_entropy, cross_entropy_grad, infomax_loss,
                             infomax_loss_grad, infonce_loss, infonce_loss_grad,
                             kl_soft_loss, kl_soft_loss_grad, softmax)
from adaptkit.tensor import BLOCK_ROWS
from fdcheck import backward_layers, fd_grad, fd_param_grads, forward_layers, max_rel_error


def small_net(seed=0, input_dim=6, hidden=(8,), classes=3, batchnorm=True):
    return build_network(ArchSpec(input_dim, hidden, classes, batchnorm),
                         np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forward


def test_dense_identity_forward():
    rng = np.random.default_rng(0)
    layer = Dense(2, 2, rng)
    layer.weight.data = np.eye(2)
    layer.bias.data = np.zeros(2)
    y, _ = layer.forward(np.array([[1.0, 2.0]]), train=False)
    assert np.array_equal(y, [[1.0, 2.0]])


def test_forward_matches_matmul_oracle():
    # independent hand-rolled dot-product oracle on a fixed-seed batch
    rng = np.random.default_rng(42)
    net = small_net(seed=7, batchnorm=False)
    x = rng.normal(size=(4, 6))
    logits = net.forward(x)
    h = x
    for layer in net.layers[:-1]:
        if layer.kind == "dense":
            h = np.array([[sum(h[i][k] * layer.weight.data[j][k] for k in range(h.shape[1]))
                           + layer.bias.data[j] for j in range(layer.out_dim)]
                          for i in range(h.shape[0])])
        elif layer.kind == "relu":
            h = np.maximum(h, 0)
    w, b = net.classifier.weight.data, net.classifier.bias.data
    expected = np.array([[sum(h[i][k] * w[j][k] for k in range(h.shape[1])) + b[j]
                          for j in range(w.shape[0])] for i in range(h.shape[0])])
    assert np.abs(logits - expected).max() < 1e-12


def test_batchnorm_train_normalizes_batch():
    bn = BatchNorm(3)
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, size=(64, 3))
    y, _ = bn.forward(x, train=True)  # gamma=1, beta=0
    assert np.abs(y.mean(axis=0)).max() < 1e-10
    assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4  # eps-limited


def test_batchnorm_running_stats_ema():
    bn = BatchNorm(2)
    x = np.array([[2.0, 4.0], [6.0, 8.0]])
    bn.forward(x, train=True)
    assert np.allclose(bn.running_mean.data, 0.9 * 0.0 + 0.1 * np.array([4.0, 6.0]))
    assert np.allclose(bn.running_var.data, 0.9 * 1.0 + 0.1 * np.array([4.0, 4.0]))


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm(2)
    bn.running_mean.data = np.array([1.0, -1.0])
    bn.running_var.data = np.array([4.0, 9.0])
    y, _ = bn.forward(np.array([[3.0, 2.0]]), train=False)
    assert np.allclose(y, [[2 / np.sqrt(4 + 1e-5), 3 / np.sqrt(9 + 1e-5)]])


def test_batchnorm_train_rejects_singleton_batch():
    with pytest.raises(ConfigError):
        small_net().forward(np.zeros((1, 6)), train=True)


def test_forward_shape_errors():
    net = small_net()
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((0, 6)))


def test_eval_forward_is_pure():
    net = small_net()
    x = np.random.default_rng(3).normal(size=(5, 6))
    a = net.forward(x)
    b = net.forward(x)
    assert np.array_equal(a, b)


def test_backward_requires_matching_cache():
    net = small_net()
    with pytest.raises(ConfigError):
        net.backward([], np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# parameter partition


def test_partition_disjoint_and_exhaustive():
    for hidden in [(), (8,), (8, 4), (16, 8, 4)]:
        net = small_net(hidden=hidden)
        rep = {id(p) for p in net.representation_parameters()}
        clf = {id(p) for p in net.classifier.parameters()}
        assert rep.isdisjoint(clf)
        assert rep | clf == {id(p) for p in net.parameters()}


def test_classifier_is_last_dense():
    net = small_net(hidden=(8, 4))
    assert net.layers[-1].kind == "dense"
    assert net.classifier.out_dim == 3


# ---------------------------------------------------------------------------
# gradients vs central finite differences


def loss_cases(rng, b, c):
    targets = rng.integers(0, c, b)
    teacher = rng.random((b, c)) + 1e-3
    teacher /= teacher.sum(axis=1, keepdims=True)
    return [
        ("ce", lambda p: cross_entropy(p, targets, 0.1).scalar,
         lambda p: cross_entropy_grad(p, targets, 0.1)),
        ("infomax", lambda p: infomax_loss(p).scalar, infomax_loss_grad),
        ("kl", lambda p: kl_soft_loss(p, teacher).scalar,
         lambda p: kl_soft_loss_grad(p, teacher)),
    ]


def check_net_grads(net, x, value_fn, grad_fn, train, tol=1e-4):
    """Backprop against finite differences, through batch statistics with train=True,
    else through the frozen running statistics."""
    for p in net.parameters():
        p.zero_grad()
    logits, caches = net.forward(x, train=True) if train else forward_layers(net.layers, x, False)
    net.backward(caches, grad_fn(softmax(logits)))
    analytic = [p.grad for p in net.parameters()]
    numeric = fd_param_grads(
        lambda: value_fn(softmax(net.forward(x, train=True)[0] if train else net.forward(x))),
        net.parameters())
    assert max_rel_error(analytic, numeric) < tol


def test_zero_upstream_gradient_gives_zero_grads():
    net = small_net()
    x = np.random.default_rng(0).normal(size=(4, 6))
    _, caches = net.forward(x, train=True)
    net.backward(caches, np.zeros((4, 3)))
    assert all(np.all(p.grad == 0) for p in net.parameters())


def test_single_dense_squared_error_closed_form():
    # d/dW of sum((xW^T + b - t)^2) is 2 (pred - target)^T x
    rng = np.random.default_rng(5)
    layer = Dense(3, 2, rng)
    x = rng.normal(size=(1, 3))
    t = rng.normal(size=(1, 2))
    pred, cache = layer.forward(x, train=False)
    layer.backward(cache, 2 * (pred - t))
    assert np.allclose(layer.weight.grad, 2 * (pred - t).T @ x, atol=1e-12)
    assert np.allclose(layer.bias.grad, 2 * (pred - t).ravel(), atol=1e-12)


def test_three_layer_batchnorm_net_matches_fd():
    rng = np.random.default_rng(9)
    net = small_net(seed=11, input_dim=5, hidden=(7, 6), classes=4)
    x = rng.normal(size=(6, 5))
    targets = rng.integers(0, 4, 6)
    check_net_grads(net, x,
                    lambda p: cross_entropy(p, targets).scalar,
                    lambda p: cross_entropy_grad(p, targets), train=True)


def test_eval_mode_batchnorm_grads_match_fd():
    # through running statistics far from their init, so that inv_std is not ~1
    rng = np.random.default_rng(13)
    net = _random_bn_state(small_net(seed=13, hidden=(7,)), rng)
    x, targets = rng.normal(size=(6, 6)), rng.integers(0, 3, 6)
    check_net_grads(net, x, lambda p: cross_entropy(p, targets).scalar,
                    lambda p: cross_entropy_grad(p, targets), train=False)


def test_layer_after_a_relu_leaves_the_relu_cache_alone_and_matches_fd():
    # a ReLU's output is its cache, so a BatchNorm after it must not centre it in place
    rng = np.random.default_rng(12)
    layers = [Dense(5, 6, rng), ReLU(), BatchNorm(6), ReLU(), ReLU(), Dense(6, 3, rng)]
    x, targets = rng.normal(size=(6, 5)), rng.integers(0, 3, 6)
    check_net_grads(Network(layers, ArchSpec(5, (6,), 3)), x,
                    lambda p: cross_entropy(p, targets).scalar,
                    lambda p: cross_entropy_grad(p, targets), train=True)


@pytest.mark.parametrize("trial", range(20))
def test_randomized_nets_and_losses_match_fd(trial):
    # randomized small configurations across layer kinds, losses, and modes
    rng = np.random.default_rng(1000 + trial)
    c = int(rng.integers(2, 6))
    depth = int(rng.integers(0, 3))
    hidden = tuple(int(rng.integers(3, 16)) for _ in range(depth))
    bn = bool(rng.integers(0, 2)) if depth else False
    net = small_net(seed=int(rng.integers(1 << 30)),
                    input_dim=int(rng.integers(2, 8)), hidden=hidden,
                    classes=c, batchnorm=bn)
    train = bool(bn and rng.integers(0, 2))
    b = int(rng.integers(2, 6))
    x = rng.normal(size=(b, net.arch.input_dim))
    name, value_fn, grad_fn = loss_cases(rng, b, c)[trial % 3]
    check_net_grads(net, x, value_fn, grad_fn, train)


# ---------------------------------------------------------------------------
# a V x B x d stack of views against V separate B x d passes


def _backbone_and_head(rng):
    net = build_network(ArchSpec(32, (32, 32), 10), rng)
    return net.layers[:-1] + [Dense(32, 32, rng), ReLU(), Dense(32, 16, rng)]


def _batchnorm_with_stats(rng):
    bn = BatchNorm(32)
    bn.gamma.data = rng.uniform(0.5, 1.5, 32)
    bn.beta.data = rng.normal(size=32)
    bn.running_mean.data = rng.normal(size=32)
    bn.running_var.data = rng.uniform(0.5, 2.0, 32)
    return [bn]


STACK_CASES = {
    "dense": (lambda rng: [Dense(32, 16, rng)], True),
    "batchnorm_train": (_batchnorm_with_stats, True),
    "batchnorm_eval": (_batchnorm_with_stats, False),
    "relu": (lambda rng: [ReLU()], True),
    "backbone_and_head": (_backbone_and_head, True),
}


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("b", [2, 8, 55, 128])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_views_match_separate_passes_bit_for_bit(case, b):
    make, train = STACK_CASES[case]
    rng = np.random.default_rng(b)
    separate = make(rng)
    stacked = [copy.deepcopy(layer) for layer in separate]
    x = rng.normal(size=(2, b, 32))
    batch = _bits(x)
    # the separate passes run as stage 2 ran them: both forwards, then both backwards
    outs = [forward_layers(separate, view, train) for view in x]
    dy = rng.normal(size=(2,) + outs[0][0].shape)
    dxs = [backward_layers(separate, caches, g) for (_, caches), g in zip(outs, dy)]
    y, caches = forward_layers(stacked, x, train)
    dx = backward_layers(stacked, caches, dy)
    assert _bits(x) == batch  # layers write over intermediates, never the batch
    assert _bits(y) == _bits(np.stack([out for out, _ in outs]))
    assert _bits(dx) == _bits(np.stack(dxs))
    _assert_same_grads_and_stats(separate, stacked)


def _assert_same_grads_and_stats(want: list, got: list):
    for a, s in zip(want, got, strict=True):
        for ta, ts in zip(a.parameters(), s.parameters()):
            assert _bits(ts.grad) == _bits(ta.grad), ta.name
        for ta, ts in zip(getattr(a, "state_tensors", list)(), getattr(s, "state_tensors", list)()):
            assert _bits(ts.data) == _bits(ta.data), ta.name


@pytest.mark.parametrize("b", [2, 55])
def test_network_train_walk_matches_the_reference_walk_bit_for_bit(b):
    # a BatchNorm after a ReLU must not write over the ReLU's output, its cache: no built
    # network has one, since build_network puts a Dense after every ReLU
    rng = np.random.default_rng(b)
    layers = [Dense(32, 32, rng, "a"), ReLU(), *_batchnorm_with_stats(rng), ReLU(),
              Dense(32, 10, rng, "b")]
    net = Network(copy.deepcopy(layers), ArchSpec(32, (32,), 10))
    x, dy = rng.normal(size=(2, b, 32)), rng.normal(size=(2, b, 10))
    batch = _bits(x)
    y, caches = net.forward(x, train=True)
    net.backward(caches, dy)
    want, caches = forward_layers(layers, x, True)
    backward_layers(layers, caches, dy)
    assert _bits(x) == batch
    assert _bits(y) == _bits(want)
    _assert_same_grads_and_stats(layers, net.layers)


def _reference_batchnorm(bn, x, dy):
    """Train-mode batchnorm as separate per-view passes in the expressions it used
    before the one-shot batch sums: (y, running mean, running var, dx, dgamma, dbeta)."""
    rm, rv, ys, dxs, dgammas, dbetas = bn.running_mean.data, bn.running_var.data, [], [], [], []
    for v, g in zip(x.reshape(-1, *x.shape[-2:]), dy.reshape(-1, *x.shape[-2:])):
        n = v.shape[0]
        mean = v.sum(axis=-2, keepdims=True) / n
        d = v - mean
        var = (d * d).sum(axis=-2, keepdims=True) / n
        rm = (1 - 0.1) * rm + 0.1 * mean[0]
        rv = (1 - 0.1) * rv + 0.1 * var[0]
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = d * inv_std
        ys.append(bn.gamma.data * xhat + bn.beta.data)
        dgammas.append((g * xhat).sum(axis=-2))
        dbetas.append(g.sum(axis=-2))
        dxhat = g * bn.gamma.data
        dxs.append((dxhat - dxhat.sum(axis=-2, keepdims=True) / n
                    - xhat * ((dxhat * xhat).sum(axis=-2, keepdims=True) / n)) * inv_std)
    return (np.stack(ys).reshape(x.shape), rm, rv, np.stack(dxs).reshape(x.shape),
            sum(dgammas[1:], dgammas[0]), sum(dbetas[1:], dbetas[0]))


@pytest.mark.parametrize("shape", [(128, 64), (2, 128, 32), (2, 64), (2, 2, 32), (55, 64),
                                   (2, 55, 32)])
def test_batchnorm_train_matches_per_view_reference(shape):
    rng, dim = np.random.default_rng(shape[-2]), shape[-1]
    bn = BatchNorm(dim)
    bn.gamma.data, bn.beta.data = rng.uniform(0.5, 1.5, dim), rng.normal(size=dim)
    bn.running_mean.data, bn.running_var.data = rng.normal(size=dim), rng.uniform(0.5, 2.0, dim)
    x, dy = rng.normal(2.0, 3.0, size=shape), rng.normal(size=shape)
    want = _reference_batchnorm(bn, x, dy)
    y, cache = bn.forward(x.copy(), train=True, own=True)
    dx = bn.backward(cache, dy)
    got = (y, bn.running_mean.data, bn.running_var.data, dx, bn.gamma.grad, bn.beta.grad)
    for name, g, w in zip(("y", "running_mean", "running_var", "dx", "dgamma", "dbeta"), got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14, err_msg=name)


def test_stacked_backward_matches_fd():
    # InfoNCE between the two views of one stack, through batchnorm in train mode
    rng = np.random.default_rng(4)
    net = build_network(ArchSpec(5, (6,), 3), rng)
    layers = net.layers[:-1] + [Dense(6, 4, rng), ReLU(), Dense(4, 3, rng)]
    params = [p for layer in layers for p in layer.parameters()]
    x = rng.normal(size=(2, 4, 5))

    def loss(x):
        q, k = forward_layers(layers, x, True)[0]
        return infonce_loss(q, k, 0.5).scalar

    (q, k), caches = forward_layers(layers, x, True)
    dx = backward_layers(layers, caches, np.stack(infonce_loss_grad(q, k, 0.5)[1]))
    assert max_rel_error([p.grad for p in params], fd_param_grads(lambda: loss(x), params)) < 1e-4
    assert max_rel_error([dx], [fd_grad(loss, x)]) < 1e-4


def test_network_forward_takes_a_stack_of_views():
    net = small_net()
    x = np.random.default_rng(2).normal(size=(2, 5, 6))
    assert _bits(net.forward(x)) == _bits(np.stack([net.forward(v) for v in x]))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 2, 5, 6)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 0, 6)))


# ---------------------------------------------------------------------------
# forward without train: no backprop cache, and no write into the batch or the network


def _eval_expressions(layers, x):
    """Each layer's eval-mode forward as one expression: the walk's bits."""
    for layer in layers:
        if layer.kind == "dense":
            x = x @ layer.weight.data.T + layer.bias.data
        elif layer.kind == "batchnorm":
            inv_std = (1.0 / np.sqrt(layer.running_var.data + 1e-5))[None, :]
            x = (x - layer.running_mean.data) * (layer.gamma.data * inv_std) + layer.beta.data
        else:
            x = np.maximum(x, 0.0)
    return x


def _old_eval_expressions(layers, x):
    """Each layer's eval-mode forward as the expressions read before BatchNorm folded
    its affine and ReLU took a maximum: the same numbers to rounding (and signed zeros)."""
    for layer in layers:
        if layer.kind == "dense":
            x = x @ layer.weight.data.T + layer.bias.data
        elif layer.kind == "batchnorm":
            xhat = (x - layer.running_mean.data) * (1.0 / np.sqrt(layer.running_var.data + 1e-5))
            x = layer.gamma.data * xhat + layer.beta.data
        else:
            x = x * (x > 0)
    return x


@pytest.mark.parametrize("batchnorm", [True, False], ids=["batchnorm", "no_batchnorm"])
def test_network_copy_is_whole_and_shares_no_memory(batchnorm):
    rng = np.random.default_rng(9)
    net = _random_bn_state(small_net(seed=9, hidden=(8, 5), batchnorm=batchnorm), rng)
    for t in net.all_tensors():
        t.grad = rng.normal(size=t.shape)
    new = net.copy()
    assert new.arch == net.arch and len(new.layers) == len(net.layers)
    assert [layer.kind for layer in new.layers] == [layer.kind for layer in net.layers]
    pairs = list(zip(net.all_tensors(), new.all_tensors()))
    assert len(pairs) == (14 if batchnorm else 6)
    for t, c in pairs:
        assert c is not t and c.name == t.name
        assert _bits(c.data) == _bits(t.data) and _bits(c.grad) == _bits(t.grad), t.name
        assert not np.shares_memory(c.data, t.data) and not np.shares_memory(c.grad, t.grad)


def _random_bn_state(net, rng):
    for layer in net.layers:
        if layer.kind == "batchnorm":
            for t in (layer.gamma, layer.beta, layer.running_mean):
                t.data = rng.normal(size=t.shape)
            layer.running_var.data = rng.uniform(0.5, 2.0, size=layer.dim)
    return net


B = BLOCK_ROWS


# 1 to 2B+1 rows: one block, a full block, a tail that joins the last block
@pytest.mark.parametrize("rows", [1, 8, 128, B - 1, B, B + 1, 2 * B + 1, 5000])
@pytest.mark.parametrize("views", [(), (2,)], ids=["batch", "stack"])
@pytest.mark.parametrize("batchnorm", [True, False])
def test_eval_forward_matches_recorded_forward_bit_for_bit(rows, views, batchnorm):
    rng = np.random.default_rng(rows)
    net = _random_bn_state(build_network(ArchSpec(32, (64, 64), 10, batchnorm), rng), rng)
    x = rng.normal(size=(*views, rows, 32))
    kept = x.copy()
    y = net.forward(x)
    assert _bits(y) == _bits(forward_layers(net.layers, x, False)[0])
    assert _bits(y) == _bits(_eval_expressions(net.layers, x))
    np.testing.assert_allclose(y, _old_eval_expressions(net.layers, x), rtol=1e-12, atol=1e-14)
    assert _bits(x) == _bits(kept)


@pytest.mark.parametrize("first", ["dense", "relu", "batchnorm"])
def test_eval_forward_never_writes_into_the_batch(first):
    rng = np.random.default_rng(5)
    head = {"dense": [Dense(6, 6, rng), BatchNorm(6), ReLU()], "relu": [ReLU()],
            "batchnorm": [BatchNorm(6), ReLU()]}[first]
    layers = head + [Dense(6, 3, rng)]
    net = _random_bn_state(Network(layers, ArchSpec(6, (), 3)), rng)
    for x in (rng.normal(size=(7, 6)), rng.normal(size=(2, 7, 6))):
        kept = x.copy()
        y = net.forward(x)
        assert _bits(x) == _bits(kept)
        assert _bits(y) == _bits(_eval_expressions(layers, x))
        np.testing.assert_allclose(y, _old_eval_expressions(layers, x), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("first", ["dense", "relu", "batchnorm"])
def test_train_forward_and_backward_never_write_into_the_batch(first):
    rng = np.random.default_rng(8)
    head = {"dense": [Dense(6, 6, rng), BatchNorm(6), ReLU()], "relu": [ReLU()],
            "batchnorm": [BatchNorm(6), ReLU()]}[first]
    net = _random_bn_state(Network(head + [Dense(6, 3, rng)], ArchSpec(6, (), 3)), rng)
    for x in (rng.normal(size=(7, 6)), rng.normal(size=(2, 7, 6))):
        dy = rng.normal(size=x.shape[:-1] + (3,))
        kept, kept_dy = x.copy(), dy.copy()
        y, caches = net.forward(x, train=True)
        net.backward(caches, dy)
        assert _bits(x) == _bits(kept) and _bits(dy) == _bits(kept_dy)


def _tensor_bits(net) -> list:
    return [(t.name, _bits(t.data), t.grad if t.grad is None else _bits(t.grad))
            for t in net.all_tensors()]


def test_forward_leaves_every_tensor_bit_identical():
    rng = np.random.default_rng(6)
    net = _random_bn_state(small_net(seed=6), rng)
    for p in net.parameters():
        p.grad = rng.normal(size=p.shape)
    kept = _tensor_bits(net)
    for x in (rng.normal(size=(16, 6)), rng.normal(size=(2, 16, 6))):
        net.forward(x)
        assert _tensor_bits(net) == kept
    # only train=True moves the running statistics, by one momentum step
    x = rng.normal(size=(16, 6))
    bn = net.layers[1]
    mean, var = bn.running_mean.data.copy(), bn.running_var.data.copy()
    net.forward(x, train=True)
    h = x @ net.layers[0].weight.data.T + net.layers[0].bias.data
    assert np.allclose(bn.running_mean.data, 0.9 * mean + 0.1 * h.mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(bn.running_var.data, 0.9 * var + 0.1 * h.var(axis=0), rtol=1e-12, atol=0)


def test_eval_forward_memory_is_a_few_activations():
    # the default teacher over the default target: the walk holds at most the
    # output being built and the one before it, never a per-layer cache
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(5000, 32))
    net.forward(x[:8])
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 5000 * 64 * 8


def test_eval_forward_memory_is_the_output_and_a_few_blocks():
    # 50,000 rows: the walk's extra memory is bounded by the block, not by the batch
    # (one pass would hold two 50,000 x 64 activations, 51 MB)
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(50_000, 32))
    net.forward(x[:8])
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50_000 * 10 * 8 + 4 * (2 * B) * 64 * 8


def test_eval_forward_writes_over_the_first_dense_output():
    # 2048 rows through the default teacher: the output and two B x 64 activations per
    # block (~739 KB). A walk whose first BatchNorm allocates instead of writing over
    # the first Dense's output holds a third (~995 KB), with the same values.
    net = build_network(ArchSpec(32, (64, 64), 10), np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4 * B, 32))
    net.forward(x[:8])
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * B * 10 * 8 + 5 * B * 64 * 8 // 2
