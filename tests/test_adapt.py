import numpy as np
import pytest

from adaptkit import losses
from adaptkit.adapt import AdaptConfig, adapt, partition_parameters
from adaptkit.data import GeneratorSpec, ShiftSpec, apply_shift, generate
from adaptkit.errors import ConfigError
from adaptkit.layers import ArchSpec, build_network
from adaptkit.source import SourceConfig, train_source


def small_net(seed=0):
    return build_network(ArchSpec(8, (12, 12), 4), np.random.default_rng(seed))


@pytest.fixture(scope="module")
def small_target():
    src = generate(GeneratorSpec(n_per_class=80, num_classes=4, input_dim=8), 1)
    return apply_shift(src, ShiftSpec("rotation", 45.0), 2).unlabeled_view()


def test_zero_epochs_forward_identical(small_target):
    net = small_net()
    out, report, _ = adapt(net, small_target, AdaptConfig(epochs=0), np.random.default_rng(0))
    x = np.random.default_rng(3).normal(size=(6, 8))
    assert np.array_equal(net.forward(x), out.forward(x))
    assert report.param_delta_norm == 0.0


def test_lr_zero_moves_only_running_stats(small_target):
    net = small_net()
    params_before = [p.data.copy() for p in net.parameters()]
    stats_before = [t.data.copy() for t in net.state_tensors()]
    out, _, _ = adapt(net, small_target, AdaptConfig(epochs=1, lr=0.0, batch_size=32),
                      np.random.default_rng(0))
    for p, b in zip(out.parameters(), params_before):
        assert np.array_equal(p.data, b)
    moved = [not np.array_equal(t.data, b)
             for t, b in zip(out.state_tensors(), stats_before)]
    assert any(moved)


def test_classifier_frozen(small_target):
    net = small_net()
    out, report, _ = adapt(net, small_target, AdaptConfig(epochs=2, lr=0.01, batch_size=32),
                           np.random.default_rng(0))
    assert report.classifier_fingerprint_before == report.classifier_fingerprint_after
    assert np.array_equal(out.classifier.weight.data, net.classifier.weight.data)
    assert np.array_equal(out.classifier.bias.data, net.classifier.bias.data)
    # representation must actually have moved
    assert report.param_delta_norm > 0


def test_source_unmodified_in_place(small_target):
    net = small_net()
    before = [p.data.copy() for p in net.parameters()]
    adapt(net, small_target, AdaptConfig(epochs=1, lr=0.01, batch_size=32),
          np.random.default_rng(0))
    for p, b in zip(net.parameters(), before):
        assert np.array_equal(p.data, b)


def test_infomax_descends(small_target):
    net = small_net()
    net, _, _ = train_source(
        net,
        generate(GeneratorSpec(n_per_class=80, num_classes=4, input_dim=8), 1),
        SourceConfig(epochs=5, batch_size=32), np.random.default_rng(0))
    _, report, _ = adapt(net, small_target, AdaptConfig(epochs=5, lr=1e-3, batch_size=32),
                         np.random.default_rng(0))
    assert report.epochs[-1]["infomax"] < report.epochs[0]["infomax"]
    for e in report.epochs:
        assert e["infomax"] == pytest.approx(e["entropy"] + e["diversity"])


def test_stage1_step_takes_one_log_per_loss_and_no_probability_check(small_target,
                                                                     monkeypatch):
    # entropy and diversity come from the pass that takes their grads: one _safe_log
    # each per step, and no _check_probs on the stage's own softmax output
    calls = {"_safe_log": 0, "_check_probs": 0}
    for name in calls:
        def counted(*args, _f=getattr(losses, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(losses, name, counted)
    assert len(small_target) % 32 == 0
    _, report, _ = adapt(small_net(), small_target, AdaptConfig(epochs=1, batch_size=32),
                         np.random.default_rng(0))
    assert calls == {"_safe_log": 2 * len(small_target) // 32, "_check_probs": 0}
    assert set(report.epochs[0]) == {"epoch", "entropy", "diversity", "infomax"}


def test_deterministic_given_seed(small_target):
    runs = []
    for _ in range(2):
        net = small_net()
        out, _, _ = adapt(net, small_target, AdaptConfig(epochs=2, lr=0.01, batch_size=32),
                          np.random.default_rng(7))
        runs.append([p.data.copy() for p in out.parameters()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_report_serializes(small_target):
    import json
    from dataclasses import asdict
    net = small_net()
    _, report, _ = adapt(net, small_target, AdaptConfig(epochs=1, batch_size=32),
                         np.random.default_rng(0))
    json.dumps(asdict(report))


# ---------------------------------------------------------------------------
# parameter partition


def test_partition_is_disjoint_and_exhaustive():
    net = small_net()
    for update_set in ("representation_all", "batchnorm_only"):
        trainable, frozen = partition_parameters(net, update_set)
        ids_t, ids_f = {id(p) for p in trainable}, {id(p) for p in frozen}
        assert not ids_t & ids_f
        assert ids_t | ids_f == {id(p) for p in net.parameters()}


def test_partition_always_freezes_classifier():
    net = small_net()
    for update_set in ("representation_all", "batchnorm_only"):
        _, frozen = partition_parameters(net, update_set)
        ids = {id(p) for p in frozen}
        assert id(net.classifier.weight) in ids
        assert id(net.classifier.bias) in ids


def test_batchnorm_only_trains_gamma_beta():
    net = small_net()
    trainable, _ = partition_parameters(net, "batchnorm_only")
    assert trainable, "network has batchnorm layers"
    for p in trainable:
        assert p.name.endswith((".gamma", ".beta"))


def test_invalid_configs_rejected(small_target):
    net = small_net()
    with pytest.raises(ConfigError):
        adapt(net, small_target, AdaptConfig(batch_size=1), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        adapt(net, small_target, AdaptConfig(update_set="classifier"),
              np.random.default_rng(0))
    with pytest.raises(ConfigError):
        partition_parameters(net, "everything")
