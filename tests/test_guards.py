"""The package's typed-error guards that no other test reaches, one case each: the
input each one rejects, and the error and message it raises."""
import numpy as np
import pytest

from adaptkit import store
from adaptkit.data import AugmentationPolicy, GeneratorSpec, augment, generate, subsample_longtail
from adaptkit.errors import ConfigError, ShapeError, StorageError
from adaptkit.layers import ArchSpec, Dense, Network, ReLU
from adaptkit.losses import entropy_loss, smoothed_targets
from adaptkit.optim import SGD
from adaptkit.source import SourceConfig, train_source
from adaptkit.tensor import Tensor


def _unlabeled():
    ds = generate(GeneratorSpec(n_per_class=6, num_classes=3, input_dim=4), 0)
    ds.labels = None
    return ds


def _unbalanced():
    return subsample_longtail(generate(GeneratorSpec(n_per_class=10, num_classes=3,
                                                     input_dim=4), 0), 5.0, 1)


def _network_ending_in_relu():
    rng = np.random.default_rng(0)
    return Network([Dense(4, 3, rng, prefix="fc"), ReLU()], ArchSpec(4, (), 3))


def _scalar():
    return Tensor(np.zeros(1), "p.weight")


GUARDS = {
    "class_counts_unlabeled": (lambda tmp: _unlabeled().class_counts,
                               ConfigError, "dataset has no labels"),
    "subsample_longtail_unlabeled": (lambda tmp: subsample_longtail(_unlabeled(), 5.0, 1),
                                     ConfigError, "long-tail subsampling needs labels"),
    "subsample_longtail_unbalanced": (lambda tmp: subsample_longtail(_unbalanced(), 5.0, 1),
                                      ConfigError, "expects a balanced source"),
    "augment_unknown_mode": (lambda tmp: augment(np.zeros((2, 3)), AugmentationPolicy(),
                                                 "medium", np.random.default_rng(0)),
                             ConfigError, "unknown augmentation mode 'medium'"),
    "network_without_dense_classifier": (lambda tmp: _network_ending_in_relu(),
                                         ConfigError, "last layer must be the dense classifier"),
    "probs_not_summing_to_one": (lambda tmp: entropy_loss(np.array([[0.5, 0.6]])),
                                 ConfigError, "rows must be non-negative and sum to 1"),
    "negative_probs": (lambda tmp: entropy_loss(np.array([[1.5, -0.5]])),
                       ConfigError, "rows must be non-negative and sum to 1"),
    "smoothing_one": (lambda tmp: smoothed_targets(np.array([0, 1]), 2, 1.0),
                      ConfigError, r"smoothing must be in \[0, 1\), got 1.0"),
    "sgd_negative_lr": (lambda tmp: SGD([_scalar()], lr=-0.1),
                        ConfigError, "learning rate must be non-negative, got -0.1"),
    "sgd_nan_lr": (lambda tmp: SGD([_scalar()], lr=float("nan")),
                   ConfigError, "learning rate must be non-negative, got nan"),
    "train_source_unlabeled": (lambda tmp: train_source(None, _unlabeled(), SourceConfig(),
                                                        np.random.default_rng(0)),
                               ConfigError, "source training needs labels"),
    "store_unnamed_array": (lambda tmp: store.write(tmp / "x.bin", b"TEST", {},
                                                    {"": np.zeros(2)}),
                            StorageError, "cannot store an unnamed array"),
    "grad_of_another_shape": (lambda tmp: _scalar().add_grad(np.zeros(2)),
                              ShapeError, r"grad shape \(2,\) does not match parameter shape"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_raises_its_typed_error(tmp_path, case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
    assert not (tmp_path / "x.bin").exists()
