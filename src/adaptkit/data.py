"""Synthetic shift benchmark: dataset generation, covariate shift, class
imbalance, vector augmentations, and the dataset file format.

Geometry: class clusters sit on a ring in a 2-d latent plane; each class
additionally owns a small fixed offset in the remaining latent dimensions.
The full latent space is embedded by a fixed random rotation. Covariate
shift transforms the plane coordinates only, so the ring cue degrades under
shift while the off-plane cue survives -- shifted data is hurt but not
hopeless, which is what adaptation needs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil, cos, isfinite, pi, sin

import numpy as np

from . import store
from .errors import ConfigError, ShapeError, StorageError
from .tensor import check_finite, row_blocks

# kind -> magnitude m -> the plane's (rotation in degrees, scale, x offset), applied in that order
SHIFT_KINDS = {
    "rotation": lambda m: (m, 1.0, 0.0),
    "scale": lambda m: (0.0, 1.0 + m, 0.0),
    "translate": lambda m: (0.0, 1.0, m),
    "composite": lambda m: (m, 1.0 + m / 100.0, m / 10.0),
}


def _rng(seed, name: str = "seed") -> np.random.Generator:
    if not store.is_count(seed):
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class GeneratorSpec:
    n_per_class: int = 500
    num_classes: int = 10
    input_dim: int = 32
    ring_radius: float = 5.0
    cluster_sigma: float = 1.0
    ambient_scale: float = 3.0
    geometry_seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.input_dim < 2:
            raise ConfigError("need at least 2 input dimensions")
        if self.n_per_class < 1:
            raise ConfigError("need at least 1 sample per class")
        if not (isfinite(self.ring_radius) and isfinite(self.ambient_scale)
                and 0 <= self.cluster_sigma < np.inf):
            raise ConfigError("ring_radius and ambient_scale must be finite, and cluster_sigma "
                              "finite and non-negative")
        _rng(self.geometry_seed, "geometry_seed")  # raises on a bad seed


@dataclass(frozen=True)
class ShiftSpec:
    kind: str = "rotation"
    magnitude: float = 45.0  # degrees for rotation

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigError(f"unknown shift kind {self.kind!r}")
        if not isfinite(self.magnitude):
            raise ConfigError(f"shift magnitude must be finite, got {self.magnitude}")


@dataclass(frozen=True)
class AugmentationPolicy:
    weak_sigma: float = 0.02
    strong_sigma: float = 0.10
    dropout_prob: float = 0.2
    scale_range: tuple[float, float] = (0.8, 1.25)

    def __post_init__(self):
        if not 0 <= self.weak_sigma <= self.strong_sigma < np.inf:
            raise ConfigError("jitter sigmas must be finite, non-negative, and the weak one "
                              f"must not exceed the strong one, got {self.weak_sigma} and "
                              f"{self.strong_sigma}")
        if not 0 <= self.dropout_prob <= 1:
            raise ConfigError("dropout probability must be in [0, 1]")
        low, high = self.scale_range
        if not (low <= high and isfinite(high - low)):
            raise ConfigError(f"scale_range must be finite, low not above high, got "
                              f"{self.scale_range}")


class UnlabeledView:
    """Label-stripped window onto a dataset; exposes no label accessor."""

    __slots__ = ("features",)

    def __init__(self, features: np.ndarray):
        self.features = features

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Dataset:
    features: np.ndarray  # N x D float64
    labels: np.ndarray | None  # int64[N] or None
    spec: GeneratorSpec  # its num_classes is the dataset's
    shift: ShiftSpec | None = None  # None: a source dataset, else a target
    bucket_thresholds: tuple[int, int] | None = None  # (many >, few <)

    def __post_init__(self):
        f, labels, c = self.features, self.labels, self.num_classes
        if f.ndim != 2 or len(f) == 0 or f.shape[1] != self.spec.input_dim:
            raise ConfigError(f"a dataset needs at least one row of {self.spec.input_dim} "
                              f"features (its generator's input_dim), got shape {f.shape}")
        check_finite(f, "dataset features")
        if labels is not None and not (np.issubdtype(labels.dtype, np.integer)
                                       and labels.shape == (len(f),)
                                       and labels.min() >= 0 and labels.max() < c):
            raise ConfigError(f"labels must be one integer in [0, {c}) per row, got "
                              f"{labels.dtype} labels of shape {labels.shape}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def domain_tag(self) -> str:
        return "source" if self.shift is None else "target"

    @property
    def class_counts(self) -> np.ndarray:
        if self.labels is None:
            raise ConfigError("dataset has no labels")
        return np.bincount(self.labels, minlength=self.num_classes)

    def unlabeled_view(self) -> UnlabeledView:
        return UnlabeledView(self.features)


# ---------------------------------------------------------------------------
# geometry + generation


def _geometry(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Class centers in latent coordinates and the embedding rotation."""
    rng = np.random.default_rng(spec.geometry_seed)
    d, c = spec.input_dim, spec.num_classes
    centers = np.zeros((c, d))
    angles = 2 * pi * np.arange(c) / c
    centers[:, 0] = spec.ring_radius * np.cos(angles)
    centers[:, 1] = spec.ring_radius * np.sin(angles)
    if d > 2:
        amb = rng.normal(size=(c, d - 2))
        amb *= spec.ambient_scale / np.linalg.norm(amb, axis=1, keepdims=True)
        centers[:, 2:] = amb
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q *= np.sign(np.diag(r))  # make the decomposition unique
    return centers, q


def _plane_transform(latent: np.ndarray, shift: ShiftSpec) -> None:
    """Rotate, scale and translate the first two latent coordinates, in place."""
    degrees, scale, dx = SHIFT_KINDS[shift.kind](shift.magnitude)
    a = degrees * pi / 180.0
    rot = np.array([[cos(a), -sin(a)], [sin(a), cos(a)]])
    latent[:, :2] = latent[:, :2] @ rot.T  # the one N x 2 temporary: a second costs RSS
    latent[:, :2] *= scale
    latent[:, :2] += (dx, 0.0)


def _draw(spec: GeneratorSpec, seed: int, shift: ShiftSpec | None = None,
          thresholds: tuple[int, int] | None = None) -> Dataset:
    """Latent samples from `seed`, shifted in the plane when given a shift, embedded.

    The features are the latent buffer itself: the noise, its class centres, the
    shift and the embedding are each applied in place, the embedding one
    `tensor.row_blocks` block at a time, so the draw holds one N x D array and a
    block. A block of at least BLOCK_ROWS rows gets the bits of one `latent @ q.T`."""
    centers, q = _geometry(spec)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.n_per_class)
    latent = _rng(seed).normal(0.0, spec.cluster_sigma, size=(len(labels), spec.input_dim))
    # noise + center, added in the noise buffer: class c owns the c-th block of rows
    by_class = latent.reshape(spec.num_classes, spec.n_per_class, -1)
    by_class += centers[:, None, :]
    if shift is not None:
        _plane_transform(latent, shift)
    for rows in row_blocks(len(latent)):
        latent[rows] = latent[rows] @ q.T
    return Dataset(latent, labels, spec, shift, thresholds)


def generate(spec: GeneratorSpec, seed: int) -> Dataset:
    """Draw a balanced source dataset for the spec."""
    return _draw(spec, seed)


def apply_shift(src: Dataset, shift: ShiftSpec, seed: int) -> Dataset:
    """Draw a target dataset: fresh latent samples, shifted in the plane.

    With magnitude 0 and the source's seed the result equals the source draw
    exactly. Labels ride along for evaluation only; adaptation consumers go
    through unlabeled_view().
    """
    return _draw(src.spec, seed, shift, src.bucket_thresholds)


# ---------------------------------------------------------------------------
# long-tail subsampling


def longtail_counts(n_max: int, num_classes: int, ratio: float) -> np.ndarray:
    """Exponential decay over class index: round(n_max * ratio^(-c/(C-1)))."""
    if not ratio >= 1:
        raise ConfigError(f"imbalance ratio must be >= 1, got {ratio!r}")
    c = np.arange(num_classes)
    counts = np.round(n_max * ratio ** (-c / (num_classes - 1))).astype(int)
    if counts.min() < 1:
        raise ConfigError(f"imbalance ratio {ratio} drives a class to 0 samples")
    return counts


def bucket_thresholds(n_max: int) -> tuple[int, int]:
    # 100/20 cutoffs at a 1280-per-class reference scale, rescaled to n_max
    return ceil(n_max * 100 / 1280), ceil(n_max * 20 / 1280)


def subsample_longtail(src: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep longtail_counts(n, C, ratio) rows per class of a balanced source."""
    if src.labels is None:
        raise ConfigError("long-tail subsampling needs labels")
    counts = src.class_counts
    if counts.min() != counts.max():
        raise ConfigError("long-tail subsampling expects a balanced source")
    n_max = int(counts.max())
    keep_counts = longtail_counts(n_max, src.num_classes, ratio)
    rng = _rng(seed)
    keep = []
    for c in range(src.num_classes):
        idx = np.flatnonzero(src.labels == c)
        chosen = rng.choice(idx, size=keep_counts[c], replace=False)
        keep.append(np.sort(chosen))
    keep = np.concatenate(keep)
    return Dataset(src.features[keep], src.labels[keep], src.spec, src.shift,
                   bucket_thresholds(n_max))


# ---------------------------------------------------------------------------
# augmentation


def augment(x: np.ndarray, policy: AugmentationPolicy, mode: str,
            rng: np.random.Generator) -> np.ndarray:
    """Weak: gaussian jitter. Strong: jitter, feature dropout, scale jitter."""
    x = np.asarray(x, dtype=np.float64)
    if mode not in ("weak", "strong"):
        raise ConfigError(f"unknown augmentation mode {mode!r}")
    if x.ndim != 2:
        raise ShapeError(f"augment expects a 2-d batch, got shape {x.shape}")
    out = rng.normal(0.0, 1.0, size=x.shape)  # x + noise * sigma, built in this one buffer
    out *= policy.weak_sigma if mode == "weak" else policy.strong_sigma
    out += x
    if mode == "strong":
        if policy.dropout_prob > 0:
            out *= rng.random(size=x.shape) >= policy.dropout_prob
        out *= rng.uniform(*policy.scale_range, size=(x.shape[0], 1))
    return out


# ---------------------------------------------------------------------------
# dataset files: magic b"OTAD" in the store container, holding `features`
# (N x D) and, for labeled sets, `labels` as integral f64 (exact below 2**53).
# The header's `generator`, `shift` and `bucket_thresholds` are the Dataset's;
# the older keys `c` and `domain_tag` are ignored.

MAGIC = b"OTAD"


def save_dataset(ds: Dataset, path) -> None:
    header = {
        "shift": asdict(ds.shift) if ds.shift else None,
        "generator": asdict(ds.spec),
        "bucket_thresholds": list(ds.bucket_thresholds) if ds.bucket_thresholds else None,
    }
    arrays = {"features": ds.features}
    if ds.labels is not None:
        arrays["labels"] = ds.labels
    store.write(path, MAGIC, header, arrays)


def load_dataset(path) -> Dataset:
    header, arrays = store.read(path, MAGIC)
    try:
        shift, bt = header.get("shift"), header.get("bucket_thresholds")
        shift = store.from_dict(ShiftSpec, shift, "shift") if shift is not None else None
        spec = store.from_dict(GeneratorSpec, header["generator"], "generator")
    except (KeyError, ConfigError) as e:
        raise StorageError(f"{path}: malformed dataset header: {e!r}") from e
    if bt is not None and not (isinstance(bt, list) and len(bt) == 2
                               and all(store.is_count(v) for v in bt)):
        raise StorageError(f"{path}: bucket_thresholds must be null or two non-negative "
                           f"integers, got {bt!r}")
    features, labels = arrays.pop("features", None), arrays.pop("labels", None)
    if features is None or arrays:
        raise StorageError(f"{path}: a dataset holds features and optional labels, nothing else")
    if labels is not None:
        if not np.all((labels == np.floor(labels)) & (np.abs(labels) < 2**53)):
            raise StorageError(f"{path}: labels must be integral floats")
        labels = labels.astype(np.int64)
    try:
        return Dataset(features, labels, spec, shift, bt and tuple(bt))
    except ConfigError as e:  # features or labels that do not fit the header's generator
        raise StorageError(f"{path}: {e}") from e
