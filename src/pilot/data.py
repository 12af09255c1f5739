"""Dataset ingestion: CIFAR-10 binary batches, raw-tensor containers, and
synthetic Gaussian blobs for desk-scale experiments."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import ContainerError, load_tensors, save_tensors

CIFAR_RECORD = 3073   # 1 label byte + 3 * 32 * 32 pixel bytes
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    image_shape: tuple | None = None    # None for flat-vector data

    @property
    def input_shape(self) -> tuple:
        return self.image_shape if self.image_shape else (self.x_train.shape[1],)


def _parse_cifar_file(path) -> tuple:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % CIFAR_RECORD:
        offset = len(raw) - len(raw) % CIFAR_RECORD
        raise DataError(f"{path}: truncated record at byte {offset} "
                        f"(file length {len(raw)} is not a multiple of {CIFAR_RECORD})")
    if not raw:
        raise DataError(f"{path}: holds no records")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = arr[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise DataError(f"{path}: label {labels[bad[0]]} > 9 in record {bad[0]}")
    images = arr[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(path) -> Dataset:
    """Load the standard binary distribution: 50,000 train / 10,000 test
    examples of shape 3x32x32 scaled to [0, 1]."""
    path = os.fspath(path)
    nested = os.path.join(path, "cifar-10-batches-bin")
    if os.path.isdir(nested):
        path = nested
    trains = []
    labels = []
    for name in CIFAR_TRAIN_FILES:
        full = os.path.join(path, name)
        if not os.path.exists(full):
            raise DataError(f"missing CIFAR-10 batch file {full}")
        xs, ys = _parse_cifar_file(full)
        trains.append(xs)
        labels.append(ys)
    x_test, y_test = _parse_cifar_file(os.path.join(path, CIFAR_TEST_FILE))
    return Dataset(
        x_train=np.concatenate(trains, axis=0),
        y_train=np.concatenate(labels, axis=0),
        x_test=x_test,
        y_test=y_test,
        num_classes=10,
        image_shape=(3, 32, 32),
    )


def save_raw_tensor(path, images: np.ndarray, labels: np.ndarray, meta: dict | None = None) -> None:
    """Write one split as a tensor container with "images" and "labels"."""
    images = np.asarray(images)
    labels = np.asarray(labels, dtype=np.int64)
    if len(images) != len(labels):
        raise DataError(f"images count {len(images)} != labels count {len(labels)}")
    save_tensors(path, {"images": images, "labels": labels}, meta)


def load_raw_tensor(path):
    """Load one split; integer image payloads are scaled by 1/255, floating
    payloads are taken as already normalised. Returns ``(images, labels)``."""
    try:
        tensors, _ = load_tensors(path)
    except ContainerError as err:
        raise DataError(str(err)) from None
    for name in ("images", "labels"):
        if name not in tensors:
            raise DataError(f"{path}: container is missing tensor {name!r}")
    images = tensors["images"]
    labels = tensors["labels"].astype(np.int64)
    if images.ndim != 4:
        raise DataError(f"{path}: images must be (N, C, H, W), got {images.shape}")
    if len(images) != len(labels):
        raise DataError(f"{path}: images count {len(images)} != labels count {len(labels)}")
    if not len(images):
        raise DataError(f"{path}: split holds no examples")
    if np.issubdtype(images.dtype, np.integer):
        images = images.astype(np.float64) / 255.0
    else:
        images = images.astype(np.float64)
    return images, labels


def raw_tensor_dataset(train_path, test_path, num_classes: int | None = None) -> Dataset:
    x_train, y_train = load_raw_tensor(train_path)
    x_test, y_test = load_raw_tensor(test_path)
    if x_train.shape[1:] != x_test.shape[1:]:
        raise DataError("train/test image shapes disagree")
    if num_classes is None:
        num_classes = int(max(y_train.max(), y_test.max())) + 1
    for name, ys in (("train", y_train), ("test", y_test)):
        if ys.min() < 0 or ys.max() >= num_classes:
            raise DataError(f"{name} labels fall outside [0, {num_classes})")
    return Dataset(x_train, y_train, x_test, y_test, num_classes, tuple(x_train.shape[1:]))


def synth_blobs(n_classes: int, n_per_class: int, dim: int, separation: float, seed: int,
                label_noise: float = 0.0, n_test_per_class: int | None = None) -> Dataset:
    """Unit-variance Gaussian clusters at ``separation *`` the standard basis
    vectors (pairwise mean distance separation*sqrt(2)). Label noise flips a
    training label to a uniformly random other class. Deterministic per seed."""
    if dim < n_classes:
        raise ValueError(f"need dim >= n_classes to place {n_classes} simplex vertices in R^{dim}")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError("label_noise must lie in [0, 1)")
    n_test_per_class = n_test_per_class if n_test_per_class is not None else n_per_class
    rng = np.random.default_rng(seed)
    means = np.zeros((n_classes, dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation

    def draw(per_class):
        ys = np.repeat(np.arange(n_classes), per_class)
        xs = means[ys] + rng.standard_normal((len(ys), dim))
        perm = rng.permutation(len(ys))
        return xs[perm], ys[perm]

    x_train, y_train = draw(n_per_class)
    x_test, y_test = draw(n_test_per_class)
    if label_noise > 0:
        flip = rng.random(len(y_train)) < label_noise
        shift = rng.integers(1, n_classes, size=len(y_train))
        y_train = np.where(flip, (y_train + shift) % n_classes, y_train)
    return Dataset(x_train, y_train.astype(np.int64), x_test, y_test.astype(np.int64),
                   n_classes, None)


def blob_bayes_accuracy(n_classes: int, separation: float, n_mc: int = 200_000, seed: int = 0) -> float:
    """Bayes-optimal accuracy of the blob mixture. Exact for two classes
    (Phi of half the mean distance); Monte Carlo estimate otherwise."""
    if n_classes == 2:
        half = separation * math.sqrt(2.0) / 2.0
        return 0.5 * (1.0 + math.erf(half / math.sqrt(2.0)))
    rng = np.random.default_rng(seed)
    means = np.zeros((n_classes, n_classes))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    ys = rng.integers(0, n_classes, size=n_mc)
    xs = means[ys] + rng.standard_normal((n_mc, n_classes))
    # Bayes rule for equal priors and unit covariance: nearest mean
    d2 = ((xs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == ys).mean())
