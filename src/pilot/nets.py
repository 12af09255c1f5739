"""Classifier networks with per-layer recording of raw pre-activations.

Layer 0 of a record is the input itself; the last layer is the logits.
Recorded values are always pre-nonlinearity. Both substituted passes are
one walk (``_resume``): ``forward_spliced`` resumes a recorded pass from its
first masked layer with imputed values at masked positions, and
``forward_noised`` walks from the input with additive/substitutive noise
there. Each model keeps its parameters and buffers in one ``Registry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

READ_BATCH = 512    # rows per inference pass: ``predict`` and ``calibrate.mc_predict``


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str                       # "mlp" | "cnn"
    input_shape: tuple
    num_classes: int
    hidden: tuple = (1024, 1024)    # mlp hidden widths
    conv_channels: tuple = (32, 64)
    kernel_size: int = 3
    pool: int = 2
    dense_width: int = 1024
    batch_norm: bool = False

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.kind == "mlp" and len(self.hidden) < 1:
            raise ValueError("mlp needs at least one hidden layer")
        if self.kind == "cnn" and len(self.input_shape) != 3:
            raise ValueError("cnn input shape must be (C, H, W)")


@dataclass(frozen=True)
class RecordLayout:
    """Per-layer unit counts and offsets for flattening a record."""

    sizes: tuple
    offsets: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(np.concatenate([[0], np.cumsum(self.sizes)[:-1]]).tolist()))

    @property
    def total(self) -> int:
        return int(sum(self.sizes))

    @property
    def n_layers(self) -> int:
        return len(self.sizes)

    def layer_slice(self, layer: int) -> slice:
        return slice(self.offsets[layer], self.offsets[layer] + self.sizes[layer])


class ActivationRecord:
    """Stacked raw pre-activations of one forward pass, a^0..a^L."""

    def __init__(self, layers, layout: RecordLayout):
        self.layers = list(layers)
        self.layout = layout

    @property
    def logits(self) -> Tensor:
        return self.layers[-1]

    @property
    def batch_size(self) -> int:
        return self.layers[0].shape[0]

    def flatten(self) -> np.ndarray:
        """Concatenate all layer values into a (batch, total) array."""
        n = self.batch_size
        return np.concatenate([t.data.reshape(n, -1) for t in self.layers], axis=1)


class Registry:
    """Ordered name -> Tensor map of a model's parameters and buffers.

    Parameters are the tensors with ``requires_grad``; buffers (batch-norm
    running statistics) are the others. Registration order is the checkpoint
    order, the optimiser's state index and ``global_norm``'s summation order.
    """

    def __init__(self):
        self._tensors = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"tensor {name!r} registered twice")
        self._tensors[name] = tensor
        return tensor

    def param(self, name: str, data) -> Tensor:
        """Register a new trainable tensor holding ``data``."""
        return self.add(name, Tensor(data, requires_grad=True))

    def parameters(self):
        return [t for t in self._tensors.values() if t.requires_grad]

    def state_arrays(self) -> dict:
        return {name: t.data for name, t in self._tensors.items()}

    def load_state(self, arrays) -> None:
        # Copied, not adopted: Adam updates parameters in place, and the
        # caller may keep (or train) the arrays it passed.
        for name, t in self._tensors.items():
            t.data = np.array(arrays[name])


class BatchNorm:
    """Feature-wise batch normalisation (2-D inputs) or channel-wise (4-D)."""

    momentum = 0.9
    eps = 1e-5

    def __init__(self, num_features: int):
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = Tensor(np.zeros(num_features))
        self.running_var = Tensor(np.ones(num_features))

    def apply(self, z: Tensor, train: bool) -> Tensor:
        axes = (0,) if z.ndim == 2 else (0, 2, 3)
        shape = (1, -1) if z.ndim == 2 else (1, -1, 1, 1)
        gamma = ad.reshape(self.gamma, shape)
        beta = ad.reshape(self.beta, shape)
        if train:
            if z.shape[0] < 2:
                raise ValueError("batch norm needs batch size >= 2 in training mode")
            mu = z.mean(axis=axes, keepdims=True)
            var = ad.square(z - mu).mean(axis=axes, keepdims=True)
            m = self.momentum
            self.running_mean.data = m * self.running_mean.data + (1 - m) * mu.data.reshape(-1)
            self.running_var.data = m * self.running_var.data + (1 - m) * var.data.reshape(-1)
        else:
            mu = Tensor(self.running_mean.data.reshape(shape))
            var = Tensor(self.running_var.data.reshape(shape))
        xhat = (z - mu) / ad.sqrt(var + self.eps)
        return gamma * xhat + beta


def dropout_mask_apply(h: Tensor, rate: float, rng, train: bool) -> Tensor:
    """Inverted dropout: zero units with probability ``rate``, scale survivors.

    Identity in eval mode; MC-dropout prediction calls this with train=True.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return h
    keep = (rng.random(h.shape) >= rate) / (1.0 - rate)
    return ad.mul(h, Tensor(keep))


def normal_init(rng, std, shape) -> np.ndarray:
    """Normal(0, std) weights; with ``rng=None`` an uninitialised array, for
    a model whose every tensor is about to be loaded."""
    return np.empty(shape) if rng is None else rng.normal(0.0, std, size=shape)


def _he_init(rng, fan_in, shape, scale=2.0):
    return normal_init(rng, np.sqrt(scale / fan_in), shape)


class _ClassifierBase:
    spec: ClassifierSpec
    layout: RecordLayout
    registry: Registry
    # Stages that compute each example's row from that row alone, bit for
    # bit whatever the other rows are; ``_resume`` may recompute a subset.
    row_local_stages = ()

    # Each subclass implements _stage(l, prev, ...): pre-activation a^l from
    # the (possibly spliced) a^{l-1}, including any nonlinearity/pooling of
    # the previous layer. Stage 1 consumes a^0 = x directly.

    def _stage(self, layer: int, prev: Tensor, train: bool = False,
               dropout_rate: float = 0.0, rng=None) -> Tensor:
        raise NotImplementedError

    def _batch_norms(self, widths):
        """One BatchNorm per width when the spec asks for batch norm,
        registered after the weights; None otherwise."""
        if not self.spec.batch_norm:
            return None
        bns = [BatchNorm(w) for w in widths]
        for i, bn in enumerate(bns):
            for key in ("gamma", "beta", "running_mean", "running_var"):
                self.registry.add(f"clf.bn{i}.{key}", getattr(bn, key))
        return bns

    def parameters(self):
        return self.registry.parameters()

    def weight_tensors(self):
        """The parameters L2 penalises: weights, not biases or BN affines."""
        return [p for p in self.parameters() if p.ndim > 1]

    def state_arrays(self) -> dict:
        return self.registry.state_arrays()

    def load_state(self, arrays) -> None:
        self.registry.load_state(arrays)

    def _input_tensor(self, x) -> Tensor:
        x = np.asarray(x, dtype=ad.DEFAULT_DTYPE)
        if self.spec.kind == "mlp":
            return Tensor(x.reshape(len(x), -1))
        return Tensor(x.reshape((len(x),) + tuple(self.spec.input_shape)))

    def _forward(self, x, train=False, dropout_rate=0.0, rng=None):
        a = self._input_tensor(x)
        layers = [a]
        for l in range(1, self.layout.n_layers):
            layers.append(self._stage(l, layers[-1], train=train, dropout_rate=dropout_rate, rng=rng))
        return layers

    def forward(self, x, train=False, dropout_rate=0.0, rng=None) -> Tensor:
        return self._forward(x, train=train, dropout_rate=dropout_rate, rng=rng)[-1]

    def forward_record(self, x):
        """Forward pass recording every layer's raw pre-activation."""
        layers = self._forward(x)
        record = ActivationRecord(layers, self.layout)
        return record.logits, record

    def _layer_constant(self, values, layer: int, shape, rows=slice(None)) -> Tensor:
        # Imputed/noise inputs enter the graph as constants: gradient barrier
        # by construction, regardless of what the caller hands in.
        values = values.data if isinstance(values, Tensor) else np.asarray(values)
        return Tensor(values[rows, self.layout.layer_slice(layer)].reshape(shape))

    def _resume(self, layers, start: int, mask, substitute):
        """The one walk with substituted activations.

        Takes layer ``start`` from ``layers`` and recomputes every later
        layer from the one before. At each layer with masked positions,
        ``substitute(layer, fresh, rows)`` gives the values that replace
        ``fresh``, the fresh values of the batch rows ``rows``, there. Layers
        before ``start`` are kept as they are. Returns the list of all layers.

        With a graph, every row of every layer is recomputed and substituted.
        Without one (under :func:`autodiff.no_grad`) the walk gives the same
        values with less work. A layer's substitution touches only the rows
        with masked positions in it; the others keep ``fresh``, which the
        dense select would return as ``0 * substitute + 1 * fresh``. And when
        ``layers`` is a whole record, a row-local stage recomputes only the
        rows whose input has left the record and copies the record's rows,
        bit-identical to recomputed ones, for the others.
        """
        graph = ad.grad_enabled()
        reuse = not graph and len(layers) == self.layout.n_layers
        left = np.zeros(layers[0].shape[0], dtype=bool)     # rows off the record so far
        walked = list(layers[:start])
        for l in range(start, self.layout.n_layers):
            if l == start:
                fresh = layers[start]
            elif reuse and l in self.row_local_stages:
                fresh = self._stage_rows(l, walked[-1], layers[l], left)
            else:
                fresh = self._stage(l, walked[-1])
            rows = mask.masked_rows(l)
            if graph and rows.any():
                fresh = ad.where(mask.layer(l).reshape(fresh.shape),
                                 substitute(l, fresh, slice(None)), fresh)
            elif rows.any():
                data = fresh.data.copy() if l == start else fresh.data
                part = Tensor(data[rows])
                cond = mask.layer(l)[rows].reshape(part.shape)
                data[rows] = ad.where(cond, substitute(l, part, rows), part).data
                fresh = Tensor(data)
            left |= rows
            walked.append(fresh)
        return walked

    def _stage_rows(self, layer: int, prev: Tensor, recorded: Tensor, rows) -> Tensor:
        """Stage ``layer`` on the ``rows`` of ``prev``, into a copy of the
        recorded layer."""
        out = recorded.data.copy()
        out[rows] = self._stage(layer, Tensor(prev.data[rows])).data
        return Tensor(out)

    def forward_spliced(self, record: ActivationRecord, mask, imputed):
        """Resume the recorded pass with imputed values at masked positions.

        Recomputes layer by layer from the earliest masked layer; at each
        layer, positions with mask 1 take the imputed pre-activation
        (always behind a stop-gradient barrier) and positions with mask 0
        take the freshly recomputed one. An empty mask reproduces the
        recorded pass bit-exactly. Under :func:`autodiff.no_grad` only the
        rows a mask has touched are substituted, and the convolution stages
        recompute only those rows and copy the record's rows for the others;
        the logits are the same. With a graph every row is recomputed, so
        that gradient flows through the fresh pass as before.
        """
        if self.spec.batch_norm:
            raise NotImplementedError("splicing through batch-norm classifiers is unsupported")
        masked = [l for l in range(self.layout.n_layers) if mask.masked_rows(l).any()]

        def substitute(l, fresh, rows):
            return self._layer_constant(imputed, l, fresh.shape, rows)

        start = min(masked, default=self.layout.n_layers)    # nothing masked: the record as it is
        layers = self._resume(record.layers, start, mask, substitute)
        out = ActivationRecord(layers, self.layout)
        return out.logits, out

    def forward_noised(self, x, mask, noise, mode: str, propagate: bool) -> Tensor:
        """Forward pass with noise substituted ("sub") or added ("add") at
        masked positions; ``propagate=False`` puts the modified values behind
        the stop-gradient barrier."""
        if mode not in ("add", "sub"):
            raise ValueError(f"noise mode must be 'add' or 'sub', got {mode!r}")

        def substitute(l, fresh, rows):
            nl = self._layer_constant(noise, l, fresh.shape, rows)
            value = nl if mode == "sub" else fresh + nl
            return value if propagate else ad.stop_gradient(value)

        return self._resume([self._input_tensor(x)], 0, mask, substitute)[-1]

    def predict(self, x) -> np.ndarray:
        """Class probabilities, row-normalised softmax of the logits."""
        chunks = []
        with ad.no_grad():
            for i in range(0, len(x), READ_BATCH):
                logits = self.forward(x[i : i + READ_BATCH])
                chunks.append(ad.softmax(logits, axis=1).data)
        return np.concatenate(chunks, axis=0)


class MLPClassifier(_ClassifierBase):
    def __init__(self, spec: ClassifierSpec, rng):
        self.spec = spec
        self.registry = reg = Registry()
        in_dim = int(np.prod(spec.input_shape))
        widths = [in_dim, *spec.hidden, spec.num_classes]
        self.weights = []
        self.biases = []
        for i in range(len(widths) - 1):
            scale = 2.0 if i < len(widths) - 2 else 1.0
            w = _he_init(rng, widths[i], (widths[i], widths[i + 1]), scale)
            self.weights.append(reg.param(f"clf.{i}.W", w))
            self.biases.append(reg.param(f"clf.{i}.b", np.zeros(widths[i + 1])))
        self.bn = self._batch_norms(spec.hidden)
        self.layout = RecordLayout(tuple(widths))

    def _stage(self, layer, prev, train=False, dropout_rate=0.0, rng=None):
        h = prev if layer == 1 else ad.relu(prev)
        if layer > 1 and dropout_rate:
            h = dropout_mask_apply(h, dropout_rate, rng, train)
        z = ad.matmul(h, self.weights[layer - 1]) + self.biases[layer - 1]
        if self.bn is not None and layer < self.layout.n_layers - 1:
            z = self.bn[layer - 1].apply(z, train)
        return z


class CNNClassifier(_ClassifierBase):
    """conv-relu-conv-relu-maxpool-dense-relu-dense, recording every
    pre-activation (conv maps flattened for the record layout)."""

    row_local_stages = (1, 2)     # conv2d runs one GEMM per example

    def __init__(self, spec: ClassifierSpec, rng):
        self.spec = spec
        self.registry = reg = Registry()
        c_in, h, w = spec.input_shape
        c1, c2 = spec.conv_channels
        k = spec.kernel_size
        self.w1 = reg.param("clf.w1", _he_init(rng, c_in * k * k, (c1, c_in, k, k)))
        self.b1 = reg.param("clf.b1", np.zeros(c1))
        self.w2 = reg.param("clf.w2", _he_init(rng, c1 * k * k, (c2, c1, k, k)))
        self.b2 = reg.param("clf.b2", np.zeros(c2))
        h1, w1 = h - k + 1, w - k + 1
        h2, w2 = h1 - k + 1, w1 - k + 1
        if h2 % spec.pool or w2 % spec.pool:
            raise ValueError(f"pooled map {h2}x{w2} not divisible by pool {spec.pool}")
        hp, wp = h2 // spec.pool, w2 // spec.pool
        flat = c2 * hp * wp
        self.w3 = reg.param("clf.w3", _he_init(rng, flat, (flat, spec.dense_width)))
        self.b3 = reg.param("clf.b3", np.zeros(spec.dense_width))
        self.w4 = reg.param("clf.w4", _he_init(rng, spec.dense_width, (spec.dense_width, spec.num_classes), 1.0))
        self.b4 = reg.param("clf.b4", np.zeros(spec.num_classes))
        self.conv_shapes = [(c1, h1, w1), (c2, h2, w2)]
        self.bn = self._batch_norms((c1, c2, spec.dense_width))
        sizes = (
            int(np.prod(spec.input_shape)),
            c1 * h1 * w1,
            c2 * h2 * w2,
            spec.dense_width,
            spec.num_classes,
        )
        self.layout = RecordLayout(sizes)

    def _stage(self, layer, prev, train=False, dropout_rate=0.0, rng=None):
        if layer == 1:
            z = ad.conv2d(prev, self.w1) + ad.reshape(self.b1, (1, -1, 1, 1))
        elif layer == 2:
            z = ad.conv2d(ad.relu(prev), self.w2) + ad.reshape(self.b2, (1, -1, 1, 1))
        elif layer == 3:
            pooled = ad.max_pool2d(ad.relu(prev), self.spec.pool)
            h = ad.reshape(pooled, (prev.shape[0], -1))
            if dropout_rate:
                h = dropout_mask_apply(h, dropout_rate, rng, train)
            z = ad.matmul(h, self.w3) + self.b3
        elif layer == 4:
            h = ad.relu(prev)
            if dropout_rate:
                h = dropout_mask_apply(h, dropout_rate, rng, train)
            z = ad.matmul(h, self.w4) + self.b4
        else:
            raise ValueError(f"cnn has no stage {layer}")
        if self.bn is not None and layer < self.layout.n_layers - 1:
            z = self.bn[layer - 1].apply(z, train)
        return z


def build_classifier(spec: ClassifierSpec, rng):
    if spec.kind == "mlp":
        return MLPClassifier(spec, rng)
    return CNNClassifier(spec, rng)
