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
        require_positive(self, "hidden", "conv_channels", "kernel_size", "pool", "dense_width")


def require_positive(config, *names) -> None:
    """Raise a ValueError naming the first of ``config``'s fields ``names``
    that is not positive; a tuple field must be positive in every entry."""
    for name in names:
        value = getattr(config, name)
        if not all(v > 0 for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be positive, got {value}")


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
    """Stacked raw pre-activations of one forward pass, a^0..a^L.

    A no-graph splice of the whole record under a block mask
    (``forward_spliced`` under :func:`autodiff.no_grad`) writes the rows it
    recomputes or substitutes into working copies of the record's layers,
    not into fresh copies of them: the record makes a layer's copy on the
    first such write and keeps it. The record's own layers are never
    written.
    """

    def __init__(self, layers, layout: RecordLayout):
        self.layers = list(layers)
        self.layout = layout
        self._work = {}     # layer -> (working copy, rows it differs from the record on)

    def working(self, layer: int, rows: np.ndarray) -> np.ndarray:
        """Layer ``layer``'s working copy for a splice that rewrites in full
        the rows the boolean ``rows`` selects. It holds the record's values
        on every other row: rows the last splice wrote are restored from the
        record first; the rest is left as it is."""
        if layer not in self._work:
            self._work[layer] = (self.layers[layer].data.copy(), rows.copy())
            return self._work[layer][0]
        work, written = self._work[layer]
        stale = written & ~rows
        work[stale] = self.layers[layer].data[stale]
        written[:] = rows
        return work

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
        self._rows = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"tensor {name!r} registered twice")
        self._tensors[name] = tensor
        return tensor

    def param(self, name: str, data, rows=None) -> Tensor:
        """Register a new trainable tensor holding ``data``. A table
        (:func:`autodiff.block_table`) gives ``rows``: per row, the rows of
        the weight it stands for."""
        if rows is not None:
            self._rows[name] = rows
        return self.add(name, Tensor(data, requires_grad=True))

    def parameters(self):
        return [t for t in self._tensors.values() if t.requires_grad]

    def row_counts(self) -> list:
        """Per parameter, the ``rows`` it was registered with, else ``None``:
        the clip norm's row counts (:class:`optim.Adam`)."""
        return [self._rows.get(name) for name, t in self._tensors.items() if t.requires_grad]

    def state_arrays(self) -> dict:
        return {name: t.data for name, t in self._tensors.items()}

    def load_state(self, arrays) -> None:
        # Copied into the live arrays, not adopted: a parameter's array may
        # be a view of an optimiser's buffer (optim.Adam), and the caller may
        # keep (or train) the arrays it passed.
        for name, t in self._tensors.items():
            if np.shape(arrays[name]) != t.shape:
                raise ValueError(f"tensor {name!r} has shape {np.shape(arrays[name])}, "
                                 f"the model needs {t.shape}")
            np.copyto(t.data, arrays[name])


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


def dropout_mask_apply(h: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout: zero units with probability ``rate``, scale survivors.

    Drops whenever ``rate`` is nonzero, in training and in MC-dropout
    prediction alike; a rate of 0 is the identity and draws nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
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
        x = np.asarray(x, dtype=np.float64)
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
        """Logits. ``train`` only selects batch norm's batch statistics; a
        nonzero ``dropout_rate`` drops units, drawn from ``rng``."""
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

    def _resume(self, record: ActivationRecord, start: int, mask, substitute):
        """The one walk with substituted activations.

        Takes layer ``start`` from ``record``, which holds at least layers
        0..``start``, and recomputes every later layer from the one before.
        At each layer with masked positions, ``substitute(layer, fresh,
        rows)`` gives the values that replace ``fresh``, the fresh values of
        the batch rows ``rows``, there. Layers before ``start`` are kept as
        they are. Returns the list of all layers. It refuses batch norm,
        whose running statistics it would never update.

        The walk recomputes every row and selects between substituted and
        fresh values position by position. Without a graph (under
        :func:`autodiff.no_grad`), with a block mask and a whole ``record``
        it takes a rowwise route to the same values: a block mask replaces
        a masked row's whole layer, so only the masked rows are substituted,
        with no select, and a row-local stage recomputes only the rows whose
        input has left the record, keeping the record's rows, bit-identical
        to recomputed ones, for the others. That route writes the start
        layer and the row-local layers in the record's working copies
        (:meth:`ActivationRecord.working`): the layers returned alias those
        copies until the next rowwise walk of ``record``.
        """
        if self.spec.batch_norm:
            raise NotImplementedError("the substituted passes do not support batch norm")
        rowwise = (not ad.grad_enabled() and mask.block is not None
                   and len(record.layers) == self.layout.n_layers)
        left = np.zeros(record.batch_size, dtype=bool)     # rows off the record so far
        walked = record.layers[:start]
        for l in range(start, self.layout.n_layers):
            rows = mask.masked_rows(l)
            if rowwise and (l == start or l in self.row_local_stages):
                data = record.working(l, left | rows)
                if left.any():
                    data[left] = self._stage(l, Tensor(walked[-1].data[left])).data
                fresh = Tensor(data)
            else:
                fresh = record.layers[l] if l == start else self._stage(l, walked[-1])
            if rowwise and rows.any():
                fresh.data[rows] = substitute(l, Tensor(fresh.data[rows]), rows).data
            elif rows.any():
                fresh = ad.where(mask.layer(l).reshape(fresh.shape),
                                 substitute(l, fresh, slice(None)), fresh)
            left |= rows
            walked.append(fresh)
        return walked

    def forward_spliced(self, record: ActivationRecord, mask, imputed):
        """Resume the recorded pass with imputed values at masked positions.

        Recomputes layer by layer from the earliest masked layer; at each
        layer, positions with mask 1 take the imputed pre-activation
        (always behind a stop-gradient barrier) and positions with mask 0
        take the freshly recomputed one. An empty mask reproduces the
        recorded pass bit-exactly. Under :func:`autodiff.no_grad` a block
        mask (``x_aug``, ``a_aug``) substitutes only the rows it has touched,
        and the convolution stages recompute only those rows and keep the
        record's rows for the others; the logits are the same. The returned
        record's layers may then alias ``record``'s working copies, valid
        until the next such splice of ``record`` (see ``_resume``). Any other
        splice recomputes every row and aliases nothing of ``record`` from
        the first masked layer on. Refuses batch norm, as ``_resume`` does.
        """
        masked = [l for l in range(self.layout.n_layers) if mask.masked_rows(l).any()]

        def substitute(l, fresh, rows):
            return self._layer_constant(imputed, l, fresh.shape, rows)

        start = min(masked, default=self.layout.n_layers)    # nothing masked: the record as it is
        layers = self._resume(record, start, mask, substitute)
        out = ActivationRecord(layers, self.layout)
        return out.logits, out

    def forward_noised(self, x, mask, noise, mode: str, propagate: bool) -> Tensor:
        """Forward pass with noise substituted ("sub") or added ("add") at
        masked positions; ``propagate=False`` puts the modified values behind
        the stop-gradient barrier. Refuses batch norm, as ``_resume`` does."""
        if mode not in ("add", "sub"):
            raise ValueError(f"noise mode must be 'add' or 'sub', got {mode!r}")

        def substitute(l, fresh, rows):
            nl = self._layer_constant(noise, l, fresh.shape, rows)
            value = nl if mode == "sub" else fresh + nl
            return value if propagate else ad.stop_gradient(value)

        inputs = ActivationRecord([self._input_tensor(x)], self.layout)
        return self._resume(inputs, 0, mask, substitute)[-1]

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
        h = prev if layer == 1 else dropout_mask_apply(ad.relu(prev), dropout_rate, rng)
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
            # ReLU and max pooling commute; pooling first runs the ReLU on
            # a quarter of the values.
            pooled = ad.relu(ad.max_pool2d(prev, self.spec.pool))
            h = dropout_mask_apply(ad.reshape(pooled, (prev.shape[0], -1)), dropout_rate, rng)
            z = ad.matmul(h, self.w3) + self.b3
        elif layer == 4:
            h = dropout_mask_apply(ad.relu(prev), dropout_rate, rng)
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
