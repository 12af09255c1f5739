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
from functools import partial

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

    A layer may be held as another record's layer with some rows replaced,
    and is then built on its first read. The record's own layers are never
    written: a no-graph splice of it under a block mask writes only the one
    buffer per resumed stage that :meth:`gemm_input` keeps.
    """

    def __init__(self, layers, layout: RecordLayout, replaced=None):
        self._layers = list(layers)
        self.layout = layout
        self._replaced = dict(replaced or {})   # layer -> (rows, their values)
        self._inputs = {}   # stage -> [head of the record's layer, buffer, rows it differs on]

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, index: int) -> Tensor:
        if index in self._replaced:
            rows, values = self._replaced.pop(index)
            data = self._layers[index].data.copy()
            data[rows] = values
            self._layers[index] = Tensor(data)
        return self._layers[index]

    @property
    def layers(self) -> list:
        return [self.layer(l) for l in range(len(self))]

    def gemm_input(self, stage: int, head, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Stage ``stage``'s GEMM input over the batch for a no-graph splice:
        ``values`` on the rows ``rows`` and ``head`` of the record's layer
        ``stage - 1`` on the others. It is written into the one buffer the
        record keeps for the stage, with that head computed on the first call
        and kept to restore the rows the last call wrote."""
        if stage not in self._inputs:
            clean = head(self.layer(stage - 1)).data
            self._inputs[stage] = [clean, clean.copy(), rows[:0]]     # nothing written yet
        clean, buffer, written = self._inputs[stage]
        buffer[written] = clean[written]
        buffer[rows] = values
        self._inputs[stage][2] = rows
        return buffer

    @property
    def logits(self) -> Tensor:
        return self.layer(len(self) - 1)

    def flatten(self) -> np.ndarray:
        """Concatenate all layer values into a (batch, total) array."""
        n = self._layers[0].shape[0]
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
    layer_shapes: tuple     # per recorded layer, one example's shape: the input's first
    layout: RecordLayout
    registry: Registry
    # Stages that compute each example's row from that row alone, bit for
    # bit whatever the other rows are; ``_resume_rows`` may compute a subset.
    row_local_stages = ()

    # Each subclass implements _stage(l, prev, ...): pre-activation a^l from
    # the (possibly spliced) a^{l-1}, including any nonlinearity/pooling of
    # the previous layer. Stage 1 consumes a^0 = x directly. A stage also
    # takes, in place of a^{l-1}, what ``_head`` makes of it.

    def _stage(self, layer: int, prev: Tensor, train: bool = False,
               dropout_rate: float = 0.0, rng=None) -> Tensor:
        raise NotImplementedError

    def _head(self, layer: int, prev: Tensor) -> Tensor:
        """What stage ``layer``'s GEMM multiplies, made from a^{l-1} row by
        row (before dropout); given its own output, it returns it. A no-graph
        block-mask splice makes it only for the rows off the record
        (:meth:`_resume_rows`)."""
        return prev

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
        return Tensor(x.reshape((len(x),) + self.layer_shapes[0]))

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

    def _layer_constant(self, values, layer: int, rows) -> Tensor:
        # The batch rows ``rows`` of ``values``' layer ``layer``, shaped as the
        # layer. Imputed/noise inputs enter the graph as constants: gradient
        # barrier by construction, regardless of what the caller hands in.
        values = values.data if isinstance(values, Tensor) else np.asarray(values)
        return Tensor(values[rows, self.layout.layer_slice(layer)].reshape((-1,) + self.layer_shapes[layer]))

    def _resume(self, record: ActivationRecord, start: int, mask, substitute) -> ActivationRecord:
        """The one walk with substituted activations.

        Takes layer ``start`` from ``record``, which holds at least layers
        0..``start``, and recomputes every later layer from the one before.
        At each layer with masked positions, ``substitute(layer, rows,
        fresh)`` gives the values of the batch rows ``rows`` that replace
        ``fresh`` there: the walk's fresh values of those rows, or ``None``
        on the rowwise route, which reads no fresh values. Layers before
        ``start`` are kept as they are. Returns the record of all layers. It
        refuses batch norm, whose running statistics it would never update.

        The walk recomputes every row and selects between substituted and
        fresh values position by position. Without a graph (under
        :func:`autodiff.no_grad`), with a block mask and a whole ``record``
        it takes a rowwise route to the same values (:meth:`_resume_rows`).
        """
        if self.spec.batch_norm:
            raise NotImplementedError("the substituted passes do not support batch norm")
        if not ad.grad_enabled() and mask.block is not None and len(record) == self.layout.n_layers:
            return self._resume_rows(record, start, mask, substitute)
        recorded = record.layers
        walked = recorded[:start]
        for l in range(start, self.layout.n_layers):
            fresh = recorded[l] if l == start else self._stage(l, walked[-1])
            if mask.masked_rows(l).any():
                fresh = ad.where(mask.layer(l).reshape(fresh.shape),
                                 substitute(l, slice(None), fresh), fresh)
            walked.append(fresh)
        return ActivationRecord(walked, self.layout)

    def _resume_rows(self, record: ActivationRecord, start: int, mask, substitute) -> ActivationRecord:
        """``_resume`` without a graph under a block mask, which replaces a
        masked row's whole layer: a row leaves the record at its masked
        layer. While stages are row-local, only the rows off the record are
        computed, compacted in row order; the returned record builds those
        layers from ``record``'s when first read. The first other stage runs
        its ``_head`` on those rows too, and its GEMM, as every later stage,
        over all rows, with the other rows' input from the record's buffer
        (:meth:`ActivationRecord.gemm_input`). Rows on the record keep its
        values, bit-identical to recomputed ones. A masked row's layer is
        substituted whole, so ``substitute`` gets ``None`` as ``fresh``.
        """
        n = self.layout.n_layers
        recorded = record.layers
        first = np.where(mask.block < 0, n, mask.block)     # each row's masked layer; n: none
        replaced, l = {}, start
        while l < n and (l == start or l in self.row_local_stages):
            rows = np.flatnonzero(first <= l)       # rows off the record at layer l
            resumed = first[rows] < l               # ... that left it before l
            new = rows[~resumed]
            values = np.empty((len(rows),) + self.layer_shapes[l], dtype=recorded[l].data.dtype)
            if resumed.any():
                values[resumed] = self._stage(l, Tensor(replaced[l - 1][1])).data
            values[~resumed] = substitute(l, new, None).data
            replaced[l] = (rows, values)
            l += 1
        gemm = l        # the first stage that is not row-local
        walked = recorded[:gemm]
        for l in range(gemm, n):
            prev = walked[-1] if l > gemm else Tensor(record.gemm_input(
                l, partial(self._head, l), rows, self._head(l, Tensor(values)).data))
            fresh = self._stage(l, prev)
            new = np.flatnonzero(first == l)
            if len(new):
                fresh.data[new] = substitute(l, new, None).data
            walked.append(fresh)
        return ActivationRecord(walked, self.layout, replaced)

    def forward_spliced(self, record: ActivationRecord, mask, imputed):
        """Resume the recorded pass with imputed values at masked positions.

        Recomputes layer by layer from the earliest masked layer; at each
        layer, positions with mask 1 take the imputed pre-activation
        (always behind a stop-gradient barrier) and positions with mask 0
        take the freshly recomputed one. An empty mask reproduces the
        recorded pass bit-exactly. Under :func:`autodiff.no_grad` a block
        mask (``x_aug``, ``a_aug``) substitutes only the rows it has touched,
        and the row-local stages (the convolutions and the max pooling)
        compute only those rows; the logits are the same. The returned
        record's layers never alias a buffer a later splice writes. Refuses
        batch norm, as ``_resume`` does.
        """
        masked = [l for l in range(self.layout.n_layers) if mask.masked_rows(l).any()]

        def substitute(l, rows, fresh):
            return self._layer_constant(imputed, l, rows)

        start = min(masked, default=self.layout.n_layers)    # nothing masked: the record as it is
        out = self._resume(record, start, mask, substitute)
        return out.logits, out

    def forward_noised(self, x, mask, noise, mode: str, propagate: bool) -> Tensor:
        """Forward pass with noise substituted ("sub") or added ("add") at
        masked positions; ``propagate=False`` puts the modified values behind
        the stop-gradient barrier. Refuses batch norm, as ``_resume`` does."""
        if mode not in ("add", "sub"):
            raise ValueError(f"noise mode must be 'add' or 'sub', got {mode!r}")

        def substitute(l, rows, fresh):
            nl = self._layer_constant(noise, l, rows)
            value = nl if mode == "sub" else fresh + nl
            return value if propagate else ad.stop_gradient(value)

        inputs = ActivationRecord([self._input_tensor(x)], self.layout)
        return self._resume(inputs, 0, mask, substitute).logits

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
        self.layer_shapes = tuple((w,) for w in widths)
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
        self.bn = self._batch_norms((c1, c2, spec.dense_width))
        self.layer_shapes = (tuple(spec.input_shape), (c1, h1, w1), (c2, h2, w2),
                             (spec.dense_width,), (spec.num_classes,))
        self.layout = RecordLayout(tuple(int(np.prod(s)) for s in self.layer_shapes))
        self.conv_shapes = list(self.layer_shapes[1:3])

    def _head(self, layer, prev):
        if layer != 3 or prev.ndim == 2:
            return prev
        # ReLU and max pooling commute; pooling first runs the ReLU on a
        # quarter of the values.
        return ad.reshape(ad.relu(ad.max_pool2d(prev, self.spec.pool)), (prev.shape[0], -1))

    def _stage(self, layer, prev, train=False, dropout_rate=0.0, rng=None):
        if layer == 1:
            z = ad.conv2d(prev, self.w1) + ad.reshape(self.b1, (1, -1, 1, 1))
        elif layer == 2:
            z = ad.conv2d(ad.relu(prev), self.w2) + ad.reshape(self.b2, (1, -1, 1, 1))
        elif layer == 3:
            h = dropout_mask_apply(self._head(3, prev), dropout_rate, rng)
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
