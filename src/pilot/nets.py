"""Classifier networks with per-layer recording of raw pre-activations.

Layer 0 of a record is the input itself; the last layer is the logits.
Recorded values are always pre-nonlinearity. A recorded pass can be resumed
from any layer with masked positions replaced by externally supplied values
(``forward_spliced``) or perturbed by additive/substitutive noise
(``forward_noised``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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

    def unflatten(self, flat: np.ndarray):
        """Split a (batch, total) array back into per-layer-shaped arrays."""
        out = []
        for i, t in enumerate(self.layers):
            sl = self.layout.layer_slice(i)
            out.append(flat[:, sl].reshape(t.shape))
        return out


class BatchNorm:
    """Feature-wise batch normalisation (2-D inputs) or channel-wise (4-D)."""

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(num_features), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features), requires_grad=True)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.momentum = momentum
        self.eps = eps

    def _shaped(self, arr, ndim):
        if ndim == 4:
            return arr.reshape((1, -1, 1, 1))
        return arr.reshape((1, -1))

    def apply(self, z: Tensor, train: bool) -> Tensor:
        axes = (0,) if z.ndim == 2 else (0, 2, 3)
        gamma = ad.reshape(self.gamma, (1, -1) if z.ndim == 2 else (1, -1, 1, 1))
        beta = ad.reshape(self.beta, (1, -1) if z.ndim == 2 else (1, -1, 1, 1))
        if train:
            if z.shape[0] < 2:
                raise ValueError("batch norm needs batch size >= 2 in training mode")
            mu = z.mean(axis=axes, keepdims=True)
            var = ad.square(z - mu).mean(axis=axes, keepdims=True)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mu.data.reshape(-1)
            self.running_var = m * self.running_var + (1 - m) * var.data.reshape(-1)
            xhat = (z - mu) / ad.sqrt(var + self.eps)
        else:
            mu = Tensor(self._shaped(self.running_mean, z.ndim))
            var = Tensor(self._shaped(self.running_var, z.ndim))
            xhat = (z - mu) / ad.sqrt(var + self.eps)
        return gamma * xhat + beta

    def parameters(self):
        return [self.gamma, self.beta]


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


def _he_init(rng, fan_in, shape, scale=2.0):
    return rng.normal(0.0, np.sqrt(scale / fan_in), size=shape)


def _as_constant(values) -> np.ndarray:
    # Imputed/noise inputs enter the graph as constants: gradient barrier by
    # construction, regardless of what the caller hands in.
    if isinstance(values, Tensor):
        return values.data
    return np.asarray(values, dtype=ad.DEFAULT_DTYPE)


class _ClassifierBase:
    spec: ClassifierSpec
    layout: RecordLayout

    # Each subclass implements _stage(l, prev, ...): pre-activation a^l from
    # the (possibly spliced) a^{l-1}, including any nonlinearity/pooling of
    # the previous layer. Stage 1 consumes a^0 = x directly.

    def _stage(self, layer: int, prev: Tensor, train: bool = False,
               dropout_rate: float = 0.0, rng=None) -> Tensor:
        raise NotImplementedError

    def parameters(self):
        raise NotImplementedError

    def weight_tensors(self):
        raise NotImplementedError

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

    def forward_spliced(self, record: ActivationRecord, mask, imputed):
        """Resume the recorded pass with imputed values at masked positions.

        Recomputes layer by layer from the earliest masked layer; at each
        layer, positions with mask 1 take the imputed pre-activation
        (always behind a stop-gradient barrier) and positions with mask 0
        take the freshly recomputed one. An empty mask reproduces the
        recorded pass bit-exactly.
        """
        if self.spec.batch_norm:
            raise NotImplementedError("splicing through batch-norm classifiers is unsupported")
        per_layer = [mask.layer(l) for l in range(self.layout.n_layers)]
        masked_layers = [l for l, m in enumerate(per_layer) if m.any()]
        if not masked_layers:
            return record.logits, ActivationRecord(record.layers, self.layout)
        imputed = _as_constant(imputed)
        first = masked_layers[0]
        spliced = list(record.layers)
        for l in range(first, self.layout.n_layers):
            fresh = record.layers[l] if l == first else self._stage(l, spliced[l - 1])
            m = per_layer[l]
            if m.any():
                sl = self.layout.layer_slice(l)
                values = Tensor(imputed[:, sl].reshape(fresh.shape))
                spliced[l] = ad.where(m.reshape(fresh.shape), values, fresh)
            else:
                spliced[l] = fresh
        out = ActivationRecord(spliced, self.layout)
        return out.logits, out

    def forward_noised(self, x, mask, noise, mode: str, propagate: bool) -> Tensor:
        """Forward pass with noise substituted ("sub") or added ("add") at
        masked positions; ``propagate=False`` puts the modified values behind
        the stop-gradient barrier."""
        if mode not in ("add", "sub"):
            raise ValueError(f"noise mode must be 'add' or 'sub', got {mode!r}")
        noise = _as_constant(noise)
        cur = self._input_tensor(x)
        for l in range(self.layout.n_layers):
            fresh = cur if l == 0 else self._stage(l, cur)
            m = mask.layer(l)
            if m.any():
                sl = self.layout.layer_slice(l)
                nl = Tensor(noise[:, sl].reshape(fresh.shape))
                value = nl if mode == "sub" else fresh + nl
                if not propagate:
                    value = ad.stop_gradient(value)
                cur = ad.where(m.reshape(fresh.shape), value, fresh)
            else:
                cur = fresh
        return cur

    def predict(self, x, batch_size: int = 512) -> np.ndarray:
        """Class probabilities, row-normalised softmax of the logits."""
        chunks = []
        with ad.no_grad():
            for i in range(0, len(x), batch_size):
                logits = self.forward(x[i : i + batch_size])
                chunks.append(ad.softmax(logits, axis=1).data)
        return np.concatenate(chunks, axis=0)


class MLPClassifier(_ClassifierBase):
    def __init__(self, spec: ClassifierSpec, rng):
        self.spec = spec
        in_dim = int(np.prod(spec.input_shape))
        widths = [in_dim, *spec.hidden, spec.num_classes]
        self.weights = []
        self.biases = []
        for i in range(len(widths) - 1):
            scale = 2.0 if i < len(widths) - 2 else 1.0
            self.weights.append(Tensor(_he_init(rng, widths[i], (widths[i], widths[i + 1]), scale), requires_grad=True))
            self.biases.append(Tensor(np.zeros(widths[i + 1]), requires_grad=True))
        self.bn = [BatchNorm(w) for w in spec.hidden] if spec.batch_norm else None
        self.layout = RecordLayout(tuple(widths))

    def _stage(self, layer, prev, train=False, dropout_rate=0.0, rng=None):
        h = prev if layer == 1 else ad.relu(prev)
        if layer > 1 and dropout_rate:
            h = dropout_mask_apply(h, dropout_rate, rng, train)
        z = ad.matmul(h, self.weights[layer - 1]) + self.biases[layer - 1]
        if self.bn is not None and layer < self.layout.n_layers - 1:
            z = self.bn[layer - 1].apply(z, train)
        return z

    def parameters(self):
        params = []
        for w, b in zip(self.weights, self.biases):
            params += [w, b]
        if self.bn is not None:
            for bn in self.bn:
                params += bn.parameters()
        return params

    def weight_tensors(self):
        return list(self.weights)

    def state_arrays(self):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"clf.{i}.W"] = w.data
            out[f"clf.{i}.b"] = b.data
        if self.bn is not None:
            for i, bn in enumerate(self.bn):
                out[f"clf.bn{i}.gamma"] = bn.gamma.data
                out[f"clf.bn{i}.beta"] = bn.beta.data
                out[f"clf.bn{i}.running_mean"] = bn.running_mean
                out[f"clf.bn{i}.running_var"] = bn.running_var
        return out

    def load_state(self, arrays):
        # Parameters are copied, not adopted: Adam updates them in place,
        # and the caller may keep (or train) the arrays it passed.
        for i in range(len(self.weights)):
            self.weights[i].data = np.array(arrays[f"clf.{i}.W"])
            self.biases[i].data = np.array(arrays[f"clf.{i}.b"])
        if self.bn is not None:
            for i, bn in enumerate(self.bn):
                bn.gamma.data = np.array(arrays[f"clf.bn{i}.gamma"])
                bn.beta.data = np.array(arrays[f"clf.bn{i}.beta"])
                bn.running_mean = arrays[f"clf.bn{i}.running_mean"]
                bn.running_var = arrays[f"clf.bn{i}.running_var"]


class CNNClassifier(_ClassifierBase):
    """conv-relu-conv-relu-maxpool-dense-relu-dense, recording every
    pre-activation (conv maps flattened for the record layout)."""

    def __init__(self, spec: ClassifierSpec, rng):
        self.spec = spec
        c_in, h, w = spec.input_shape
        c1, c2 = spec.conv_channels
        k = spec.kernel_size
        self.w1 = Tensor(_he_init(rng, c_in * k * k, (c1, c_in, k, k)), requires_grad=True)
        self.b1 = Tensor(np.zeros(c1), requires_grad=True)
        self.w2 = Tensor(_he_init(rng, c1 * k * k, (c2, c1, k, k)), requires_grad=True)
        self.b2 = Tensor(np.zeros(c2), requires_grad=True)
        h1, w1 = h - k + 1, w - k + 1
        h2, w2 = h1 - k + 1, w1 - k + 1
        if h2 % spec.pool or w2 % spec.pool:
            raise ValueError(f"pooled map {h2}x{w2} not divisible by pool {spec.pool}")
        hp, wp = h2 // spec.pool, w2 // spec.pool
        flat = c2 * hp * wp
        self.w3 = Tensor(_he_init(rng, flat, (flat, spec.dense_width)), requires_grad=True)
        self.b3 = Tensor(np.zeros(spec.dense_width), requires_grad=True)
        self.w4 = Tensor(_he_init(rng, spec.dense_width, (spec.dense_width, spec.num_classes), 1.0), requires_grad=True)
        self.b4 = Tensor(np.zeros(spec.num_classes), requires_grad=True)
        self.conv_shapes = [(c1, h1, w1), (c2, h2, w2)]
        self.bn = None
        if spec.batch_norm:
            self.bn = [BatchNorm(c1), BatchNorm(c2), BatchNorm(spec.dense_width)]
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
            if self.bn:
                z = self.bn[0].apply(z, train)
            return z
        if layer == 2:
            z = ad.conv2d(ad.relu(prev), self.w2) + ad.reshape(self.b2, (1, -1, 1, 1))
            if self.bn:
                z = self.bn[1].apply(z, train)
            return z
        if layer == 3:
            pooled = ad.max_pool2d(ad.relu(prev), self.spec.pool)
            h = ad.reshape(pooled, (prev.shape[0], -1))
            if dropout_rate:
                h = dropout_mask_apply(h, dropout_rate, rng, train)
            z = ad.matmul(h, self.w3) + self.b3
            if self.bn:
                z = self.bn[2].apply(z, train)
            return z
        if layer == 4:
            h = ad.relu(prev)
            if dropout_rate:
                h = dropout_mask_apply(h, dropout_rate, rng, train)
            return ad.matmul(h, self.w4) + self.b4
        raise ValueError(f"cnn has no stage {layer}")

    def parameters(self):
        params = [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4, self.b4]
        if self.bn:
            for bn in self.bn:
                params += bn.parameters()
        return params

    def weight_tensors(self):
        return [self.w1, self.w2, self.w3, self.w4]

    def state_arrays(self):
        out = {
            "clf.w1": self.w1.data, "clf.b1": self.b1.data,
            "clf.w2": self.w2.data, "clf.b2": self.b2.data,
            "clf.w3": self.w3.data, "clf.b3": self.b3.data,
            "clf.w4": self.w4.data, "clf.b4": self.b4.data,
        }
        if self.bn:
            for i, bn in enumerate(self.bn):
                out[f"clf.bn{i}.gamma"] = bn.gamma.data
                out[f"clf.bn{i}.beta"] = bn.beta.data
                out[f"clf.bn{i}.running_mean"] = bn.running_mean
                out[f"clf.bn{i}.running_var"] = bn.running_var
        return out

    def load_state(self, arrays):
        # Parameters are copied, not adopted (see MLPClassifier.load_state).
        for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"):
            getattr(self, name).data = np.array(arrays[f"clf.{name}"])
        if self.bn:
            for i, bn in enumerate(self.bn):
                bn.gamma.data = np.array(arrays[f"clf.bn{i}.gamma"])
                bn.beta.data = np.array(arrays[f"clf.bn{i}.beta"])
                bn.running_mean = arrays[f"clf.bn{i}.running_mean"]
                bn.running_var = arrays[f"clf.bn{i}.running_var"]


def build_classifier(spec: ClassifierSpec, rng):
    if spec.kind == "mlp":
        return MLPClassifier(spec, rng)
    return CNNClassifier(spec, rng)
