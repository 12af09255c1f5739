"""Recording classifiers: forward variants, splicing, batch norm, dropout."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pilot import autodiff as ad
from pilot.autodiff import Tensor
from pilot.masks import Mask, empty_mask, sample_mask
from pilot.nets import (
    BatchNorm,
    ClassifierSpec,
    RecordLayout,
    build_classifier,
    dropout_mask_apply,
)
from pilot.train import cross_entropy


def mlp_spec(in_dim=6, hidden=(8, 8), classes=3):
    return ClassifierSpec(kind="mlp", input_shape=(in_dim,), num_classes=classes, hidden=hidden)


def cnn_spec():
    return ClassifierSpec(kind="cnn", input_shape=(2, 8, 8), num_classes=3,
                          conv_channels=(3, 4), kernel_size=3, pool=2, dense_width=10)


def manual_mask(layout, batch, positions):
    values = np.zeros((batch, layout.total))
    for row, col in positions:
        values[row, col] = 1.0
    return Mask(values=values, mode="a_drop", rate=0.5, layout=layout)


class TestRecordLayout:
    def test_offsets_and_total(self):
        layout = RecordLayout((4, 3, 2))
        assert layout.offsets == (0, 4, 7)
        assert layout.total == 9
        assert layout.layer_slice(1) == slice(4, 7)

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((5, 6))
        _, record = clf.forward_record(x)
        flat = record.flatten()
        assert flat.shape == (5, clf.layout.total)
        for i, layer in enumerate(record.layers):
            back = flat[:, clf.layout.layer_slice(i)].reshape(layer.shape)
            np.testing.assert_array_equal(layer.data, back)


class TestForwardRecord:
    def test_zero_weights_give_uniform_prediction(self):
        clf = build_classifier(mlp_spec(), np.random.default_rng(0))
        for w, b in zip(clf.weights, clf.biases):
            w.data = np.zeros_like(w.data)
            b.data = np.zeros_like(b.data)
        x = np.random.default_rng(1).standard_normal((4, 6))
        logits, record = clf.forward_record(x)
        for layer in record.layers[1:]:
            np.testing.assert_array_equal(layer.data, np.zeros_like(layer.data))
        probs = clf.predict(x)
        np.testing.assert_allclose(probs, np.full((4, 3), 1 / 3), atol=1e-15)

    def test_identity_layer_reproduces_input(self):
        spec = mlp_spec(in_dim=4, hidden=(4,), classes=2)
        clf = build_classifier(spec, np.random.default_rng(0))
        clf.weights[0].data = np.eye(4)
        clf.biases[0].data = np.zeros(4)
        x = np.random.default_rng(2).standard_normal((3, 4))
        _, record = clf.forward_record(x)
        np.testing.assert_array_equal(record.layers[1].data, x)

    @pytest.mark.parametrize("spec_fn", [mlp_spec, cnn_spec])
    def test_record_logits_bit_equal_plain_forward(self, spec_fn):
        rng = np.random.default_rng(3)
        clf = build_classifier(spec_fn(), rng)
        shape = (4,) + tuple(clf.spec.input_shape)
        x = rng.standard_normal(shape)
        logits, _ = clf.forward_record(x)
        plain = clf.forward(x)
        assert logits.data.tobytes() == plain.data.tobytes()

    def test_cnn_record_matches_numpy_reference(self):
        # conv-relu-conv-relu-maxpool-dense-relu-dense written out in numpy,
        # with the ReLU before the pooling
        rng = np.random.default_rng(6)
        clf = build_classifier(cnn_spec(), rng)
        x = rng.standard_normal((3, 2, 8, 8))
        _, record = clf.forward_record(x)

        def conv(a, w, b):
            k = w.shape[-1]
            oh, ow = a.shape[2] - k + 1, a.shape[3] - k + 1
            out = np.zeros((len(a), w.shape[0], oh, ow))
            for dy in range(k):
                for dx in range(k):
                    out += np.einsum("nchw,oc->nohw", a[:, :, dy : dy + oh, dx : dx + ow], w[:, :, dy, dx])
            return out + b[None, :, None, None]

        relu = lambda a: np.maximum(a, 0.0)
        a1 = conv(x, clf.w1.data, clf.b1.data)
        a2 = conv(relu(a1), clf.w2.data, clf.b2.data)
        n, c, h, w = a2.shape
        pooled = relu(a2).reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
        a3 = pooled.reshape(n, -1) @ clf.w3.data + clf.b3.data
        a4 = relu(a3) @ clf.w4.data + clf.b4.data
        for got, want in zip(record.layers, (x, a1, a2, a3, a4)):
            np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec_fn", [mlp_spec, cnn_spec])
    def test_record_layers_have_the_layer_shapes(self, spec_fn):
        rng = np.random.default_rng(12)
        clf = build_classifier(spec_fn(), rng)
        x = rng.standard_normal((5,) + tuple(clf.spec.input_shape))
        _, record = clf.forward_record(x)
        assert len(clf.layer_shapes) == len(record) == clf.layout.n_layers
        for l, shape in enumerate(clf.layer_shapes):
            assert record.layer(l).shape == (5,) + shape
            assert clf.layout.sizes[l] == np.prod(shape)

    def test_input_recorded_exactly(self):
        rng = np.random.default_rng(4)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((2, 6))
        _, record = clf.forward_record(x)
        np.testing.assert_array_equal(record.layers[0].data, x)


class TestPredict:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        clf = build_classifier(mlp_spec(), rng)
        probs = clf.predict(rng.standard_normal((10, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_equal_logits_uniform(self):
        probs = ad.softmax(Tensor([[2.0, 2.0, 2.0, 2.0]]), axis=1).data
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)


class TestForwardSpliced:
    def test_self_splice_bit_exact(self):
        for spec_fn in (mlp_spec, cnn_spec):
            rng = np.random.default_rng(6)
            clf = build_classifier(spec_fn(), rng)
            x = rng.standard_normal((3,) + tuple(clf.spec.input_shape))
            logits, record = clf.forward_record(x)
            mask = sample_mask("a_drop", 0.5, clf.layout, 3, np.random.default_rng(7))
            spliced_logits, _ = clf.forward_spliced(record, mask, record.flatten())
            assert spliced_logits.data.tobytes() == logits.data.tobytes()

    def test_empty_mask_returns_recorded_pass(self):
        rng = np.random.default_rng(8)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((2, 6))
        logits, record = clf.forward_record(x)
        mask = empty_mask(clf.layout, 2)
        out, _ = clf.forward_spliced(record, mask, np.zeros((2, clf.layout.total)))
        assert out is logits

    def test_full_input_self_splice_matches_clean(self):
        rng = np.random.default_rng(9)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((2, 6))
        logits, record = clf.forward_record(x)
        values = np.zeros((2, clf.layout.total))
        values[:, clf.layout.layer_slice(0)] = x
        mask = Mask(np.zeros((2, clf.layout.total)), "x_aug", 0.5, clf.layout)
        mask.values[:, clf.layout.layer_slice(0)] = 1.0
        out, _ = clf.forward_spliced(record, mask, values)
        np.testing.assert_allclose(out.data, logits.data, atol=1e-12)

    def test_perturbed_unit_changes_logits_and_blocks_gradient(self):
        rng = np.random.default_rng(10)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((2, 6))
        logits, record = clf.forward_record(x)
        col = clf.layout.offsets[1] + 2          # one hidden unit in layer 1
        mask = manual_mask(clf.layout, 2, [(0, col), (1, col)])
        flat = record.flatten()
        flat[:, col] += 0.5
        imputed = Tensor(flat, requires_grad=True)
        out, _ = clf.forward_spliced(record, mask, imputed)
        assert not np.allclose(out.data, logits.data)
        loss = cross_entropy(out, np.array([0, 1]))
        loss.backward()
        assert imputed.grad is None              # barrier: no gradient into imputed values

    def test_downstream_layers_recomputed(self):
        rng = np.random.default_rng(11)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((1, 6))
        _, record = clf.forward_record(x)
        sl = clf.layout.layer_slice(0)
        mask = Mask(np.zeros((1, clf.layout.total)), "x_aug", 0.5, clf.layout)
        mask.values[:, sl] = 1.0
        flat = np.zeros((1, clf.layout.total))
        flat[:, sl] = x + 1.0                     # different input values
        out, spliced = clf.forward_spliced(record, mask, flat)
        direct = clf.forward(x + 1.0)
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)
        np.testing.assert_allclose(spliced.layers[0].data, x + 1.0)


class TestInferenceSplice:
    """Without a graph, under a block mask and from a whole record, the walk
    substitutes only masked rows, the conv stages and stage 3's pooling
    compute only rows off the record, and stage 3's GEMM reads the record's
    buffer of its input; any other splice selects over every row and never
    reads that buffer. The bits must not change."""

    @staticmethod
    def _world(spec_fn, batch=13, seed=60):
        rng = np.random.default_rng(seed)
        clf = build_classifier(spec_fn(), rng)
        x = rng.standard_normal((batch,) + tuple(clf.spec.input_shape))
        with ad.no_grad():
            _, record = clf.forward_record(x)
        imputed = rng.standard_normal((batch, clf.layout.total)) * 2.0
        return clf, x, record, imputed

    @pytest.mark.parametrize("spec_fn", [mlp_spec, cnn_spec])
    @pytest.mark.parametrize("mode", ["x_drop", "x_aug", "a_drop", "a_aug", "last"])
    def test_no_grad_splice_is_byte_identical_to_dense_recompute(self, spec_fn, mode):
        # "last" starts the rowwise route at a dense layer, past the conv stages
        clf, _, record, imputed = self._world(spec_fn)
        for seed in range(4):
            mask = self._mask(mode, 0.5, clf.layout, 13, seed)
            dense_logits, dense = clf.forward_spliced(record, mask, imputed)   # graph: every row
            with ad.no_grad():
                logits, spliced = clf.forward_spliced(record, mask, imputed)
            assert logits.data.tobytes() == dense_logits.data.tobytes()
            for a, b in zip(spliced.layers, dense.layers):
                assert a.data.tobytes() == b.data.tobytes()

    @staticmethod
    def _mask(mode, rate, layout, batch, seed):
        """``sample_mask``'s draw, or two block masks it rarely draws:
        "none" masks nothing, so every row stays on the record; "last"
        masks only the last hidden layer, so rows leave the record only
        after the conv stages and the pooling."""
        if mode == "none":
            return empty_mask(layout, batch)
        if mode == "last":
            gate = np.random.default_rng(seed).random(batch) < rate
            return Mask(None, "a_aug", rate, layout, block=np.where(gate, layout.n_layers - 2, -1))
        return sample_mask(mode, rate, layout, batch, np.random.default_rng(seed))

    @pytest.mark.parametrize("spec_fn, mode, rate", [
        *[(spec_fn, mode, 0.5) for spec_fn in (mlp_spec, cnn_spec)
          for mode in ("x_aug", "a_aug", "a_drop", "a_aug+x_aug+a_drop", "a_aug+none+last")],
        (cnn_spec, "a_drop", 0.01),
        (cnn_spec, "a_aug+a_drop", 0.5),     # the modes in turn
    ])
    def test_consecutive_splices_of_one_record_match_fresh_records(self, spec_fn, mode, rate):
        # Without a graph a record's block-mask splices write its buffer of
        # the first GEMM stage's input (the pooled map, on the CNN); each
        # must equal a splice of a fresh record, and the record's own layers
        # must stay as recorded. A drop mask never reads that buffer: at a
        # low rate an a_drop row can keep layer 0 and be masked at a conv
        # layer, and its unmasked positions there must be the record's. A
        # drop-mask splice, or one that leaves every row on the record,
        # between two block-mask ones must neither read nor disturb the
        # buffer.
        clf, x, record, imputed = self._world(spec_fn)
        recorded = [t.data.tobytes() for t in record.layers]
        modes = mode.split("+")
        for seed in range(4 * len(modes)):
            mask = self._mask(modes[seed % len(modes)], rate, clf.layout, 13, seed)
            if rate < 0.5:
                assert (~mask.masked_rows(0) & (mask.masked_rows(1) | mask.masked_rows(2))).any()
            values = imputed * (seed + 1.0)
            with ad.no_grad():
                logits, spliced = clf.forward_spliced(record, mask, values)
                spliced = [t.data.tobytes() for t in spliced.layers]
                _, fresh_record = clf.forward_record(x)
                fresh_logits, fresh = clf.forward_spliced(fresh_record, mask, values)
            assert logits.data.tobytes() == fresh_logits.data.tobytes()
            assert spliced == [t.data.tobytes() for t in fresh.layers]
            assert [t.data.tobytes() for t in record.layers] == recorded

    def test_conv_stages_recompute_only_rows_off_the_record(self, monkeypatch):
        clf, _, record, imputed = self._world(cnn_spec, batch=16)
        mask = sample_mask("a_aug", 0.5, clf.layout, 16, np.random.default_rng(3))
        rows, conv = [], ad.conv2d
        monkeypatch.setattr(ad, "conv2d", lambda x, w: rows.append(x.shape[0]) or conv(x, w))
        with ad.no_grad():
            clf.forward_spliced(record, mask, imputed)
        off_at_1 = int((mask.block == 0).sum())
        off_at_2 = int(((mask.block == 0) | (mask.block == 1)).sum())
        assert rows == [n for n in (off_at_1, off_at_2) if n]

    def test_pooling_sees_only_rows_off_the_record(self, monkeypatch):
        # The first draw pools its rows off the record and, once, the whole
        # record for the buffer; later draws pool only their rows off the
        # record, and a draw that leaves none of them pools nothing.
        clf, _, record, imputed = self._world(cnn_spec, batch=16)
        rows, pool = [], ad.max_pool2d
        monkeypatch.setattr(ad, "max_pool2d", lambda x, k: rows.append(x.shape[0]) or pool(x, k))
        for seed, mode in ((3, "a_aug"), (4, "a_aug"), (5, "last"), (6, "none")):
            mask = self._mask(mode, 0.5, clf.layout, 16, seed)
            off_at_3 = int(((mask.block >= 0) & (mask.block <= 2)).sum())
            with ad.no_grad():
                clf.forward_spliced(record, mask, imputed)
            whole = [16] if seed == 3 else []
            assert rows == ([off_at_3] if off_at_3 else []) + whole, mode
            rows.clear()

    def test_later_draws_allocate_no_batch_wide_conv_layer(self):
        # The record keeps only its buffer of stage 3's pooled input (and
        # the record's pooled map), each a quarter of layer 2's width here;
        # a later draw with few rows off the record allocates no (B, layer 1
        # or layer 2 width) array.
        batch = 64
        clf, _, record, imputed = self._world(cnn_spec, batch=batch)
        bound = batch * min(clf.layout.sizes[1:3]) * 8
        few = np.full(batch, -1)
        few[[3, 40, 41]] = [0, 1, 3]
        masks = [sample_mask("a_aug", 0.5, clf.layout, batch, np.random.default_rng(2)),
                 Mask(None, "a_aug", 0.5, clf.layout, block=few)]
        kept, peaks = [], []
        tracemalloc.start()
        try:
            with ad.no_grad():
                for mask in masks:
                    start = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    clf.forward_spliced(record, mask, imputed)     # the result is dropped
                    current, peak = tracemalloc.get_traced_memory()
                    kept.append(current - start)
                    peaks.append(peak - start)
        finally:
            tracemalloc.stop()
        assert kept[0] < bound and peaks[1] < bound, (kept, peaks, bound)

    @pytest.mark.parametrize("noise_mode", ["sub", "add"])
    def test_no_grad_noised_walk_is_byte_identical(self, noise_mode):
        clf, x, _, noise = self._world(cnn_spec)
        mask = sample_mask("a_aug", 0.5, clf.layout, 13, np.random.default_rng(5))
        dense = clf.forward_noised(x, mask, noise, noise_mode, propagate=True)
        with ad.no_grad():
            rows = clf.forward_noised(x, mask, noise, noise_mode, propagate=True)
        assert rows.data.tobytes() == dense.data.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 9, 16])
    def test_conv2d_rows_do_not_depend_on_the_batch(self, n):
        # the premise of the row-local stages: any row subset of a conv2d call
        # gives, byte for byte, those rows of the full-batch call
        rng = np.random.default_rng(n)
        for shape, kernel in (((n, 2, 8, 8), (3, 2, 3, 3)), ((n, 3, 6, 6), (4, 3, 3, 3))):
            x, w = rng.standard_normal(shape), rng.standard_normal(kernel)
            full = ad.conv2d(Tensor(x), Tensor(w)).data
            for size in {1, max(1, n // 2), n}:
                subset = np.sort(rng.choice(n, size=size, replace=False))
                part = ad.conv2d(Tensor(x[subset]), Tensor(w)).data
                assert part.tobytes() == full[subset].tobytes()


class TestForwardNoised:
    def test_sub_empty_mask_is_vanilla(self):
        rng = np.random.default_rng(12)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((3, 6))
        mask = empty_mask(clf.layout, 3)
        noise = rng.standard_normal((3, clf.layout.total))
        out = clf.forward_noised(x, mask, noise, "sub", True)
        np.testing.assert_array_equal(out.data, clf.forward(x).data)

    def test_add_zero_noise_matches_vanilla_values_and_grads(self):
        rng = np.random.default_rng(13)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((3, 6))
        y = np.array([0, 1, 2])
        mask = sample_mask("a_drop", 0.5, clf.layout, 3, np.random.default_rng(1))
        out = clf.forward_noised(x, mask, np.zeros((3, clf.layout.total)), "add", True)
        base = clf.forward(x)
        np.testing.assert_allclose(out.data, base.data, atol=1e-15)
        for p in clf.parameters():
            p.grad = None
        cross_entropy(out, y).backward()
        noisy_grads = [p.grad.copy() for p in clf.parameters()]
        for p in clf.parameters():
            p.grad = None
        cross_entropy(clf.forward(x), y).backward()
        for got, want in zip(noisy_grads, [p.grad for p in clf.parameters()]):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_no_propagation_blocks_masked_layer(self):
        rng = np.random.default_rng(14)
        clf = build_classifier(mlp_spec(), rng)
        x = rng.standard_normal((4, 6))
        y = np.array([0, 1, 2, 0])
        mask = Mask(np.zeros((4, clf.layout.total)), "a_aug", 0.5, clf.layout)
        mask.values[:, clf.layout.layer_slice(1)] = 1.0      # whole first hidden layer
        noise = rng.standard_normal((4, clf.layout.total))
        out = clf.forward_noised(x, mask, noise, "add", propagate=False)
        for p in clf.parameters():
            p.grad = None
        cross_entropy(out, y).backward()
        # every path from W1 runs through the barrier: exactly zero gradient
        np.testing.assert_array_equal(clf.weights[0].grad, 0.0)
        assert np.abs(clf.weights[1].grad).max() > 0

        out = clf.forward_noised(x, mask, noise, "add", propagate=True)
        for p in clf.parameters():
            p.grad = None
        cross_entropy(out, y).backward()
        assert np.abs(clf.weights[0].grad).max() > 0

    def test_rejects_unknown_mode(self):
        rng = np.random.default_rng(15)
        clf = build_classifier(mlp_spec(), rng)
        with pytest.raises(ValueError, match="noise mode"):
            clf.forward_noised(rng.standard_normal((1, 6)),
                               empty_mask(clf.layout, 1),
                               np.zeros((1, clf.layout.total)), "mix", True)


class TestBatchNorm:
    def test_train_mode_standardises(self):
        rng = np.random.default_rng(16)
        bn = BatchNorm(5)
        z = Tensor(rng.standard_normal((64, 5)) * 3.0 + 2.0)
        out = bn.apply(z, train=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-3)

    def test_affine_parameters(self):
        rng = np.random.default_rng(17)
        bn = BatchNorm(4)
        bn.gamma.data = np.full(4, 2.0)
        bn.beta.data = np.full(4, 3.0)
        z = Tensor(rng.standard_normal((256, 4)))
        out = bn.apply(z, train=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 3.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 2.0, atol=1e-2)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(18)
        bn = BatchNorm(3)
        for _ in range(5):
            bn.apply(Tensor(rng.standard_normal((32, 3))), train=True)
        z = Tensor(rng.standard_normal((8, 3)))
        a = bn.apply(z, train=False).data
        b = bn.apply(z, train=False).data
        np.testing.assert_array_equal(a, b)

    def test_batch_of_one_rejected_in_training(self):
        bn = BatchNorm(3)
        with pytest.raises(ValueError, match="batch size"):
            bn.apply(Tensor(np.ones((1, 3))), train=True)

    def test_batch_norm_classifier_trains_gradients(self):
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3,
                              hidden=(8,), batch_norm=True)
        rng = np.random.default_rng(19)
        clf = build_classifier(spec, rng)
        x = rng.standard_normal((16, 6))
        y = rng.integers(0, 3, 16)
        loss = cross_entropy(clf.forward(x, train=True), y)
        loss.backward()
        assert clf.bn[0].gamma.grad is not None

    @pytest.mark.parametrize("spec", [ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3,
                                                     hidden=(8,), batch_norm=True),
                                      dataclasses.replace(cnn_spec(), batch_norm=True)])
    @pytest.mark.parametrize("walk", ["spliced", "noised"])
    def test_substituted_passes_refuse_batch_norm(self, spec, walk):
        rng = np.random.default_rng(20)
        clf = build_classifier(spec, rng)
        x = rng.standard_normal((4,) + spec.input_shape)
        mask = sample_mask("a_drop", 0.5, clf.layout, 4, rng)
        values = np.zeros((4, clf.layout.total))
        with pytest.raises(NotImplementedError, match="batch norm"):
            if walk == "spliced":
                clf.forward_spliced(clf.forward_record(x)[1], mask, values)
            else:
                clf.forward_noised(x, mask, values, "add", propagate=True)


class TestDropout:
    def test_rate_zero_identity(self):
        h = Tensor(np.ones((4, 4)))
        out = dropout_mask_apply(h, 0.0, np.random.default_rng(0))
        assert out is h

    def test_zero_fraction_binomial_ci(self):
        rng = np.random.default_rng(20)
        h = Tensor(np.ones(100_000))
        out = dropout_mask_apply(h, 0.5, rng)
        frac = float((out.data == 0).mean())
        assert abs(frac - 0.5) < 0.01            # 3 sigma is ~0.0047

    def test_inverted_scaling_unbiased(self):
        rng = np.random.default_rng(21)
        h = Tensor(np.full(50_000, 2.0))
        out = dropout_mask_apply(h, 0.25, rng)
        assert abs(out.data.mean() - 2.0) < 0.02
        surviving = out.data[out.data != 0]
        np.testing.assert_allclose(surviving, 2.0 / 0.75)

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="dropout rate"):
            dropout_mask_apply(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))



class TestLoadState:
    @pytest.mark.parametrize("spec", [mlp_spec(), cnn_spec(),
                                      ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3,
                                                     hidden=(8,), batch_norm=True),
                                      dataclasses.replace(cnn_spec(), batch_norm=True)])
    def test_parameters_are_copied_not_adopted(self, spec):
        # Adam updates parameters in place, so a loaded model must not share
        # arrays with the state it was loaded from.
        from pilot.dgm import ActivationDGM, DGMConfig

        source = build_classifier(spec, np.random.default_rng(0))
        copy = build_classifier(spec, np.random.default_rng(1))
        pairs = [(source, copy)]
        if not spec.batch_norm:
            dgm_cfg = DGMConfig(latent_dim=2, hidden=(4,))
            pairs.append((ActivationDGM(source.layout.total, dgm_cfg, np.random.default_rng(2)),
                          ActivationDGM(source.layout.total, dgm_cfg, np.random.default_rng(3))))
        for a, b in pairs:
            b.load_state(a.state_arrays())
            for p, q in zip(a.parameters(), b.parameters()):
                assert np.array_equal(p.data, q.data)
                assert not np.shares_memory(p.data, q.data)


def _bn_keys(i):
    return [f"clf.bn{i}.{k}" for k in ("gamma", "beta", "running_mean", "running_var")]


class TestRegistry:
    """The registry order is the checkpoint order and the optimiser's state
    index, so the names and their order are pinned."""

    @pytest.mark.parametrize("spec, keys", [
        (mlp_spec(), ["clf.0.W", "clf.0.b", "clf.1.W", "clf.1.b", "clf.2.W", "clf.2.b"]),
        (ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(8, 5), batch_norm=True),
         ["clf.0.W", "clf.0.b", "clf.1.W", "clf.1.b", "clf.2.W", "clf.2.b"] + _bn_keys(0) + _bn_keys(1)),
        (dataclasses.replace(cnn_spec(), batch_norm=True),
         ["clf.w1", "clf.b1", "clf.w2", "clf.b2", "clf.w3", "clf.b3", "clf.w4", "clf.b4"]
         + _bn_keys(0) + _bn_keys(1) + _bn_keys(2)),
    ])
    def test_classifier_state_order(self, spec, keys):
        clf = build_classifier(spec, np.random.default_rng(0))
        state = clf.state_arrays()
        assert list(state) == keys
        params = clf.parameters()
        assert [id(p.data) for p in params] == [id(state[k]) for k in keys if "running" not in k]
        assert all(p.requires_grad for p in params)

    def test_batch_norm_statistics_are_buffers(self):
        spec = dataclasses.replace(cnn_spec(), batch_norm=True)
        clf = build_classifier(spec, np.random.default_rng(0))
        params = {id(p) for p in clf.parameters()}
        for bn in clf.bn:
            assert not bn.running_mean.requires_grad and id(bn.running_mean) not in params
            assert not bn.running_var.requires_grad and id(bn.running_var) not in params

    def test_weight_tensors_are_the_weights(self):
        mlp = build_classifier(ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3,
                                              hidden=(8,), batch_norm=True), np.random.default_rng(0))
        assert [id(w) for w in mlp.weight_tensors()] == [id(w) for w in mlp.weights]
        cnn = build_classifier(dataclasses.replace(cnn_spec(), batch_norm=True), np.random.default_rng(0))
        assert [id(w) for w in cnn.weight_tensors()] == [id(w) for w in (cnn.w1, cnn.w2, cnn.w3, cnn.w4)]

    def test_dgm_state_order(self):
        from pilot.dgm import ActivationDGM, DGMConfig

        model = ActivationDGM(7, DGMConfig(latent_dim=2, hidden=(4,)), np.random.default_rng(0))
        first = {"enc": ["Wa", "Wb"], "pri": ["Wa", "Wb"], "dec": ["Wa", "Wb", "Wz"]}
        stacks = [f"{net}.{k}" for net in ("enc", "pri", "dec")
                  for k in [f"0.{w}" for w in first[net]] + ["0.b", "1.W", "1.b"]]
        assert list(model.state_arrays()) == stacks + ["std.mean", "std.m2", "std.state"]
        assert [id(p.data) for p in model.parameters()] == [id(model.state_arrays()[k]) for k in stacks]

    def test_duplicate_name_rejected(self):
        clf = build_classifier(mlp_spec(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="registered twice"):
            clf.registry.add("clf.0.W", Tensor(np.zeros(1)))
