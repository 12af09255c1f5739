"""Trainer: losses, gradient separation, noise baselines, augmentation, loops."""

import dataclasses

import numpy as np
import pytest

from pilot import autodiff as ad
from pilot.autodiff import Tensor
from pilot.data import Dataset, synth_blobs
from pilot.dgm import ActivationDGM, DGMConfig
from pilot.masks import empty_mask, sample_mask
from pilot.nets import ClassifierSpec, build_classifier
from pilot.optim import Adam
from pilot.references import reference_for
from pilot.train import (
    LOG_COLUMNS,
    TrainConfig,
    TrainedBundle,
    augment_data,
    baseline_step,
    cross_entropy,
    hflip,
    l2_penalty,
    noise_step,
    pilot_step,
    rotate_nn,
    train,
)


def blob_setup(seed=0, classes=3, hidden=(12, 12), dim=4, per_class=60, separation=4.0):
    ds = synth_blobs(classes, per_class, dim, separation, seed=seed)
    spec = ClassifierSpec(kind="mlp", input_shape=(dim,), num_classes=classes, hidden=hidden)
    return ds, spec


def cnn_setup(seed=0):
    """3-class blobs as 2x8x8 images, and a small CNN for them."""
    ds = synth_blobs(3, 20, 128, 3.0, seed=seed)
    shape = (2, 8, 8)
    images = Dataset(ds.x_train.reshape(-1, *shape), ds.y_train, ds.x_test.reshape(-1, *shape),
                     ds.y_test, 3, shape)
    spec = ClassifierSpec(kind="cnn", input_shape=shape, num_classes=3, conv_channels=(3, 4),
                          dense_width=10)
    return images, spec


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4)))
        loss = cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), atol=1e-12)

    def test_confident_correct_approaches_zero(self):
        logits = np.zeros((3, 4))
        logits[np.arange(3), [1, 2, 0]] = 50.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2, 0]))
        assert float(loss.data) < 1e-12

    def test_two_class_analytic(self):
        loss = cross_entropy(Tensor([[2.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(float(loss.data), np.log(1 + np.exp(-2.0)), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestL2Penalty:
    def test_zero_weights(self):
        clf = build_classifier(blob_setup()[1], np.random.default_rng(0))
        for w in clf.weight_tensors():
            w.data = np.zeros_like(w.data)
        assert float(l2_penalty(clf, 0.1).data) == 0.0

    def test_single_weight_value(self):
        spec = ClassifierSpec(kind="mlp", input_shape=(1,), num_classes=2, hidden=(1,))
        clf = build_classifier(spec, np.random.default_rng(0))
        for w in clf.weight_tensors():
            w.data = np.zeros_like(w.data)
        clf.weights[0].data = np.array([[2.0]])
        np.testing.assert_allclose(float(l2_penalty(clf, 0.1).data), 0.4, atol=1e-12)

    def test_gradient_is_two_lambda_w(self):
        clf = build_classifier(blob_setup()[1], np.random.default_rng(1))
        pen = l2_penalty(clf, 0.1)
        pen.backward()
        for w in clf.weight_tensors():
            np.testing.assert_allclose(w.grad, 2 * 0.1 * w.data, atol=1e-12)
        for b in clf.biases:
            assert b.grad is None


class TestTrainConfig:
    def test_pilot_requires_mask_mode(self):
        with pytest.raises(ValueError, match="mask mode"):
            TrainConfig(method="pilot")
        with pytest.raises(ValueError, match="mask mode"):
            TrainConfig(method="add_noise")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            TrainConfig(method="magic")


class TestGradientSeparation:
    def _setup(self, seed=3):
        ds, spec = blob_setup(seed=seed)
        clf = build_classifier(spec, np.random.default_rng(seed))
        dgm = ActivationDGM(clf.layout.total, DGMConfig(latent_dim=4, hidden=(16,)),
                            np.random.default_rng(seed + 1))
        return ds, clf, dgm

    def test_cross_gradients_exactly_zero(self):
        ds, clf, dgm = self._setup()
        x, y = ds.x_train[:16], ds.y_train[:16]
        rng = np.random.default_rng(0)
        logits, record = clf.forward_record(x)
        a = record.flatten()
        dgm.standardizer.update(a)
        mask = sample_mask("a_aug", 0.5, clf.layout, 16, rng)
        imputed = dgm.impute(a, mask, rng)
        spliced, _ = clf.forward_spliced(record, mask, imputed)
        for p in clf.parameters() + dgm.parameters():
            p.grad = None
        cross_entropy(spliced, y).backward()
        for p in dgm.parameters():
            assert p.grad is None                       # classifier loss never reaches theta/phi
        for p in clf.parameters() + dgm.parameters():
            p.grad = None
        lam, _ = dgm.lambda_elbo(a, mask, rng=rng)
        (-lam).backward()
        for p in clf.parameters():
            assert p.grad is None                       # DGM loss never reaches psi

    def test_step_checksums_confirm_no_cross_writes(self):
        ds, clf, dgm = self._setup(seed=4)
        cfg = TrainConfig(method="pilot", mask_mode="a_drop", mask_rate=0.3,
                          validate_separation=True)
        opt_psi = Adam(clf.parameters(), cfg.lr_classifier)
        opt_dgm = Adam(dgm.parameters(), cfg.lr_dgm)
        rng_mask, rng_z = np.random.default_rng(1), np.random.default_rng(2)
        for step in range(10):
            x, y = ds.x_train[step * 16:(step + 1) * 16], ds.y_train[step * 16:(step + 1) * 16]
            psi_before = [p.data.copy() for p in clf.parameters()]
            dgm_before = [p.data.copy() for p in dgm.parameters()]
            pilot_step(clf, dgm, opt_psi, opt_dgm, x, y, cfg, rng_mask, rng_z)
            assert any(not np.array_equal(a, p.data) for a, p in zip(psi_before, clf.parameters()))
            assert any(not np.array_equal(a, p.data) for a, p in zip(dgm_before, dgm.parameters()))
            # re-run each loss backward in isolation: the other group's bytes never move
            # (updates above came only from each group's own optimiser)


def _two_pass_pilot_step(clf, dgm, opt_psi, opt_dgm, x, y, cfg, rng_mask, rng_z):
    """Oracle: the joint step as it ran with separate prior passes for the
    imputation and the ELBO (same draws, same order)."""
    logits, record = clf.forward_record(x)
    a_flat = record.flatten()
    dgm.standardizer.update(a_flat)
    mask = sample_mask(cfg.mask_mode, cfg.mask_rate, clf.layout, len(x), rng_mask)
    imputed = dgm.impute(a_flat, mask, rng_z)
    spliced, _ = clf.forward_spliced(record, mask, imputed)
    loss_act = cross_entropy(spliced, y)
    opt_psi.zero_grad()
    opt_dgm.zero_grad()
    loss_act.backward()
    norm_psi = opt_psi.step(max_norm=cfg.clip_norm)
    lam, diag = dgm.lambda_elbo(a_flat, mask, rng=rng_z)
    opt_dgm.zero_grad()
    opt_psi.zero_grad()
    (-lam).backward()
    norm_dgm = opt_dgm.step(max_norm=cfg.clip_norm)
    return {"loss_act": float(loss_act.data), "loss_dgm": float(-lam.data), "kl": diag["kl"],
            "recon": diag["recon"], "penalty": diag["penalty"], "grad_norm_psi": norm_psi,
            "grad_norm_dgm": norm_dgm,
            "train_acc": float((logits.data.argmax(axis=1) == y).mean())}


class TestSharedPriorPass:
    def _world(self):
        ds, spec = blob_setup(seed=6)
        clf = build_classifier(spec, np.random.default_rng(6))
        dgm = ActivationDGM(clf.layout.total, DGMConfig(latent_dim=4, hidden=(16,)),
                            np.random.default_rng(7))
        return ds, clf, dgm, Adam(clf.parameters(), 1e-2), Adam(dgm.parameters(), 1e-2)

    @pytest.mark.parametrize("n_impute", [1, 3])
    def test_one_prior_call_per_mask(self, monkeypatch, n_impute):
        calls = []
        real = ActivationDGM.prior
        monkeypatch.setattr(ActivationDGM, "prior",
                            lambda self, *a: calls.append(1) or real(self, *a))
        ds, clf, dgm, opt_psi, opt_dgm = self._world()
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", n_impute=n_impute)
        pilot_step(clf, dgm, opt_psi, opt_dgm, ds.x_train[:16], ds.y_train[:16], cfg,
                   np.random.default_rng(1), np.random.default_rng(2))
        assert len(calls) == n_impute

    def test_bit_identical_to_two_pass_oracle(self):
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5)
        worlds = [self._world() for _ in range(2)]
        rngs = [(np.random.default_rng(1), np.random.default_rng(2)) for _ in range(2)]
        for step in range(5):
            rows = slice(step * 16, (step + 1) * 16)
            logged = []
            for fn, (ds, *models), (rng_mask, rng_z) in zip(
                    (pilot_step, _two_pass_pilot_step), worlds, rngs):
                logged.append(fn(*models, ds.x_train[rows], ds.y_train[rows], cfg, rng_mask, rng_z))
            assert logged[0] == logged[1]
        (_, clf_a, dgm_a, *_), (_, clf_b, dgm_b, *_) = worlds
        for a, b in zip(clf_a.parameters() + dgm_a.parameters(),
                        clf_b.parameters() + dgm_b.parameters()):
            assert a.data.tobytes() == b.data.tobytes()


class TestEmptyMaskEquivalence:
    def test_pilot_loss_equals_vanilla_bit_exact(self):
        ds, spec = blob_setup(seed=5)
        clf = build_classifier(spec, np.random.default_rng(5))
        dgm = ActivationDGM(clf.layout.total, DGMConfig(latent_dim=4, hidden=(8,)),
                            np.random.default_rng(6))
        x, y = ds.x_train[:32], ds.y_train[:32]
        logits, record = clf.forward_record(x)
        a = record.flatten()
        mask = empty_mask(clf.layout, 32)
        imputed = dgm.impute(a, mask, np.random.default_rng(8))
        spliced, _ = clf.forward_spliced(record, mask, imputed)
        pilot_loss = cross_entropy(spliced, y)
        vanilla_loss = cross_entropy(clf.forward(x), y)
        assert pilot_loss.data.tobytes() == vanilla_loss.data.tobytes()

    def test_empty_mask_pilot_step_updates_match_vanilla(self):
        ds, spec = blob_setup(seed=9)
        x, y = ds.x_train[:32], ds.y_train[:32]

        clf_a = build_classifier(spec, np.random.default_rng(11))
        clf_b = build_classifier(spec, np.random.default_rng(11))
        dgm = ActivationDGM(clf_a.layout.total, DGMConfig(latent_dim=4, hidden=(8,)),
                            np.random.default_rng(12))
        # x_aug with a gate that never fires at this seed: empty mask draw
        cfg = TrainConfig(method="pilot", mask_mode="x_aug", mask_rate=1e-9)
        opt_a = Adam(clf_a.parameters(), cfg.lr_classifier)
        opt_dgm = Adam(dgm.parameters(), cfg.lr_dgm)
        pilot_step(clf_a, dgm, opt_a, opt_dgm, x, y, cfg, np.random.default_rng(13),
                   np.random.default_rng(14))

        cfg_v = TrainConfig(method="vanilla")
        opt_b = Adam(clf_b.parameters(), cfg_v.lr_classifier)
        baseline_step(clf_b, opt_b, x, y, cfg_v, np.random.default_rng(15))
        for pa, pb in zip(clf_a.parameters(), clf_b.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


class TestNoiseSteps:
    def test_add_zero_variance_equals_vanilla_step(self):
        ds, spec = blob_setup(seed=16)
        x, y = ds.x_train[:32], ds.y_train[:32]
        clf_a = build_classifier(spec, np.random.default_rng(17))
        clf_b = build_classifier(spec, np.random.default_rng(17))
        cfg_n = TrainConfig(method="add_noise", mask_mode="a_drop", mask_rate=0.5,
                            noise_variance=0.0)
        opt_a = Adam(clf_a.parameters(), cfg_n.lr_classifier)
        noise_step(clf_a, opt_a, x, y, cfg_n, np.random.default_rng(18), np.random.default_rng(19))
        cfg_v = TrainConfig(method="vanilla")
        opt_b = Adam(clf_b.parameters(), cfg_v.lr_classifier)
        baseline_step(clf_b, opt_b, x, y, cfg_v, np.random.default_rng(20))
        for pa, pb in zip(clf_a.parameters(), clf_b.parameters()):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)

    def test_sub_with_gate_never_fired_is_vanilla(self):
        ds, spec = blob_setup(seed=21)
        x, y = ds.x_train[:16], ds.y_train[:16]
        clf_a = build_classifier(spec, np.random.default_rng(22))
        clf_b = build_classifier(spec, np.random.default_rng(22))
        cfg_n = TrainConfig(method="sub_noise", mask_mode="x_aug", mask_rate=1e-9)
        opt_a = Adam(clf_a.parameters(), cfg_n.lr_classifier)
        noise_step(clf_a, opt_a, x, y, cfg_n, np.random.default_rng(23), np.random.default_rng(24))
        cfg_v = TrainConfig(method="vanilla")
        opt_b = Adam(clf_b.parameters(), cfg_v.lr_classifier)
        baseline_step(clf_b, opt_b, x, y, cfg_v, np.random.default_rng(25))
        for pa, pb in zip(clf_a.parameters(), clf_b.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


class TestAugmentData:
    def test_p_zero_identity(self):
        rng = np.random.default_rng(26)
        x = rng.random((8, 3, 8, 8))
        np.testing.assert_array_equal(augment_data(x, 0.0, rng), x)

    def test_flip_twice_is_identity(self):
        rng = np.random.default_rng(27)
        img = rng.random((3, 8, 8))
        np.testing.assert_array_equal(hflip(hflip(img)), img)

    def test_rotation_zero_degrees_identity(self):
        rng = np.random.default_rng(28)
        img = rng.random((2, 9, 9))
        np.testing.assert_array_equal(rotate_nn(img, 0.0), img)

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError, match="image-shaped"):
            augment_data(np.zeros((4, 10)), 0.5, np.random.default_rng(0))

    def test_transform_choice_uniform(self):
        # classify each output: flip is exact, channel shift is a constant
        # per-channel offset, everything else (incl. near-identity small
        # angles) is rotation
        rng = np.random.default_rng(29)
        n = 10_000
        x = 0.2 + 0.6 * rng.random((n, 2, 8, 8))
        out = augment_data(x, 1.0, rng)
        counts = {"flip": 0, "shift": 0, "rotate": 0}
        for i in range(n):
            if np.array_equal(out[i], hflip(x[i])):
                counts["flip"] += 1
                continue
            diff = out[i] - x[i]
            per_channel = diff.reshape(2, -1)
            if np.all(np.ptp(per_channel, axis=1) < 1e-12) and np.any(diff != 0):
                counts["shift"] += 1
            else:
                counts["rotate"] += 1
        for kind in counts:
            assert abs(counts[kind] / n - 1 / 3) < 0.02, counts


class TestTrainLoop:
    def test_vanilla_blobs_reaches_high_accuracy(self):
        ds, spec = blob_setup(seed=30, per_class=100)
        cfg = TrainConfig(method="vanilla", epochs=30, batch_size=64, seed=1)
        _, log = train(spec, cfg, ds)
        assert log.rows[-1].val_acc > 0.95
        assert len(log.rows) == 30

    @pytest.mark.parametrize("method,mode,label", [("add_noise", "a_aug", "add_a_aug"),
                                                   ("sub_noise", "x_drop", "sub_x_drop")])
    def test_noise_methods_train_and_label_their_bundle(self, method, mode, label):
        ds, spec = blob_setup(seed=40)
        cfg = TrainConfig(method=method, mask_mode=mode, mask_rate=0.5, epochs=1, batch_size=32,
                          seed=3)
        bundle, log = train(spec, cfg, ds)
        assert np.isfinite(log.rows[-1].loss_act)
        assert bundle.label == label
        assert reference_for("mlp", "cifar10", bundle.label) is not None

    def test_cnn_dropout_trains_and_predicts_deterministically(self):
        ds, spec = cnn_setup(seed=41)
        cfg = TrainConfig(method="dropout", epochs=1, batch_size=16, seed=4)
        bundle, log = train(spec, cfg, ds)
        assert np.isfinite(log.rows[-1].loss_act)
        plain, _ = train(spec, dataclasses.replace(cfg, method="vanilla"), ds)
        assert not np.array_equal(bundle.classifier.w4.data, plain.classifier.w4.data)
        np.testing.assert_array_equal(bundle.predict(ds.x_test), bundle.predict(ds.x_test))

    def test_cnn_batch_norm_trains_and_moves_running_statistics(self):
        ds, spec = cnn_setup(seed=42)
        cfg = TrainConfig(method="batch_norm", epochs=1, batch_size=16, seed=5)
        bundle, log = train(spec, cfg, ds)
        assert np.isfinite(log.rows[-1].loss_act)
        assert len(bundle.classifier.bn) == 3
        for bn in bundle.classifier.bn:
            assert np.all(bn.running_mean.data != 0.0)
            assert np.all(bn.running_var.data != 1.0)
        np.testing.assert_array_equal(bundle.predict(ds.x_test), bundle.predict(ds.x_test))

    def test_empty_dataset_rejected(self):
        ds, spec = blob_setup()
        ds.x_train = ds.x_train[:0]
        with pytest.raises(ValueError, match="empty"):
            train(spec, TrainConfig(method="vanilla", epochs=1), ds)

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        ds, spec = blob_setup(seed=31, per_class=40)
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5,
                          epochs=3, batch_size=32, seed=7)
        dcfg = DGMConfig(latent_dim=4, hidden=(16,))
        dirs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            train(spec, cfg, ds, dcfg, checkpoint_dir=d)
            dirs.append(d / "epoch_0003.ckpt")
        assert dirs[0].read_bytes() == dirs[1].read_bytes()

    def test_pilot_toy_smoke_accuracy_and_lambda(self):
        ds = synth_blobs(2, 960, 4, 5.0, seed=2)
        spec = ClassifierSpec(kind="mlp", input_shape=(4,), num_classes=2, hidden=(4, 4))
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5, epochs=12,
                          batch_size=32, lr_dgm=1e-3, seed=3)
        dcfg = DGMConfig(latent_dim=8, hidden=(32,))
        probe = []
        probe_x = ds.x_train[:128]

        def on_epoch(epoch, bundle, stats):
            prng = np.random.default_rng(999)
            _, record = bundle.classifier.forward_record(probe_x)
            mask = sample_mask("a_aug", 0.5, bundle.classifier.layout, len(probe_x), prng)
            eps = prng.standard_normal((len(probe_x), dcfg.latent_dim))
            lam, _ = bundle.dgm.lambda_elbo(record.flatten(), mask, eps=eps)
            probe.append(float(lam.data))

        _, log = train(spec, cfg, ds, dcfg, epoch_callback=on_epoch)
        # 300+ joint steps on separable blobs: the classifier must fit
        assert log.rows[-1].train_acc > 0.95
        lam = np.array(probe)
        assert np.all(np.diff(lam[:10]) > 0), f"Lambda probe not improving: {lam[:10]}"

    def test_cnn_pilot_end_to_end_learns(self):
        rng = np.random.default_rng(0)

        def images(n):
            y = rng.integers(0, 2, n)
            x = rng.random((n, 1, 8, 8)) * 0.2
            x[y == 1, :, 2:6, 2:6] += 0.6      # bright centre patch marks class 1
            return x, y

        from pilot.data import Dataset
        xtr, ytr = images(256)
        xte, yte = images(128)
        ds = Dataset(xtr, ytr, xte, yte, 2, (1, 8, 8))
        spec = ClassifierSpec(kind="cnn", input_shape=(1, 8, 8), num_classes=2,
                              conv_channels=(3, 4), kernel_size=3, pool=2, dense_width=8)
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5, epochs=15,
                          batch_size=32, lr_dgm=1e-3, seed=0)
        bundle, log = train(spec, cfg, ds, DGMConfig(latent_dim=4, hidden=(32,)))
        assert log.rows[-1].val_acc > 0.9
        assert bundle.dgm is not None

    def test_log_csv_schema(self, tmp_path):
        ds, spec = blob_setup(seed=32, per_class=30)
        cfg = TrainConfig(method="vanilla", epochs=2, batch_size=32, seed=0)
        _, log = train(spec, cfg, ds)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(LOG_COLUMNS)
        assert len(lines) == 3

    def test_mask_seed_pins_mask_stream(self):
        ds, spec = blob_setup(seed=40, per_class=40)
        base = dict(method="pilot", mask_mode="a_aug", mask_rate=0.5,
                    epochs=2, batch_size=32)
        dcfg = DGMConfig(latent_dim=4, hidden=(8,))
        # different global seeds, same mask seed: identical mask draws, so
        # differing results come only from the other streams
        runs = {}
        for global_seed in (1, 2):
            cfg = TrainConfig(seed=global_seed, mask_seed=77, **base)
            bundle, _ = train(spec, cfg, ds, dcfg)
            runs[global_seed] = bundle.predict(ds.x_test[:8])
        assert not np.array_equal(runs[1], runs[2])
        # same global seed, different mask seed: results change
        cfg_a = TrainConfig(seed=1, mask_seed=77, **base)
        cfg_b = TrainConfig(seed=1, mask_seed=78, **base)
        pa, _ = train(spec, cfg_a, ds, dcfg)
        pb, _ = train(spec, cfg_b, ds, dcfg)
        assert not np.array_equal(pa.predict(ds.x_test[:8]), pb.predict(ds.x_test[:8]))
        # and repeating the same pair reproduces bit-exactly
        pc, _ = train(spec, cfg_a, ds, dcfg)
        np.testing.assert_array_equal(pa.predict(ds.x_test[:8]), pc.predict(ds.x_test[:8]))

    def test_data_aug_method_trains_on_images(self):
        from pilot.data import Dataset
        rng = np.random.default_rng(41)
        y = rng.integers(0, 2, 240)
        x = rng.random((240, 1, 6, 6)) * 0.3
        x[y == 1, :, 1:5, 1:5] += 0.5
        ds = Dataset(x[:160], y[:160], x[160:], y[160:], 2, (1, 6, 6))
        spec = ClassifierSpec(kind="mlp", input_shape=(1, 6, 6), num_classes=2, hidden=(16,))
        cfg = TrainConfig(method="data_aug", data_aug_prob=0.5, epochs=30, batch_size=32, seed=0)
        _, log = train(spec, cfg, ds)
        assert log.rows[-1].val_acc > 0.9

    def test_bundle_save_load_round_trip(self, tmp_path):
        ds, spec = blob_setup(seed=33, per_class=40)
        cfg = TrainConfig(method="pilot", mask_mode="a_drop", mask_rate=0.4,
                          epochs=2, batch_size=32, seed=5)
        dcfg = DGMConfig(latent_dim=4, hidden=(8,))
        bundle, _ = train(spec, cfg, ds, dcfg)
        path = tmp_path / "model.ckpt"
        bundle.save(path)
        loaded = TrainedBundle.load(path)
        np.testing.assert_array_equal(bundle.predict(ds.x_test[:16]),
                                      loaded.predict(ds.x_test[:16]))
        assert loaded.label == "pilot_a_drop"
        assert loaded.dgm is not None
        # the loader hands out views of one buffer; the bundle keeps none of them
        state = {**loaded.classifier.state_arrays(), **loaded.dgm.state_arrays()}
        assert all(arr.base is None for arr in state.values())


class TestJensenDirection:
    def test_log_of_mean_dominates_mean_of_log(self):
        ds, spec = blob_setup(seed=34)
        clf = build_classifier(spec, np.random.default_rng(35))
        dgm = ActivationDGM(clf.layout.total, DGMConfig(latent_dim=4, hidden=(16,)),
                            np.random.default_rng(36))
        x, y = ds.x_train[:16], ds.y_train[:16]
        rng = np.random.default_rng(37)
        with ad.no_grad():
            _, record = clf.forward_record(x)
        a = record.flatten()
        probs = []
        for _ in range(100):
            mask = sample_mask("a_drop", 0.5, clf.layout, 16, rng)
            imputed = dgm.impute(a, mask, rng)
            with ad.no_grad():
                logits, _ = clf.forward_spliced(record, mask, imputed)
                p = ad.softmax(logits, axis=1).data
            probs.append(p[np.arange(16), y])
        probs = np.array(probs)               # (100, 16) likelihood draws
        log_of_mean = np.log(probs.mean(axis=0))
        mean_of_log = np.log(probs).mean(axis=0)
        assert np.all(log_of_mean >= mean_of_log - 1e-12)


class TestBundleLoad:
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        ds, spec = blob_setup(seed=34, per_class=30)
        cfg = TrainConfig(method="pilot", mask_mode="a_aug", epochs=1, batch_size=32, seed=2)
        bundle, _ = train(spec, cfg, ds, DGMConfig(latent_dim=4, hidden=(8,)))
        path = tmp_path / "model.ckpt"
        bundle.save(path)

        def no_draw(*args, **kwargs):
            raise AssertionError("TrainedBundle.load drew an initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = TrainedBundle.load(path)
        monkeypatch.undo()
        state = {**bundle.classifier.state_arrays(), **bundle.dgm.state_arrays()}
        loaded_state = {**loaded.classifier.state_arrays(), **loaded.dgm.state_arrays()}
        assert state.keys() == loaded_state.keys()
        for name, arr in state.items():
            np.testing.assert_array_equal(loaded_state[name], arr)
