"""Calibration metrics, MC prediction, ensembling, and report plumbing."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pilot import autodiff as ad
from pilot import calibrate
from pilot.calibrate import (
    CalibrationReport,
    EvalConfig,
    accuracy,
    bin_reliability,
    ece,
    ensemble_predict,
    entropy,
    entropy_histogram,
    evaluate,
    mc_predict,
    nll,
    report_from_predictions,
)
from pilot.data import synth_blobs
from pilot.dgm import DGMConfig, PreparedBatch
from pilot.masks import sample_mask
from pilot.nets import ClassifierSpec
from pilot.train import TrainConfig, train


def perfectly_calibrated(n, seed=0):
    """Two-class rows with confidence c and correctness probability c."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 1.0, size=n)
    preds = np.stack([c, 1.0 - c], axis=1)
    labels = np.where(rng.random(n) < c, 0, 1)
    return preds, labels


class TestBinReliability:
    def test_all_confident_correct_single_bin(self):
        preds = np.tile([1.0, 0.0], (50, 1))
        labels = np.zeros(50, dtype=int)
        bins = bin_reliability(preds, labels, 10)
        occupied = [b for b in bins if b.count]
        assert len(occupied) == 1
        assert occupied[0].acc == 1.0 and occupied[0].conf == 1.0
        assert occupied[0].hi == 1.0

    def test_hand_enumerated_four_points(self):
        # confidences [0.55, 0.65, 0.95, 0.95], correctness [T, F, T, T], M=10
        preds = np.array([
            [0.55, 0.45],
            [0.65, 0.35],
            [0.95, 0.05],
            [0.95, 0.05],
        ])
        labels = np.array([0, 1, 0, 0])
        bins = bin_reliability(preds, labels, 10)
        by_range = {(b.lo, b.hi): b for b in bins}
        b56 = by_range[(0.5, 0.6)]
        assert (b56.count, b56.acc, b56.conf) == (1, 1.0, 0.55)
        b67 = by_range[(0.6, 0.7)]
        assert (b67.count, b67.acc, b67.conf) == (1, 0.0, 0.65)
        b91 = by_range[(0.9, 1.0)]
        assert b91.count == 2 and b91.acc == 1.0 and abs(b91.conf - 0.95) < 1e-12
        assert sum(b.count for b in bins) == 4

    def test_uniform_predictor_single_low_bin(self):
        n, c = 20_000, 10
        preds = np.full((n, c), 1.0 / c)
        labels = np.tile(np.arange(c), n // c)
        bins = bin_reliability(preds, labels, 10)
        occupied = [b for b in bins if b.count]
        assert len(occupied) == 1
        assert occupied[0].lo == 0.0                 # first bin starts near 1/C
        np.testing.assert_allclose(occupied[0].conf, 0.1, atol=1e-12)
        assert abs(occupied[0].acc - 0.1) < 0.01
        assert ece(preds, labels, 10) < 0.01          # trivially near-zero ECE

    def test_counts_partition_n(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(5), size=1000)
        labels = rng.integers(0, 5, 1000)
        bins = bin_reliability(preds, labels, 7)
        assert sum(b.count for b in bins) == 1000


class TestEce:
    def test_perfectly_calibrated_small(self):
        preds, labels = perfectly_calibrated(200_000, seed=2)
        assert ece(preds, labels, 10) < 0.01

    def test_always_confident_seventy_accurate(self):
        n = 1000
        preds = np.tile([1.0, 0.0], (n, 1))
        labels = np.zeros(n, dtype=int)
        labels[:300] = 1                             # 70% correct
        assert abs(ece(preds, labels, 10) - 0.3) < 1e-12

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        preds = rng.dirichlet(np.ones(4), size=500)
        labels = rng.integers(0, 4, 500)
        perm = rng.permutation(500)
        np.testing.assert_allclose(ece(preds, labels, 10),
                                   ece(preds[perm], labels[perm], 10), atol=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            preds = rng.dirichlet(np.ones(3), size=100)
            labels = rng.integers(0, 3, 100)
            value = ece(preds, labels, 10)
            assert 0.0 <= value <= 1.0


class TestNll:
    def test_perfect_one_hot(self):
        preds = np.tile([1.0, 0.0, 0.0], (10, 1))
        labels = np.zeros(10, dtype=int)
        assert nll(preds, labels) <= 1e-11

    def test_uniform_ten_classes(self):
        preds = np.full((100, 10), 0.1)
        labels = np.arange(100) % 10
        np.testing.assert_allclose(nll(preds, labels), np.log(10.0), atol=1e-9)

    def test_floor_prevents_infinite(self):
        preds = np.tile([0.0, 1.0], (5, 1))
        labels = np.zeros(5, dtype=int)
        value = nll(preds, labels)
        np.testing.assert_allclose(value, -np.log(1e-12))


class TestEntropy:
    def test_one_hot_zero(self):
        preds = np.tile([1.0, 0.0, 0.0, 0.0], (6, 1))
        np.testing.assert_allclose(entropy(preds), 0.0, atol=1e-10)

    def test_uniform_log_c(self):
        preds = np.full((6, 8), 1 / 8)
        np.testing.assert_allclose(entropy(preds), np.log(8.0), atol=1e-12)

    def test_histogram_mass_at_extremes_and_conservation(self):
        one_hot = np.tile([1.0, 0.0], (40, 1))
        uniform = np.full((60, 2), 0.5)
        edges, counts = entropy_histogram(np.vstack([one_hot, uniform]), 10)
        assert counts.sum() == 100
        assert counts[0] == 40
        assert counts[-1] == 60
        np.testing.assert_allclose(edges[-1], np.log(2.0))

    @pytest.mark.parametrize("classes", range(2, 51))
    def test_uniform_rows_all_counted(self, classes):
        # a uniform row's entropy can round above ln C; it still belongs in
        # the last bin
        preds = np.full((7, classes), 1.0 / classes)
        _, counts = entropy_histogram(preds, 20)
        assert counts.sum() == 7
        assert counts[-1] == 7


class TestEnsemble:
    def test_single_member_identity(self):
        rng = np.random.default_rng(5)
        preds = rng.dirichlet(np.ones(3), size=20)
        np.testing.assert_allclose(ensemble_predict([preds]), preds, atol=1e-12)

    def test_opposite_one_hots_average_uniform_over_pair(self):
        a = np.tile([1.0, 0.0, 0.0], (4, 1))
        b = np.tile([0.0, 1.0, 0.0], (4, 1))
        out = ensemble_predict([a, b])
        np.testing.assert_allclose(out, np.tile([0.5, 0.5, 0.0], (4, 1)), atol=1e-12)

    def test_identical_members_unchanged(self):
        rng = np.random.default_rng(6)
        preds = rng.dirichlet(np.ones(4), size=10)
        np.testing.assert_allclose(ensemble_predict([preds] * 5), preds, atol=1e-12)

    def test_member_permutation_commutes(self):
        rng = np.random.default_rng(7)
        members = [rng.dirichlet(np.ones(3), size=8) for _ in range(4)]
        a = ensemble_predict(members)
        b = ensemble_predict(members[::-1])
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_rows_renormalised(self):
        rng = np.random.default_rng(8)
        members = [rng.dirichlet(np.ones(5), size=30) for _ in range(3)]
        out = ensemble_predict(members)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


def trained_pilot_bundle(seed=0):
    ds = synth_blobs(3, 80, 6, 3.0, seed=40)
    spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(16, 16))
    cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5, epochs=8,
                      batch_size=32, lr_dgm=1e-3, seed=seed)
    dcfg = DGMConfig(latent_dim=8, hidden=(32,))
    bundle, _ = train(spec, cfg, ds, dcfg)
    return bundle, ds


class TestMcPredict:
    def test_requires_at_least_one_sample(self):
        bundle, ds = trained_pilot_bundle()
        with pytest.raises(ValueError, match="n_samples"):
            mc_predict(bundle, ds.x_test[:4], 0, "pilot_mc", np.random.default_rng(0))

    def test_rows_sum_to_one(self):
        bundle, ds = trained_pilot_bundle()
        preds = mc_predict(bundle, ds.x_test[:16], 5, "pilot_mc", np.random.default_rng(1))
        np.testing.assert_allclose(preds.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_under_seed(self):
        bundle, ds = trained_pilot_bundle()
        a = mc_predict(bundle, ds.x_test[:8], 5, "pilot_mc", np.random.default_rng(9))
        b = mc_predict(bundle, ds.x_test[:8], 5, "pilot_mc", np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_mc_dropout_differs_from_plain(self):
        ds = synth_blobs(3, 80, 6, 3.0, seed=41)
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(16, 16))
        cfg = TrainConfig(method="dropout", dropout_rate=0.5, epochs=5, batch_size=32, seed=0)
        bundle, _ = train(spec, cfg, ds)
        plain = bundle.predict(ds.x_test[:8])
        mc = mc_predict(bundle, ds.x_test[:8], 10, "mc_dropout", np.random.default_rng(2))
        assert not np.allclose(plain, mc)
        np.testing.assert_allclose(mc.sum(axis=1), 1.0, atol=1e-9)

    def test_variance_shrinks_with_samples(self):
        bundle, ds = trained_pilot_bundle()
        x0 = ds.x_test[:1]
        repeats = 80

        def variance(n_samples):
            tops = []
            for r in range(repeats):
                p = mc_predict(bundle, x0, n_samples, "pilot_mc", np.random.default_rng(1000 + r))
                tops.append(p[0, 0])
            return np.var(tops)

        v1, v10 = variance(1), variance(10)
        assert v10 < v1
        assert v1 / 20 < v10 < v1            # roughly 1/n with generous slack

    def test_averaging_identical_vectors_is_identity(self):
        members = np.tile([0.2, 0.5, 0.3], (7, 1))
        out = ensemble_predict([members] * 10)
        np.testing.assert_allclose(out, members, atol=1e-12)

    def test_all_stochastic_sources_disabled_matches_plain_bit_exact(self):
        # mask gate that never fires + single draw: MC prediction collapses
        # to the deterministic forward pass, bit for bit
        ds = synth_blobs(3, 40, 6, 3.0, seed=42)
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(8,))
        cfg = TrainConfig(method="pilot", mask_mode="x_aug", mask_rate=1e-12,
                          epochs=2, batch_size=32, seed=0)
        bundle, _ = train(spec, cfg, ds, DGMConfig(latent_dim=4, hidden=(8,)))
        mc = mc_predict(bundle, ds.x_test[:16], 1, "pilot_mc", np.random.default_rng(0))
        plain = bundle.predict(ds.x_test[:16])
        assert mc.tobytes() == plain.tobytes()

    def test_impute_sample_flag_changes_mc_predictions(self):
        ds = synth_blobs(3, 40, 6, 3.0, seed=43)
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(8,))
        preds = {}
        for flag in (False, True):
            cfg = TrainConfig(method="pilot", mask_mode="a_aug", mask_rate=0.5,
                              epochs=2, batch_size=32, seed=0)
            bundle, _ = train(spec, cfg, ds,
                              DGMConfig(latent_dim=4, hidden=(8,), impute_sample=flag))
            preds[flag] = mc_predict(bundle, ds.x_test[:16], 3, "pilot_mc",
                                     np.random.default_rng(5))
        assert not np.array_equal(preds[False], preds[True])

    def test_batches_bound_the_record_pass(self, monkeypatch):
        # The record pass sees at most 512 rows, and the first batch of a
        # longer input takes exactly the draws that batch would take alone.
        bundle, _ = trained_pilot_bundle()
        x = np.random.default_rng(3).standard_normal((600, 6))
        clf = bundle.classifier
        record, sizes = clf.forward_record, []
        monkeypatch.setattr(clf, "forward_record", lambda xb: sizes.append(len(xb)) or record(xb))
        full = mc_predict(bundle, x, 3, "pilot_mc", np.random.default_rng(4))
        assert max(sizes) <= 512
        head = mc_predict(bundle, x[:512], 3, "pilot_mc", np.random.default_rng(4))
        assert full.shape == (600, 3)
        assert full[:512].tobytes() == head.tobytes()
        np.testing.assert_allclose(full.sum(axis=1), 1.0, atol=1e-9)

    def test_mc_dropout_batches_like_pilot_mc(self, monkeypatch):
        ds = synth_blobs(3, 40, 6, 3.0, seed=44)
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(8,))
        cfg = TrainConfig(method="dropout", dropout_rate=0.5, epochs=1, batch_size=32, seed=0)
        bundle, _ = train(spec, cfg, ds)
        x = np.random.default_rng(5).standard_normal((600, 6))
        clf = bundle.classifier
        forward, sizes = clf.forward, []
        monkeypatch.setattr(clf, "forward", lambda xb, **kw: sizes.append(len(xb)) or forward(xb, **kw))
        full = mc_predict(bundle, x, 2, "mc_dropout", np.random.default_rng(6))
        assert max(sizes) <= 512
        head = mc_predict(bundle, x[:512], 2, "mc_dropout", np.random.default_rng(6))
        assert full[:512].tobytes() == head.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_mc_dropout_keeps_batch_norm_on_running_statistics(self, kind):
        # The draws neither normalise by the batch nor write the running
        # statistics: the bundle and its plain predictions do not move, and
        # at dropout rate 0 one draw is the plain prediction, bit for bit.
        ds, spec = small_world(kind, seed=47)
        spec = dataclasses.replace(spec, batch_norm=True)
        bundle, _ = train(spec, TrainConfig(method="dropout", epochs=1, batch_size=16, seed=0), ds)
        clf, x = bundle.classifier, ds.x_test[:40]
        state = {k: v.tobytes() for k, v in clf.state_arrays().items()}
        plain = bundle.predict(x)
        mc_predict(bundle, x, 3, "mc_dropout", np.random.default_rng(7))
        assert {k: v.tobytes() for k, v in clf.state_arrays().items()} == state
        assert bundle.predict(x).tobytes() == plain.tobytes()
        bundle.train_config = dataclasses.replace(bundle.train_config, dropout_rate=0.0)
        assert mc_predict(bundle, x, 1, "mc_dropout", np.random.default_rng(7)).tobytes() == plain.tobytes()

    @pytest.mark.parametrize("method, mode", [
        ("pilot", "mc_dropout"), ("vanilla", "mc_dropout"), ("batch_norm", "mc_dropout"),
        ("dropout", "pilot_mc"), ("vanilla", "pilot_mc"),
    ])
    def test_refuses_a_bundle_not_trained_with_the_modes_method(self, method, mode):
        # mc_dropout would drop units at a rate the run never used, and both
        # reports carry the label of the paper's row for their method
        ds, spec = small_world("mlp", seed=48)
        cfg = TrainConfig(method=method, mask_mode="a_aug" if method == "pilot" else None,
                          epochs=1, batch_size=16, seed=0)
        bundle, _ = train(spec, cfg, ds, DGMConfig(latent_dim=4, hidden=(8,)))
        with pytest.raises(ValueError, match=f"{mode} needs a bundle trained with method .*'{method}'"):
            mc_predict(bundle, ds.x_test[:4], 1, mode, np.random.default_rng(0))


class TestMcDrawContract:
    def test_one_mask_impute_and_splice_per_draw(self, monkeypatch):
        # perfbench's draw clock opens a draw at calibrate.sample_mask and its
        # tracer times ActivationDGM.impute and forward_spliced(record, mask,
        # imputed) by these names and this positional signature
        import pilot.calibrate as calibrate
        from pilot.dgm import ActivationDGM

        bundle, ds = trained_pilot_bundle()
        clf = bundle.classifier
        calls = []
        sample, impute, splice = calibrate.sample_mask, ActivationDGM.impute, clf.forward_spliced
        monkeypatch.setattr(calibrate, "sample_mask",
                            lambda *a, **k: calls.append("mask") or sample(*a, **k))
        monkeypatch.setattr(ActivationDGM, "impute",
                            lambda self, *a, **k: calls.append("impute") or impute(self, *a, **k))

        def spliced(*args, **kwargs):
            assert len(args) == 3 and not kwargs
            calls.append("splice")
            return splice(*args)

        monkeypatch.setattr(clf, "forward_spliced", spliced)
        mc_predict(bundle, ds.x_test[:20], 4, "pilot_mc", np.random.default_rng(0))
        assert calls == ["mask", "impute", "splice"] * 4


def small_world(kind, seed):
    """Blobs and a small classifier of ``kind``: 6 features for the MLP,
    2x8x8 images for the CNN."""
    if kind == "mlp":
        ds = synth_blobs(3, 30, 6, 3.0, seed=seed)
        spec = ClassifierSpec(kind="mlp", input_shape=(6,), num_classes=3, hidden=(8, 8))
    else:
        ds = synth_blobs(3, 30, 2 * 8 * 8, 3.0, seed=seed)
        spec = ClassifierSpec(kind="cnn", input_shape=(2, 8, 8), num_classes=3,
                              conv_channels=(3, 4), dense_width=10)
        ds = dataclasses.replace(ds, x_train=ds.x_train.reshape(-1, 2, 8, 8),
                                 x_test=ds.x_test.reshape(-1, 2, 8, 8))
    return ds, spec


def block_bundle(kind, mask_mode):
    """A small trained pilot bundle under a block mask mode, and test rows."""
    ds, spec = small_world(kind, seed=45 if kind == "mlp" else 46)
    cfg = TrainConfig(method="pilot", mask_mode=mask_mode, mask_rate=0.5, epochs=1,
                      batch_size=32, seed=0)
    bundle, _ = train(spec, cfg, ds, DGMConfig(latent_dim=4, hidden=(8,)))
    return bundle, ds.x_test


def fresh_per_draw_reference(bundle, x, n_samples, rng, batch):
    """``pilot_mc`` with nothing reused between draws: a fresh record and a
    fresh prepared batch for every draw, in ``mc_predict``'s RNG order."""
    cfg, clf, dgm = bundle.train_config, bundle.classifier, bundle.dgm
    out = []
    with ad.no_grad():
        for start in range(0, len(x), batch):
            xb = x[start : start + batch]
            acc = np.zeros((len(xb), clf.spec.num_classes))
            for _ in range(n_samples):
                _, record = clf.forward_record(xb)
                prepared = PreparedBatch(dgm, record.flatten())
                mask = sample_mask(cfg.mask_mode, cfg.mask_rate, clf.layout, len(xb), rng)
                imputed = dgm.impute(record.flatten(), mask, rng, prepared=prepared)
                logits, _ = clf.forward_spliced(record, mask, imputed)
                acc += ad.softmax(logits, axis=1).data
            out.append(acc / n_samples)
    return np.concatenate(out)


class TestMcReuse:
    """A ``pilot_mc`` batch reuses its record, prepared batch and the arrays
    they own across draws; the predictions must not change by a bit."""

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    @pytest.mark.parametrize("mask_mode", ["x_aug", "a_aug"])
    def test_matches_fresh_per_draw_reference(self, kind, mask_mode, monkeypatch):
        bundle, x = block_bundle(kind, mask_mode)
        monkeypatch.setattr(calibrate, "READ_BATCH", 8)        # batches of 8, 8 and 4 rows
        x = x[:20]
        preds = mc_predict(bundle, x, 5, "pilot_mc", np.random.default_rng(7))
        reference = fresh_per_draw_reference(bundle, x, 5, np.random.default_rng(7), 8)
        assert preds.tobytes() == reference.tobytes()

    def test_later_draws_allocate_less_than_one_record(self, monkeypatch):
        # Draws 2..n of a batch allocate no (batch, record)-sized array: the
        # peak of each stays below one (B, R) float64 array.
        bundle, x = block_bundle("cnn", "a_aug")
        x = np.concatenate([x] * 4)
        n, total = len(x), bundle.classifier.layout.total
        peaks, base, sample = [], [0], calibrate.sample_mask

        def draw_boundary(*args, **kwargs):
            # the peak since the last boundary, above what was held there
            peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
            return sample(*args, **kwargs) if args else None

        monkeypatch.setattr(calibrate, "sample_mask", draw_boundary)
        tracemalloc.start()
        try:
            mc_predict(bundle, x, 6, "pilot_mc", np.random.default_rng(3))
            draw_boundary()     # closes the last draw
        finally:
            tracemalloc.stop()
        later = peaks[2:]       # peaks[0] is the set-up's, peaks[1] the first draw's
        assert len(later) == 5 and max(later) < n * total * 8, (later, n * total * 8)


class TestEvaluate:
    def test_report_matches_manual_recount(self):
        bundle, ds = trained_pilot_bundle()
        report = evaluate(bundle, ds.x_test, ds.y_test, EvalConfig(model_id="toy"))
        preds = bundle.predict(ds.x_test)
        manual_acc = float((preds.argmax(axis=1) == ds.y_test).mean())
        assert report.accuracy == manual_acc
        assert report.n == len(ds.y_test)
        assert sum(b.count for b in report.bins) == report.n
        assert report.model == "toy"

    def test_empty_test_set_rejected(self):
        bundle, ds = trained_pilot_bundle()
        with pytest.raises(ValueError, match="empty"):
            evaluate(bundle, ds.x_test[:0], ds.y_test[:0], EvalConfig())

    def test_mc_mode_deterministic_under_seed(self):
        bundle, ds = trained_pilot_bundle()
        cfg = EvalConfig(mode="pilot_mc", mc_samples=4, seed=11)
        r1 = evaluate(bundle, ds.x_test[:32], ds.y_test[:32], cfg)
        r2 = evaluate(bundle, ds.x_test[:32], ds.y_test[:32], cfg)
        assert r1.accuracy == r2.accuracy and r1.nll == r2.nll and r1.ece == r2.ece

    def test_report_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        preds = rng.dirichlet(np.ones(4), size=100)
        labels = rng.integers(0, 4, 100)
        report = report_from_predictions(preds, labels, EvalConfig(), model="m",
                                         meta={"arch": "mlp", "dataset": "blobs"})
        path = tmp_path / "report.json"
        report.to_json(path)
        loaded = CalibrationReport.from_json(path)
        assert loaded.model == "m"
        assert loaded.ece == report.ece
        assert loaded.bins[0].count == report.bins[0].count
        assert loaded.meta["arch"] == "mlp"

    def test_csv_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        preds = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, 50)
        report = report_from_predictions(preds, labels, EvalConfig())
        report.bins_to_csv(tmp_path / "bins.csv")
        report.entropy_to_csv(tmp_path / "entropy.csv")
        bins = (tmp_path / "bins.csv").read_text().splitlines()
        assert bins[0] == "bin_lo,bin_hi,count,acc,conf"
        assert len(bins) == 11
        ent = (tmp_path / "entropy.csv").read_text().splitlines()
        assert ent[0] == "edge_lo,edge_hi,count"


class TestAccuracyHelper:
    def test_simple_count(self):
        preds = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(preds, labels) == 0.75


class TestReportBins:
    def test_one_bin_pass_per_report(self, monkeypatch):
        import pilot.calibrate as calibrate

        rng = np.random.default_rng(15)
        preds = rng.dirichlet(np.ones(3), size=1500)
        labels = rng.integers(0, 3, 1500)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return bin_reliability(*args, **kwargs)

        monkeypatch.setattr(calibrate, "bin_reliability", counted)
        report = report_from_predictions(preds, labels, EvalConfig())
        monkeypatch.undo()
        assert len(calls) == 1
        assert report.ece == ece(preds, labels)
        assert report.bins == bin_reliability(preds, labels)


@pytest.mark.parametrize("name", ["n_bins", "entropy_bins", "mc_samples"])
def test_eval_config_rejects_a_count_below_one(name):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        EvalConfig(**{name: 0})
