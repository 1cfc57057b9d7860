"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
training criterion (8) is the slow one (about two minutes on a laptop
CPU); everything else finishes in seconds.
"""

import time

import numpy as np

from speechrig.blink import (
    BlinkFrequencyModel,
    default_blink_classifier,
    detect_blinks,
    draw_rates,
    ear,
    threshold_detect_blinks,
)
from speechrig.cli import main
from speechrig.encoders import positional_encoding
from speechrig.evaluate import lr_correlation, mae
from speechrig.features import FeatureSequence, resample_features, write_feature_file
from speechrig.gaze import sample_gaze_track, track_values
from speechrig.network import (
    _stack_forward,
    build_model,
    grad_check,
    gradcheck_probe,
    named_parameters,
    save_model,
)
from speechrig.rig import RIG_WIDTH, RigSequence, default_map, read_rig_csv
from speechrig.smoothing import savgol_coeffs, smooth_sequence
from speechrig.training import TrainConfig, gen_synthetic, train

from blink_corpus import gen_blink_traces


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_01_positional_encoding(self):
        t0 = time.perf_counter()
        pe = positional_encoding(512, 512)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            pos = int(rng.integers(0, 512))
            i = int(rng.integers(0, 256))
            angle = pos / 10000.0 ** (2 * i / 512)
            worst = max(worst,
                        abs(pe[pos, 2 * i] - np.sin(angle)),
                        abs(pe[pos, 2 * i + 1] - np.cos(angle)))
        row0_ok = np.array_equal(pe[0], np.array([0.0, 1.0] * 256))
        elapsed = time.perf_counter() - t0
        report(1, worst < 1e-6 and row0_ok and elapsed < 1.0,
               f"max |err| {worst:.2e} over 1000 samples, row0 alternates 0/1: "
               f"{row0_ok}, {elapsed:.2f}s")

    def test_02_savgol_coefficients_and_cubic_reproduction(self):
        w52 = savgol_coeffs(5, 2)
        classical = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
        err52 = np.abs(w52 - classical).max()

        w153 = savgol_coeffs(15, 3)
        center_err = abs(w153[7] - 167.0 / 1105.0)

        t = np.linspace(-1.0, 1.0, 80)
        cubic = 0.8 * t ** 3 - 0.3 * t ** 2 + 0.5 * t - 0.1
        values = np.zeros((80, RIG_WIDTH))
        values[:, 0] = cubic
        smoothed = smooth_sequence(RigSequence(values))
        cubic_err = np.abs(smoothed.values[7:-7, 0] - cubic[7:-7]).max()

        report(2, err52 < 1e-12 and center_err < 1e-9 and cubic_err < 1e-9,
               f"(5,2) err {err52:.2e}, (15,3) center err {center_err:.2e}, "
               f"cubic interior err {cubic_err:.2e}")

    def test_03_eye_aspect_ratio(self):
        closed = ear([(0, 0), (1, 0.5), (3, 0.5), (4, 0), (3, 0.5), (1, 0.5)])
        half = ear([(0, 0), (1, 1), (3, 1), (4, 0), (3, -1), (1, -1)])
        rng = np.random.default_rng(2)
        lm = rng.normal(0, 1, (6, 2))
        lm[3] += 2.0
        scale_err = max(abs(ear(lm * s) - ear(lm)) for s in (0.5, 7.0, 300.0))
        report(3, closed == 0.0 and half == 0.5 and scale_err < 1e-12,
               f"closed {closed}, rectangle {half}, scale-invariance err {scale_err:.2e}")

    def test_04_blink_rate_sampler(self):
        t0 = time.perf_counter()
        model = BlinkFrequencyModel()
        rng = np.random.default_rng(20250810)
        raw = draw_rates(model, 100_000, rng, truncate=False)
        ln = np.log(raw)
        mu_err = abs(ln.mean() - 3.518)
        sigma_err = abs(ln.std() - 0.532)
        rng = np.random.default_rng(20250811)
        trunc = draw_rates(model, 100_000, rng, truncate=True)
        elapsed = time.perf_counter() - t0
        report(4, mu_err < 0.02 and sigma_err < 0.02 and trunc.max() <= 100.0
               and elapsed < 5.0,
               f"ln-mean err {mu_err:.4f}, ln-std err {sigma_err:.4f}, "
               f"max retained {trunc.max():.2f}, {elapsed:.2f}s")

    def test_05_blink_detection_quality(self):
        clf = default_blink_classifier()
        suite = gen_blink_traces(seed=4202, n_traces=200, length=400)
        tp = fp = fn = overlaps = 0
        for trace, truth in suite:
            events = detect_blinks(trace, clf)
            overlaps += sum(a.end >= b.start for a, b in zip(events, events[1:]))
            matched_truth, matched_pred = set(), set()
            for i, ev in enumerate(events):
                for j, (s, e) in enumerate(truth):
                    if ev.start <= e and ev.end >= s:
                        matched_pred.add(i)
                        matched_truth.add(j)
            tp += len(matched_truth)
            fp += len(events) - len(matched_pred)
            fn += len(truth) - len(matched_truth)
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall)

        trace = np.full(60, 0.30)
        trace[20:25] = [0.22, 0.08, 0.03, 0.08, 0.22]
        trace[45] = 0.05
        n_clf = len(detect_blinks(trace, clf))
        n_thr = len(threshold_detect_blinks(trace, 0.2))

        report(5, f1 >= 0.95 and overlaps == 0 and n_clf == 1 and n_thr == 2,
               f"F1 {f1:.4f} (P {precision:.4f} R {recall:.4f}), overlaps {overlaps}, "
               f"crafted trace {n_clf} vs threshold {n_thr}")

    def test_06_gaze_sampler(self):
        track = sample_gaze_track(n_frames=50 * 10_500, seed=314)
        kf = track.keyframes
        assert len(kf) > 10_000
        hv = kf[1:, 1:]
        mags = np.hypot(hv[:, 0], hv[:, 1])
        off = mags > 0
        center_frac = float(np.mean(~off))
        radii_ok = bool(mags[off].min() >= 0.1 * (1 - 1e-12)
                        and mags[off].max() <= 0.2 * (1 + 1e-12))
        gaps = np.diff(kf[:, 0])
        gaps_ok = bool(gaps.min() >= 15 and gaps.max() <= 45)

        interp_max = 0.0
        for seed in range(6):
            t = sample_gaze_track(3000, seed=seed)
            dense = track_values(t, 3000)
            interp_max = max(interp_max, float(np.hypot(dense[:, 0], dense[:, 1]).max()))

        report(6, 0.385 <= center_frac <= 0.415 and radii_ok and gaps_ok
               and interp_max <= 0.2 * (1 + 1e-12),
               f"center fraction {center_frac:.4f}, radii in band: {radii_ok}, "
               f"gaps in [15,45]: {gaps_ok}, max interpolated radius {interp_max:.4f}")

    def test_07_transformer_contracts(self):
        t0 = time.perf_counter()
        m = build_model(8, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                        output_dim=24, dropout=0.0, seed=4)
        rng = np.random.default_rng(5)
        hidden = rng.normal(0, 1, (10, 16))
        y, caches = _stack_forward(m, hidden, rng=None)
        maps = [layer_cache[0][4] for layer_cache in caches[:-1]]
        rowsum_err = max(float(np.abs(a.sum(axis=-1) - 1.0).max()) for a in maps)

        perm = rng.permutation(10)
        yp, _ = _stack_forward(m, hidden[perm], rng=None)
        perm_err = float(np.abs(yp - y[perm]).max())

        probe_model, feats, labels, target = gradcheck_probe(
            feature_dim=8, d_model=16, n_layers=1, n_heads=2, d_ff=32,
            output_dim=12, frames=4, eps=1e-5, seed=0)
        gerr = grad_check(probe_model, feats, labels, target, eps=1e-5)
        elapsed = time.perf_counter() - t0

        report(7, rowsum_err < 1e-6 and perm_err < 1e-6 and gerr < 1e-4
               and elapsed < 30.0,
               f"attention row-sum err {rowsum_err:.2e}, permutation err "
               f"{perm_err:.2e}, gradcheck {gerr:.2e}, {elapsed:.1f}s")

    def test_08_desk_scale_training(self):
        t0 = time.perf_counter()
        data = gen_synthetic(seed=11, n_items=32, t_range=(20, 40), feature_dim=32)
        model = build_model(32, d_model=64, n_layers=1, n_heads=4, d_ff=256,
                           output_dim=RIG_WIDTH, dropout=0.0, seed=5,
                           feature_family="synthetic-desk")
        cfg = TrainConfig(lr0=3e-3, epochs=2000, batch=8, seed=13)
        result = train(model, data, cfg)
        elapsed = time.perf_counter() - t0
        final = result.final_loss

        sched_ok = all(lr == 3e-3 * 0.995 ** (epoch // 100)
                       for epoch, lr, _ in result.history)

        zmodel = build_model(32, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                             output_dim=RIG_WIDTH, dropout=0.0, seed=6)
        before = {n: p.copy() for n, p in named_parameters(zmodel)}
        small = gen_synthetic(seed=12, n_items=4, t_range=(8, 12), feature_dim=32)
        train(zmodel, small, TrainConfig(lr0=0.0, epochs=3, batch=2, seed=0))
        zero_ok = all(np.array_equal(p, before[n]) for n, p in named_parameters(zmodel))

        report(8, final < 1e-3 and elapsed < 300.0 and sched_ok and zero_ok,
               f"final MSE {final:.3e} in {elapsed:.0f}s / 2000 epochs, schedule "
               f"exact: {sched_ok}, zero-lr bitwise no-op: {zero_ok}")

    def test_09_resampler(self):
        rng = np.random.default_rng(6)
        seq = FeatureSequence(rng.normal(0, 1, (50, 4)).astype(np.float32), 50.0)
        n_out = resample_features(seq, 60.0).n_frames

        const = FeatureSequence(np.full((50, 3), 0.7, dtype=np.float32), 50.0)
        const_ok = bool(np.all(resample_features(const, 60.0).data == np.float32(0.7)))

        ramp = FeatureSequence(np.arange(50, dtype=np.float32)[:, None], 50.0)
        expected = (np.arange(60) * 49 / 59).astype(np.float32)
        linear_ok = bool(np.array_equal(resample_features(ramp, 60.0).data[:, 0], expected))

        ident_ok = bool(np.array_equal(resample_features(seq, 50.0).data, seq.data))

        report(9, n_out == 60 and const_ok and linear_ok and ident_ok,
               f"50@50Hz -> {n_out} frames, constant exact: {const_ok}, "
               f"linear exact: {linear_ok}, identity at equal rates: {ident_ok}")

    def test_10_end_to_end_determinism(self, tmp_path):
        model = build_model(12, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                            output_dim=RIG_WIDTH, dropout=0.0, seed=21)
        save_model(tmp_path / "w.emow", model)
        rng = np.random.default_rng(22)
        feats = FeatureSequence(rng.normal(0, 1, (50, 12)).astype(np.float32), 50.0)
        write_feature_file(tmp_path / "f.emof", feats)

        def run_infer(out, *extra):
            code = main(["infer", "--features", str(tmp_path / "f.emof"),
                         "--emotion", "happy", "--weights", str(tmp_path / "w.emow"),
                         "--seed", "7", *extra, "--out", str(out)])
            assert code == 0

        run_infer(tmp_path / "a.csv", "--blink", "--gaze")
        run_infer(tmp_path / "b.csv", "--blink", "--gaze")
        identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        run_infer(tmp_path / "plain.csv")
        got = read_rig_csv(tmp_path / "plain.csv")
        from speechrig.network import infer, load_model
        from speechrig.rig import constant_timeline
        from speechrig.smoothing import clamp_sequence
        # reference goes through the weight file like the CLI does (f32)
        seq = infer(resample_features(feats, 60.0), constant_timeline(1, 60),
                    load_model(tmp_path / "w.emow"))
        expected = clamp_sequence(smooth_sequence(seq), default_map())
        eye_idx = default_map().eye_area_indices()
        eye_err = float(np.abs(got.values[:, eye_idx] - expected.values[:, eye_idx]).max())

        report(10, identical and eye_err < 2e-9,
               f"two seeded runs byte-identical: {identical}, injectors-off eye "
               f"channels match smoothed output to {eye_err:.2e} (CSV at 9 digits)")

    def test_11_evaluation(self):
        cmap = default_map()
        rng = np.random.default_rng(8)
        base = rng.uniform(-1, 1, (20, RIG_WIDTH))
        a = RigSequence(base)
        ident = mae(a, a)
        offset = mae(RigSequence(base + 0.01), a)

        b = RigSequence(rng.uniform(-1, 1, (20, RIG_WIDTH)))
        regions = [cmap.region_indices({r}) for r in
                   ("eye", "jaw", "mouth", "teeth", "tongue", "brow", "ear", "nose", "neck")]
        weighted = sum(len(ix) * mae(a, b, ix) for ix in regions) / RIG_WIDTH
        weight_err = abs(mae(a, b) - weighted)

        values = rng.normal(0, 1, (40, RIG_WIDTH))
        for e in cmap.entries:
            if e.side == "right":
                values[:, e.index] = values[:, e.pair]
        result = lr_correlation(RigSequence(values), cmap)
        left = cmap.side_indices("left")
        right = cmap.side_indices("right")
        by_index = {e.index: e for e in cmap.entries}
        mirror_ok = all(
            result.matrix[i, right.index(by_index[li].pair)] == 1.0
            for i, li in enumerate(left))

        report(11, ident == 0.0 and abs(offset - 0.01) < 1e-12
               and weight_err < 1e-12 and mirror_ok,
               f"mae identity {ident}, offset err {abs(offset - 0.01):.2e}, "
               f"region-weighted err {weight_err:.2e}, mirrored pairs all exactly 1.0: "
               f"{mirror_ok}")
