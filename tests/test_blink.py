"""EAR, blink classification/detection, rate modeling, and injection."""

import json
import warnings

import numpy as np
import pytest
from scipy import integrate

from speechrig.blink import (
    BLINK_SPAN,
    BlinkClassifier,
    BlinkFrequencyModel,
    blink_profile,
    default_blink_classifier,
    detect_blinks,
    draw_rates,
    ear,
    fit_lognormal,
    inject_blinks,
    read_ear_csv,
    sample_blink_times,
    threshold_detect_blinks,
    trace_windows,
    train_blink_classifier,
)
from speechrig.errors import DataError, DegenerateDataError
from speechrig.rig import RIG_WIDTH, RigSequence, default_map

from blink_corpus import gen_blink_traces, training_windows_from_traces


class TestEar:
    def test_closed_eye_is_zero(self):
        lm = [(0, 0), (1, 0.5), (3, 0.5), (4, 0), (3, 0.5), (1, 0.5)]
        assert ear(lm) == 0.0

    def test_hand_computed_value(self):
        lm = [(0, 0), (1, 1), (3, 1), (4, 0), (3, -1), (1, -1)]
        assert ear(lm) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_scale_invariance(self):
        rng = np.random.default_rng(0)
        lm = rng.normal(0, 1, (6, 2))
        lm[3] += 2.0  # keep p1 != p4
        base = ear(lm)
        for s in (0.1, 3.0, 250.0):
            assert ear(lm * s) == pytest.approx(base, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        lm = rng.normal(0, 1, (6, 2))
        lm[3] += 2.0
        base = ear(lm)
        for theta in (0.3, 1.2, 2.9):
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            assert ear(lm @ rot.T) == pytest.approx(base, abs=1e-12)

    def test_degenerate_horizontal_extent(self):
        lm = np.zeros((6, 2))
        with pytest.raises(DataError):
            ear(lm)


def _separable_windows(rng, n=160):
    """Synthetic dip windows vs flat windows; linearly separable."""
    xs, ys = [], []
    for _ in range(n // 2):
        flat = 0.3 + rng.normal(0, 0.004, 7)
        dip = flat.copy()
        dip[2:5] = [0.15, 0.05, 0.15]
        xs.extend([flat, dip])
        ys.extend([0, 1])
    return np.array(xs), np.array(ys)


class TestClassifier:
    def test_separable_data_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(2)
        x, y = _separable_windows(rng)
        clf = train_blink_classifier(x, y)
        assert np.array_equal(clf.predict(x), y)

    def test_flipped_labels_negate_the_decision(self):
        rng = np.random.default_rng(3)
        x, y = _separable_windows(rng)
        a = train_blink_classifier(x, y)
        b = train_blink_classifier(x, 1 - y)
        np.testing.assert_allclose(b.weights, -a.weights, atol=1e-9)
        assert b.bias == pytest.approx(-a.bias, abs=1e-9)

    def test_identical_windows_with_both_labels_rejected(self):
        x = np.tile(np.linspace(0.2, 0.3, 7), (10, 1))
        y = np.array([0, 1] * 5)
        with pytest.raises(DegenerateDataError):
            train_blink_classifier(x, y)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.3, 0.01, (10, 7))
        with pytest.raises(DegenerateDataError):
            train_blink_classifier(x, np.ones(10))

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        x, y = _separable_windows(rng)
        clf = train_blink_classifier(x, y)
        path = tmp_path / "clf.json"
        clf.save(path)
        back = BlinkClassifier.load(path)
        assert np.array_equal(back.weights, clf.weights)
        assert back.bias == clf.bias

    def test_shipped_default_is_what_its_recipe_trains(self):
        # The recipe behind data/default_blink_classifier.json; after changing
        # it or the trainer, write the new result there with BlinkClassifier.save.
        traces = gen_blink_traces(seed=1108, n_traces=120, length=300)
        x, y = training_windows_from_traces(traces, np.random.default_rng(1109))
        trained = train_blink_classifier(x, y, pos_weight=2.0)
        shipped = default_blink_classifier()
        assert shipped.weights.tobytes() == trained.weights.tobytes()
        assert shipped.bias == trained.bias
        assert shipped.metadata == trained.metadata

    @pytest.mark.parametrize("doc", ['{"weights": ["a", 1, 1, 1, 1, 1, 1], "bias": 0}',
                                     '{"weights": [1, 1, 1, 1, 1, 1, 1], "bias": "b"}'])
    def test_non_numeric_file_is_a_data_error(self, tmp_path, doc):
        path = tmp_path / "clf.json"
        path.write_text(doc)
        with pytest.raises(DataError, match="clf.json"):
            BlinkClassifier.load(path)


class TestDetection:
    def test_flat_trace_has_no_events(self):
        clf = default_blink_classifier()
        assert detect_blinks(np.full(50, 0.3), clf) == []

    def test_single_dip_is_one_event(self):
        clf = default_blink_classifier()
        trace = np.full(40, 0.30)
        trace[18:23] = [0.22, 0.08, 0.03, 0.08, 0.22]
        events = detect_blinks(trace, clf)
        assert len(events) == 1
        assert events[0].start <= 20 <= events[0].end

    def test_windowed_classifier_beats_threshold_on_dropout(self):
        # one real dip plus one isolated low frame: the threshold detector
        # counts two blinks, the windowed classifier one
        clf = default_blink_classifier()
        trace = np.full(60, 0.30)
        trace[20:25] = [0.22, 0.08, 0.03, 0.08, 0.22]
        trace[45] = 0.05
        assert len(detect_blinks(trace, clf)) == 1
        assert len(threshold_detect_blinks(trace, 0.2)) == 2

    def test_events_never_overlap_and_are_maximal(self):
        clf = default_blink_classifier()
        for trace, _ in gen_blink_traces(seed=99, n_traces=25, length=300):
            events = detect_blinks(trace, clf)
            for a, b in zip(events, events[1:]):
                assert a.end < b.start - 0  # disjoint and ordered
                assert b.start - a.end >= 1

    def test_short_trace_rejected(self):
        clf = default_blink_classifier()
        with pytest.raises(DataError):
            detect_blinks(np.full(5, 0.3), clf)

    def test_windows_pad_edges_by_repetition(self):
        trace = np.arange(10, dtype=float)
        wins = trace_windows(trace)
        assert wins.shape == (10, 7)
        assert wins[0].tolist() == [0, 0, 0, 0, 1, 2, 3]
        assert wins[-1].tolist() == [6, 7, 8, 9, 9, 9, 9]

    def test_ear_csv_roundtrip(self, tmp_path):
        path = tmp_path / "ear.csv"
        path.write_text("frame,ear\n0,0.30\n1,0.29\n2,0.05\n3,0.30\n")
        trace = read_ear_csv(path)
        np.testing.assert_allclose(trace, [0.30, 0.29, 0.05, 0.30])

    def test_ear_csv_rows_are_put_in_frame_order(self, tmp_path):
        path = tmp_path / "ear.csv"
        path.write_text("frame,ear\n6,0.05\n4,0.30\n5,0.29\n")
        assert read_ear_csv(path).tolist() == [0.30, 0.29, 0.05]

    @pytest.mark.parametrize("rows", ["0,0.3\n2,0.3\n", "0,0.3\n0,0.3\n", "0.5,0.3\n1.5,0.3\n",
                                      "1e300,0.3\n1e300,0.3\n"],
                             ids=["gap", "repeat", "fractional", "beyond-float-integers"])
    def test_ear_csv_frames_must_be_consecutive_integers(self, tmp_path, rows):
        path = tmp_path / "ear.csv"
        path.write_text("frame,ear\n" + rows)
        with pytest.raises(DataError, match="consecutive integers"):
            read_ear_csv(path)


class TestFrequencyModel:
    def test_degenerate_fit(self):
        rates = np.full(10, np.exp(3.0))
        model = fit_lognormal(rates)
        assert model.mu_ln == pytest.approx(3.0, abs=1e-12)
        assert model.sigma_ln == pytest.approx(0.0, abs=1e-12)

    def test_fit_equals_moments_of_retained_samples(self):
        rng = np.random.default_rng(6)
        rates = rng.lognormal(3.5, 0.5, 5000)
        model = fit_lognormal(rates)
        kept = np.log(rates[rates <= 100.0])
        assert model.mu_ln == pytest.approx(kept.mean(), abs=1e-12)
        assert model.sigma_ln == pytest.approx(kept.std(), abs=1e-12)

    def test_recovery_from_large_sample(self):
        # estimator check without an effective cutoff; the default cutoff
        # drops ~2% of this law's mass and would bias mu by ~0.03
        rng = np.random.default_rng(77)
        samples = rng.lognormal(3.518, 0.532, 100_000)
        model = fit_lognormal(samples, max_rate=np.inf)
        assert model.mu_ln == pytest.approx(3.518, abs=0.01)
        assert model.sigma_ln == pytest.approx(0.532, abs=0.01)

    def test_high_rates_excluded(self):
        rates = np.array([30.0, 40.0, 150.0, 35.0])
        model = fit_lognormal(rates)
        expected = np.log([30.0, 40.0, 35.0])
        assert model.mu_ln == pytest.approx(expected.mean(), abs=1e-12)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_lognormal(np.array([30.0, 150.0]))

    @pytest.mark.parametrize("params", [(10.0, 0.532), (5.0, 0.0), (np.nan, 0.532),
                                        (3.518, np.inf), (3.518, 0.532, np.nan)],
                             ids=["mu-far-above-cutoff", "point-mass-above-cutoff", "nan-mu",
                                  "inf-sigma", "nan-max-rate"])
    def test_unsampleable_model_rejected(self, params):
        # truncated sampling redraws every rate above max_rate, so a model
        # with (almost) no mass below it would never finish a draw
        with pytest.raises(DataError):
            BlinkFrequencyModel(*params)

    def test_one_percent_of_mass_below_the_cutoff_is_enough(self):
        # P(ln rate <= ln 100) is Phi(-2.3) = 1.07% and Phi(-2.35) = 0.94%
        model = BlinkFrequencyModel(np.log(100.0) + 2.3 * 0.5, 0.5)
        assert sample_blink_times(model, 10.0, seed=0).size > 0
        with pytest.raises(DataError, match="1%"):
            BlinkFrequencyModel(np.log(100.0) + 2.35 * 0.5, 0.5)
        BlinkFrequencyModel(np.log(100.0), 0.0)  # a point mass at the cutoff is kept

    @pytest.mark.parametrize("max_rate", [100.0, 97.3, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11])
    def test_fit_at_the_cutoff_is_a_valid_model(self, max_rate, n):
        model = fit_lognormal(np.full(n, max_rate), max_rate)
        assert model.sigma_ln == pytest.approx(0.0, abs=1e-12)

    def test_json_roundtrip(self, tmp_path):
        model = BlinkFrequencyModel(3.1, 0.4, 90.0)
        path = tmp_path / "freq.json"
        model.save(path)
        with open(path, encoding="utf-8") as f:
            back = BlinkFrequencyModel(**json.load(f))
        assert (back.mu_ln, back.sigma_ln, back.max_rate) == (3.1, 0.4, 90.0)


class TestSampling:
    def test_deterministic_under_seed(self):
        model = BlinkFrequencyModel()
        a = sample_blink_times(model, 20.0, seed=42)
        b = sample_blink_times(model, 20.0, seed=42)
        assert np.array_equal(a, b)

    def test_median_of_raw_rates(self):
        model = BlinkFrequencyModel()
        rng = np.random.default_rng(20250810)
        raw = draw_rates(model, 100_000, rng, truncate=False)
        assert np.median(raw) == pytest.approx(np.exp(3.518), abs=0.5)

    def test_truncated_rates_capped(self):
        model = BlinkFrequencyModel()
        rng = np.random.default_rng(20250811)
        rates = draw_rates(model, 100_000, rng)
        assert rates.max() <= 100.0

    def test_truncated_mean_matches_quadrature_oracle(self):
        model = BlinkFrequencyModel()
        rng = np.random.default_rng(20250811)
        rates = draw_rates(model, 100_000, rng)

        def pdf(x):
            z = (np.log(x) - model.mu_ln) / model.sigma_ln
            return np.exp(-0.5 * z * z) / (x * model.sigma_ln * np.sqrt(2 * np.pi))

        num, _ = integrate.quad(lambda x: x * pdf(x), 1e-9, model.max_rate)
        den, _ = integrate.quad(pdf, 1e-9, model.max_rate)
        assert rates.mean() == pytest.approx(num / den, abs=1.0)

    def test_a_rate_drawn_as_zero_ends_the_blinks(self):
        # at sigma 1000 the first draw of seed 5 underflows to a rate of
        # 0.0, an infinite gap: no blink, and no division by zero
        model = BlinkFrequencyModel(sigma_ln=1000.0)
        assert draw_rates(model, 1, np.random.default_rng(5))[0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_blink_times(model, 10.0, seed=5).size == 0

    def test_different_seeds_differ(self):
        model = BlinkFrequencyModel()
        a = sample_blink_times(model, 60.0, seed=1)
        b = sample_blink_times(model, 60.0, seed=2)
        assert not np.array_equal(a, b)


class TestInjection:
    def test_profile_shape(self):
        c = blink_profile()
        assert len(c) == BLINK_SPAN
        assert c[0] == 0.0 and c[-1] == pytest.approx(0.0, abs=1e-15)
        assert c[6] == pytest.approx(1.0, abs=1e-15)

    def test_empty_start_list_is_identity(self):
        cmap = default_map()
        rng = np.random.default_rng(7)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (40, RIG_WIDTH)))
        out = inject_blinks(seq, [], cmap)
        assert np.array_equal(out.values, seq.values)

    def test_frames_outside_window_bitwise_unchanged(self):
        cmap = default_map()
        rng = np.random.default_rng(8)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (140, RIG_WIDTH)))
        out = inject_blinks(seq, [100], cmap)
        assert np.array_equal(out.values[:100], seq.values[:100])
        assert np.array_equal(out.values[113:], seq.values[113:])

    def test_center_frame_reaches_full_closure(self):
        cmap = default_map()
        rng = np.random.default_rng(9)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (40, RIG_WIDTH)))
        out = inject_blinks(seq, [10], cmap)
        for ch in cmap.eye_role_indices("lid_closure"):
            assert out.values[16, ch] == pytest.approx(cmap.entries[ch].vmax, abs=1e-12)

    def test_only_lid_channels_modified(self):
        cmap = default_map()
        rng = np.random.default_rng(10)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (60, RIG_WIDTH)))
        out = inject_blinks(seq, [5, 30], cmap)
        lids = set(cmap.eye_role_indices("lid_closure"))
        others = [i for i in range(RIG_WIDTH) if i not in lids]
        assert np.array_equal(out.values[:, others], seq.values[:, others])

    def test_overlapping_blinks_take_max_profile(self):
        cmap = default_map()
        seq = RigSequence(np.zeros((40, RIG_WIDTH)))
        ch = cmap.eye_role_indices("lid_closure")[0]
        single = inject_blinks(seq, [10], cmap).values[:, ch]
        double = inject_blinks(seq, [10, 13], cmap).values[:, ch]
        profile = blink_profile()
        expected = np.zeros(40)
        expected[10:23] = profile
        expected[13:26] = np.maximum(expected[13:26], profile)
        np.testing.assert_allclose(double, expected, atol=1e-12)
        assert np.all(double >= single - 1e-12)

    def test_truncated_at_sequence_end(self):
        cmap = default_map()
        seq = RigSequence(np.zeros((20, RIG_WIDTH)))
        out = inject_blinks(seq, [15], cmap)
        ch = cmap.eye_role_indices("lid_closure")[0]
        assert out.values[19, ch] == pytest.approx(blink_profile()[4], abs=1e-12)


class TestDetectorQuality:
    def test_f1_on_known_event_suite(self):
        # event-level scoring on the 200-trace corpus; an event counts as
        # found when a detection overlaps it
        clf = default_blink_classifier()
        suite = gen_blink_traces(seed=4202, n_traces=200, length=400)
        tp = fp = fn = 0
        for trace, truth in suite:
            events = detect_blinks(trace, clf)
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
        assert f1 >= 0.95
