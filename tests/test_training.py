"""Loss, schedule, optimizer, synthetic data, and training-loop contracts.

The full desk-scale overfit lives in the acceptance suite; here the loop
is exercised on short runs.
"""

import warnings

import numpy as np
import pytest

import speechrig.encoders as encoders
import speechrig.network as network
import speechrig.training as training
from speechrig.errors import DataError, NumericError
from speechrig.network import build_model, mse_and_grad, named_parameters
from speechrig.training import (
    Adam,
    ClipExample,
    TrainConfig,
    gen_synthetic,
    load_manifest,
    steplr,
    train,
    write_loss_csv,
)


def desk_model(seed=5, feature_dim=8):
    return build_model(feature_dim, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                       output_dim=174, dropout=0.0, seed=seed)


def mse_loss(pred, target):
    return mse_and_grad(pred, target)[0]


class TestMseLoss:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).normal(0, 1, (6, 174))
        assert mse_loss(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros((5, 174))
        assert mse_loss(x + 0.1, x) == pytest.approx(0.01, abs=1e-15)

    def test_hand_computed_value(self):
        pred = np.array([[0.0, 0.0]])
        target = np.array([[3.0, 4.0]])
        assert mse_loss(pred, target) == pytest.approx(12.5)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            mse_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestStepLR:
    def test_flat_before_first_step(self):
        for epoch in (0, 1, 50, 99):
            assert steplr(1e-4, 100, 0.995, epoch) == 1e-4

    def test_first_decay_at_step(self):
        assert steplr(1e-4, 100, 0.995, 100) == pytest.approx(1e-4 * 0.995, rel=1e-15)

    def test_closed_form_value(self):
        assert steplr(1e-4, 100, 0.995, 250) == pytest.approx(1e-4 * 0.995 ** 2, rel=1e-12)

    def test_piecewise_constant_with_jumps_at_multiples(self):
        lrs = [steplr(1.0, 10, 0.5, e) for e in range(35)]
        for e in range(35):
            assert lrs[e] == 0.5 ** (e // 10)
        jumps = [e for e in range(1, 35) if lrs[e] != lrs[e - 1]]
        assert jumps == [10, 20, 30]

    def test_negative_epoch_rejected(self):
        with pytest.raises(DataError):
            steplr(1e-4, 100, 0.995, -1)


class TestSyntheticData:
    def test_same_seed_identical(self):
        a = gen_synthetic(7, 5, (10, 20), 8)
        b = gen_synthetic(7, 5, (10, 20), 8)
        assert len(a) == len(b) == 5
        for x, y in zip(a.items, b.items):
            assert x.emotion == y.emotion
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.target, y.target)

    def test_targets_follow_documented_transform(self):
        data = gen_synthetic(8, 4, (10, 15), 8)
        for item in data.items:
            expected = np.tanh(item.features @ data.affine
                               + data.emotion_offsets[item.emotion])
            assert np.array_equal(item.target, expected)

    def test_emotion_offsets_distinct(self):
        data = gen_synthetic(9, 2, (10, 12), 8)
        for a in range(7):
            for b in range(a + 1, 7):
                assert not np.allclose(data.emotion_offsets[a], data.emotion_offsets[b])

    def test_sizes_and_bounds(self):
        data = gen_synthetic(10, 32, (40, 80), 16)
        assert len(data) == 32
        for item in data.items:
            assert 40 <= item.features.shape[0] <= 80
            assert np.all(np.abs(item.target) < 1.0)

    def test_bad_args(self):
        with pytest.raises(DataError):
            gen_synthetic(0, 0, (10, 20), 8)
        with pytest.raises(DataError):
            gen_synthetic(0, 1, (20, 10), 8)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        model = desk_model()
        before = model.flat.copy()
        opt = Adam(model.flat)
        opt.step(model.flat, np.zeros_like(model.flat), lr=1e-3)
        assert np.array_equal(model.flat, before)

    def test_zero_lr_is_a_noop(self):
        model = desk_model()
        before = model.flat.copy()
        rng = np.random.default_rng(1)
        grads = rng.normal(0, 1, model.flat.shape)
        opt = Adam(model.flat)
        opt.step(model.flat, grads, lr=0.0)
        assert np.array_equal(model.flat, before)

    def test_step_updates_every_tensor_view(self):
        model = desk_model()
        before = {n: p.copy() for n, p in named_parameters(model)}
        opt = Adam(model.flat)
        opt.step(model.flat, np.ones_like(model.flat), lr=1e-3)
        for n, p in named_parameters(model):
            assert not np.array_equal(p, before[n]), n
        np.testing.assert_allclose(model.head_w, before["head_w"] - 1e-3, rtol=0, atol=1e-10)


class TestTrainLoop:
    def test_zero_lr_run_leaves_weights_bitwise_unchanged(self):
        data = gen_synthetic(3, 4, (8, 12), 8)
        model = desk_model()
        before = {n: p.copy() for n, p in named_parameters(model)}
        res = train(model, data, TrainConfig(lr0=0.0, epochs=3, batch=2, seed=0))
        for n, p in named_parameters(model):
            assert np.array_equal(p, before[n]), n
        losses = [loss for _, _, loss in res.history]
        assert losses[0] == losses[1] == losses[2]

    def test_identical_seeds_identical_curves(self):
        data = gen_synthetic(4, 4, (8, 12), 8)
        r1 = train(desk_model(), data, TrainConfig(lr0=1e-3, epochs=4, batch=2, seed=9))
        r2 = train(desk_model(), data, TrainConfig(lr0=1e-3, epochs=4, batch=2, seed=9))
        assert r1.history == r2.history

    def test_loss_decreases_on_short_run(self):
        data = gen_synthetic(5, 8, (10, 20), 8)
        res = train(desk_model(), data, TrainConfig(lr0=3e-3, epochs=60, batch=4, seed=2))
        assert res.history[-1][2] < 0.5 * res.history[0][2]

    def test_no_sustained_divergence(self):
        # the curve may wiggle batch to batch but must stay near its
        # running best rather than climbing away from it
        data = gen_synthetic(15, 8, (10, 20), 8)
        res = train(desk_model(), data, TrainConfig(lr0=3e-3, epochs=200, batch=4, seed=3))
        losses = np.array([loss for _, _, loss in res.history])
        running_min = np.minimum.accumulate(losses)
        assert np.all(losses[50:] <= 3.0 * running_min[50:])
        assert losses[-1] <= 1.5 * running_min[-1]

    def test_lr_follows_schedule(self):
        # 101 epochs: the lr steps down by GAMMA once, at epoch STEP_SIZE = 100
        data = gen_synthetic(6, 2, (4, 5), 8)
        cfg = TrainConfig(lr0=1e-3, epochs=101, batch=2, seed=0)
        res = train(desk_model(), data, cfg)
        assert [lr for _, lr, _ in res.history] == [1e-3] * 100 + [1e-3 * 0.995]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        data = gen_synthetic(7, 2, (8, 10), 8)
        model = desk_model()
        model.head_w[:] = 1e200  # squared error overflows on the first epoch
        with pytest.raises(NumericError, match="diverged|non-finite"):
            train(model, data, TrainConfig(lr0=1e-3, epochs=2, batch=2, seed=0))

    def test_divergence_raises_no_numpy_warning(self):
        data = gen_synthetic(7, 2, (8, 10), 8)
        model = desk_model()
        model.head_w[:] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here instead
            with pytest.raises(NumericError):
                train(model, data, TrainConfig(lr0=1e-3, epochs=2, batch=2, seed=0))

    def test_non_finite_weights_after_the_last_step_abort(self):
        # no forward pass follows the last step, so its check sees nothing
        data = gen_synthetic(1, 2, (8, 12), 8)
        for item in data.items:
            item.target *= 1e4  # gradients above 2, so lr * gradient overflows
        with pytest.raises(NumericError, match="last step of epoch 0: non-finite weights"):
            train(desk_model(), data, TrainConfig(lr0=1e308, epochs=1, batch=2, seed=0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(desk_model(), [], TrainConfig(epochs=1))

    def test_clip_without_frames_rejected(self):
        data = gen_synthetic(8, 2, (8, 10), 8)
        data.items[1] = ClipExample(np.zeros((0, 8)), 2, np.zeros((0, 174)))
        with pytest.raises(DataError, match="clip 1 has no frames"):
            train(desk_model(), data, TrainConfig(epochs=1))

    def test_no_state_carries_from_one_call_to_the_next(self):
        # a second run on longer clips gets its own table and scratch
        model = desk_model()
        short = train(model, gen_synthetic(9, 2, (4, 5), 8), TrainConfig(lr0=1e-3, epochs=2, batch=2))
        long = train(model, gen_synthetic(9, 2, (30, 40), 8), TrainConfig(lr0=1e-3, epochs=2, batch=2))
        assert np.isfinite([short.final_loss, long.final_loss]).all()
        for module in (training, network, encoders):
            assert not any(isinstance(v, np.ndarray) for v in vars(module).values())

    def test_feature_width_mismatch_rejected(self):
        data = gen_synthetic(8, 2, (8, 10), 12)
        with pytest.raises(DataError, match="feature width"):
            train(desk_model(feature_dim=8), data, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(DataError):
            TrainConfig(lr0=-1e-3)


class TestArtifacts:
    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [(0, 1e-3, 0.5), (1, 1e-3, 0.25)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert lines[1].startswith("0,0.001,")

    def test_manifest_roundtrip(self, tmp_path):
        import json

        from speechrig.features import FeatureSequence, write_feature_file
        from speechrig.rig import RigSequence, write_rig_csv

        rng = np.random.default_rng(11)
        feats = FeatureSequence(rng.normal(0, 1, (50, 8)).astype(np.float32), 50.0)
        write_feature_file(tmp_path / "f.emof", feats)
        target = RigSequence(rng.uniform(-1, 1, (60, 174)))
        write_rig_csv(tmp_path / "t.csv", target)
        manifest = {"items": [{"features": "f.emof", "target": "t.csv", "emotion": "happy"}]}
        (tmp_path / "m.json").write_text(json.dumps(manifest))

        items = load_manifest(tmp_path / "m.json")
        assert len(items) == 1
        assert items[0].emotion == 1
        assert items[0].features.shape == (60, 8)  # resampled 50 -> 60 Hz
        assert items[0].target.shape == (60, 174)

    @pytest.mark.parametrize("emotion, label", [("sad", 2), ("3", 3), (4, 4)])
    def test_manifest_emotion_is_a_name_or_an_integer(self, tmp_path, emotion, label):
        import json

        from speechrig.features import FeatureSequence, write_feature_file
        from speechrig.rig import RigSequence, write_rig_csv

        write_feature_file(tmp_path / "f.emof", FeatureSequence(np.ones((60, 4), np.float32), 60.0))
        write_rig_csv(tmp_path / "t.csv", RigSequence(np.zeros((60, 174))))
        (tmp_path / "m.json").write_text(json.dumps(
            {"items": [{"features": "f.emof", "target": "t.csv", "emotion": emotion}]}))
        assert load_manifest(tmp_path / "m.json")[0].emotion == label

    def test_manifest_length_mismatch_rejected(self, tmp_path):
        import json

        from speechrig.features import FeatureSequence, write_feature_file
        from speechrig.rig import RigSequence, write_rig_csv

        rng = np.random.default_rng(12)
        feats = FeatureSequence(rng.normal(0, 1, (50, 8)).astype(np.float32), 50.0)
        write_feature_file(tmp_path / "f.emof", feats)
        write_rig_csv(tmp_path / "t.csv", RigSequence(np.zeros((59, 174))))
        (tmp_path / "m.json").write_text(json.dumps(
            {"items": [{"features": "f.emof", "target": "t.csv", "emotion": 0}]}))
        with pytest.raises(DataError, match="frames"):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("emotion", [[1], 1.5, None, True])
    def test_manifest_emotion_neither_name_nor_integer_rejected(self, tmp_path, emotion):
        import json

        (tmp_path / "m.json").write_text(json.dumps(
            {"items": [{"features": "f.emof", "target": "t.csv", "emotion": emotion}]}))
        with pytest.raises(DataError, match=r"m\.json: item 0: emotion"):
            load_manifest(tmp_path / "m.json")
