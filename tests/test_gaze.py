"""Gaze track sampling and injection."""

import numpy as np
import pytest

from speechrig.errors import DataError
from speechrig.gaze import RADIUS, GazeTrack, inject_gaze, sample_gaze_track, track_values
from speechrig.rig import RIG_WIDTH, RigSequence, default_map


def _long_track(n_keyframes=10_500, seed=314):
    # enough frames that the sampler emits > n_keyframes keyframes
    track = sample_gaze_track(n_frames=50 * n_keyframes, seed=seed)
    assert len(track.keyframes) >= n_keyframes
    return track


class TestSampler:
    def test_deterministic_under_seed(self):
        a = sample_gaze_track(2000, seed=5)
        b = sample_gaze_track(2000, seed=5)
        assert np.array_equal(a.keyframes, b.keyframes)

    def test_different_seeds_differ(self):
        a = sample_gaze_track(2000, seed=5)
        b = sample_gaze_track(2000, seed=6)
        assert not np.array_equal(a.keyframes, b.keyframes)

    def test_noncenter_magnitudes_in_radius_band(self):
        track = _long_track()
        hv = track.keyframes[1:, 1:]
        mags = np.hypot(hv[:, 0], hv[:, 1])
        off = mags > 0
        assert off.any()
        assert mags[off].min() >= 0.1 * (1 - 1e-12)
        assert mags[off].max() <= 0.2 * (1 + 1e-12)

    def test_center_fraction_near_configured_probability(self):
        track = _long_track()
        hv = track.keyframes[1:, 1:]  # skip the fixed starting keyframe
        frac = np.mean((hv == 0.0).all(axis=1))
        assert 0.385 <= frac <= 0.415

    def test_keyframe_gaps_in_interval_range(self):
        track = _long_track()
        gaps = np.diff(track.keyframes[:, 0])
        assert gaps.min() >= 15
        assert gaps.max() <= 45

    def test_single_frame_clip(self):
        track = sample_gaze_track(1, seed=0)
        assert len(track.keyframes) == 1
        assert track.keyframes[0].tolist() == [0.0, 0.0, 0.0]

    def test_track_validation(self):
        with pytest.raises(DataError):
            GazeTrack(np.array([[0, 0, 0], [0, 0.1, 0.1]]))  # non-increasing frames


class TestInjection:
    def test_single_center_keyframe_zeroes_gaze_channels(self):
        cmap = default_map()
        rng = np.random.default_rng(1)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (30, RIG_WIDTH)))
        track = GazeTrack(np.array([[0.0, 0.0, 0.0]]))
        out = inject_gaze(seq, track, cmap)
        for ch in cmap.eye_role_indices("gaze_horizontal"):
            assert np.all(out.values[:, ch] == 0.0)
        for ch in cmap.eye_role_indices("gaze_vertical"):
            assert np.all(out.values[:, ch] == 0.0)

    def test_midpoint_of_linear_segment(self):
        cmap = default_map()
        seq = RigSequence(np.zeros((12, RIG_WIDTH)))
        track = GazeTrack(np.array([[0.0, 0.0, 0.0], [10.0, 0.2, 0.0]]))
        out = inject_gaze(seq, track, cmap)
        ch = cmap.eye_role_indices("gaze_horizontal")[0]
        assert out.values[5, ch] == pytest.approx(0.1, abs=1e-12)

    def test_non_gaze_channels_bitwise_unchanged(self):
        cmap = default_map()
        rng = np.random.default_rng(2)
        seq = RigSequence(rng.uniform(-0.5, 0.5, (40, RIG_WIDTH)))
        track = sample_gaze_track(40, seed=3)
        out = inject_gaze(seq, track, cmap)
        gaze = set(cmap.eye_role_indices("gaze_horizontal")) | \
            set(cmap.eye_role_indices("gaze_vertical"))
        others = [i for i in range(RIG_WIDTH) if i not in gaze]
        assert np.array_equal(out.values[:, others], seq.values[:, others])

    def test_conjugate_eyes_receive_identical_values(self):
        cmap = default_map()
        seq = RigSequence(np.zeros((200, RIG_WIDTH)))
        track = sample_gaze_track(200, seed=4)
        out = inject_gaze(seq, track, cmap)
        h = cmap.eye_role_indices("gaze_horizontal")
        v = cmap.eye_role_indices("gaze_vertical")
        assert len(h) == 2 and len(v) == 2
        assert np.array_equal(out.values[:, h[0]], out.values[:, h[1]])
        assert np.array_equal(out.values[:, v[0]], out.values[:, v[1]])

    def test_interpolated_magnitude_never_exceeds_radius_max(self):
        # convexity: linear interpolation between in-disk points stays in
        # the disk; checked over many sampled tracks
        for seed in range(8):
            track = sample_gaze_track(3000, seed=seed)
            dense = track_values(track, 3000)
            mags = np.hypot(dense[:, 0], dense[:, 1])
            assert mags.max() <= RADIUS[1] * (1 + 1e-12)
