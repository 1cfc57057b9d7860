"""Least-squares smoothing coefficients, filtering, and clamping."""

import numpy as np
import pytest
import scipy.signal

from speechrig.errors import DataError
from speechrig.rig import RIG_WIDTH, RigSequence, default_map
from speechrig.smoothing import ORDER, WINDOW, clamp_sequence, savgol_coeffs, smooth_sequence


def _rig(values):
    out = np.zeros((values.shape[0], RIG_WIDTH))
    out[:, :values.shape[1]] = values
    return RigSequence(out)


class TestCoefficients:
    def test_window5_order2_classical_values(self):
        got = savgol_coeffs(5, 2)
        expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_window15_order3_center_weight(self):
        # closed form for the quadratic/cubic smoother: center weight is
        # (3m^2 + 3m - 1) / sum_i (3m^2 + 3m - 1 - 5 i^2) with m = 7
        got = savgol_coeffs(15, 3)
        m = 7
        top = 3 * m * m + 3 * m - 1
        denom = sum(top - 5 * i * i for i in range(-m, m + 1))
        assert got[7] == pytest.approx(top / denom, abs=1e-9)
        assert got[7] == pytest.approx(167.0 / 1105.0, abs=1e-9)

    @pytest.mark.parametrize("window,order", [(3, 1), (5, 2), (7, 3), (9, 4),
                                              (15, 3), (21, 2), (31, 5)])
    def test_weights_sum_to_one(self, window, order):
        assert savgol_coeffs(window, order).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("window,order", [(5, 2), (15, 3), (9, 4)])
    def test_matches_reference_implementation(self, window, order):
        # independent oracle: scipy's filter-design routine
        ours = savgol_coeffs(window, order)
        theirs = scipy.signal.savgol_coeffs(window, order, use="dot")
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(DataError):
            savgol_coeffs(4, 2)
        with pytest.raises(DataError):
            savgol_coeffs(5, 5)


class TestSmoothing:
    def test_constant_channel_unchanged(self):
        seq = _rig(np.full((40, 3), 0.7))
        out = smooth_sequence(seq)
        np.testing.assert_allclose(out.values, seq.values, atol=1e-12)

    def test_cubic_reproduced_on_interior(self):
        t = np.linspace(-1.0, 1.0, 60)
        seq = _rig((t ** 3)[:, None])
        out = smooth_sequence(seq)
        np.testing.assert_allclose(out.values[7:-7, 0], seq.values[7:-7, 0], atol=1e-9)

    def test_window_15_order_3(self):
        assert (WINDOW, ORDER) == (15, 3)
        rng = np.random.default_rng(5)
        seq = _rig(rng.normal(0, 1, (40, 2)))
        want = np.convolve(seq.values[:, 0], savgol_coeffs(15, 3)[::-1], mode="valid")
        np.testing.assert_allclose(smooth_sequence(seq).values[7:-7, 0], want, atol=1e-12)

    def test_single_frame_unchanged(self):
        seq = _rig(np.array([[0.3, -0.2]]))
        out = smooth_sequence(seq)
        assert np.array_equal(out.values, seq.values)

    def test_short_sequence_falls_back_to_smaller_window(self):
        rng = np.random.default_rng(0)
        seq = _rig(rng.normal(0, 1, (7, 2)))
        out = smooth_sequence(seq)
        assert len(out) == 7
        assert np.isfinite(out.values).all()

    def test_length_preserved(self):
        rng = np.random.default_rng(1)
        seq = _rig(rng.normal(0, 1, (100, 4)))
        assert len(smooth_sequence(seq)) == 100

    def test_filter_linearity(self):
        rng = np.random.default_rng(2)
        x = _rig(rng.normal(0, 1, (50, 3)))
        y = _rig(rng.normal(0, 1, (50, 3)))
        a, b = 0.7, -1.3
        lhs = smooth_sequence(RigSequence(a * x.values + b * y.values))
        rhs = a * smooth_sequence(x).values + b * smooth_sequence(y).values
        np.testing.assert_allclose(lhs.values, rhs, atol=1e-12)

    def test_shift_equivariance_on_interior(self):
        rng = np.random.default_rng(3)
        base = rng.normal(0, 1, 80)
        x = _rig(base[:, None])
        xs = _rig(np.roll(base, 5)[:, None])
        a = smooth_sequence(x).values[20:60, 0]
        b = smooth_sequence(xs).values[25:65, 0]
        np.testing.assert_allclose(b, a, atol=1e-12)


class TestClamp:
    def test_in_bounds_unchanged(self):
        cmap = default_map()
        rng = np.random.default_rng(4)
        seq = RigSequence(rng.uniform(-0.9, 0.9, (10, RIG_WIDTH)))
        out = clamp_sequence(seq, cmap)
        assert np.array_equal(out.values, seq.values)

    def test_out_of_bounds_clipped(self):
        cmap = default_map()
        values = np.zeros((3, RIG_WIDTH))
        values[1, 5] = 1.7
        values[2, 6] = -2.4
        out = clamp_sequence(RigSequence(values), cmap)
        assert out.values[1, 5] == 1.0
        assert out.values[2, 6] == -1.0

    def test_idempotent(self):
        cmap = default_map()
        rng = np.random.default_rng(5)
        seq = RigSequence(rng.uniform(-3, 3, (8, RIG_WIDTH)))
        once = clamp_sequence(seq, cmap)
        twice = clamp_sequence(once, cmap)
        assert np.array_equal(once.values, twice.values)
