"""Positional encoding and the content/emotion encoders."""

import tracemalloc

import numpy as np
import pytest

from speechrig.encoders import (
    EncoderParams,
    encode_content,
    encode_emotion_table,
    leaky_relu,
    positional_encoding,
)
from speechrig.errors import DataError
from speechrig.network import build_model
from speechrig.rig import constant_timeline, validate_timeline


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        pe = positional_encoding(3, 8)
        assert np.array_equal(pe[0], np.array([0.0, 1.0] * 4))

    def test_position_one_values(self):
        pe = positional_encoding(2, 512)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)

    def test_formula_at_sampled_positions(self):
        rng = np.random.default_rng(0)
        pe = positional_encoding(300, 512)
        for _ in range(1000):
            pos = int(rng.integers(0, 300))
            i = int(rng.integers(0, 256))
            angle = pos / 10000.0 ** (2 * i / 512)
            assert pe[pos, 2 * i] == pytest.approx(np.sin(angle), abs=1e-6)
            assert pe[pos, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-6)

    def test_entries_bounded(self):
        pe = positional_encoding(200, 64)
        assert np.all(pe <= 1.0) and np.all(pe >= -1.0)

    def test_cache_matches_fresh_recomputation(self):
        cached = positional_encoding(64, 32)
        pos = np.arange(64, dtype=np.float64)[:, None]
        two_i = np.arange(0, 32, 2, dtype=np.float64)
        angles = pos / (10000.0 ** (two_i / 32))[None, :]
        fresh = np.empty((64, 32))
        fresh[:, 0::2] = np.sin(angles)
        fresh[:, 1::2] = np.cos(angles)
        assert np.array_equal(cached, fresh)

    def test_offset_rows_equal_the_full_table_slice(self):
        full = positional_encoding(3600, 512)
        for start, n in ((0, 600), (540, 600), (3060, 540), (1, 1)):
            assert np.array_equal(positional_encoding(n, 512, start=start), full[start:start + n])

    def test_no_table_outlives_its_call(self):
        # a table kept for reuse would hold 600 x 512 x 8 B = 2.46 MB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            positional_encoding(600, 512, start=540)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024, f"{(after - before) / 1e6:.2f} MB kept"

    def test_odd_width_rejected(self):
        with pytest.raises(DataError):
            positional_encoding(4, 7)


def _init_params(feature_dim, d_model, seed):
    """The encoder tensors of a freshly initialized model."""
    return build_model(feature_dim, d_model=d_model, n_layers=0, seed=seed).encoder


def _zero_params(feature_dim=6, d_model=8):
    return EncoderParams(
        content_w=np.zeros((feature_dim, d_model)),
        content_b=np.zeros(d_model),
        emotion_embed=np.zeros((7, d_model)),
        emotion_w1=np.zeros((d_model, d_model)),
        emotion_b1=np.zeros(d_model),
        emotion_w2=np.zeros((d_model, d_model)),
        emotion_b2=np.zeros(d_model),
    )


class TestContentEncoder:
    def test_zero_features_zero_bias_give_pe(self):
        params = _zero_params()
        # the first rows of a longer table are added
        out = encode_content(np.zeros((5, 6)), params, positional_encoding(7, 8))
        assert np.array_equal(out, positional_encoding(5, 8))

    def test_single_frame_gets_pos_zero_row(self):
        params = _zero_params(feature_dim=8, d_model=8)
        params.content_w[:] = np.eye(8)
        feats = np.arange(8, dtype=float)[None, :]
        out = encode_content(feats, params, positional_encoding(1, 8))
        assert np.allclose(out[0], feats[0] + np.array([0.0, 1.0] * 4))

    def test_linear_in_features_before_pe(self):
        rng = np.random.default_rng(1)
        params = _init_params(6, 8, seed=1)
        params.content_b[:] = 0.0
        a = rng.normal(0, 1, (4, 6))
        b = rng.normal(0, 1, (4, 6))
        pe = positional_encoding(4, 8)
        lhs = encode_content(a + b, params, pe) - pe
        rhs = (encode_content(a, params, pe) - pe) + (encode_content(b, params, pe) - pe)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = _zero_params(feature_dim=6)
        with pytest.raises(DataError):
            encode_content(np.zeros((4, 5)), params, positional_encoding(4, 8))

    def test_pos_offset_slices_global_table(self):
        rng = np.random.default_rng(2)
        params = _init_params(3, 8, seed=2)
        feats = rng.normal(0, 1, (10, 3))
        whole = encode_content(feats, params, positional_encoding(10, 8))
        tail = encode_content(feats[4:], params, positional_encoding(6, 8, start=4))
        assert np.array_equal(whole[4:], tail)


class TestEmotionEncoder:
    def test_zero_parameters_give_zero_vector(self):
        params = _zero_params()
        assert np.array_equal(encode_emotion_table(params)[3], np.zeros(8))

    def test_distinct_labels_distinct_outputs(self):
        params = _init_params(6, 8, seed=3)
        table = encode_emotion_table(params)
        for a in range(7):
            for b in range(a + 1, 7):
                assert not np.allclose(table[a], table[b])

    def test_leaky_slope_value(self):
        assert leaky_relu(np.array([-1.0]))[0] == pytest.approx(-0.2, abs=1e-15)
        assert leaky_relu(np.array([2.5]))[0] == 2.5

    def test_label_out_of_range(self):
        # labels reach the table only through a checked timeline
        with pytest.raises(DataError):
            constant_timeline(7, 3)
        with pytest.raises(DataError):
            validate_timeline([0, 7, 1], 3)
        with pytest.raises(DataError):
            validate_timeline([0, -1, 1], 3)

    def test_pure_function_of_label(self):
        params = _init_params(6, 8, seed=4)
        assert np.array_equal(encode_emotion_table(params)[2], encode_emotion_table(params)[2])

