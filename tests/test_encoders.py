"""Positional encoding and the content/emotion encoders."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from speechrig.encoders import (
    EncoderParams,
    encode_content,
    encode_emotion_table,
    leaky_relu,
    near_equal_blocks,
    positional_encoding,
)
from speechrig.errors import DataError
from speechrig.network import _one_blas_thread, build_model
from speechrig.rig import constant_timeline, validate_timeline
from test_golden_training import openblas_core


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

    @pytest.mark.parametrize("d_model", [0, -2])
    def test_width_not_positive_rejected(self, d_model):
        with pytest.raises(DataError):
            positional_encoding(4, d_model)

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_fewer_than_one_frame_rejected(self, n_frames):
        with pytest.raises(DataError):
            positional_encoding(n_frames, 8)


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


def _whole_product(features, params, positions):
    """``encode_content`` as one float64 product, then the adds in place."""
    out = np.asarray(features, np.float64) @ np.asarray(params.content_w, np.float64)
    out += params.content_b
    out += positions[:len(features)]
    return out


# Where the blocked product's bits were measured to equal the whole one's.
# Another numpy or OpenBLAS kernel set may round a block's product another
# way, so elsewhere the two are compared within PRODUCT_ATOL: about 100
# times the difference two orders of a 768-term float64 sum give here.
MEASURED_WITH = {"numpy": "2.4.6", "openblas_core": "SkylakeX"}
PRODUCT_ATOL = 1e-12


@functools.lru_cache(maxsize=None)
def _reference_width_params(d_model, dtype):
    """Encoder tensors at infer's feature width 768, in ``dtype``."""
    enc = build_model(768, d_model=d_model, n_layers=0, n_heads=2, seed=d_model).encoder
    return EncoderParams(**{k: np.asarray(v, dtype) for k, v in vars(enc).items()})


class TestContentProductBlocks:
    @pytest.mark.parametrize("rows_dtype, weights_dtype",
                             [(np.float32, np.float32), (np.float64, np.float64),
                              (np.float64, np.float32)], ids=["f32", "f64", "f64-rows-f32-w"])
    @pytest.mark.parametrize("d_model", [64, 130, 512])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 63, 64, 127, 128, 129, 257, 600, 601])
    def test_blocks_give_the_whole_products_bits(self, n_rows, d_model, rows_dtype,
                                                 weights_dtype):
        # float32 rows and weights as infer passes them, float64 as training
        # does, and a caller's float64 rows with a loaded model's float32
        # weights; 130 columns cross the column split, and 7 rows split by
        # columns would take OpenBLAS's small-product kernel. Both products
        # run at infer's one BLAS thread: more threads cut the whole one
        # into other blocks.
        params = _reference_width_params(d_model, weights_dtype)
        x = np.random.default_rng(n_rows).normal(0, 1, (n_rows, 768)).astype(rows_dtype)
        positions = positional_encoding(n_rows + 3, d_model, start=540)
        with _one_blas_thread():
            out = encode_content(x, params, positions)
            whole = _whole_product(x, params, positions)
        assert out.dtype == np.float64
        here = {"numpy": np.__version__, "openblas_core": openblas_core()}
        if here == MEASURED_WITH:
            assert np.array_equal(out, whole)
            return
        np.testing.assert_allclose(out, whole, rtol=0.0, atol=PRODUCT_ATOL)
        warnings.warn(f"the blocks' bits were measured with {MEASURED_WITH}, this run has "
                      f"{here}: checked within {PRODUCT_ATOL:g}, not the bits")

    def test_float64_takes_one_product_at_any_blas_thread_count(self):
        # training's float64 rows and weights are not cut into blocks, so
        # their bits are one product's at whatever thread count OpenBLAS
        # runs; blocks of 768 -> 130 at about 128 rows round otherwise at
        # two threads
        params = _reference_width_params(130, np.float64)
        x = np.random.default_rng(1).normal(0, 1, (128, 768))
        positions = positional_encoding(128, 130, start=540)
        assert np.array_equal(encode_content(x, params, positions),
                              _whole_product(x, params, positions))

    # The float64 output (n_rows x 512 x 8 B: 2.46 MB at 600 rows, 0.26 MB
    # at 64) plus one block's float64 features (at most 128 x 768 x 8 B,
    # 0.79 MB) and weights (768 x 128 x 8 B, 0.79 MB): at most 4.03 and
    # 1.44 MB. A float64 copy of all the rows (3.69 MB at 600) or of the
    # weights (3.15 MB) would break the bound. 64 rows are the fewest whose
    # columns are split.
    @pytest.mark.parametrize("n_rows, bound", [(600, 4.5e6), (64, 2.0e6)])
    def test_working_set_is_the_output_and_one_block(self, n_rows, bound):
        params = _reference_width_params(512, np.float32)
        x = np.random.default_rng(0).normal(0, 1, (n_rows, 768)).astype(np.float32)
        positions = positional_encoding(n_rows, 512, start=540)
        tracemalloc.start()
        try:
            encode_content(x, params, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{peak / 1e6:.2f} MB"

    @given(st.integers(0, 2000), st.integers(3, 300))
    def test_near_equal_blocks_cover_in_order(self, n, most):
        blocks = near_equal_blocks(n, most)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(e == s for (_, e), (s, _) in zip(blocks, blocks[1:]))
        sizes = [e - s for s, e in blocks]
        assert len(blocks) == max(1, -(-n // most))
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
        if n >= 2:
            assert min(sizes) >= 2, "a 1-row block takes the matrix-vector path"


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

