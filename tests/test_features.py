"""Feature file format, fallback extraction, and resampling contracts."""

import re
import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speechrig.features as features
from speechrig.errors import DataError, FeatureFileError
from speechrig.features import (
    N_COEFFS,
    N_MELS,
    AudioClip,
    FeatureSequence,
    _dct_ii,
    extract_fallback_features,
    load_features,
    read_feature_csv,
    read_feature_file,
    read_wav,
    resample_features,
    resample_rows,
    resampled_frames,
    write_feature_file,
)
from speechrig.network import _chunk_bounds


class TestFeatureFile:
    def test_header_echo(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = FeatureSequence(rng.normal(0, 1, (50, 768)).astype(np.float32), 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        back = read_feature_file(path)
        assert back.n_frames == 50 and back.n_features == 768
        assert back.rate_hz == 50.0

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = FeatureSequence(rng.normal(0, 1, (13, 7)).astype(np.float32), 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        back = read_feature_file(path)
        assert np.array_equal(back.data, seq.data)
        path2 = tmp_path / "g.emof"
        write_feature_file(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        seq = FeatureSequence(np.ones((4, 3), dtype=np.float32), 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FeatureFileError, match="truncated"):
            read_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a header that under-counts its rows must not drop the rest silently
        seq = FeatureSequence(np.ones((5, 8), dtype=np.float32), 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FeatureFileError, match="8 bytes after"):
            read_feature_file(path)

    def test_non_finite_header_rate_rejected(self, tmp_path):
        path = tmp_path / "f.emof"
        write_feature_file(path, FeatureSequence(np.ones((4, 3), dtype=np.float32), 50.0))
        blob = bytearray(path.read_bytes())
        blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="feature rate"):
            read_feature_file(path)

    @pytest.mark.parametrize("rows, cols", [(5, 0), (0, 3)])
    def test_empty_header_dims_rejected_with_path(self, tmp_path, rows, cols):
        path = tmp_path / "f.emof"
        path.write_bytes(struct.pack("<4sIIIf", b"EMOF", 1, rows, cols, 50.0))
        with pytest.raises(FeatureFileError, match=f"{rows}x{cols}") as exc:
            read_feature_file(path)
        assert str(path) in str(exc.value)

    def test_zero_width_matrix_rejected(self):
        with pytest.raises(DataError, match="F >= 1"):
            FeatureSequence(np.zeros((5, 0), dtype=np.float32), 50.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.emof"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(FeatureFileError, match="magic"):
            read_feature_file(path)

    def test_nan_payload_rejected(self, tmp_path):
        data = np.ones((4, 3), dtype=np.float32)
        seq = FeatureSequence(data, 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        blob = bytearray(path.read_bytes())
        blob[20:24] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="non-finite"):
            read_feature_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_named_with_its_path(self, tmp_path, bad):
        data = np.ones((4, 3), dtype=np.float32)
        data[3, 2] = bad
        path = tmp_path / "f.emof"
        write_feature_file(path, FeatureSequence(np.ones((4, 3)), 50.0))
        path.write_bytes(path.read_bytes()[:20] + data.astype("<f4").tobytes())
        with pytest.raises(FeatureFileError, match=f"^{re.escape(str(path))}: .*non-finite"):
            read_feature_file(path)

    def test_load_holds_one_copy_of_the_matrix(self, tmp_path):
        # the 60 s benchmark clip's size: 3000 x 768 at 50 Hz
        seq = FeatureSequence(np.random.default_rng(1).normal(0, 1, (3000, 768)), 50.0)
        path = tmp_path / "f.emof"
        write_feature_file(path, seq)
        tracemalloc.start()
        try:
            back = read_feature_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, seq.data)
        assert peak <= 1.2 * seq.data.nbytes

    def test_csv_import(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        seq = read_feature_csv(path, 50.0)
        assert seq.data.shape == (2, 2)
        assert seq.rate_hz == 50.0
        # load_features dispatches on magic
        assert load_features(path).data.shape == (2, 2)


class TestFallbackExtractor:
    def test_one_second_at_16k_gives_50_frames(self):
        rng = np.random.default_rng(2)
        clip = AudioClip(rng.uniform(-0.5, 0.5, 16000), 16000)
        seq = extract_fallback_features(clip)
        assert seq.n_frames == 50
        assert seq.rate_hz == 50.0
        assert seq.n_features == N_COEFFS

    def test_silence_gives_identical_frames(self):
        clip = AudioClip(np.zeros(8000), 16000)
        seq = extract_fallback_features(clip)
        assert np.all(seq.data == seq.data[0])

    def test_amplitude_scaling_shifts_only_coefficient_zero(self):
        # Broadband noise keeps every mel band far above the log floor, so
        # doubling the waveform shifts the log spectrum uniformly: only the
        # DC cepstral coefficient moves.
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.4, 0.4, 16000)
        a = extract_fallback_features(AudioClip(samples, 16000))
        b = extract_fallback_features(AudioClip(2.0 * samples, 16000))
        diff = b.data.astype(np.float64) - a.data.astype(np.float64)
        shift = np.log(4.0) * np.sqrt(N_MELS)
        np.testing.assert_allclose(diff[:, 0], shift, atol=1e-4)
        np.testing.assert_allclose(diff[:, 1:], 0.0, atol=1e-4)

    def test_spectrum_matches_naive_dft(self):
        # One frame of the pipeline's FFT against an explicit DFT sum.
        rng = np.random.default_rng(4)
        frame = rng.uniform(-1, 1, 640) * np.hanning(640)
        n_fft = 1024
        padded = np.concatenate([frame, np.zeros(n_fft - frame.size)])
        k = np.arange(n_fft // 2 + 1)
        n = np.arange(n_fft)
        naive = (padded[None, :] * np.exp(-2j * np.pi * k[:, None] * n[None, :] / n_fft)).sum(axis=1)
        fast = np.fft.rfft(frame, n=n_fft)
        np.testing.assert_allclose(fast, naive, atol=1e-8)

    @pytest.mark.parametrize("n_coeffs", [26, 40, 50])
    def test_dct_matches_scipy(self, n_coeffs):
        fft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(5).normal(0.0, 3.0, (1000, 40))
        want = fft.dct(x, type=2, norm="ortho", axis=1)[:, :n_coeffs]
        got = _dct_ii(x, n_coeffs)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_too_short_clip_rejected(self):
        clip = AudioClip(np.zeros(100), 16000)
        with pytest.raises(DataError, match="too short"):
            extract_fallback_features(clip)

    def test_silence_gives_the_log_floor(self):
        # log(0 + 1e-10) in every band; the orthonormal DCT-II of a constant
        # c over N_MELS points is c * sqrt(N_MELS), then zeros
        seq = extract_fallback_features(AudioClip(np.zeros(8000), 16000))
        np.testing.assert_allclose(seq.data[:, 0], np.log(1e-10) * np.sqrt(N_MELS), rtol=1e-6)
        np.testing.assert_allclose(seq.data[:, 1:], 0.0, atol=1e-4)

    def test_each_frame_is_hann_windowed(self):
        # frame t covers samples [t*hop, t*hop + 2*hop) and a Hann window is 0
        # at its first sample: an impulse at sample 10*hop reaches frame 9 only
        hop = 320
        samples = np.zeros(8000)
        samples[10 * hop] = 0.9
        got = extract_fallback_features(AudioClip(samples, 16000)).data
        silence = extract_fallback_features(AudioClip(np.zeros(8000), 16000)).data
        assert np.array_equal(np.delete(got, 9, axis=0), np.delete(silence, 9, axis=0))
        assert not np.array_equal(got[9], silence[9])

    @pytest.mark.parametrize("band", [8, 20, 32])
    def test_pure_tone_peaks_in_the_band_holding_its_frequency(self, monkeypatch, band):
        # band m peaks at mel point m + 1 of N_MELS + 2 spaced evenly on the
        # HTK mel scale from 0 Hz to Nyquist; every coefficient is kept, and
        # the orthonormal DCT-II is undone by its transpose
        rate = 16000
        top = 2595.0 * np.log10(1.0 + rate / 2 / 700.0)
        hz = 700.0 * (10.0 ** (top * (band + 1) / (N_MELS + 1) / 2595.0) - 1.0)
        tone = 0.5 * np.sin(2 * np.pi * hz * np.arange(rate) / rate)
        monkeypatch.setattr(features, "N_COEFFS", N_MELS)
        coeffs = extract_fallback_features(AudioClip(tone, rate)).data.astype(np.float64)
        n = np.arange(N_MELS)
        basis = np.sqrt(2.0 / N_MELS) * np.cos(np.pi * n[:, None] * (2 * n + 1) / (2 * N_MELS))
        basis[0] /= np.sqrt(2.0)
        log_mel = coeffs @ basis
        assert (log_mel.argmax(axis=1) == band).all()


def _write_wav(path, pcm, channels):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(pcm.dtype.itemsize)
        w.setframerate(16000)
        w.writeframes(pcm.tobytes())
    return path


class TestWavReader:
    def test_stereo_reads_as_the_mono_file_of_its_channel_mean(self, tmp_path):
        rng = np.random.default_rng(8)
        left = rng.integers(-20000, 20000, 4000)
        right = left + 2 * rng.integers(-5000, 5000, 4000)  # an integer mean
        stereo = _write_wav(tmp_path / "s.wav", np.stack([left, right], 1).astype("<i2"), 2)
        mono = _write_wav(tmp_path / "m.wav", ((left + right) // 2).astype("<i2"), 1)
        a, b = read_wav(stereo), read_wav(mono)
        assert a.sample_rate == b.sample_rate == 16000
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("pcm, want", [
        (np.array([0, 128, 255], np.uint8), [-1.0, 0.0, 127 / 128]),
        (np.array([-32768, 0, 32767], "<i2"), [-1.0, 0.0, 32767 / 32768])])
    def test_extreme_samples_scale_to_the_documented_values(self, tmp_path, pcm, want):
        assert read_wav(_write_wav(tmp_path / "x.wav", pcm, 1)).samples.tolist() == want


def _wide_rows(rng, rows, cols):
    """Rows of either sign whose magnitudes alternate between about 1e6 and
    1e-6, the last row small: the difference of the last two rounds in float64."""
    scale = np.where((rows - 1 - np.arange(rows)) % 2, 1e6, 1e-6)[:, None]
    return scale * rng.choice([-1.0, 1.0], (rows, cols)) * rng.uniform(1.0, 10.0, (rows, cols))


class TestResampling:
    def test_constant_matrix_reproduced_exactly(self):
        seq = FeatureSequence(np.full((50, 3), 0.7, dtype=np.float32), 50.0)
        out = resample_features(seq, 60.0)
        assert out.n_frames == 60
        assert np.all(out.data == np.float32(0.7))

    def test_50_frames_at_50hz_give_60(self):
        rng = np.random.default_rng(5)
        seq = FeatureSequence(rng.normal(0, 1, (50, 4)).astype(np.float32), 50.0)
        assert resample_features(seq, 60.0).n_frames == 60

    def test_linear_column_interpolates_exactly(self):
        ramp = np.arange(50, dtype=np.float32)[:, None]
        seq = FeatureSequence(ramp, 50.0)
        out = resample_features(seq, 60.0)
        expected = (np.arange(60) * 49 / 59).astype(np.float32)
        assert np.array_equal(out.data[:, 0], expected)

    def test_identity_at_equal_rates(self):
        rng = np.random.default_rng(6)
        for data, rate in [(rng.normal(0, 1, (37, 5)), 50.0), (_wide_rows(rng, 200, 6), 60.0),
                           (rng.normal(0, 1, (1, 5)), 60.0)]:
            seq = FeatureSequence(data.astype(np.float32), rate)
            assert resampled_frames(seq, rate) == seq.n_frames
            out = resample_features(seq, rate)
            assert np.array_equal(out.data, seq.data)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(7)
        signed = rng.normal(0, 1, (20, 4))
        signed[[0, -1]] = -0.0  # the sign bit is carried over too
        for data in (rng.normal(0, 1, (23, 6)), _wide_rows(rng, 200, 6), signed):
            seq = FeatureSequence(data.astype(np.float32), 50.0)
            out = resample_features(seq, 60.0).data.view(np.uint32)
            assert np.array_equal(out[0], seq.data[0].view(np.uint32))
            assert np.array_equal(out[-1], seq.data[-1].view(np.uint32))

    def test_envelope_preserved(self):
        rng = np.random.default_rng(8)
        seq = FeatureSequence(rng.normal(0, 1, (40, 8)).astype(np.float32), 50.0)
        out = resample_features(seq, 60.0)
        assert np.all(out.data.max(axis=0) <= seq.data.max(axis=0))
        assert np.all(out.data.min(axis=0) >= seq.data.min(axis=0))

    def test_downsampling_works(self):
        rng = np.random.default_rng(9)
        seq = FeatureSequence(rng.normal(0, 1, (60, 2)).astype(np.float32), 60.0)
        assert resample_features(seq, 50.0).n_frames == 50

    def test_errors(self):
        seq = FeatureSequence(np.ones((1, 2), dtype=np.float32), 50.0)
        with pytest.raises(DataError):
            resample_features(seq, 60.0)
        two = FeatureSequence(np.ones((2, 2), dtype=np.float32), 50.0)
        with pytest.raises(DataError):
            resample_features(two, -1.0)

    # (input frames, width, source rate, target rate): up- and downsampling,
    # outputs of 524, 3600 and 583 rows (not multiples of the 256-row
    # block) and of 512 rows (a multiple)
    @pytest.mark.parametrize("n_in, width, src, dst", [
        (437, 13, 50.0, 60.0), (3000, 24, 50.0, 60.0), (700, 7, 60.0, 50.0),
        (427, 5, 50.0, 60.0)])
    def test_blocks_match_the_whole_array_formula(self, n_in, width, src, dst):
        rng = np.random.default_rng(n_in)
        x = rng.normal(0, 3, (n_in, width)).astype(np.float32)
        out = resample_features(FeatureSequence(x, src), dst).data
        n_out = round(n_in * dst / src)
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
        lo = np.minimum(pos.astype(np.int64), n_in - 2)
        frac = (pos - lo)[:, None]
        data = x.astype(np.float64)
        want = (data[lo] + frac * (data[lo + 1] - data[lo])).astype(np.float32)
        assert out.dtype == np.float32
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -50.0])
    def test_rates_must_be_finite_and_positive(self, rate):
        with pytest.raises(DataError, match="feature rate"):
            FeatureSequence(np.ones((4, 2), dtype=np.float32), rate)
        seq = FeatureSequence(np.ones((100, 2), dtype=np.float32), 50.0)
        with pytest.raises(DataError, match="target rate"):
            resample_features(seq, rate)

    # output sizes numpy refuses at once: past its size limit, and infinite
    @pytest.mark.parametrize("src", [1e-30, 1e-300, 5e-324])
    def test_an_output_numpy_cannot_allocate_is_a_data_error(self, src):
        seq = FeatureSequence(np.ones((50, 3), dtype=np.float32), src)
        with pytest.raises(DataError, match=rf"50 frames at {src:g} Hz to 60 Hz"):
            resample_features(seq, 60.0)


# 60 fps lengths at the edges of inference chunks: one chunk, the second's
# end, the third's end
_CHUNK_EDGES = [599, 600, 601, 1139, 1140, 1141, 1679, 1680, 1681]


@st.composite
def _clips(draw):
    """(features, seed): 1, 2 or 3 frames, a clip whose 60 fps length is at
    a chunk edge, or any length up to 1500 frames, at a rate from 30 to
    100 Hz."""
    rate = draw(st.sampled_from([30.0, 50.0, 59.94, 60.0, 100.0]))
    n_in = draw(st.one_of(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(_CHUNK_EDGES).map(lambda n: max(2, round(n * rate / 60.0))),
        st.integers(1, 1500)))
    scale = draw(st.sampled_from([1e-30, 1.0, 1e30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FeatureSequence(scale * rng.normal(0, 1, (n_in, 3)), rate)


@settings(max_examples=150, deadline=None)
@given(seq=_clips())
def test_rows_per_chunk_equal_the_whole_clip_resampled(seq):
    try:
        want = resample_features(seq, 60.0).data
    except DataError:
        with pytest.raises(DataError):
            resampled_frames(seq, 60.0)
        return
    n = resampled_frames(seq, 60.0)
    assert n == len(want)
    for s, e in _chunk_bounds(n):
        assert np.array_equal(resample_rows(seq, n, s, e), want[s:e])
