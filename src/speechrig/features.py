"""Audio feature ingestion, a spectral fallback extractor, and resampling.

Feature matrices normally come from an external speech-feature exporter
(reference layout: 768 columns at 50 Hz). When only raw audio is
available, a mel-cepstral fallback produces usable stand-in features at
the same 50 Hz clock. Either way the stream is linearly resampled onto
the 60 fps rig timeline before prediction.

Feature file layout (little-endian):

    magic  b"EMOF"
    u32    version (1)
    u32    rows
    u32    cols
    f32    rate_hz
    f32[rows * cols]  row-major payload
"""

from __future__ import annotations

import math
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FeatureFileError
from .rig import atomic_write, read_numeric_csv

FEATURE_MAGIC = b"EMOF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIIIf")

REFERENCE_FEATURE_RATE = 50.0
FALLBACK_FAMILY = "mel-cepstrum-reference"


@dataclass
class FeatureSequence:
    """T x F feature matrix at a stated frame rate."""

    data: np.ndarray
    rate_hz: float
    family: str = "external"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or min(self.data.shape) < 1:
            raise DataError(f"feature matrix must be 2-D with T >= 1 and F >= 1, "
                            f"got {self.data.shape}")
        # a NaN or inf reaches the min or the max; no T x F mask is built
        if not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
            raise DataError("feature matrix contains non-finite values")
        if not 0.0 < self.rate_hz < math.inf:
            raise DataError(f"feature rate must be finite and positive, got {self.rate_hz}")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass
class AudioClip:
    """Mono audio samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if self.samples.size == 0:
            raise DataError("audio clip is empty")
        if self.sample_rate <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate}")


# --- feature files ---------------------------------------------------------


def read_feature_file(path) -> FeatureSequence:
    """Read a binary feature file, checking magic, version, and payload.

    The payload is read straight into the matrix it becomes."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FeatureFileError(f"{path}: too short for a feature header")
        magic, version, rows, cols, rate_hz = _HEADER.unpack(header)
        if magic != FEATURE_MAGIC:
            raise FeatureFileError(f"{path}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FeatureFileError(f"{path}: unsupported version {version}")
        if rows < 1 or cols < 1:
            raise FeatureFileError(f"{path}: header promises {rows}x{cols} features; "
                                   f"need at least 1 row and 1 column")
        expected = rows * cols * 4
        payload = os.fstat(f.fileno()).st_size - _HEADER.size
        if payload < expected:
            raise FeatureFileError(
                f"{path}: truncated payload ({payload} bytes, header promises {expected})"
            )
        if payload > expected:
            raise FeatureFileError(f"{path}: {payload - expected} bytes after the "
                                   f"{rows}x{cols} payload")
        data = np.empty((rows, cols), dtype="<f4")
        if f.readinto(data) != expected:
            raise FeatureFileError(f"{path}: payload changed while it was read")
    try:
        return FeatureSequence(data, float(rate_hz))
    except DataError as exc:  # non-finite values or rate
        raise FeatureFileError(f"{path}: {exc}") from None


def write_feature_file(path, seq: FeatureSequence) -> None:
    """Write ``seq`` as a binary feature file, through ``atomic_write``."""
    with atomic_write(path, "wb") as f:
        f.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION,
                             seq.n_frames, seq.n_features, seq.rate_hz))
        f.write(np.ascontiguousarray(seq.data, dtype="<f4"))


def read_feature_csv(path, rate_hz: float = REFERENCE_FEATURE_RATE) -> FeatureSequence:
    """Read a T x F CSV of feature values, with or without a header row."""
    return FeatureSequence(read_numeric_csv(path, None, "feature CSV"), rate_hz)


def load_features(path, rate_hz: float = REFERENCE_FEATURE_RATE) -> FeatureSequence:
    """Load features from either the binary format or a numeric CSV."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head == FEATURE_MAGIC:
        return read_feature_file(path)
    return read_feature_csv(path, rate_hz)


def read_wav(path) -> AudioClip:
    """Read a PCM WAV file as a mono clip: the mean of its channels, 16-bit
    samples s as s / 32768 and 8-bit (unsigned) ones as (s - 128) / 128."""
    try:
        with wave.open(str(path), "rb") as w:
            rate = w.getframerate()
            n_ch = w.getnchannels()
            width = w.getsampwidth()
            raw = w.readframes(w.getnframes())
    except (wave.Error, OSError, EOFError) as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from None
    if width == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise DataError(f"{path}: unsupported sample width {width} bytes")
    if n_ch > 1:
        samples = samples.reshape(-1, n_ch).mean(axis=1)
    return AudioClip(samples, rate)


# --- fallback extractor ----------------------------------------------------


# The extractor hops sample_rate / 50 samples, so its clock is the reference
# 50 Hz; each analysis window spans two hops (50% overlap).
N_MELS = 40
N_COEFFS = 26


def _mel_filterbank(n_mels: int, n_fft: int, sample_rate: float) -> np.ndarray:
    """Triangular mel filters over the one-sided FFT bins."""

    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def to_hz(mel):
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    mel_pts = np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = to_hz(mel_pts)
    bin_hz = np.arange(n_bins) * sample_rate / n_fft
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rise = (bin_hz - lo) / max(mid - lo, 1e-12)
        fall = (hi - bin_hz) / max(hi - mid, 1e-12)
        fb[m] = np.clip(np.minimum(rise, fall), 0.0, None)
    return fb


def _dct_ii(x: np.ndarray, n_coeffs: int) -> np.ndarray:
    """The first ``n_coeffs`` orthonormal DCT-II coefficients of each row of ``x``.

    Over n points, coefficient k is s_k sum_i x_i cos(pi k (2i + 1) / 2n),
    with s_0 = sqrt(1/n) and s_k = sqrt(2/n) otherwise. ``einsum`` rounds
    every row alike, unlike a BLAS matmul, so equal frames give equal
    coefficients.
    """
    n = x.shape[1]
    k = np.arange(min(n_coeffs, n))[:, None]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    basis[0] /= np.sqrt(2.0)
    return np.einsum("tn,kn->tk", x, basis)


def extract_fallback_features(clip: AudioClip) -> FeatureSequence:
    """Mel-cepstral reference features from raw audio at 50 Hz.

    Framing: frame t covers samples [t*hop, t*hop + 2*hop), Hann windowed,
    zero-padded to the next power of two. T = floor(len(samples)/hop)
    frames; trailing frames are zero-padded. Each frame yields N_COEFFS
    DCT-II (orthonormal) coefficients of log(p + 1e-10), p the power in each
    of N_MELS mel bands: silence gives the floor log(1e-10) in every band.
    """
    hop = max(1, round(clip.sample_rate / REFERENCE_FEATURE_RATE))
    window = 2 * hop
    if clip.samples.size < window:
        raise DataError(
            f"clip too short: {clip.samples.size} samples, analysis window is {window}"
        )
    n_frames = clip.samples.size // hop
    n_fft = 1 << (window - 1).bit_length()
    hann = np.hanning(window)
    fb = _mel_filterbank(N_MELS, n_fft, clip.sample_rate)

    padded = np.concatenate([clip.samples, np.zeros(window)])
    frames = np.stack([padded[t * hop:t * hop + window] for t in range(n_frames)])
    spectra = np.fft.rfft(frames * hann, n=n_fft, axis=1)
    power = np.abs(spectra) ** 2
    log_mel = np.log(power @ fb.T + 1e-10)
    coeffs = _dct_ii(log_mel, N_COEFFS)
    rate = clip.sample_rate / hop
    return FeatureSequence(coeffs.astype(np.float32), rate, family=FALLBACK_FAMILY)


# --- resampling -------------------------------------------------------------


_RESAMPLE_ROWS = 256  # output rows per block: float64 temporaries stay small


def resampled_frames(seq: FeatureSequence, dst_rate: float) -> int:
    """The frame count of ``resample_features(seq, dst_rate)``:
    max(1, floor(T * dst/src + 0.5)), and T at equal rates.

    Raises its ``DataError`` for a bad target rate, fewer than 2 input
    frames at another rate, or an output matrix past numpy's size limit,
    before anything the size of the output is allocated.
    """
    if not 0.0 < dst_rate < math.inf:
        raise DataError(f"target rate must be finite and positive, got {dst_rate}")
    n_in = seq.n_frames
    if dst_rate == seq.rate_hz:
        return n_in
    if n_in < 2:
        raise DataError(f"resampling needs at least 2 frames, got {n_in}")
    frames = n_in * dst_rate / seq.rate_hz
    # numpy refuses an array of more than intp-max bytes; 8 bytes a feature
    # bound a frame's float32 rows and its 8-byte position or label; inf fails
    if not frames < np.iinfo(np.intp).max / (8 * seq.n_features):
        raise DataError(f"cannot resample {n_in} frames at {seq.rate_hz:g} Hz to {dst_rate:g} Hz: "
                        f"{frames:.3g} frames is more than numpy can allocate")
    return max(1, math.floor(frames + 0.5))


def resample_rows(seq: FeatureSequence, n_out: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of ``resample_features(seq, dst_rate).data``,
    computed alone and bit for bit the same, where ``n_out`` is
    ``resampled_frames(seq, dst_rate)``."""
    x, n_in = seq.data, seq.n_frames
    if n_out in (1, n_in):  # the first row, or each row at its own position
        return x[start:stop].copy()
    pos = np.arange(start, stop) * (n_in - 1) / (n_out - 1)
    lo = pos.astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)  # the last row: frac 0, so its input row exactly
    frac = (pos - lo)[:, None]
    out = np.empty((stop - start, seq.n_features), np.float32)
    # a + frac * (b - a) in float64, a block of rows at a time and in place
    for r in range(0, stop - start, _RESAMPLE_ROWS):
        rows = slice(r, r + _RESAMPLE_ROWS)
        a = x[lo[rows]].astype(np.float64)
        b = x[hi[rows]].astype(np.float64)
        b -= a
        b *= frac[rows]
        b += a
        out[rows] = b
    exact = frac[:, 0] == 0  # a + 0 * (b - a) can lose a -0.0 in a
    out[exact] = x[lo[exact]]
    return out


def resample_features(seq: FeatureSequence, dst_rate: float) -> FeatureSequence:
    """Linearly resample a feature stream onto a new frame rate.

    The output has round(T * dst/src) frames (see ``resampled_frames``);
    output frame t samples the input at position t*(T-1)/(N-1)
    (endpoint-aligned), so the first and last frames are carried over
    exactly and no extrapolation occurs. Equal rates return the input
    frames unchanged.
    """
    n_out = resampled_frames(seq, dst_rate)
    try:
        out = resample_rows(seq, n_out, 0, n_out)
    except MemoryError:  # numpy refuses the allocation
        raise DataError(f"cannot resample {seq.n_frames} frames at {seq.rate_hz:g} Hz to "
                        f"{dst_rate:g} Hz: {n_out} frames is more than numpy can allocate") from None
    return FeatureSequence(out, dst_rate, seq.family)
