"""Float64 numpy reference of the documented inference path.

Written from the README's description of the model, not from the
program's code: sinusoidal positions on global frame indices, a 7-label
emotion MLP with Leaky ReLU 0.2, post-norm encoder layers, an affine
head, 600-frame chunks with 60-frame linear crossfades, window-15 cubic
smoothing with mirror padding, and clamping to the channel bounds. The
benchmark compares the program's output with it on the channels that
blink and gaze injection leave alone.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import savgol_filter
from scipy.special import softmax

from .inputs import EMOTIONS

RIG_FPS = 60.0
CHUNK, OVERLAP = 600, 60
LN_EPS = 1e-5
LEAKY_SLOPE = 0.2


class Model:
    """Reference-precision view of an EMOW file's tensors."""

    def __init__(self, meta: dict, tensors: dict[str, np.ndarray]):
        self.meta = meta
        self.t = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}

    def layer(self, i: int, name: str) -> np.ndarray:
        return self.t[f"layers.{i}.{name}"]


def resample(data: np.ndarray, src_hz: float, dst_hz: float) -> np.ndarray:
    """Endpoint-aligned linear interpolation onto round(T * dst / src) frames."""
    n_in = data.shape[0]
    n_out = int(np.floor(n_in * dst_hz / src_hz + 0.5))
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    cols = [np.interp(pos, np.arange(n_in), data[:, j]) for j in range(data.shape[1])]
    return np.stack(cols, axis=1)


def positions(start: int, n: int, d: int) -> np.ndarray:
    pos = np.arange(start, start + n, dtype=np.float64)[:, None]
    angle = pos / np.power(10000.0, np.arange(0, d, 2) / d)[None, :]
    out = np.empty((n, d))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


def layer_norm(x, g, b):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def encoder_layer(m: Model, i: int, x: np.ndarray, n_heads: int) -> np.ndarray:
    t, d = x.shape
    dh = d // n_heads
    q, k, v = (x @ m.layer(i, "w" + c) + m.layer(i, "b" + c) for c in "qkv")
    ctx = np.empty_like(x)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        weights = softmax(q[:, cols] @ k[:, cols].T / np.sqrt(dh), axis=1)
        ctx[:, cols] = weights @ v[:, cols]
    x = layer_norm(x + ctx @ m.layer(i, "wo") + m.layer(i, "bo"),
                   m.layer(i, "ln1_g"), m.layer(i, "ln1_b"))
    ff = np.maximum(x @ m.layer(i, "w1") + m.layer(i, "b1"), 0.0) @ m.layer(i, "w2") + m.layer(i, "b2")
    return layer_norm(x + ff, m.layer(i, "ln2_g"), m.layer(i, "ln2_b"))


def forward_chunk(m: Model, feats: np.ndarray, labels: np.ndarray, start: int,
                  skip_layer: int | None = None) -> np.ndarray:
    """Head output for rows ``start:start+len(feats)`` of a clip.

    ``skip_layer`` drops one encoder layer; the self-tests use it to show
    that the comparison tolerance catches a wrong layer.
    """
    meta, t = m.meta, m.t
    z = t["encoder.emotion_embed"] @ t["encoder.emotion_w1"] + t["encoder.emotion_b1"]
    emotion = np.where(z >= 0.0, z, LEAKY_SLOPE * z) @ t["encoder.emotion_w2"] + t["encoder.emotion_b2"]
    x = (feats @ t["encoder.content_w"] + t["encoder.content_b"]
         + positions(start, feats.shape[0], meta["d_model"]).astype(feats.dtype) + emotion[labels])
    for i in range(meta["n_layers"]):
        if i != skip_layer:
            x = encoder_layer(m, i, x, meta["n_heads"])
    return x @ t["head_w"] + t["head_b"]


def chunked(m: Model, feats: np.ndarray, labels: np.ndarray, n_chunks: int,
            skip_layer: int | None = None) -> np.ndarray:
    """Crossfaded output of the first ``n_chunks`` chunks of a clip.

    A chunk only changes frames at or after its start, so the frames
    before the first chunk left out are final; only those are returned.
    """
    n = feats.shape[0]
    out = np.empty((n, m.meta["output_dim"]))
    stride = CHUNK - OVERLAP
    done = 0
    for k in range(n_chunks):
        start = k * stride
        end = min(start + CHUNK, n)
        y = forward_chunk(m, feats[start:end], labels[start:end], start, skip_layer)
        fade = done - start
        if fade > 0:
            w = np.arange(1, fade + 1) / (fade + 1.0)
            y[:fade] = (1.0 - w[:, None]) * out[start:done] + w[:, None] * y[:fade]
        out[start:end] = y
        done = end
        if end == n:
            return out
    return out[:n_chunks * stride]


def expected_rig(m: Model, features_50hz: np.ndarray, labels: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, n_chunks: int, skip_layer: int | None = None):
    """Smoothed, clamped reference frames from the first ``n_chunks`` chunks.

    Returns ``(values, n_exact)``. Smoothing near the end of a truncated
    prefix sees mirrored frames the full clip does not have, so only the
    first ``n_exact`` rows are comparable.
    """
    feats = resample(features_50hz.astype(np.float64), 50.0, RIG_FPS)
    raw = chunked(m, feats, labels, n_chunks, skip_layer)
    smooth = savgol_filter(raw, 15, 3, axis=0, mode="mirror")
    n_exact = len(raw) if len(raw) == len(feats) else len(raw) - 7
    return np.clip(smooth, lo, hi)[:n_exact], n_exact


def timeline_labels(rows, n_frames: int) -> np.ndarray:
    """Dense labels from step-hold (frame, name) rows."""
    labels = np.empty(n_frames, dtype=np.int64)
    for k, (frame, name) in enumerate(rows):
        end = rows[k + 1][0] if k + 1 < len(rows) else n_frames
        labels[frame:end] = EMOTIONS.index(name)
    return labels
