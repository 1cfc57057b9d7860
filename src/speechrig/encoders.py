"""Input encoders for the rig regression network.

Content path: an affine projection of the feature matrix to the model
width plus a sinusoidal positional table. Emotion path: a 7-row embedding
refined by two affine layers with a Leaky ReLU between them. The network
adds each frame's emotion row to its content row; that sum is the only
place the emotion label enters the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class EncoderParams:
    """Learnable tensors of the content and emotion encoders."""

    content_w: np.ndarray  # (F, d_model)
    content_b: np.ndarray  # (d_model,)
    emotion_embed: np.ndarray  # (7, d_model)
    emotion_w1: np.ndarray  # (d_model, d_model)
    emotion_b1: np.ndarray
    emotion_w2: np.ndarray  # (d_model, d_model)
    emotion_b2: np.ndarray


def positional_encoding(n_frames: int, d_model: int, start: int = 0) -> np.ndarray:
    """Sinusoidal position table for positions start .. start + n_frames - 1:
    sin(pos / 10000^(2i/d)) on even columns, cos of the same angle on the
    following odd column. No table is kept between calls."""
    if n_frames < 1:
        raise DataError(f"positional encoding needs n_frames >= 1, got {n_frames}")
    if d_model % 2 != 0 or d_model < 2:
        raise DataError(f"d_model must be a positive even number, got {d_model}")
    pos = np.arange(start, start + n_frames, dtype=np.float64)[:, None]
    two_i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / (10000.0 ** (two_i / d_model))[None, :]
    pe = np.empty((n_frames, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def near_equal_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """``ceil(n / most)`` (at least one) near-equal blocks [s, e) covering
    [0, n): a function of ``n`` and ``most`` only. For ``most >= 3``,
    blocks of ``n >= 2`` items are never one item wide."""
    k = max(1, -(-n // most))
    edges = [n * b // k for b in range(k + 1)]
    return list(zip(edges, edges[1:]))


# Rows and columns of one float64 block of the content product.
_PRODUCT_BLOCK = 128


def encode_content(features: np.ndarray, params: EncoderParams,
                   positions: np.ndarray) -> np.ndarray:
    """Project features to model width and add the first rows of
    ``positions``, a ``positional_encoding`` table of at least as many rows.
    Chunked inference passes the table from the chunk's global start frame,
    so positions stay consistent across chunk boundaries.

    Float64 features and weights, as training passes them, have nothing
    to cast and take one product. Otherwise (``infer``'s float32) the
    float64 product is made a block at a time straight into the output:
    ``near_equal_blocks`` of at most ``_PRODUCT_BLOCK`` rows by at most
    ``_PRODUCT_BLOCK`` columns, and only a block's features and weights
    are cast, so no whole float64 copy of either is made. Fewer than
    ``_PRODUCT_BLOCK // 2`` rows take all columns at once, because
    OpenBLAS multiplies a block that small with another kernel, which
    rounds otherwise. At the reference configuration (768 -> 512, numpy's
    bundled OpenBLAS at one thread) the output has the bits of one whole
    product. The bias and positions are added in place, with a fresh
    sum's bits."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[1] != params.content_w.shape[0]:
        raise DataError(
            f"feature width {features.shape[1] if features.ndim == 2 else '?'} "
            f"does not match encoder width {params.content_w.shape[0]}"
        )
    n, d = features.shape[0], params.content_w.shape[1]
    if features.dtype == params.content_w.dtype == np.float64:
        out = features @ params.content_w
    else:
        cols = near_equal_blocks(d, _PRODUCT_BLOCK if n >= _PRODUCT_BLOCK // 2 else d)
        out = np.empty((n, d))
        for r0, r1 in near_equal_blocks(n, _PRODUCT_BLOCK):
            x = np.asarray(features[r0:r1], np.float64)
            for c0, c1 in cols:  # the cast weights are freed before the next block's
                np.matmul(x, np.asarray(params.content_w[:, c0:c1], np.float64),
                          out=out[r0:r1, c0:c1])
    out += params.content_b
    out += positions[:n]
    return out


def emotion_mlp(params: EncoderParams):
    """The emotion encoder on all 7 labels: first-layer pre-activation
    ``z1``, its Leaky ReLU ``a1``, and the table (one row per label)."""
    z1 = params.emotion_embed @ params.emotion_w1 + params.emotion_b1
    a1 = leaky_relu(z1)
    return z1, a1, a1 @ params.emotion_w2 + params.emotion_b2


def encode_emotion_table(params: EncoderParams) -> np.ndarray:
    """Encoded vectors for all 7 labels, one row per label."""
    return emotion_mlp(params)[2]
