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
from .rig import N_EMOTIONS

D_MODEL = 512
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

    @property
    def feature_dim(self) -> int:
        return self.content_w.shape[0]

    @property
    def d_model(self) -> int:
        return self.content_w.shape[1]


def encoder_shapes(feature_dim: int, d_model: int) -> dict[str, tuple[int, ...]]:
    """Shape of each learnable ``EncoderParams`` tensor, in field order."""
    return {"content_w": (feature_dim, d_model), "content_b": (d_model,),
            "emotion_embed": (N_EMOTIONS, d_model),
            "emotion_w1": (d_model, d_model), "emotion_b1": (d_model,),
            "emotion_w2": (d_model, d_model), "emotion_b2": (d_model,)}


def positional_encoding(n_frames: int, d_model: int = D_MODEL, start: int = 0) -> np.ndarray:
    """Sinusoidal position table for positions start .. start + n_frames - 1:
    sin(pos / 10000^(2i/d)) on even columns, cos of the same angle on the
    following odd column.

    Computed on every call, so a chunk at a late offset holds only its
    own rows, and only while it is encoded.
    """
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


def encode_content(features: np.ndarray, params: EncoderParams,
                   pos_offset: int = 0, positions: np.ndarray | None = None) -> np.ndarray:
    """Project features to model width and add the positional table.

    ``pos_offset`` shifts the position index of the first row; chunked
    inference passes the chunk's global start frame so positions stay
    consistent across chunk boundaries. ``positions``, if given, is a
    table from position 0 of at least as many rows as ``features``,
    whose first rows are added instead (the same bits: every row depends
    on its position only).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise DataError(
            f"feature width {features.shape[1] if features.ndim == 2 else '?'} "
            f"does not match encoder width {params.feature_dim}"
        )
    proj = features @ params.content_w + params.content_b
    if positions is None:
        return proj + positional_encoding(features.shape[0], params.d_model, start=pos_offset)
    return proj + positions[:features.shape[0]]


def emotion_mlp(params: EncoderParams):
    """The emotion encoder on all 7 labels: first-layer pre-activation
    ``z1``, its Leaky ReLU ``a1``, and the table (one row per label)."""
    z1 = params.emotion_embed @ params.emotion_w1 + params.emotion_b1
    a1 = leaky_relu(z1)
    return z1, a1, a1 @ params.emotion_w2 + params.emotion_b2


def encode_emotion_table(params: EncoderParams) -> np.ndarray:
    """Encoded vectors for all 7 labels, one row per label."""
    return emotion_mlp(params)[2]
