"""Procedural eye-gaze synthesis and injection.

Real recordings in this pipeline hold a fixed straight-ahead gaze, so
idle eye motion is generated instead of predicted: every 15-45 frames the
gaze retargets, returning to center 40% of the time and otherwise picking
a point on a ring of radius 0.1-0.2 at a uniform angle. Frames between
keyframes interpolate linearly, and both eyes receive the same values
(conjugate movement).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rig import ControllerMap, RigSequence

INTERVAL_FRAMES = (15, 45)  # frames between retargets, inclusive
RADIUS = (0.1, 0.2)  # off-center target distance
RETURN_CENTER_PROB = 0.40


@dataclass
class GazeTrack:
    """Piecewise-linear gaze path: (frame, horizontal, vertical) keyframes."""

    keyframes: np.ndarray  # (n, 3) rows of frame, h, v

    def __post_init__(self):
        self.keyframes = np.asarray(self.keyframes, dtype=np.float64)
        if self.keyframes.ndim != 2 or self.keyframes.shape[1] != 3 or len(self.keyframes) == 0:
            raise DataError(f"gaze track must be (n, 3) with n >= 1, got {self.keyframes.shape}")
        frames = self.keyframes[:, 0]
        if (np.diff(frames) <= 0).any():
            raise DataError("gaze keyframe frames must be strictly increasing")


def sample_gaze_track(n_frames: int, seed: int = 0) -> GazeTrack:
    """Random gaze keyframes covering a clip, deterministic under seed.

    Starts centered at frame 0, then repeats: jump ahead a uniform integer
    interval, and target either the center (with probability
    RETURN_CENTER_PROB) or a uniform angle at a uniform radius. Sampling stops
    with the first keyframe at or beyond the last frame so interpolation
    never extrapolates.
    """
    if n_frames < 1:
        raise DataError(f"n_frames must be >= 1, got {n_frames}")
    rng = np.random.default_rng(seed)
    lo, hi = INTERVAL_FRAMES
    frame = 0
    rows = [(0.0, 0.0, 0.0)]
    while frame < n_frames - 1:
        frame += int(rng.integers(lo, hi + 1))
        if rng.random() < RETURN_CENTER_PROB:
            h = v = 0.0
        else:
            r = rng.uniform(*RADIUS)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            h, v = r * np.cos(theta), r * np.sin(theta)
        rows.append((float(frame), h, v))
    return GazeTrack(np.array(rows))


def track_values(track: GazeTrack, n_frames: int) -> np.ndarray:
    """Dense per-frame (h, v) values: linear between keyframes, held flat
    before the first and after the last."""
    kf = track.keyframes
    t = np.arange(n_frames, dtype=np.float64)
    h = np.interp(t, kf[:, 0], kf[:, 1])
    v = np.interp(t, kf[:, 0], kf[:, 2])
    return np.stack([h, v], axis=1)


def inject_gaze(seq: RigSequence, track: GazeTrack, cmap: ControllerMap) -> RigSequence:
    """Write the interpolated track into every gaze channel of both eyes.

    Horizontal channels get h, vertical channels get v, identically on the
    left and right side. No other channel changes.
    """
    h_idx = cmap.eye_role_indices("gaze_horizontal")
    v_idx = cmap.eye_role_indices("gaze_vertical")
    if not h_idx or not v_idx:
        raise DataError("controller map lacks gaze_horizontal/gaze_vertical channels")
    dense = track_values(track, len(seq))
    out = seq.values.copy()
    for ch in h_idx:
        out[:, ch] = dense[:, 0]
    for ch in v_idx:
        out[:, ch] = dense[:, 1]
    return RigSequence(out)
