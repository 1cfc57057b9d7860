"""Least-squares polynomial smoothing of rig curves, plus bound clamping.

The smoother fits a degree-``ORDER`` polynomial to each window of
``WINDOW`` frames and replaces the center sample with the fit's value
there. Window 15 and order 3 remove frame-to-frame jitter while
reproducing any cubic trend exactly. Boundaries use mirror padding so
short clips keep their endpoints.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .rig import ControllerMap, RigSequence

WINDOW, ORDER = 15, 3


def savgol_coeffs(window: int, order: int) -> np.ndarray:
    """Center-point smoothing weights for a window/order pair.

    Built from the least-squares design directly: with positions
    x = -h..h and Vandermonde A[i, j] = x_i^j, the smoothed center value
    is row 0 of pinv(A) dotted with the window. Weights sum to 1.
    """
    if window < 1 or window % 2 == 0:
        raise DataError(f"window must be a positive odd number, got {window}")
    if not 0 <= order < window:
        raise DataError(f"order must satisfy 0 <= order < window, got {order}")
    half = window // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    design = np.vander(x, order + 1, increasing=True)
    return np.linalg.pinv(design)[0]


def smooth_sequence(seq: RigSequence) -> RigSequence:
    """Smooth every channel at ``WINDOW`` and ``ORDER``; length preserved.

    Sequences shorter than the window fall back to the largest odd window
    that fits (clamping the order below it); a single frame is returned
    unchanged.
    """
    n = len(seq)
    window, order = WINDOW, ORDER
    if n < window:
        window = n if n % 2 == 1 else n - 1
        if window < 3:
            return seq.copy()
        order = min(order, window - 1)
    weights = savgol_coeffs(window, order)
    half = window // 2
    padded = np.pad(seq.values, ((half, half), (0, 0)), mode="reflect")
    out = np.empty_like(seq.values)
    for k, w in enumerate(weights):
        if k == 0:
            np.multiply(padded[k:k + n], w, out=out)
        else:
            out += w * padded[k:k + n]
    return RigSequence(out)


def clamp_sequence(seq: RigSequence, cmap: ControllerMap) -> RigSequence:
    """Clip every channel to its configured [min, max] bounds."""
    lo, hi = cmap.bounds()
    if seq.values.shape[1] != cmap.width:
        raise DataError(
            f"sequence width {seq.values.shape[1]} does not match map width {cmap.width}"
        )
    return RigSequence(np.clip(seq.values, lo[None, :], hi[None, :]))
