"""Quantitative checks on rig sequences: regional MAE and left-right
channel correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rig import ControllerMap, RigSequence, write_csv, write_json


def mae(pred: RigSequence, gt: RigSequence, indices=None) -> float:
    """Mean absolute difference over frames x selected channels."""
    if len(pred) != len(gt):
        raise DataError(f"length mismatch: {len(pred)} vs {len(gt)} frames")
    a, b = pred.values, gt.values
    if indices is not None:
        indices = list(indices)
        if indices and (min(indices) < 0 or max(indices) >= a.shape[1]):
            raise DataError(f"channel indices out of range 0..{a.shape[1] - 1}")
        a, b = a[:, indices], b[:, indices]
    if a.size == 0:
        return 0.0
    return float(np.mean(np.abs(a - b)))


def mae_report(pred: RigSequence, gt: RigSequence, cmap: ControllerMap) -> dict:
    """Full-face, mouth-area (jaw+mouth+teeth+tongue), and eye-area
    (eye+brow) MAE values."""
    return {
        "full": mae(pred, gt),
        "mouth": mae(pred, gt, cmap.mouth_area_indices()),
        "eye": mae(pred, gt, cmap.eye_area_indices()),
    }


def write_mae_report(path, report: dict) -> None:
    write_json(path, report)


@dataclass
class CorrelationResult:
    """Pearson coefficients of every left channel against every right one.

    ``valid[i, j]`` is False where either channel is constant across
    frames; those cells hold the 0.0 sentinel.
    """

    matrix: np.ndarray  # (n_left, n_right)
    valid: np.ndarray  # bool, same shape
    left_names: tuple[str, ...]
    right_names: tuple[str, ...]


def lr_correlation(seq: RigSequence, cmap: ControllerMap) -> CorrelationResult:
    """Correlate left-side channels with right-side channels across frames.

    Exactly mirrored (or exactly negated) pairs report +/-1.0 exactly;
    everything else uses the standard Pearson estimate clipped to [-1, 1].
    """
    if len(seq) < 2:
        raise DataError("correlation needs at least 2 frames")
    left = cmap.side_indices("left")
    right = cmap.side_indices("right")
    values = seq.values
    lmat = values[:, left]
    rmat = values[:, right]
    lc = lmat - lmat.mean(axis=0)
    rc = rmat - rmat.mean(axis=0)
    lvar = (lc * lc).sum(axis=0)
    rvar = (rc * rc).sum(axis=0)

    valid = np.outer(lvar > 0.0, rvar > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = np.clip((lc.T @ rc) / np.outer(np.sqrt(lvar), np.sqrt(rvar)), -1.0, 1.0)
    matrix[~valid] = 0.0
    # an exact mirror or negation lands within rounding of +/-1
    for i, j in np.argwhere(valid & (np.abs(matrix) > 1.0 - 1e-6)):
        if np.array_equal(lmat[:, i], rmat[:, j]):
            matrix[i, j] = 1.0
        elif np.array_equal(lc[:, i], -rc[:, j]):
            matrix[i, j] = -1.0
    names = cmap.names
    return CorrelationResult(
        matrix, valid,
        tuple(names[i] for i in left), tuple(names[j] for j in right),
    )


def write_correlation_csv(path, result: CorrelationResult) -> None:
    """Matrix CSV: right-channel names across the header, one row per left
    channel with its name in the first column."""
    write_csv(path, ["", *result.right_names],
              ([name, *(f"{v:.9g}" for v in row)]
               for name, row in zip(result.left_names, result.matrix)))
