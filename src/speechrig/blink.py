"""Blink analytics and stochastic blink injection.

Detection side: the eye aspect ratio (EAR) collapses six eye landmarks to
one scalar that approaches zero when the eye closes. A linear max-margin
classifier over a seven-frame EAR window (the frame plus three each side,
at 30 fps source video) marks blink frames; runs of at least two
consecutive positive frames become blink events. This beats a bare EAR
threshold, which also fires on squints and single-frame dropouts.

Modeling side: blinks-per-minute rates follow a log-normal law
(reference fit: ln-mean 3.518, ln-std 0.532, rates above 100 discarded).
Sampling that law yields blink start times, and each blink drives the lid
channels through a 13-frame raised-cosine closure at the 60 fps rig rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DataError, DegenerateDataError
from .rig import RIG_FPS, ControllerMap, RigSequence, read_numeric_csv, write_json

WINDOW = 7  # classifier input: current frame +/- 3 at 30 fps
BLINK_SPAN = 13  # injection window at 60 fps
DEFAULT_MU_LN = 3.518
DEFAULT_SIGMA_LN = 0.532
MAX_RATE = 100.0  # blinks/min above this are treated as detector noise


def ear(landmarks) -> float:
    """Eye aspect ratio from six landmarks (p1..p6, each an (x, y) point).

    (|p2-p6| + |p3-p5|) / (2 |p1-p4|): vertical extents over twice the
    horizontal extent. Invariant to rotation and uniform scaling.
    """
    lm = np.asarray(landmarks, dtype=np.float64)
    if lm.shape != (6, 2):
        raise DataError(f"expected 6 landmark points, got shape {lm.shape}")
    horiz = np.linalg.norm(lm[0] - lm[3])
    if horiz <= 0.0:
        raise DataError("degenerate eye landmarks: p1 == p4")
    v1 = np.linalg.norm(lm[1] - lm[5])
    v2 = np.linalg.norm(lm[2] - lm[4])
    return (v1 + v2) / (2.0 * horiz)


# --- classifier ---------------------------------------------------------------


@dataclass
class BlinkClassifier:
    """Linear decision over a 7-frame EAR window: positive means blink."""

    weights: np.ndarray  # (7,)
    bias: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.weights.shape != (WINDOW,):
            raise DataError(f"classifier needs {WINDOW} weights, got {self.weights.shape}")
        if not np.isfinite(self.weights).all() or not np.isfinite(self.bias):
            raise DataError("classifier weights must be finite")

    def decision(self, windows: np.ndarray) -> np.ndarray:
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        return windows @ self.weights + self.bias

    def predict(self, windows: np.ndarray) -> np.ndarray:
        return (self.decision(windows) >= 0.0).astype(np.int64)

    def save(self, path) -> None:
        write_json(path, {"weights": self.weights.tolist(), "bias": self.bias,
                          "metadata": self.metadata})

    @classmethod
    def load(cls, path) -> "BlinkClassifier":
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            return cls(np.array(doc["weights"], dtype=np.float64),
                       float(doc["bias"]), doc.get("metadata", {}))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"cannot load blink classifier {path}: {exc}") from None


def train_blink_classifier(windows, labels, l2: float = 1e-2,
                           iterations: int = 3000, pos_weight: float = 1.0) -> BlinkClassifier:
    """Fit the linear max-margin separator by deterministic full-batch
    subgradient descent on the hinge loss with an L2 penalty.

    The bias rides along as an augmented constant column. Among all
    iterates, the weights with the best (sample-weighted) training
    accuracy are kept, ties broken by the later iterate. ``pos_weight``
    scales the positive class in the hinge; >1 trades precision for
    recall on imbalanced data.
    """
    x = np.asarray(windows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[1] != WINDOW:
        raise DataError(f"windows must be (n, {WINDOW}), got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise DataError("windows and labels disagree in length")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        raise DegenerateDataError(f"need both classes 0 and 1, got {classes}")
    ys = 2.0 * y - 1.0  # {0,1} -> {-1,+1}
    pos_mean = x[y == 1].mean(axis=0)
    neg_mean = x[y == 0].mean(axis=0)
    if np.allclose(pos_mean, neg_mean, atol=1e-12):
        raise DegenerateDataError("class means coincide; windows carry no signal")

    sw = np.where(y == 1.0, pos_weight, 1.0)
    sw = sw / sw.mean()
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.zeros(WINDOW + 1)
    radius = 1.0 / np.sqrt(l2)
    best_w, best_acc = w.copy(), -1.0
    for t in range(1, iterations + 1):
        margins = ys * (xa @ w)
        viol = margins < 1.0
        grad = l2 * w
        if viol.any():
            grad = grad - ((sw * ys)[viol, None] * xa[viol]).sum(axis=0) / ys.size
        eta = 1.0 / (l2 * (t + 100.0))
        w = w - eta * grad
        norm = np.linalg.norm(w)
        if norm > radius:
            w = w * (radius / norm)
        acc = float(np.mean(((xa @ w >= 0.0) == (ys > 0)) * sw))
        if acc >= best_acc:
            best_acc, best_w = acc, w.copy()
    meta = {"train_accuracy": best_acc, "l2": l2, "iterations": iterations,
            "n_windows": int(x.shape[0]), "pos_weight": pos_weight}
    return BlinkClassifier(best_w[:WINDOW], float(best_w[WINDOW]), meta)


# --- detection ----------------------------------------------------------------


@dataclass(frozen=True)
class BlinkEvent:
    """Inclusive frame span of one detected blink."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise DataError(f"blink event start {self.start} > end {self.end}")


def trace_windows(trace) -> np.ndarray:
    """Per-frame 7-wide EAR windows, edges padded by repetition."""
    trace = np.asarray(trace, dtype=np.float64).reshape(-1)
    if trace.size < WINDOW:
        raise DataError(f"EAR trace needs at least {WINDOW} frames, got {trace.size}")
    half = WINDOW // 2
    padded = np.concatenate([np.repeat(trace[0], half), trace, np.repeat(trace[-1], half)])
    return np.stack([padded[i:i + trace.size] for i in range(WINDOW)], axis=1)


def _runs(mask: np.ndarray, min_run: int):
    events = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_run:
                events.append((start, i - 1))
            start = None
    if start is not None and len(mask) - start >= min_run:
        events.append((start, len(mask) - 1))
    return events


def detect_blinks(trace, clf: BlinkClassifier, min_run: int = 2) -> list[BlinkEvent]:
    """Classify each frame's window and keep maximal runs of >= min_run
    consecutive positive frames as blink events."""
    flags = clf.predict(trace_windows(trace)).astype(bool)
    return [BlinkEvent(s, e) for s, e in _runs(flags, min_run)]


def threshold_detect_blinks(trace, threshold: float = 0.2, min_run: int = 1) -> list[BlinkEvent]:
    """Baseline detector: frames with EAR below a fixed threshold.

    Kept for comparison; it misfires on squints and single-frame dropouts
    that the windowed classifier rejects.
    """
    trace = np.asarray(trace, dtype=np.float64).reshape(-1)
    return [BlinkEvent(s, e) for s, e in _runs(trace < threshold, min_run)]


def read_ear_csv(path) -> np.ndarray:
    """Read a (frame, ear) CSV into a dense per-frame EAR array; rows may
    come in any order, but the frames must be consecutive integers."""
    rows = read_numeric_csv(path, 2, "EAR trace")
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    frames = rows[:, 0]
    if frames[0] != math.floor(frames[0]) or (np.diff(frames) != 1.0).any():
        raise DataError(f"{path}: EAR trace frames must be consecutive integers")
    return rows[:, 1]


# --- frequency model ------------------------------------------------------------


@dataclass
class BlinkFrequencyModel:
    """Log-normal blinks-per-minute model, cut off at ``MAX_RATE``."""

    mu_ln: float = DEFAULT_MU_LN
    sigma_ln: float = DEFAULT_SIGMA_LN

    def __post_init__(self):
        if not (math.isfinite(self.mu_ln) and math.isfinite(self.sigma_ln)):
            raise DataError(f"mu_ln and sigma_ln must be finite, got {self}")
        if self.sigma_ln < 0.0:
            raise DataError(f"sigma_ln must be >= 0, got {self.sigma_ln}")
        # Truncated sampling redraws every rate above MAX_RATE, so it needs
        # some mass below it: P(ln rate <= ln MAX_RATE) under the normal law.
        z = float(np.log(MAX_RATE)) - self.mu_ln
        kept = float(z >= 0.0) if self.sigma_ln == 0.0 else \
            0.5 * math.erfc(-z / (self.sigma_ln * math.sqrt(2.0)))
        if kept < 0.01:
            raise DataError(f"blink model keeps {kept:.2%} of its rates at or below "
                            f"max_rate {MAX_RATE}; at least 1% is needed")

    def save(self, path) -> None:
        write_json(path, {"mu_ln": self.mu_ln, "sigma_ln": self.sigma_ln,
                          "max_rate": MAX_RATE})


def fit_lognormal(rates) -> BlinkFrequencyModel:
    """Fit the log-normal rate model: mean and std of ln(rate) over the
    samples at or below ``MAX_RATE`` (higher ones are detector noise)."""
    rates = np.asarray(rates, dtype=np.float64).reshape(-1)
    if (rates <= 0).any():
        raise DataError("blink rates must be positive")
    kept = rates[rates <= MAX_RATE]
    if kept.size < 2:
        raise DegenerateDataError(
            f"need at least 2 rates <= {MAX_RATE} to fit, got {kept.size}"
        )
    logs = np.log(kept)
    return BlinkFrequencyModel(float(logs.mean()), float(logs.std()))


def draw_rates(model: BlinkFrequencyModel, n: int, rng, truncate: bool = True) -> np.ndarray:
    """Draw blinks-per-minute rates; truncation rejects draws above the
    cutoff and redraws them, preserving the distribution's shape below."""
    rates = rng.lognormal(model.mu_ln, model.sigma_ln, n)
    if truncate:
        bad = rates > MAX_RATE
        while bad.any():
            rates[bad] = rng.lognormal(model.mu_ln, model.sigma_ln, int(bad.sum()))
            bad = rates > MAX_RATE
    return rates


def sample_blink_times(model: BlinkFrequencyModel, duration_s: float,
                       seed: int = 0) -> np.ndarray:
    """Blink start frames (at RIG_FPS) for a clip: each gap is 60/rate
    seconds with the rate drawn fresh from the (truncated) model."""
    if duration_s <= 0:
        raise DataError(f"duration must be positive, got {duration_s}")
    rng = np.random.default_rng(seed)
    t = 0.0
    starts = []
    while True:
        rate = float(draw_rates(model, 1, rng)[0])
        t += 60.0 / rate if rate else math.inf  # a rate that underflowed to 0: no more blinks
        if t >= duration_s:
            break
        starts.append(int(round(t * RIG_FPS)))
    return np.asarray(starts, dtype=np.int64)


# --- injection --------------------------------------------------------------------


def blink_profile() -> np.ndarray:
    """Raised-cosine closure over 13 frames: 0 at both ends, 1 at frame 6."""
    k = np.arange(BLINK_SPAN, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (BLINK_SPAN - 1)))


def inject_blinks(seq: RigSequence, starts, cmap: ControllerMap) -> RigSequence:
    """Blend lid-closure channels toward full closure around each start.

    Per frame the lid value becomes v*(1-c) + closed*c with c the closure
    profile (overlapping blinks take the pointwise max), so every blink
    reaches the channel's closed value even over half-open predictions.
    Profiles running past the clip end are truncated. Only lid-closure
    channels change.
    """
    lids = cmap.eye_role_indices("lid_closure")
    if not lids:
        raise DataError("controller map has no lid_closure channels")
    n = len(seq)
    profile = blink_profile()
    closure = np.zeros(n)
    for s in np.asarray(starts, dtype=np.int64).reshape(-1):
        if s >= n or s + BLINK_SPAN <= 0:
            continue
        lo = max(int(s), 0)
        hi = min(int(s) + BLINK_SPAN, n)
        seg = profile[lo - int(s):hi - int(s)]
        closure[lo:hi] = np.maximum(closure[lo:hi], seg)
    out = seq.values.copy()
    active = closure > 0.0
    if active.any():
        c = closure[active]
        for ch in lids:
            closed = cmap.entries[ch].vmax
            out[active, ch] = out[active, ch] * (1.0 - c) + closed * c
    return RigSequence(out)


def default_blink_classifier() -> BlinkClassifier:
    """The classifier shipped with the package, trained on the seeded
    synthetic corpus (``tests/test_blink.py`` holds the recipe)."""
    data = resources.files("speechrig.data").joinpath("default_blink_classifier.json")
    with resources.as_file(data) as path:
        return BlinkClassifier.load(path)
