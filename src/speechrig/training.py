"""Supervised MSE training: Adam over the flat parameter vector with a
step decay schedule, and a synthetic dataset generator for desk-scale
runs.

The schedule decays the learning rate by ``GAMMA`` = 0.995 every
``STEP_SIZE`` = 100 epochs; the reference run lasts 3000 epochs.
Desk-scale runs shrink the model and epoch count but use the same loop.
Batches are whole clips, never individual frames, so attention always
spans the full clip.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .encoders import emotion_mlp, positional_encoding
from .features import load_features, resample_features
from .network import (
    BackwardScratch,
    RigModel,
    clip_loss_and_grads,
    grad_buffer,
    upcast_to_float64,
)
from .rig import N_EMOTIONS, RIG_FPS, constant_timeline, emotion_id, read_rig_csv, write_csv

STEP_SIZE, GAMMA = 100, 0.995


@dataclass
class TrainConfig:
    lr0: float = 1e-4
    epochs: int = 3000
    batch: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lr0 < math.inf:  # NaN fails too
            raise DataError(f"lr0 must be finite and >= 0, got {self.lr0}")
        if self.epochs < 1 or self.batch < 1:
            raise DataError("epochs and batch must be >= 1")


def steplr(lr0: float, step_size: int, gamma: float, epoch: int) -> float:
    """Piecewise-constant decay: lr0 * gamma^floor(epoch / step_size)."""
    if epoch < 0:
        raise DataError(f"epoch must be >= 0, got {epoch}")
    return lr0 * gamma ** (epoch // step_size)


# --- synthetic data ----------------------------------------------------------


@dataclass
class ClipExample:
    features: np.ndarray  # (T, F)
    emotion: int
    target: np.ndarray  # (T, output width)


@dataclass
class SyntheticDataset:
    """Clips whose targets follow a known closed-form ground truth.

    target = tanh(features @ affine + emotion_offsets[emotion]); the squash
    keeps every target inside symmetric [-1, 1] rig bounds.
    """

    items: list[ClipExample]
    affine: np.ndarray  # (F, width)
    emotion_offsets: np.ndarray  # (7, width)

    def __len__(self):
        return len(self.items)


def gen_synthetic(seed: int, n_items: int, t_range=(40, 80), feature_dim: int = 32,
                  output_dim: int = 174) -> SyntheticDataset:
    """Reproducible random clips with the documented ground-truth transform."""
    if n_items < 1:
        raise DataError(f"n_items must be >= 1, got {n_items}")
    t_lo, t_hi = int(t_range[0]), int(t_range[1])
    if not 1 <= t_lo <= t_hi:
        raise DataError(f"bad t_range {t_range}")
    rng = np.random.default_rng(seed)
    # Pre-squash std 0.25 and offsets within 0.2 keep the squash gentle; a
    # harder saturation needs one hidden unit per output channel to fit,
    # which desk-scale models don't have.
    affine = rng.normal(0.0, 0.25 / np.sqrt(feature_dim), (feature_dim, output_dim))
    offsets = rng.uniform(-0.2, 0.2, (N_EMOTIONS, output_dim))
    items = []
    for _ in range(n_items):
        t = int(rng.integers(t_lo, t_hi + 1))
        emotion = int(rng.integers(0, N_EMOTIONS))
        try:
            feats = rng.normal(0.0, 1.0, (t, feature_dim))
            target = np.tanh(feats @ affine + offsets[emotion])
        except (OverflowError, ValueError, MemoryError):  # numpy refuses the allocation
            raise DataError(f"a synthetic clip of {t} frames x {feature_dim} features is "
                            f"more than numpy can allocate") from None
        items.append(ClipExample(feats, emotion, target))
    return SyntheticDataset(items, affine, offsets)


# --- optimizer ----------------------------------------------------------------


class Adam:
    """Adam with bias correction over one parameter vector, updated in place.

    ``step`` computes its temporaries in two scratch vectors, so that no
    whole-vector temporary is freed at the heap top, handed back to the
    OS and faulted in again on the next step.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray):
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._a = np.empty_like(params)
        self._b = np.empty_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.BETA1
        m += np.multiply(grads, 1.0 - self.BETA1, out=a)
        v *= self.BETA2
        v += np.multiply(np.square(grads, out=a), 1.0 - self.BETA2, out=a)
        np.multiply(np.divide(m, bc1, out=a), lr, out=a)  # lr * m_hat
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), self.EPS, out=b)  # sqrt(v_hat) + eps
        params -= np.divide(a, b, out=a)


# --- training loop -------------------------------------------------------------


@dataclass
class TrainResult:
    model: RigModel
    history: list[tuple[int, float, float]]  # (epoch, lr, mean loss)

    @property
    def final_loss(self) -> float:
        return self.history[-1][2]


@np.errstate(all="ignore")  # a divergence raises NumericError (see below), not warnings
def train(model: RigModel, dataset, cfg: TrainConfig,
          progress=None) -> TrainResult:
    """Optimize the model on whole-clip batches; returns the loss curve.

    `dataset` is anything with an ``items`` list of ClipExample. Runs are
    reproducible: shuffling and dropout both derive from cfg.seed. A
    non-finite loss, activation or final weight aborts with a diagnostic
    rather than training on.

    What does not change between clips is computed once: one positional
    table for the longest clip, whose first rows each clip adds, and each
    clip's label vector. The emotion encoder's output is computed once per
    batch, since its weights change only at the optimizer step. The
    reverse pass makes its weight-sized products in one scratch vector.
    Each value gets the arithmetic it gets when computed per clip, so the
    weights and losses are the same bits.
    """
    items = dataset.items if hasattr(dataset, "items") else list(dataset)
    if not items:
        raise DataError("training dataset is empty")
    for k, item in enumerate(items):
        if item.features.shape[0] < 1:
            raise DataError(f"clip {k} has no frames")
        if item.features.shape[1] != model.feature_dim:
            raise DataError(
                f"clip {k}: feature width {item.features.shape[1]} does not "
                f"match model feature width {model.feature_dim}"
            )
        if item.target.shape != (item.features.shape[0], model.output_dim):
            raise DataError(
                f"clip {k}: target shape {item.target.shape} does not match "
                f"({item.features.shape[0]}, {model.output_dim})"
            )

    labels = [constant_timeline(item.emotion, item.features.shape[0]) for item in items]
    upcast_to_float64(model)  # a loaded model holds float32 tensors
    positions = positional_encoding(max(len(item.features) for item in items), model.d_model)
    scratch = BackwardScratch(model)
    rng = np.random.default_rng(cfg.seed)
    grads = grad_buffer(model)  # one buffer, refilled for every batch
    opt = Adam(model.flat)
    history = []
    for epoch in range(cfg.epochs):
        lr = steplr(cfg.lr0, STEP_SIZE, GAMMA, epoch)
        order = rng.permutation(len(items))
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch):
            batch = order[lo:lo + cfg.batch]
            grads.flat.fill(0.0)
            emotion = emotion_mlp(model.encoder)
            for idx in batch:
                item = items[idx]
                epoch_loss += clip_loss_and_grads(
                    model, item.features, labels[idx], item.target, grads, rng=rng,
                    positions=positions, emotion=emotion, scratch=scratch)
            grads.flat *= 1.0 / len(batch)
            opt.step(model.flat, grads.flat, lr)
        epoch_loss /= len(items)
        if not np.isfinite(epoch_loss):
            raise NumericError(
                f"training diverged at epoch {epoch}: loss is {epoch_loss}"
            )
        history.append((epoch, lr, epoch_loss))
        if progress is not None:
            progress(epoch, lr, epoch_loss)
    if not np.isfinite(model.flat).all():  # no forward pass sees the last step
        raise NumericError(f"training diverged in the last step of epoch {cfg.epochs - 1}: "
                           f"non-finite weights")
    return TrainResult(model, history)


def write_loss_csv(path, history) -> None:
    write_csv(path, ["epoch", "lr", "loss"],
              ([epoch, f"{lr:.9g}", f"{loss:.9g}"] for epoch, lr, loss in history))


# --- manifest loading -----------------------------------------------------------


def load_manifest(path) -> list[ClipExample]:
    """Load (feature file, target rig CSV, emotion) triples for training.

    Features are resampled to the 60 fps rig clock; each clip's target
    must then match its feature frame count.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise DataError(f"cannot read training manifest {path}: {exc}") from None
    entries = doc.get("items") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{path}: manifest must list at least one item")

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    items = []
    for k, obj in enumerate(entries):
        try:
            feat_path = resolve(obj["features"])
            target_path = resolve(obj["target"])
            emotion = emotion_id(obj["emotion"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: item {k} malformed: {exc}") from None
        except DataError as exc:
            raise DataError(f"{path}: item {k}: {exc}") from None
        feats = resample_features(load_features(feat_path), RIG_FPS)
        target = read_rig_csv(target_path).values
        if target.shape[0] != feats.n_frames:
            raise DataError(
                f"{path}: item {k}: target has {target.shape[0]} frames, "
                f"features give {feats.n_frames}"
            )
        items.append(ClipExample(feats.data.astype(np.float64), emotion, target))
    return items
