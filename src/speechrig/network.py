"""Transformer regression core: encodings in, rig values out.

A stack of post-norm encoder layers (multi-head self-attention + ReLU
feed-forward, residuals, layer norm) followed by an affine head. Forward
and reverse passes are written out explicitly over numpy arrays; the
reverse pass is validated against central finite differences by
``grad_check``, which is the correctness gate for training.

Reference configuration: 10 layers, model width 512, 8 heads, feed-forward
width 2048, output width 174. Desk-scale configurations shrink every
dimension but share all code paths.

Every learnable tensor is a view into one contiguous vector,
``RigModel.flat``, in ``named_parameters`` order. Initialisation, the
gradient buffer the reverse pass adds into, Adam's moments, the
finite-difference check and the weight file all share that layout.

Weight file layout (little-endian):

    magic  b"EMOW"
    u32    version (1)
    u32    metadata length
    bytes  metadata JSON (dims, feature family, tensor manifest)
    f32[]  ``flat``: every tensor in ``named_parameters`` order

The manifest must list exactly that layout: the canonical names and
shapes in order, each offset (in bytes from the payload start) where the
previous tensor ends, starting at 0. The payload holds exactly those
bytes and nothing after them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import struct
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .encoders import (
    LEAKY_SLOPE,
    EncoderParams,
    _emotion_mlp,
    encode_content,
    encode_emotion_table,
    encoder_shapes,
)
from .errors import DataError, NumericError
from .features import FeatureSequence, resample_features
from .rig import N_EMOTIONS, RIG_FPS, RIG_WIDTH, RigSequence, atomic_write, validate_timeline

WEIGHT_MAGIC = b"EMOW"
WEIGHT_VERSION = 1
_WHEADER = struct.Struct("<4sII")

_LN_EPS = 1e-5


@dataclass(frozen=True)
class LayerParams:
    """One encoder layer: attention projections, norms, feed-forward."""

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray


# shape of each layer tensor, in field order: "d" is d_model, "f" is d_ff
_LAYER_SHAPES = {"wq": "dd", "bq": "d", "wk": "dd", "bk": "d", "wv": "dd", "bv": "d",
                 "wo": "dd", "bo": "d", "ln1_g": "d", "ln1_b": "d", "w1": "df", "b1": "f",
                 "w2": "fd", "b2": "d", "ln2_g": "d", "ln2_b": "d"}
_LAYER_FIELDS = tuple(_LAYER_SHAPES)
_ENCODER_FIELDS = tuple(encoder_shapes(0, 0))  # names only; the dims do not matter


def _layer_shapes(d_model: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    dims = {"d": d_model, "f": d_ff}
    return {k: tuple(dims[c] for c in s) for k, s in _LAYER_SHAPES.items()}


@dataclass
class RigModel:
    """All learnable tensors plus the hyperparameters that shape them.

    ``flat`` holds every tensor; the other array fields are views into it.
    """

    flat: np.ndarray
    encoder: EncoderParams
    layers: list[LayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    n_heads: int
    dropout: float = 0.1
    feature_family: str = "external"

    @property
    def d_model(self) -> int:
        return self.head_w.shape[0]

    @property
    def d_ff(self) -> int:
        return self.layers[0].w1.shape[1] if self.layers else 0

    @property
    def output_dim(self) -> int:
        return self.head_w.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.encoder.feature_dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _model_meta(model: RigModel) -> dict:
    """The dims and hyperparameters a weight file stores; ``_bind`` reads them."""
    return {"feature_family": model.feature_family, "feature_dim": model.feature_dim,
            "d_model": model.d_model, "n_layers": model.n_layers, "n_heads": model.n_heads,
            "d_ff": model.d_ff, "output_dim": model.output_dim, "dropout": model.dropout,
            "leaky_slope": LEAKY_SLOPE}


def _layout(meta: dict) -> list[tuple[str, tuple[int, ...], slice]]:
    """Name, shape and ``flat`` slice of every tensor, in ``named_parameters`` order."""
    d, out = meta["d_model"], meta["output_dim"]
    shapes = [(f"encoder.{k}", s) for k, s in encoder_shapes(meta["feature_dim"], d).items()]
    layer = _layer_shapes(d, meta["d_ff"])
    for i in range(meta["n_layers"]):
        shapes.extend((f"layers.{i}.{k}", s) for k, s in layer.items())
    shapes += [("head_w", (d, out)), ("head_b", (out,))]
    layout, at = [], 0
    for name, shape in shapes:
        n = math.prod(shape)
        layout.append((name, shape, slice(at, at + n)))
        at += n
    return layout


def _bind(flat: np.ndarray, meta: dict) -> RigModel:
    """A model whose tensors are views into ``flat``, laid out by ``_layout(meta)``."""
    views = {name: flat[sl].reshape(shape) for name, shape, sl in _layout(meta)}
    encoder = EncoderParams(**{k: views[f"encoder.{k}"] for k in _ENCODER_FIELDS})
    layers = [LayerParams(**{k: views[f"layers.{i}.{k}"] for k in _LAYER_FIELDS})
              for i in range(meta["n_layers"])]
    return RigModel(flat, encoder, layers, views["head_w"], views["head_b"],
                    meta["n_heads"], meta["dropout"], meta["feature_family"])


def build_model(feature_dim: int, d_model: int = 512, n_layers: int = 10,
                n_heads: int = 8, d_ff: int = 2048, output_dim: int = RIG_WIDTH,
                dropout: float = 0.1, seed: int = 0,
                feature_family: str = "external") -> RigModel:
    """Freshly initialized model.

    In ``named_parameters`` order: the emotion embedding draws N(0, 0.02),
    every other matrix Glorot-uniform U(-b, b) with b = sqrt(6 / (n_in +
    n_out)), layer-norm gains are 1 and every other vector is 0.
    """
    meta = {"feature_family": feature_family, "feature_dim": feature_dim, "d_model": d_model,
            "n_layers": n_layers, "n_heads": n_heads, "d_ff": d_ff, "output_dim": output_dim,
            "dropout": dropout}
    _check_shape(meta, "model")
    model = _bind(np.zeros(_layout(meta)[-1][2].stop), meta)
    rng = np.random.default_rng(seed)
    for name, p in named_parameters(model):
        if name == "encoder.emotion_embed":
            p[...] = rng.normal(0.0, 0.02, p.shape)
        elif p.ndim == 2:
            bound = np.sqrt(6.0 / (p.shape[0] + p.shape[1]))
            p[...] = rng.uniform(-bound, bound, p.shape)
        elif name.endswith("_g"):
            p.fill(1.0)
    return model


def reference_model(feature_dim: int = 768, seed: int = 0,
                    feature_family: str = "external") -> RigModel:
    """The full-scale configuration: 10 layers at width 512."""
    return build_model(feature_dim, d_model=512, n_layers=10, n_heads=8,
                       d_ff=2048, output_dim=RIG_WIDTH, dropout=0.1,
                       seed=seed, feature_family=feature_family)


def named_parameters(model: RigModel) -> list[tuple[str, np.ndarray]]:
    """Stable (name, view into ``model.flat``) listing of every learnable tensor."""
    return [(name, model.flat[sl].reshape(shape))
            for name, shape, sl in _layout(_model_meta(model))]


def grad_buffer(model: RigModel) -> RigModel:
    """Zero gradients in ``model``'s layout; ``training_backward`` adds into them."""
    return _bind(np.zeros(model.flat.size), _model_meta(model))


# --- primitive forward/backward pairs ---------------------------------------


def _softmax_inplace(x: np.ndarray) -> np.ndarray:
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _layer_norm_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def _layer_norm_backward(dout, cache, dg, db):
    """Input gradient; adds the gain and offset gradients into ``dg`` and ``db``."""
    xhat, inv, g = cache
    dg += (dout * xhat).sum(axis=0)
    db += dout.sum(axis=0)
    dxhat = dout * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


def _split_heads(x, n_heads):
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x):
    h, t, dh = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dh)


def _kv_forward(x, p: LayerParams):
    """The key and value rows of input rows ``x``."""
    return x @ p.wk + p.bk, x @ p.wv + p.bv


def _attention_forward(x, p: LayerParams, n_heads, kv=None):
    """Rows ``x`` attend over the keys and values ``kv``, by default their
    own (see ``_kv_forward``); then the output projection."""
    k, v = _kv_forward(x, p) if kv is None else kv
    qh, kh, vh = (_split_heads(t, n_heads) for t in (x @ p.wq + p.bq, k, v))
    # a Python float keeps float32 scores float32
    scale = float(1.0 / np.sqrt(qh.shape[-1]))
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= scale
    attn = _softmax_inplace(scores)
    merged = _merge_heads(attn @ vh)
    out = merged @ p.wo + p.bo
    return out, (x, qh, kh, vh, attn, merged, scale)


def _attention_backward(dout, cache, p: LayerParams, g: LayerParams):
    x, qh, kh, vh, attn, merged, scale = cache
    g.wo[...] += merged.T @ dout
    g.bo[...] += dout.sum(axis=0)
    dctx = _split_heads(dout @ p.wo.T, qh.shape[0])
    dattn = dctx @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 2, 1) @ qh
    dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
    g.wq[...] += x.T @ dq
    g.bq[...] += dq.sum(axis=0)
    g.wk[...] += x.T @ dk
    g.bk[...] += dk.sum(axis=0)
    g.wv[...] += x.T @ dv
    g.bv[...] += dv.sum(axis=0)
    return dq @ p.wq.T + dk @ p.wk.T + dv @ p.wv.T


def _dropout_mask(shape, p, rng):
    return (rng.random(shape) >= p) / (1.0 - p)


def _layer_forward(x, p: LayerParams, n_heads, dropout_p, rng, keep_cache, kv=None):
    """Rows ``x`` through the layer: attention over the keys and values
    ``kv`` (see ``_attention_forward``), residual and norm, feed-forward,
    residual and norm. Returns the output rows and, with ``keep_cache``,
    what the reverse pass reads.

    Every step but the attention works on each row alone. Without
    ``keep_cache`` the attention cache (Q/K/V and the heads x rows x keys
    scores) is released before the feed-forward block runs.
    """
    a, attn_cache = _attention_forward(x, p, n_heads, kv)
    if not keep_cache:
        attn_cache = None
    mask1 = None
    if dropout_p > 0.0 and rng is not None:
        mask1 = _dropout_mask(a.shape, dropout_p, rng)
        a = a * mask1
    x1, ln1_cache = _layer_norm_forward(x + a, p.ln1_g, p.ln1_b)

    z = x1 @ p.w1 + p.b1
    h = np.maximum(z, 0.0)
    f = h @ p.w2 + p.b2
    mask2 = None
    if dropout_p > 0.0 and rng is not None:
        mask2 = _dropout_mask(f.shape, dropout_p, rng)
        f = f * mask2
    x2, ln2_cache = _layer_norm_forward(x1 + f, p.ln2_g, p.ln2_b)
    if not keep_cache:
        return x2, None
    return x2, (attn_cache, mask1, ln1_cache, x1, z, h, mask2, ln2_cache)


def _layer_backward(dout, cache, p: LayerParams, g: LayerParams):
    """Input gradient; adds the layer's parameter gradients into ``g``."""
    attn_cache, mask1, ln1_cache, x1, z, h, mask2, ln2_cache = cache

    dr2 = _layer_norm_backward(dout, ln2_cache, g.ln2_g, g.ln2_b)
    df = dr2 if mask2 is None else dr2 * mask2
    g.w2[...] += h.T @ df
    g.b2[...] += df.sum(axis=0)
    dh = df @ p.w2.T
    dz = dh * (z > 0.0)
    g.w1[...] += x1.T @ dz
    g.b1[...] += dz.sum(axis=0)
    dx1 = dr2 + dz @ p.w1.T

    dr1 = _layer_norm_backward(dx1, ln1_cache, g.ln1_g, g.ln1_b)
    da = dr1 if mask1 is None else dr1 * mask1
    return dr1 + _attention_backward(da, attn_cache, p, g)


# --- whole-network passes ----------------------------------------------------


def forward_with_attention(model: RigModel, hidden: np.ndarray):
    """Deterministic pass over a content + emotion encoding (T x d_model);
    returns the output and each layer's attention maps."""
    y, _, maps = _stack_forward(model, np.asarray(hidden, dtype=np.float64),
                                train=False, rng=None, keep_attention=True)
    return y, maps


def _stack_forward(model, h, train, rng, keep_attention):
    if h.ndim != 2 or h.shape[1] != model.d_model:
        raise DataError(f"hidden state must be (T, {model.d_model}), got {h.shape}")
    dropout_p = model.dropout if train else 0.0
    caches = [] if train else None
    maps = [] if keep_attention else None
    for i, layer in enumerate(model.layers):
        h, cache = _layer_forward(h, layer, model.n_heads, dropout_p, rng,
                                  keep_cache=train or keep_attention)
        _check_finite(h, f"after encoder layer {i}")
        if train:
            caches.append(cache)
        if keep_attention:
            maps.append(cache[0][4])
    y = _head_forward(model, h)
    if train:
        caches.append(h)  # head input
    return y, caches, maps


def _head_forward(model, h):
    y = h @ model.head_w + model.head_b
    _check_finite(y, "in output head")
    return y


def _check_finite(h, where: str) -> None:
    if not np.isfinite(h).all():
        raise NumericError(f"non-finite activations {where}")


def training_forward(model: RigModel, features: np.ndarray, labels: np.ndarray,
                     rng: np.random.Generator | None = None):
    """Forward pass from raw features, keeping every cache for backprop."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    content = encode_content(features, model.encoder)
    z1, a1, etab = _emotion_mlp(model.encoder)
    h0 = content + etab[labels]

    y, caches, _ = _stack_forward(model, h0, train=True, rng=rng, keep_attention=False)
    cache = {"features": features, "labels": labels, "z1": z1, "a1": a1,
             "stack": caches}
    return y, cache


def training_backward(model: RigModel, cache, dy: np.ndarray, grads: RigModel) -> None:
    """Reverse pass; adds every parameter gradient into ``grads`` (see ``grad_buffer``).

    The parameter dataclasses are frozen, so the adds are ``view[...] +=``:
    in place, never a rebinding that would detach a view from ``flat``.
    """
    stack = cache["stack"]
    grads.head_w[...] += stack[-1].T @ dy
    grads.head_b[...] += dy.sum(axis=0)
    dh = dy @ model.head_w.T

    for i in range(len(model.layers) - 1, -1, -1):
        dh = _layer_backward(dh, stack[i], model.layers[i], grads.layers[i])

    enc, g = model.encoder, grads.encoder
    features, labels = cache["features"], cache["labels"]
    g.content_w[...] += features.T @ dh
    g.content_b[...] += dh.sum(axis=0)

    detab = np.zeros((N_EMOTIONS, enc.d_model))
    np.add.at(detab, labels, dh)
    a1, z1 = cache["a1"], cache["z1"]
    g.emotion_w2[...] += a1.T @ detab
    g.emotion_b2[...] += detab.sum(axis=0)
    da1 = detab @ enc.emotion_w2.T
    dz1 = da1 * np.where(z1 >= 0, 1.0, LEAKY_SLOPE)
    g.emotion_w1[...] += enc.emotion_embed.T @ dz1
    g.emotion_b1[...] += dz1.sum(axis=0)
    g.emotion_embed[...] += dz1 @ enc.emotion_w1.T


def mse_and_grad(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all entries, with its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise DataError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def clip_loss_and_grads(model: RigModel, features, labels, target, grads: RigModel,
                        rng: np.random.Generator | None = None) -> float:
    """One clip's MSE loss; adds its parameter gradients into ``grads``."""
    y, cache = training_forward(model, features, labels, rng)
    loss, dy = mse_and_grad(y, np.asarray(target, dtype=np.float64))
    training_backward(model, cache, dy, grads)
    return loss


# --- gradient checking -------------------------------------------------------


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise DataError(f"finite-difference eps must be finite and > 0, got {eps}")


def grad_check(model: RigModel, features, labels, target, eps: float = 1e-5,
               param_names=None):
    """Max relative error between analytic and central-difference gradients.

    Runs with dropout off in double precision; every entry of every
    selected parameter tensor is perturbed, so keep the probe model small.
    ``param_names`` restricts the check to a subset (e.g. the affine head,
    where the loss is exactly quadratic and agreement reaches roundoff).
    """
    _check_eps(eps)
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    target = np.asarray(target, dtype=np.float64)
    upcast_to_float64(model)

    grads = grad_buffer(model)
    clip_loss_and_grads(model, features, labels, target, grads)

    def loss_only():
        yy, _ = training_forward(model, features, labels, rng=None)
        return mse_and_grad(yy, target)[0]

    selected = _layout(_model_meta(model))
    if param_names is not None:
        wanted = set(param_names)
        selected = [entry for entry in selected if entry[0] in wanted]
        if not selected:
            raise DataError(f"no parameters match {sorted(wanted)}")

    worst = 0.0
    flat, analytic = model.flat, grads.flat
    for _, _, sl in selected:
        for j in range(sl.start, sl.stop):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_only()
            flat[j] = orig - eps
            lm = loss_only()
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            err = abs(analytic[j] - numeric) / max(1e-6, abs(analytic[j]), abs(numeric))
            if err > worst:
                worst = err
    return worst


def _kink_margin(model: RigModel, features, labels) -> float:
    """Smallest |pre-activation| at any ReLU or leaky-ReLU input."""
    _, cache = training_forward(model, features, labels, rng=None)
    margin = float(np.min(np.abs(cache["z1"]), initial=np.inf))
    for layer_cache in cache["stack"][:-1]:
        z = layer_cache[4]
        margin = min(margin, float(np.min(np.abs(z), initial=np.inf)))
    return margin


def gradcheck_probe(feature_dim: int = 8, d_model: int = 16, n_layers: int = 1,
                    n_heads: int = 2, d_ff: int = 32, output_dim: int = 12,
                    frames: int = 4, eps: float = 1e-5, seed: int = 0):
    """Deterministic (model, features, labels, target) probe for grad_check.

    Central differences misreport the slope when a pre-activation sits
    within eps of a ReLU kink, so seeds are scanned until every kink
    keeps a wide margin. The scan is deterministic for a given seed.
    """
    _check_eps(eps)
    if frames < 1:
        raise DataError(f"the probe needs frames >= 1, got {frames}")
    for trial in range(64):
        s = seed + 1000 * trial
        model = build_model(feature_dim, d_model=d_model, n_layers=n_layers,
                            n_heads=n_heads, d_ff=d_ff, output_dim=output_dim,
                            dropout=0.0, seed=s)
        rng = np.random.default_rng(s + 1)
        # the tiny default embedding init parks the emotion pre-activations
        # right at the leaky kink; the probe needs them at a healthy scale
        model.encoder.emotion_embed[...] = rng.normal(0.0, 0.5, model.encoder.emotion_embed.shape)
        features = rng.normal(0.0, 1.0, (frames, feature_dim))
        labels = rng.integers(0, N_EMOTIONS, frames)
        target = rng.normal(0.0, 0.5, (frames, output_dim))
        if _kink_margin(model, features, labels) > 50.0 * eps:
            return model, features, labels, target
    raise NumericError("no kink-free gradient probe found; reduce eps")


# --- inference ----------------------------------------------------------------


@dataclass
class InferenceConfig:
    """Chunking bounds the quadratic attention cost on long clips."""

    chunk_frames: int = 600
    overlap_frames: int = 60

    def __post_init__(self):
        if not self.chunk_frames > 2 * self.overlap_frames >= 0:
            raise DataError(
                f"need chunk_frames > 2*overlap_frames >= 0, got "
                f"{self.chunk_frames} / {self.overlap_frames}"
            )


def infer(features: FeatureSequence, timeline, model: RigModel,
          cfg: InferenceConfig | None = None) -> RigSequence:
    """Predict a 60 fps rig sequence for a feature stream and emotion timeline.

    Features at other rates are resampled internally. A clip of one chunk
    runs its encoder rows in blocks on every usable core (see
    ``_blocked_stack_forward``). Longer clips run in overlapping chunks
    whose overlap regions are linearly crossfaded; the chunks run on
    every usable core (see ``chunked_apply``); a failure raises what a
    serial run raises, though chunks after a failing one may still run.
    Positions are global frame indices: each chunk's encoding starts at
    its own start frame, so a chunk sees the positions it has in the clip.

    Every chunk's encoder input is built on the calling thread, in chunk
    order, before any chunk runs: its feature rows are cast to float64
    for the encoders and the sum is kept in float32; no float64 copy of
    the whole clip is kept. Each input, ``chunk_frames * d_model * 4``
    bytes, is held until its chunk starts. The encoder stack and head
    run in float32 and keep no layer caches. Reruns are byte-identical at
    a fixed BLAS thread count, whatever the number of runners; across
    thread counts they agree within 1e-5 relative to the largest output.
    A clip of several chunks, or of one chunk in several row blocks, runs
    at one BLAS thread, so its output is the one-thread output at any
    count.
    """
    cfg = cfg or InferenceConfig()
    if features.n_features != model.feature_dim:
        raise DataError(
            f"feature width {features.n_features} does not match model "
            f"feature width {model.feature_dim}"
        )
    if features.rate_hz != RIG_FPS:
        features = resample_features(features, RIG_FPS)
    n = features.n_frames
    labels = validate_timeline(timeline, n)
    etab = encode_emotion_table(model.encoder)
    stack = _bind(np.asarray(model.flat, np.float32), _model_meta(model))
    bounds = _chunk_bounds(n, cfg)
    h0 = {s: np.asarray(encode_content(features.data[s:e], model.encoder, pos_offset=s)
                        + etab[labels[s:e]], np.float32) for s, e in bounds}
    if len(bounds) == 1:
        return RigSequence(_blocked_stack_forward(stack, h0.pop(0)))

    def run_chunk(s, e):
        return _stack_forward(stack, h0.pop(s), train=False, rng=None, keep_attention=False)[0]

    return RigSequence(chunked_apply(run_chunk, n, model.output_dim, cfg))


def upcast_to_float64(model: RigModel) -> None:
    """Rebind a float32 model (a loaded one) to a float64 copy of ``flat``.

    Training and ``grad_check`` run in double precision; for a model that
    is float64 already this does nothing.
    """
    if model.flat.dtype != np.float64:
        vars(model).update(vars(_bind(model.flat.astype(np.float64), _model_meta(model))))


def _chunk_bounds(n_frames: int, cfg: InferenceConfig) -> list[tuple[int, int]]:
    """The chunks [s, e) covering [0, n_frames), each overlapping the one
    before by ``cfg.overlap_frames``; one chunk if the clip fits in one."""
    ov = cfg.overlap_frames
    return [(s, min(s + cfg.chunk_frames, n_frames))
            for s in range(0, max(n_frames - ov, 1), cfg.chunk_frames - ov)]


def chunked_apply(run_chunk, n_frames: int, out_dim: int, cfg: InferenceConfig) -> np.ndarray:
    """Cover [0, n_frames) with the overlapping chunks of ``_chunk_bounds``
    and linearly crossfade each overlap region; chunks that agree on the
    overlap pass through unchanged there.

    Chunk [s, e) is ``run_chunk(s, e)``, an (e - s, out_dim) array. The
    chunks start in order on min(usable CPUs, chunks) runners at one BLAS
    thread (see ``_runner_pool``), so the result does not depend on the
    number of runners: a pool's threads, and the calling thread, which
    runs each chunk no thread has started until a chunk fails. (A caller
    that only waited would hold the memory it encoded the chunks in while
    one more thread allocated its own: +6.7% peak RSS on a 60 s clip.)
    ``infer`` builds every chunk's float32 input before this starts and
    frees each as its chunk starts, so each costs ``chunk_frames *
    d_model * 4`` bytes until then.

    The earliest failing chunk's exception reaches the caller unchanged,
    as in a serial run, once every chunk before it has run; until then the
    threads may start later chunks. An interrupt of the calling thread is
    raised once the threads' running chunks have ended.
    """
    bounds = _chunk_bounds(n_frames, cfg)
    with _runner_pool(len(bounds)) as (runners, pool):
        failed = threading.Event()

        def run(b):
            try:
                return run_chunk(*b)
            except BaseException:
                failed.set()
                raise

        # with one runner no chunk goes to the pool: the calling thread runs them all
        runs = [pool.submit(run, b) if runners > 1 else Future() for b in bounds]
        for i, b in enumerate(bounds):
            if failed.is_set():
                break
            if runs[i].cancel():  # no thread has started it
                runs[i] = Future()
                try:
                    runs[i].set_result(run(b))
                except Exception as exc:
                    runs[i].set_exception(exc)
        ys = [r.result() for r in runs]

    ov = cfg.overlap_frames
    out = np.empty((n_frames, out_dim))
    w = ((np.arange(ov, dtype=np.float64) + 1.0) / (ov + 1.0))[:, None]
    for (s, e), y in zip(bounds, ys):
        if s == 0:
            out[:e] = y
        else:  # rows s .. s + ov overlap the previous chunk
            prev = out[s:s + ov]
            out[s:s + ov] = prev + w * (y[:ov] - prev)
            out[s + ov:e] = y[ov:]
    return out


# One-chunk clips of at least twice this many frames run in row blocks.
_ROW_BLOCK = 256


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """``n_rows // _ROW_BLOCK`` (at least one) near-equal row blocks: a
    function of the row count only."""
    k = max(1, n_rows // _ROW_BLOCK)
    edges = [n_rows * b // k for b in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _blocked_stack_forward(stack: RigModel, h0: np.ndarray) -> np.ndarray:
    """The encoder stack and head on rows ``h0``, its query rows cut into
    ``_row_blocks(len(h0))``.

    Each block's rows attend over all keys, the query-block partition of
    FlashAttention (Dao et al. 2022, arXiv 2205.14135), and every other
    step works on each row alone, so a block computes its rows as the
    unblocked pass does (bit for bit where BLAS picks the same kernels
    for both row counts). Several blocks run on min(usable CPUs, blocks)
    runners at one BLAS thread (see ``_runner_pool``), the calling thread
    being runner 0. Blocks are dealt to runners round robin; per layer
    each runner writes its rows' keys and values into one shared pair of
    buffers and waits at a barrier for the others, then finishes the layer
    for its own rows.
    A second barrier keeps the next layer's writes until every runner is
    done reading; a second pair of buffers in its place would hold 2.4 MB
    more at 600 frames of width 512. A block's arithmetic does not depend
    on the runner that does it, so neither does the output.

    A runner's exception, an interrupt of the calling thread included,
    breaks the barrier so no other runner waits for it; once every runner
    has returned, the lowest runner's exception is raised, a
    ``BrokenBarrierError`` only if there is no other.
    """
    blocks = _row_blocks(len(h0))
    if len(blocks) == 1:
        return _stack_forward(stack, h0, train=False, rng=None, keep_attention=False)[0]
    k, v = np.empty((2, *h0.shape), h0.dtype)
    out = np.empty((len(h0), stack.output_dim), h0.dtype)
    with _runner_pool(len(blocks)) as (runners, pool):
        barrier = threading.Barrier(runners)

        def task(r):
            try:
                mine = [(s, e, h0[s:e]) for s, e in blocks[r::runners]]
                for i, layer in enumerate(stack.layers):
                    barrier.wait()  # the previous layer's keys and values are read
                    for s, e, h in mine:
                        k[s:e], v[s:e] = _kv_forward(h, layer)
                    barrier.wait()  # this layer's are written
                    for b, (s, e, h) in enumerate(mine):
                        h = _layer_forward(h, layer, stack.n_heads, 0.0, None, keep_cache=False,
                                           kv=(k, v))[0]
                        _check_finite(h, f"after encoder layer {i}")
                        mine[b] = s, e, h
                for s, e, h in mine:
                    out[s:e] = _head_forward(stack, h)
            except BaseException:  # an interrupt too: no runner may wait for this one
                barrier.abort()
                raise

        runs = [pool.submit(task, r) for r in range(1, runners)]
        try:
            task(0)  # the calling thread is runner 0
        except threading.BrokenBarrierError:
            pass  # a thread's exception broke the barrier; it is raised below
    errors = [run.exception() for run in runs if run.exception() is not None]
    if errors:
        raise min(errors, key=lambda exc: isinstance(exc, threading.BrokenBarrierError))
    return out


@functools.lru_cache(maxsize=1)
def _blas_thread_control():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None.

    The library is looked up among the files this process has mapped.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({ln.split()[-1] for ln in f if "scipy_openblas" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, put
    return None


@contextlib.contextmanager
def _runner_pool(jobs: int):
    """Hold numpy's OpenBLAS at one thread and yield the runner count for
    ``jobs`` parallel jobs, one per usable CPU and at most ``jobs``, and a
    standard-library thread pool for the runners besides the calling
    thread. On exit the pool's queued jobs are dropped, its running ones
    waited for, and the BLAS thread count restored. Where that count
    cannot be set, nothing is changed: one runner and no pool."""
    blas = _blas_thread_control()
    if blas is None:
        yield 1, None
        return
    get, put = blas
    old = get()
    put(1)
    runners = min(len(os.sched_getaffinity(0)), jobs)
    pool = ThreadPoolExecutor(max(runners - 1, 1))
    try:
        yield runners, pool
    finally:
        pool.shutdown(cancel_futures=True)
        put(old)


# --- weight files --------------------------------------------------------------


def save_model(path, model: RigModel) -> None:
    """Write the weight file: metadata JSON, then ``model.flat`` as f32."""
    meta = _model_meta(model)
    meta["tensors"] = [{"name": name, "shape": list(shape), "offset": 4 * sl.start}
                       for name, shape, sl in _layout(meta)]
    blob = json.dumps(meta).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(_WHEADER.pack(WEIGHT_MAGIC, WEIGHT_VERSION, len(blob)))
        f.write(blob)
        f.write(np.asarray(model.flat, "<f4"))  # no copy for a loaded model


_META_DIMS = {  # dim -> smallest valid value
    "feature_dim": 1, "d_model": 2, "n_layers": 0, "n_heads": 1, "d_ff": 0, "output_dim": 1,
}


def _check_shape(meta: dict, where: str) -> None:
    """The one validity rule for a model's dims and dropout, which
    ``build_model`` and the weight loader both apply; errors start with
    ``where``. The positional table needs an even ``d_model``."""
    for key, least in _META_DIMS.items():
        if type(meta[key]) is not int or meta[key] < least:
            raise DataError(f"{where} {key} must be an integer >= {least}, got {meta[key]!r}")
    d_model, n_heads = meta["d_model"], meta["n_heads"]
    if d_model % 2 != 0 or d_model % n_heads != 0:
        raise DataError(f"{where} d_model {d_model} must be even and divisible by "
                        f"n_heads {n_heads}")
    dropout = meta["dropout"]
    if type(dropout) not in (int, float) or not 0.0 <= dropout < 1.0:
        raise DataError(f"{where} dropout must be a number in [0, 1), got {dropout!r}")


def _check_metadata(path, meta) -> None:
    """Reject metadata whose dims, dropout, slope or manifest are unusable."""
    if not isinstance(meta, dict):
        raise DataError(f"{path}: metadata must be a JSON object")
    for key in (*_META_DIMS, "dropout", "feature_family", "tensors"):
        if key not in meta:
            raise DataError(f"{path}: metadata lacks {key!r}")
    _check_shape(meta, f"{path}: metadata")
    if meta.get("leaky_slope", LEAKY_SLOPE) != LEAKY_SLOPE:
        raise DataError(f"{path}: metadata leaky_slope must be {LEAKY_SLOPE}, "
                        f"got {meta['leaky_slope']!r}")
    if not isinstance(meta["feature_family"], str):
        raise DataError(f"{path}: metadata feature_family must be a string")
    if not isinstance(meta["tensors"], list):
        raise DataError(f"{path}: metadata tensors must be a list")


def load_model(path, digest=None) -> RigModel:
    """Read a weight file into a model whose tensors stay float32.

    The payload is read in one go into ``flat``; ``infer`` uses it as it
    is, and ``train`` / ``grad_check`` upcast it to float64. A hashlib
    ``digest``, if given, is fed the header and metadata bytes read;
    ``weights_hexdigest`` adds the payload, so the file is read once.
    """
    try:
        with open(path, "rb") as f:
            # a throwaway digest of a few header bytes costs microseconds
            return _read_weights(path, f, hashlib.sha256() if digest is None else digest)
    except OSError as exc:
        raise DataError(f"cannot read weight file {path}: {exc}") from None


def weights_hexdigest(model: RigModel, digest) -> str:
    """Finish the ``digest`` given to ``load_model`` for ``model``: the hash
    of the weight-file bytes loaded, as ``file_sha256`` gives for that file.

    ``flat``'s bytes are the file's payload until ``flat`` is written or
    upcast. hashlib drops the GIL on large updates, so this can run on a
    worker thread while ``infer`` reads ``flat``.
    """
    digest.update(memoryview(model.flat).cast("B"))
    return digest.hexdigest()


def _read_weights(path, f, digest) -> RigModel:
    header = f.read(_WHEADER.size)
    digest.update(header)
    if len(header) < _WHEADER.size:
        raise DataError(f"{path}: too short for a weight header")
    magic, version, meta_len = _WHEADER.unpack(header)
    if magic != WEIGHT_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != WEIGHT_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    rest = os.fstat(f.fileno()).st_size - _WHEADER.size
    if meta_len > rest:  # read() would allocate meta_len bytes up front
        raise DataError(f"{path}: metadata length {meta_len} exceeds the {rest} bytes "
                        f"after the header")
    raw = f.read(meta_len)
    digest.update(raw)
    try:
        meta = json.loads(raw)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{path}: corrupt metadata: {exc}") from None
    _check_metadata(path, meta)

    specs = meta["tensors"]
    # checked before the layout is built, which a corrupt n_layers could blow up
    if len(_LAYER_FIELDS) * meta["n_layers"] > len(specs):
        raise DataError(f"{path}: missing tensors: {meta['n_layers']} layers declared, "
                        f"{len(specs)} tensors listed")
    layout = _layout(meta)
    if len(specs) != len(layout):
        raise DataError(f"{path}: {len(specs)} tensors listed, the layout has {len(layout)}")
    for spec, (name, shape, sl) in zip(specs, layout):
        try:
            got = spec["name"], tuple(spec["shape"]), spec["offset"]
        except (KeyError, TypeError):
            raise DataError(f"{path}: malformed tensor entry {spec!r}") from None
        if type(got[2]) is not int:
            raise DataError(f"{path}: tensor {got[0]!r} has bad offset {got[2]!r}")
        if got != (name, shape, 4 * sl.start):
            raise DataError(f"{path}: manifest lists {got[0]!r} {got[1]} at offset {got[2]} "
                            f"where the layout has {name!r} {shape} at offset {4 * sl.start}")

    payload, need = rest - meta_len, 4 * layout[-1][2].stop
    if payload < need:
        raise DataError(f"{path}: truncated payload: {payload} bytes, the tensors need {need}")
    if payload > need:
        raise DataError(f"{path}: {payload - need} bytes after the last tensor")
    flat = np.empty(need // 4, dtype="<f4")
    got = f.readinto(flat)
    if got < need:  # the file shrank after the size check
        raise DataError(f"{path}: truncated payload: {got} bytes, the tensors need {need}")
    return _bind(flat, meta)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
