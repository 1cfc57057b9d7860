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

import collections
import contextlib
import contextvars
import ctypes
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .encoders import (
    LEAKY_SLOPE,
    EncoderParams,
    emotion_mlp,
    encode_content,
    encode_emotion_table,
    encoder_shapes,
    positional_encoding,
)
from .errors import DataError, NumericError
from .features import (
    FeatureSequence,
    resample_features,  # noqa: F401  unused here; perfbench traces it in this module
    resample_rows,
    resampled_frames,
)
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
# a layer's attention half; the fields after it are its feed-forward half
_ATTENTION_FIELDS = _LAYER_FIELDS[:_LAYER_FIELDS.index("w1")]
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
    """Freshly initialized model; the defaults are the paper's reference configuration.

    In ``named_parameters`` order: the emotion embedding draws N(0, 0.02),
    every other matrix Glorot-uniform U(-b, b) with b = sqrt(6 / (n_in +
    n_out)), layer-norm gains are 1 and every other vector is 0.
    """
    meta = {"feature_family": feature_family, "feature_dim": feature_dim, "d_model": d_model,
            "n_layers": n_layers, "n_heads": n_heads, "d_ff": d_ff, "output_dim": output_dim,
            "dropout": dropout}
    _check_shape(meta, "model")
    size = _layout(meta)[-1][2].stop
    try:
        flat = np.zeros(size)
    except (OverflowError, ValueError, MemoryError):  # numpy refuses the allocation
        dims = ", ".join(f"{k} {meta[k]}" for k in _META_DIMS)
        raise DataError(f"a model of {size} parameters ({dims}) is more than numpy can "
                        f"allocate") from None
    model = _bind(flat, meta)
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


def named_parameters(model: RigModel) -> list[tuple[str, np.ndarray]]:
    """Stable (name, view into ``model.flat``) listing of every learnable tensor."""
    return [(name, model.flat[sl].reshape(shape))
            for name, shape, sl in _layout(_model_meta(model))]


def grad_buffer(model: RigModel) -> RigModel:
    """Zero gradients in ``model``'s layout; ``training_backward`` adds into them."""
    return _bind(np.zeros(model.flat.size), _model_meta(model))


class BackwardScratch:
    """One vector, as large as ``model``'s largest tensor, in which the
    reverse pass makes each weight-sized product before adding it: the
    same values, added in the same order, as from a fresh product.

    A training run keeps one for all its clips. After the reverse pass of
    a clip longer than any before, the vector is made anew while that
    clip's activations are still held, so glibc's heap places it above
    them. The heap top then stays in use, and each clip's freed
    activations are not handed back to the OS only to be faulted in again
    for the next clip.
    """

    def __init__(self, model: RigModel):
        self._vector = np.empty(max(math.prod(shape) for _, shape, _ in
                                    _layout(_model_meta(model))))
        self._frames = 0  # the longest clip so far

    def product(self, a, b) -> np.ndarray:
        """``a @ b``, in the vector; valid until the next product."""
        out = self._vector[:a.shape[0] * b.shape[1]].reshape(a.shape[0], b.shape[1])
        return np.matmul(a, b, out=out)

    def end_of_clip(self, frames: int) -> None:
        """Called by the reverse pass of a clip of ``frames`` frames, last."""
        if frames > self._frames:
            self._vector, self._frames = np.empty(self._vector.size), frames


# --- primitive forward/backward pairs ---------------------------------------


def _softmax_inplace(x: np.ndarray) -> np.ndarray:
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _layer_norm_forward(x, g, b, keep_cache):
    """Layer norm of rows ``x``, computed in ``x``: the caller passes a
    temporary it gives up. With ``keep_cache`` the normalised rows stay
    in ``x`` for the reverse pass and the output is a new array."""
    n = x.shape[-1]  # a sum over n: np.mean's bits without its wrapper
    x -= x.sum(axis=-1, keepdims=True) / n
    var = (x * x).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    x *= inv
    out = x * g if keep_cache else np.multiply(x, g, out=x)
    out += b
    return out, (x, inv, g) if keep_cache else None


def _layer_norm_backward(dout, cache, dg, db):
    """Input gradient; adds the gain and offset gradients into ``dg`` and ``db``."""
    xhat, inv, g = cache
    dg += (dout * xhat).sum(axis=0)
    db += dout.sum(axis=0)
    dxhat = dout * g
    n = dxhat.shape[-1]
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    return (dxhat - m1 - xhat * m2) * inv


def _heads(x, n_heads):
    """The heads x rows x head-width view of rows ``x``: writes go through."""
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _affine(x, w, b, out=None):
    """``x @ w + b``, the bias added in place, into ``out`` if given."""
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _kv_forward(x, p: LayerParams, k=None, v=None):
    """The key and value rows of input rows ``x``, into ``k`` and ``v`` if given."""
    return _affine(x, p.wk, p.bk, k), _affine(x, p.wv, p.bv, v)


def _attention_forward(x, p: LayerParams, n_heads, keep_cache, kv=None):
    """Rows ``x`` attend over the keys and values ``kv``, by default their
    own (see ``_kv_forward``); then the output projection.

    One loop over head groups: a group's heads x rows x keys scores are
    one product, and its context goes into its columns of the output. A
    group is every head with ``keep_cache`` (the reverse pass reads the
    scores), else one head; each head gets the same products, so the same bits.
    """
    k, v = _kv_forward(x, p) if kv is None else kv
    q = _affine(x, p.wq, p.bq)
    merged = np.empty_like(q)
    qh, kh, vh, mh = (_heads(t, n_heads) for t in (q, k, v, merged))
    # a Python float keeps float32 scores float32
    scale = float(1.0 / np.sqrt(qh.shape[2]))
    step = n_heads if keep_cache else 1
    attn = np.empty((step, len(q), len(k)), q.dtype)
    for h in (slice(i, i + step) for i in range(0, n_heads, step)):
        np.matmul(qh[h], kh[h].transpose(0, 2, 1), out=attn)
        attn *= scale
        _softmax_inplace(attn)
        np.matmul(attn, vh[h], out=mh[h])
    cache = (x, qh, kh, vh, attn, merged, scale) if keep_cache else None
    return _affine(merged, p.wo, p.bo), cache


def _attention_backward(dout, cache, p: LayerParams, g: LayerParams, scratch):
    x, qh, kh, vh, attn, merged, scale = cache
    g.wo[...] += scratch.product(merged.T, dout)
    g.bo[...] += dout.sum(axis=0)
    dctx = _heads(dout @ p.wo.T, len(qh))
    dattn = dctx @ vh.transpose(0, 2, 1)
    dq, dk, dv = (np.empty((t.shape[1], merged.shape[1]), merged.dtype) for t in (qh, kh, vh))
    np.matmul(attn.transpose(0, 2, 1), dctx, out=_heads(dv, len(qh)))
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= scale
    np.matmul(dscores, kh, out=_heads(dq, len(qh)))
    np.matmul(dscores.transpose(0, 2, 1), qh, out=_heads(dk, len(qh)))
    g.wq[...] += scratch.product(x.T, dq)
    g.bq[...] += dq.sum(axis=0)
    g.wk[...] += scratch.product(x.T, dk)
    g.bk[...] += dk.sum(axis=0)
    g.wv[...] += scratch.product(x.T, dv)
    g.bv[...] += dv.sum(axis=0)
    return dq @ p.wq.T + dk @ p.wk.T + dv @ p.wv.T


def _dropout_mask(shape, p, rng):
    return (rng.random(shape) >= p) / (1.0 - p)


def _attention_half(x, p, n_heads, dropout_p, rng, keep_cache, kv=None):
    """Rows ``x`` through a layer's first half: attention over the keys
    and values ``kv`` (see ``_attention_forward``), residual and norm.
    ``p`` is read for its ``_ATTENTION_FIELDS`` only. Returns the rows and,
    with ``keep_cache``, what the reverse pass reads."""
    a, attn_cache = _attention_forward(x, p, n_heads, keep_cache, kv)
    mask1 = None
    if dropout_p > 0.0 and rng is not None:
        mask1 = _dropout_mask(a.shape, dropout_p, rng)
        a = a * mask1
    a += x
    x1, ln1_cache = _layer_norm_forward(a, p.ln1_g, p.ln1_b, keep_cache)
    return x1, (attn_cache, mask1, ln1_cache) if keep_cache else None


def _feed_forward_half(x1, p, dropout_p, rng, keep_cache):
    """Rows ``x1`` through a layer's second half: feed-forward, residual
    and norm. ``p`` is read for the fields after ``_ATTENTION_FIELDS``
    only. Returns the rows and, with ``keep_cache``, what the reverse pass
    reads."""
    z = _affine(x1, p.w1, p.b1)
    h = np.maximum(z, 0.0) if keep_cache else np.maximum(z, 0.0, out=z)
    f = _affine(h, p.w2, p.b2)
    mask2 = None
    if dropout_p > 0.0 and rng is not None:
        mask2 = _dropout_mask(f.shape, dropout_p, rng)
        f = f * mask2
    f += x1
    x2, ln2_cache = _layer_norm_forward(f, p.ln2_g, p.ln2_b, keep_cache)
    return x2, (x1, z, h, mask2, ln2_cache) if keep_cache else None


def _layer_forward(x, p: LayerParams, n_heads, dropout_p, rng, keep_cache, kv=None):
    """Rows ``x`` through the layer: ``_attention_half``, then
    ``_feed_forward_half``. Returns the output rows and, with
    ``keep_cache``, what the reverse pass reads.

    Every step but the attention works on each row alone. Biases,
    residuals, the ReLU and the norms are applied in place to the
    temporaries the layer made, never to ``x``, with the same arithmetic
    as a fresh array would get.
    """
    x1, first = _attention_half(x, p, n_heads, dropout_p, rng, keep_cache, kv)
    x2, second = _feed_forward_half(x1, p, dropout_p, rng, keep_cache)
    return x2, first + second if keep_cache else None


def _layer_backward(dout, cache, p: LayerParams, g: LayerParams, scratch):
    """Input gradient; adds the layer's parameter gradients into ``g``."""
    attn_cache, mask1, ln1_cache, x1, z, h, mask2, ln2_cache = cache

    dr2 = _layer_norm_backward(dout, ln2_cache, g.ln2_g, g.ln2_b)
    df = dr2 if mask2 is None else dr2 * mask2
    g.w2[...] += scratch.product(h.T, df)
    g.b2[...] += df.sum(axis=0)
    dh = df @ p.w2.T
    dz = dh * (z > 0.0)
    g.w1[...] += scratch.product(x1.T, dz)
    g.b1[...] += dz.sum(axis=0)
    dx1 = dr2 + dz @ p.w1.T

    dr1 = _layer_norm_backward(dx1, ln1_cache, g.ln1_g, g.ln1_b)
    da = dr1 if mask1 is None else dr1 * mask1
    return dr1 + _attention_backward(da, attn_cache, p, g, scratch)


# --- whole-network passes ----------------------------------------------------


def _stack_forward(model, h, rng):
    """The encoder stack and head over a whole clip's encoder input ``h``,
    with dropout where ``rng`` is given. Returns the output and each
    layer's cache, then the head input, for the reverse pass."""
    caches = []
    for i, layer in enumerate(model.layers):
        h, cache = _layer_forward(h, layer, model.n_heads, model.dropout, rng, keep_cache=True)
        _check_finite(h, f"after encoder layer {i}")
        caches.append(cache)
    y = _affine(h, model.head_w, model.head_b)
    _check_finite(y, "in output head")
    return y, caches + [h]


def _check_finite(h, where: str) -> None:
    if not np.isfinite(h).all():
        raise NumericError(f"non-finite activations {where}")


def training_forward(model: RigModel, features: np.ndarray, labels: np.ndarray,
                     rng: np.random.Generator | None = None, *,
                     positions: np.ndarray | None = None, emotion=None):
    """Forward pass from raw features, keeping every cache for backprop.

    A training loop may pass what does not change between clips:
    ``positions``, a positional table from position 0 of at least the
    clip's length (see ``encode_content``), and ``emotion``, the
    ``emotion_mlp`` of the current weights. Either is computed here when
    not given, with the same bits.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if positions is None:
        positions = positional_encoding(len(features), model.d_model)
    z1, a1, etab = emotion_mlp(model.encoder) if emotion is None else emotion
    h0 = encode_content(features, model.encoder, positions) + etab[labels]

    y, caches = _stack_forward(model, h0, rng)
    cache = {"features": features, "labels": labels, "z1": z1, "a1": a1,
             "stack": caches}
    return y, cache


def training_backward(model: RigModel, cache, dy: np.ndarray, grads: RigModel,
                      scratch: BackwardScratch | None = None) -> None:
    """Reverse pass; adds every parameter gradient into ``grads`` (see ``grad_buffer``).

    The parameter dataclasses are frozen, so the adds are ``view[...] +=``:
    in place, never a rebinding that would detach a view from ``flat``.
    Each weight-sized product is made in ``scratch`` (one is made here if
    not given), so a training loop that keeps one for the run makes no
    weight-sized temporary.
    """
    if scratch is None:
        scratch = BackwardScratch(model)
    stack = cache["stack"]
    grads.head_w[...] += scratch.product(stack[-1].T, dy)
    grads.head_b[...] += dy.sum(axis=0)
    dh = dy @ model.head_w.T

    for i in range(len(model.layers) - 1, -1, -1):
        dh = _layer_backward(dh, stack[i], model.layers[i], grads.layers[i], scratch)

    enc, g = model.encoder, grads.encoder
    features, labels = cache["features"], cache["labels"]
    g.content_w[...] += scratch.product(features.T, dh)
    g.content_b[...] += dh.sum(axis=0)

    detab = _label_rows(labels, dh)
    a1, z1 = cache["a1"], cache["z1"]
    g.emotion_w2[...] += scratch.product(a1.T, detab)
    g.emotion_b2[...] += detab.sum(axis=0)
    da1 = detab @ enc.emotion_w2.T
    dz1 = da1 * np.where(z1 >= 0, 1.0, LEAKY_SLOPE)
    g.emotion_w1[...] += scratch.product(enc.emotion_embed.T, dz1)
    g.emotion_b1[...] += dz1.sum(axis=0)
    g.emotion_embed[...] += scratch.product(dz1, enc.emotion_w1.T)
    scratch.end_of_clip(len(dy))


def _label_rows(labels, dh):
    """One row per emotion label: the sum of the rows of ``dh`` at the
    frames holding it, added in frame order from +0.0 (``np.add.at``'s
    bits). A clip of one label sums all of ``dh`` in one reduction, which
    adds the same values in the same order, +0.0 first, so that an all
    -0.0 column still gives +0.0."""
    detab = np.zeros((N_EMOTIONS, dh.shape[1]))
    if (labels == labels[0]).all():
        detab[labels[0]] = np.add.reduce(dh, axis=0, initial=0.0)
    else:
        np.add.at(detab, labels, dh)
    return detab


def mse_and_grad(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all entries, with its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise DataError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float((diff * diff).sum() / diff.size)
    return loss, (2.0 / diff.size) * diff


def clip_loss_and_grads(model: RigModel, features, labels, target, grads: RigModel,
                        rng: np.random.Generator | None = None, *,
                        positions: np.ndarray | None = None, emotion=None,
                        scratch: BackwardScratch | None = None) -> float:
    """One clip's MSE loss; adds its parameter gradients into ``grads``.

    ``positions`` and ``emotion`` go to ``training_forward``, ``scratch``
    to ``training_backward``; each is made per call when not given.
    """
    y, cache = training_forward(model, features, labels, rng,
                                positions=positions, emotion=emotion)
    loss, dy = mse_and_grad(y, np.asarray(target, dtype=np.float64))
    training_backward(model, cache, dy, grads, scratch)
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
        try:
            features = rng.normal(0.0, 1.0, (frames, feature_dim))
            labels = rng.integers(0, N_EMOTIONS, frames)
            target = rng.normal(0.0, 0.5, (frames, output_dim))
        except (OverflowError, ValueError, MemoryError):  # numpy refuses the allocation
            raise DataError(f"a probe of {frames} frames x {feature_dim} features, "
                            f"{output_dim} outputs is more than numpy can allocate") from None
        if _kink_margin(model, features, labels) > 50.0 * eps:
            return model, features, labels, target
    raise NumericError("no kink-free gradient probe found; reduce eps")


# --- inference ----------------------------------------------------------------


# Chunking bounds the quadratic attention cost on long clips: 10 s chunks,
# each overlapping the one before by 1 s.
CHUNK_FRAMES, OVERLAP_FRAMES = 600, 60
# A chunk of n rows runs in ceil(n / _ROW_BLOCK) near-equal row blocks.
_ROW_BLOCK = 300
# Chunks whose keys and values a layer holds at once.
_GROUP_CHUNKS = 8


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


_BLAS_HOLD = threading.Lock()
_blas_held = {"depth": 0, "before": None}  # holds open now; the count before the first


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread where its count can be set.

    The count is process-wide, so the hold is too: of holds that overlap,
    on any threads, the first reads the count and sets 1, and the last to
    exit, however it exits, restores what the first read.
    """
    blas = _blas_thread_control()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_HOLD:
        if _blas_held["depth"] == 0:
            _blas_held["before"] = get()
            put(1)
        _blas_held["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_HOLD:
            _blas_held["depth"] -= 1
            if _blas_held["depth"] == 0:
                put(_blas_held["before"])


@np.errstate(all="ignore")  # non-finite values raise NumericError (_check_finite), not warnings
@_one_blas_thread()
def infer(features: FeatureSequence | list[FeatureSequence], timeline, model) -> RigSequence:
    """Predict a 60 fps rig sequence for a feature stream and emotion timeline.

    ``features`` may come in a one-item list, which ``infer`` empties, so
    that features the caller keeps no other reference to are freed before
    the encoder stack runs. ``model`` is a ``RigModel`` or an open
    ``WeightStream``, which is read once and so runs one ``infer``. The
    clip runs in chunks of at most ``CHUNK_FRAMES`` frames that overlap by
    ``OVERLAP_FRAMES`` (one chunk if it fits in one), whose overlap
    regions are linearly crossfaded. Positions are global frame indices:
    each chunk's encoding starts at its own start frame, so a chunk sees
    the positions it has in the clip.

    Every chunk's encoder input is built on the calling thread, in chunk
    order: features at other rates are resampled a chunk at a time, with
    the bits ``resample_features`` gives them (see ``resample_rows``);
    the rows are cast to float64 for the encoders, whose content weights
    are upcast once per call, and the sum, made in place, is kept in
    float32. No 60 fps or float64 copy of the whole clip is made. The
    encoder stack and head then run in float32, one layer at a time over
    every chunk (see ``_layer_major``), and keep no layer caches.

    A ``WeightStream``'s ``encoder`` views are valid only until its first
    layer half is read over them, which ``_layer_major`` does once every
    chunk is encoded (see ``_tensors``).

    ``infer`` holds numpy's OpenBLAS at one thread from entry to return
    (see ``_one_blas_thread``), encoding included, and restores the
    caller's count however it ends; calls that overlap on other threads
    share the hold, and each forks its own runners, so they share the
    cores. So no idle OpenBLAS worker competes for a core with the runners
    ``_layer_major`` forks (see ``_fork_join``), and every clip gives the
    one-thread output at any thread count. Reruns are byte-identical
    whatever the number of runners.
    """
    if isinstance(features, list):
        features = features.pop()
    if features.n_features != model.feature_dim:
        raise DataError(
            f"feature width {features.n_features} does not match model "
            f"feature width {model.feature_dim}"
        )
    n = resampled_frames(features, RIG_FPS)
    labels = validate_timeline(timeline, n)
    etab = encode_emotion_table(model.encoder)
    # numpy would make this float64 copy on every chunk's product
    encoder = replace(model.encoder, content_w=np.asarray(model.encoder.content_w, np.float64))
    bounds = _chunk_bounds(n)
    rows = [e - s for s, e in bounds]
    h = np.empty((sum(rows), model.d_model), np.float32)  # the chunks one after another
    for (s, e), at in zip(bounds, itertools.accumulate(rows, initial=0)):
        x = resample_rows(features, n, s, e)
        positions = positional_encoding(e - s, model.d_model, start=s)
        rows_in = encode_content(x, encoder, positions)
        rows_in += etab[labels[s:e]]
        h[at:at + e - s] = rows_in
    del encoder, etab, features, x, positions, rows_in  # not held while the stack runs
    return RigSequence(_crossfade(bounds, _layer_major(h, rows, model)))


def upcast_to_float64(model: RigModel) -> None:
    """Rebind a float32 model (a loaded one) to a float64 copy of ``flat``.

    Training and ``grad_check`` run in double precision; for a model that
    is float64 already this does nothing.
    """
    if model.flat.dtype != np.float64:
        vars(model).update(vars(_bind(model.flat.astype(np.float64), _model_meta(model))))


def _chunk_bounds(n_frames: int) -> list[tuple[int, int]]:
    """The chunks [s, e) of at most ``CHUNK_FRAMES`` frames covering
    [0, n_frames), each overlapping the one before by ``OVERLAP_FRAMES``;
    one chunk if the clip fits in one."""
    return [(s, min(s + CHUNK_FRAMES, n_frames))
            for s in range(0, max(n_frames - OVERLAP_FRAMES, 1), CHUNK_FRAMES - OVERLAP_FRAMES)]


def _crossfade(bounds: list[tuple[int, int]], y: np.ndarray) -> np.ndarray:
    """The clip's rows from the rows ``y`` of the chunks ``bounds``, one
    after another: each ``OVERLAP_FRAMES``-row overlap region is linearly
    crossfaded, so chunks that agree on it pass through unchanged there."""
    ov = OVERLAP_FRAMES
    out = np.empty((bounds[-1][1], y.shape[1]))
    w = ((np.arange(ov, dtype=np.float64) + 1.0) / (ov + 1.0))[:, None]
    at = 0
    for s, e in bounds:
        yc, at = y[at:at + e - s], at + e - s
        if s == 0:
            out[:e] = yc
        else:  # rows s .. s + ov overlap the previous chunk
            prev = out[s:s + ov]
            out[s:s + ov] = prev + w * (yc[:ov] - prev)
            out[s + ov:e] = yc[ov:]
    return out


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """``ceil(n_rows / _ROW_BLOCK)`` (at least one) near-equal row blocks:
    a function of the row count only. A 600-row chunk is two blocks of
    300 rows, a 360-row one two of 180."""
    k = max(1, -(-n_rows // _ROW_BLOCK))
    edges = [n_rows * b // k for b in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _tensors(model):
    """Each encoder layer's attention half and then its feed-forward half,
    then the head's (w, b), in float32 and in file order. A layer half is
    a ``LayerParams`` that ``_attention_half`` or ``_feed_forward_half``
    reads. For a ``WeightStream`` each is read from the file, over the one
    before, when it is asked for, with the other half's fields None; for a
    ``RigModel`` each layer is cast when it is reached (no copy if it is
    float32 already) and serves as both halves."""
    if isinstance(model, WeightStream):
        return model.read_tensors()
    f32 = functools.partial(np.asarray, dtype=np.float32)
    layers = (LayerParams(*map(f32, vars(p).values())) for p in model.layers)
    halves = itertools.chain.from_iterable((p, p) for p in layers)
    return itertools.chain(halves, [(f32(model.head_w), f32(model.head_b))])


def _layer_major(h: np.ndarray, rows: list[int], model) -> np.ndarray:
    """The encoder stack and head on ``h``, the float32 rows of chunks of
    ``rows`` rows one after another, one layer at a time over every chunk:
    FlexGen's layer-major schedule (Sheng et al. 2023, arXiv 2303.06865),
    with the whole clip as the batch. Each layer's output rows replace
    ``h``'s; returns the head's output rows, in the same order.

    The layer halves come from ``_tensors(model)``, each asked for once
    the one before has run, and the head last, so a source may read each
    into the one buffer the one before it was in.

    Each chunk's rows are cut into ``_row_blocks``, the query-block
    partition of FlashAttention (Dao et al. 2022, arXiv 2205.14135). A
    layer's attention half runs over groups of at most ``_GROUP_CHUNKS``
    chunks in clip order, each in two fork/joins (see ``_fork_join``):
    every block writes its rows' keys and values into a buffer the group
    shares; then every block attends over its own chunk's keys, one
    head's block rows x keys scores at a time, and writes its rows after
    the first norm into ``h``. One fork/join then runs the feed-forward
    half on every block, and a last one the head, whose output buffer is
    made once the keys and values are freed. Each step but the attention
    works on each row alone, so a block computes its rows as a pass over
    the whole chunk does (bit for bit where BLAS picks the same kernels
    for both row counts), and no block's arithmetic depends on the runner
    that does it.

    For a ``WeightStream`` the runners also hash the bytes read: each
    attend and feed-forward fork/join has a job that hashes half of what
    is pending after its first block, and one that hashes the rest after
    its last; the head's hashes the head. A runner without a block hashes
    while the others compute, so the next read finds nothing left to
    hash. A block comes before the first hash job, so a block starts
    first, and the two halves are far apart in the list, so neither waits
    for the other.
    """
    # a group's blocks: each its rows in h, its rows and its chunk's in the key/value buffer
    groups, start = [], 0
    for g in range(0, len(rows), _GROUP_CHUNKS):
        blocks, at = [], 0
        for n in rows[g:g + _GROUP_CHUNKS]:
            blocks += [(slice(start + s, start + e), slice(at + s, at + e), slice(at, at + n))
                       for s, e in _row_blocks(n)]
            start, at = start + n, at + n
        groups.append(blocks)
    k, v = np.empty((2, max(blocks[-1][2].stop for blocks in groups), model.d_model), np.float32)

    def keys_values(p, block):
        mine, kv, _ = block
        _kv_forward(h[mine], p, k[kv], v[kv])

    def attend(p, block):
        mine, _, chunk = block
        h[mine] = _attention_half(h[mine], p, model.n_heads, 0.0, None, keep_cache=False,
                                  kv=(k[chunk], v[chunk]))[0]

    def feed_forward(i, p, block):
        mine = block[0]
        out = _feed_forward_half(h[mine], p, 0.0, None, keep_cache=False)[0]
        _check_finite(out, f"after encoder layer {i}")
        h[mine] = out

    def head(w, b, block):
        mine = block[0]
        _check_finite(_affine(h[mine], w, b, out=y[mine]), "in output head")

    # a stream's jobs that hash half of the bytes pending, and the rest
    half, rest = (([lambda: model.hash_pending(model.pending_nbytes() // 2)], [model.hash_pending])
                  if isinstance(model, WeightStream) else ([], []))

    def hashing(first, *others):
        return [first, *half, *others, *rest]

    tensors, every = _tensors(model), [block for blocks in groups for block in blocks]
    with _fork_join() as run:
        for i in range(model.n_layers):
            p = next(tensors)
            for blocks in groups:
                run([functools.partial(keys_values, p, block) for block in blocks])
                run(hashing(*(functools.partial(attend, p, block) for block in blocks)))
            p = next(tensors)
            run(hashing(*(functools.partial(feed_forward, i, p, block) for block in every)))
        del k, v
        w, b = next(tensors)
        y = np.empty((len(h), model.output_dim), np.float32)
        run([functools.partial(head, w, b, block) for block in every] + rest)
    return y


@contextlib.contextmanager
def _fork_join():
    """Yield ``run(jobs)``, which runs every callable in ``jobs`` and
    returns when every runner has stopped.

    The jobs run on min(usable CPUs, len(jobs)) runners: the calling
    thread and the threads of a standard-library pool named
    ``speechrig-runner``, each in a copy of the calling thread's context,
    so numpy's error state holds there too. The caller holds numpy's
    OpenBLAS at one thread (``infer`` does, see ``_one_blas_thread``);
    where that count cannot be set, the calling thread runs the jobs
    alone, so no runner competes with BLAS threads for a core. A runner
    takes the next job no runner has taken, in list order, so a runner
    that loses time to other work takes fewer.

    A job that fails is recorded, and each runner then stops after the job
    it is running; so every job before the earliest failing one in list
    order has been taken and runs. ``run`` then raises one of its failures
    by a rule that does not depend on the runner count: an interrupt (an
    exception that is not an ``Exception``) before any other, then the
    earliest job's in list order. An interrupt on the calling thread
    outside a job lets each runner finish its job and then stop.
    """
    lock = threading.Lock()
    runners = len(os.sched_getaffinity(0)) if _blas_thread_control() is not None else 1

    def take(todo, failed):
        while not failed:
            with lock:
                taken = next(todo, None)
            if taken is None:
                return
            try:
                taken[1]()
            except BaseException as exc:  # an interrupt too
                failed.append((isinstance(exc, Exception), taken[0], exc))

    def run(jobs):
        todo, failed, runs = enumerate(jobs), [], []
        try:
            for _ in range(1, min(runners, len(jobs))):
                runs.append(pool.submit(contextvars.copy_context().run, take, todo, failed))
            take(todo, failed)
        finally:
            with lock:
                collections.deque(todo, maxlen=0)  # none is taken after this
            wait(runs)
        for r in runs:
            r.result()  # ``take`` keeps its jobs' failures, so this raises only its own
        if failed:
            raise min(failed, key=lambda f: f[:2])[2]

    with ThreadPoolExecutor(max(runners - 1, 1), thread_name_prefix="speechrig-runner") as pool:
        yield run


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


def load_model(path) -> RigModel:
    """Read a weight file into a model whose tensors stay float32.

    The reader is ``WeightStream``'s, filling one flat buffer: ``infer``
    uses it as it is, and ``train`` / ``grad_check`` upcast it to float64.
    """
    with _reading(path), open(path, "rb") as f:
        meta = _read_header(path, f, lambda data: None)
        flat = np.empty(_layout(meta)[-1][2].stop, "<f4")
        _read_section(path, f, flat, 0, flat.nbytes, lambda data: None)
    return _bind(flat, meta)


def _sections(meta: dict) -> list[list[tuple[str, tuple[int, ...], slice]]]:
    """``_layout(meta)`` cut where ``WeightStream`` reads, in file order:
    the encoder, then each layer's attention half (``_ATTENTION_FIELDS``)
    and feed-forward half, then the head."""
    def section(entry):
        part, _, field = entry[0].rpartition(".")
        return part, field in _ATTENTION_FIELDS

    return [list(entries) for _, entries in itertools.groupby(_layout(meta), section)]


class WeightStream:
    """A weight file read once, front to back, as ``infer`` needs it.

    Opening reads the header, the metadata and the encoder, with
    ``load_model``'s checks and messages. ``read_tensors`` then reads each
    encoder layer's attention half and its feed-forward half, and last the
    head, when it is asked for. Every section goes into one reusable
    float32 buffer as large as the largest section, so ``infer`` holds one
    half-layer's weights, not every layer's; the ``encoder`` views are
    valid only until the first layer half is read. The metadata's dims
    are attributes, as on ``RigModel``.

    Every byte read is fed to a SHA-256, in file order. The header and
    metadata are hashed as they are read; the tensors' bytes wait in a
    locked queue until ``hash_pending`` hashes them, on whichever thread
    calls it: ``infer``'s block runners do, between blocks (see
    ``_layer_major``). No byte of the buffer is read over before it is
    hashed: a section's read first hashes what is pending, then fills the
    buffer in one read. ``hexdigest`` hashes what is left, and is then the
    file's, as ``file_sha256`` gives it: the open file is what is read, so
    a file put in its place mid-run does not change it. Use the stream in
    a ``with`` block, which closes the file.
    """

    def __init__(self, path):
        self._path, self._file = path, None
        self._digest, self._lock = hashlib.sha256(), threading.Lock()
        self._pending = collections.deque()  # views of the bytes read, not hashed yet
        try:
            with _reading(path):
                self._file = open(path, "rb")
                meta = _read_header(path, self._file, self._digest.update)
            self.feature_family = meta["feature_family"]
            (self.feature_dim, self.d_model, self.n_layers, self.n_heads, self.d_ff,
             self.output_dim) = (meta[k] for k in _META_DIMS)
            self._sections = _sections(meta)  # the sections not read yet
            self._need = 4 * self._sections[-1][-1][2].stop
            size = max(sec[-1][2].stop - sec[0][2].start for sec in self._sections)
            self._buffer = np.empty(size, "<f4")
            self.encoder = EncoderParams(**self._read(self._sections.pop(0)))
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def pending_nbytes(self) -> int:
        """How many bytes are read and not hashed yet."""
        with self._lock:
            return sum(map(len, self._pending))

    def hash_pending(self, nbytes: int | None = None) -> None:
        """Hash the first ``nbytes`` of the bytes read and not hashed yet,
        or all of them, in file order."""
        with self._lock:
            left = math.inf if nbytes is None else nbytes
            while self._pending and left > 0:
                view = self._pending.popleft()
                if len(view) > left:
                    self._pending.appendleft(view[left:])
                    view = view[:left]
                self._digest.update(view)
                left -= len(view)

    def _queue(self, view) -> None:
        with self._lock:
            self._pending.append(view)

    def _read(self, section):
        """Views of ``section``'s tensors by field name, read into the buffer."""
        first, end = section[0][2].start, section[-1][2].stop
        into = self._buffer[:end - first]
        with _reading(self._path):
            _read_section(self._path, self._file, into, 4 * first, self._need, self._queue)
        return {name.rpartition(".")[2]: into[sl.start - first:sl.stop - first].reshape(shape)
                for name, shape, sl in section}

    def read_tensors(self):
        """Yield each encoder layer's attention half and then its
        feed-forward half, each a ``LayerParams`` whose other half's
        fields are None, then the head's (head_w, head_b). Each is read
        when it is asked for, over the one before."""
        while self._sections:
            self.hash_pending()  # the buffer's bytes, before they are read over
            views = self._read(self._sections.pop(0))
            yield (LayerParams(**(dict.fromkeys(_LAYER_FIELDS) | views)) if self._sections
                   else (views["head_w"], views["head_b"]))

    def hexdigest(self) -> str:
        """The SHA-256 of the file's bytes, once the head is read."""
        if self._sections:
            raise RuntimeError(f"{self._path}: weight file not read to its end")
        self.hash_pending()
        return self._digest.hexdigest()


@contextlib.contextmanager
def _reading(path):
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read weight file {path}: {exc}") from None


def _read_section(path, f, buf, done, need, feed) -> None:
    """Fill ``buf`` from ``f``, where ``done`` of the ``need`` payload
    bytes are read, and ``feed`` its bytes."""
    got = f.readinto(buf)
    if got < buf.nbytes:  # the file shrank after the size check
        raise DataError(f"{path}: truncated payload: {done + got} bytes, the tensors need {need}")
    feed(memoryview(buf).cast("B"))


def _read_header(path, f, feed) -> dict:
    """Read and check the header and metadata, feeding their bytes to
    ``feed``, and check the payload's size; returns the metadata."""
    header = f.read(_WHEADER.size)
    feed(header)
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
    feed(raw)
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
    return meta


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
