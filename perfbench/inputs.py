"""Seeded inputs in the file formats the README documents.

The program under test sees only these files. Every generator takes a
``numpy.random.Generator`` and writes the same bytes for the same seed.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

EMOTIONS = ("neutral", "happy", "sad", "angry", "surprised", "fear", "disgusted")

REFERENCE_DIMS = {"feature_dim": 768, "d_model": 512, "n_layers": 10, "n_heads": 8,
                  "d_ff": 2048, "output_dim": 174}
DESK_DIMS = {"feature_dim": 32, "d_model": 64, "n_layers": 1, "n_heads": 4,
             "d_ff": 256, "output_dim": 174}

_EMOW_HEADER = struct.Struct("<4sII")
_EMOF_HEADER = struct.Struct("<4sIIIf")
_LAYER_TENSORS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                  "ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b")


def tensor_shapes(dims: dict) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every tensor of an EMOW file, in payload order."""
    f, d, ff, out = dims["feature_dim"], dims["d_model"], dims["d_ff"], dims["output_dim"]
    shapes = [("encoder.content_w", (f, d)), ("encoder.content_b", (d,)),
              ("encoder.emotion_embed", (len(EMOTIONS), d)),
              ("encoder.emotion_w1", (d, d)), ("encoder.emotion_b1", (d,)),
              ("encoder.emotion_w2", (d, d)), ("encoder.emotion_b2", (d,))]
    layer = {"w1": (d, ff), "b1": (ff,), "w2": (ff, d)}
    for i in range(dims["n_layers"]):
        for name in _LAYER_TENSORS:
            shape = layer.get(name, (d, d) if name.startswith("w") else (d,))
            shapes.append((f"layers.{i}.{name}", shape))
    shapes += [("head_w", (d, out)), ("head_b", (out,))]
    return shapes


def _draw_tensor(rng: np.random.Generator, name: str, shape) -> np.ndarray:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_g"):  # layer-norm gains
        return np.float32(1.0) + np.float32(0.05) * rng.standard_normal(shape, np.float32)
    if leaf == "emotion_embed":  # large enough that the emotion path matters
        return np.float32(0.5) * rng.standard_normal(shape, np.float32)
    if len(shape) == 1:  # biases and layer-norm offsets
        return np.float32(0.02) * rng.standard_normal(shape, np.float32)
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    if name == "head_w":  # keeps most outputs inside the [-1, 1] channel bounds
        bound *= 0.25
    return np.float32(bound) * (np.float32(2.0) * rng.random(shape, np.float32) - np.float32(1.0))


def write_emow(path, dims: dict, rng: np.random.Generator) -> str:
    """Write a weight file of random tensors; returns its SHA-256.

    Tensors are drawn and written one at a time, so the benchmark never
    holds the whole 130 MB reference model in memory.
    """
    shapes = tensor_shapes(dims)
    manifest, offset = [], 0
    for name, shape in shapes:
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += int(np.prod(shape)) * 4
    meta = dict(dims, feature_family="external", dropout=0.0, leaky_slope=0.2,
                tensors=manifest)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in (_EMOW_HEADER.pack(b"EMOW", 1, len(blob)), blob):
            f.write(chunk)
            digest.update(chunk)
        for name, shape in shapes:
            chunk = _draw_tensor(rng, name, shape).astype("<f4").tobytes()
            f.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def read_emow(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Metadata and float32 tensors of a weight file.

    Raises ValueError when the header, manifest or payload size is wrong.
    """
    with open(path, "rb") as f:
        blob = f.read()
    magic, version, meta_len = _EMOW_HEADER.unpack_from(blob)
    if magic != b"EMOW" or version != 1:
        raise ValueError(f"{path}: not an EMOW v1 file")
    meta = json.loads(blob[_EMOW_HEADER.size:_EMOW_HEADER.size + meta_len])
    start = _EMOW_HEADER.size + meta_len
    tensors, end = {}, start
    for spec in meta["tensors"]:
        shape = tuple(spec["shape"])
        lo = start + spec["offset"]
        end = max(end, lo + int(np.prod(shape)) * 4)
        if end > len(blob):
            raise ValueError(f"{path}: payload of {spec['name']} is truncated")
        tensors[spec["name"]] = np.frombuffer(blob, "<f4", int(np.prod(shape)), lo).reshape(shape)
    if end != len(blob):
        raise ValueError(f"{path}: {len(blob) - end} bytes after the last tensor")
    return meta, tensors


def speech_like_features(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Slowly varying unit-variance feature rows (a first-order recursion)."""
    noise = rng.standard_normal((rows, cols))
    out = np.empty_like(noise)
    out[0] = noise[0]
    a = 0.8
    for t in range(1, rows):
        out[t] = a * out[t - 1] + np.sqrt(1.0 - a * a) * noise[t]
    return out.astype(np.float32)


def write_emof(path, data: np.ndarray, rate_hz: float) -> None:
    data = np.ascontiguousarray(data, dtype="<f4")
    with open(path, "wb") as f:
        f.write(_EMOF_HEADER.pack(b"EMOF", 1, data.shape[0], data.shape[1], rate_hz))
        f.write(data.tobytes())


def random_timeline(rng: np.random.Generator, n_frames: int, changes: int) -> list[tuple[int, str]]:
    """Step-hold (frame, label) rows: frame 0 plus ``changes`` later switches."""
    frames = np.sort(rng.choice(np.arange(1, n_frames), size=changes, replace=False))
    rows, label = [], int(rng.integers(len(EMOTIONS)))
    for frame in (0, *frames.tolist()):
        rows.append((frame, EMOTIONS[label]))
        label = (label + 1 + int(rng.integers(len(EMOTIONS) - 1))) % len(EMOTIONS)
    return rows


def write_timeline(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("frame,label\n")
        f.writelines(f"{frame},{label}\n" for frame, label in rows)


def write_rig_csv(path, names, values: np.ndarray) -> None:
    """Name header, then 9 significant digits per value, as the README states."""
    fmt = ",".join(["%.9g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(names) + "\n")
        f.writelines(fmt % tuple(row) for row in values.tolist())


def write_ear_csv(path, trace: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("frame,ear\n")
        f.writelines(f"{i},{v:.6f}\n" for i, v in enumerate(trace.tolist()))


def smooth_curves(rng: np.random.Generator, n_frames: int, n_channels: int) -> np.ndarray:
    """Channel curves in (-1, 1): a few random sinusoids per channel."""
    t = np.arange(n_frames)[:, None] / 60.0
    out = np.zeros((n_frames, n_channels))
    for _ in range(3):
        freq = rng.uniform(0.1, 3.0, n_channels)
        phase = rng.uniform(0.0, 2.0 * np.pi, n_channels)
        out += rng.uniform(0.05, 0.25, n_channels) * np.sin(2.0 * np.pi * freq * t + phase)
    return out + rng.uniform(-0.2, 0.2, n_channels)


def ear_trace(rng: np.random.Generator, n_frames: int, mu_ln: float, sigma_ln: float,
              max_rate: float, fps: float = 30.0) -> tuple[np.ndarray, np.ndarray]:
    """An eye-aspect-ratio trace with blinks at log-normal rates.

    Gaps between blinks are 60/rate seconds with the rate drawn from the
    log-normal law, redrawn above ``max_rate``. Each blink is a
    raised-cosine dip of 4-8 frames. Returns the trace and the frame where
    each dip first reaches half depth, the frame a detector reports.
    """
    base = rng.uniform(0.27, 0.33)
    trace = base + rng.normal(0.0, 0.003, n_frames)
    closed, t = [], 10.0
    while True:
        rate = rng.lognormal(mu_ln, sigma_ln)
        while rate > max_rate:
            rate = rng.lognormal(mu_ln, sigma_ln)
        t += 60.0 / rate * fps
        start, dur = int(round(t)), int(rng.integers(4, 9))
        if start + dur + 10 >= n_frames:
            break
        w = np.sin(np.pi * (np.arange(dur) + 1.0) / (dur + 1.0)) ** 2
        depth = rng.uniform(0.02, 0.06)
        trace[start:start + dur] = trace[start:start + dur] * (1.0 - w) + depth * w
        closed.append(start + int(np.flatnonzero(w >= 0.5)[0]))
    return trace, np.asarray(closed)
