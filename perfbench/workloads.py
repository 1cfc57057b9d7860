"""The four workloads: inputs, request command lines and output checks.

Each request is one ``speechrig`` subcommand (two on ``analyze_takes``,
where one request is one take's job). A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import inputs, reference

# Largest |program - float64 reference| accepted on the channels that blink and
# gaze leave alone. Float32 inference of the reference model stays below 1e-6
# (the self-tests measure it); dropping one encoder layer moves outputs by ~0.1.
REFERENCE_ATOL = 1e-4
# train_desk: final loss must fall below this share of the first epoch's loss.
LOSS_FRACTION = 0.5
# analyze_takes: MAE is compared with numpy, correlations with np.corrcoef,
# and the fitted blink law with the ln-rates of the blinks the generator placed.
MAE_RTOL = 1e-7
CORR_ATOL = 1e-6
BLINK_FIT_ATOL = 0.05

BLINK_MU_LN, BLINK_SIGMA_LN, BLINK_MAX_RATE = 3.518, 0.532, 100.0


@dataclass
class Request:
    argvs: list[list[str]]
    frames: int  # 60 fps frames the request handles
    check: Callable[[], list[str]]


def _seeds(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _request_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**31


class ChannelMap:
    """What the checks need from the controller map."""

    def __init__(self, cmap):
        self.names = list(cmap.names)
        self.lo, self.hi = cmap.bounds()
        role = {r: cmap.eye_role_indices(r)
                for r in ("lid_closure", "gaze_horizontal", "gaze_vertical")}
        self.gaze_h, self.gaze_v = role["gaze_horizontal"], role["gaze_vertical"]
        self.free = sorted(set(range(len(self.names))) - {i for v in role.values() for i in v})
        self.left, self.right = cmap.side_indices("left"), cmap.side_indices("right")
        self.mouth, self.eye = cmap.mouth_area_indices(), cmap.eye_area_indices()
        self.pairs = [(e.index, e.pair) for e in cmap.entries if e.side == "left"]


def read_output_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_rig_output(path, cmap: ChannelMap, n_frames: int, sidecar: dict) -> list[str]:
    """Shape, finiteness, bounds, sidecar fields and conjugate gaze of an infer output."""
    problems = []
    header, values = read_output_csv(path)
    if header != cmap.names:
        problems.append("header differs from the controller map")
    if values.shape != (n_frames, len(cmap.names)):
        return problems + [f"shape {values.shape}, expected {(n_frames, len(cmap.names))}"]
    if not np.isfinite(values).all():
        problems.append("non-finite values")
    if (values < cmap.lo).any() or (values > cmap.hi).any():
        problems.append("values outside the map bounds")
    for idx in (cmap.gaze_h, cmap.gaze_v):
        if not all(np.array_equal(values[:, idx[0]], values[:, j]) for j in idx[1:]):
            problems.append("gaze differs between the eyes")
    with open(str(path) + ".json", encoding="utf-8") as f:
        got = json.load(f)
    for key, want in sidecar.items():
        if got.get(key) != want:
            problems.append(f"sidecar {key}={got.get(key)!r}, expected {want!r}")
    return problems


class Infer:
    """``speechrig infer --blink --gaze`` on reference-configuration weights."""

    CLIPS = 4  # distinct clips per run, reused in turn

    def __init__(self, seconds: int, timeline: bool):
        self.rows, self.timeline = seconds * 50, timeline
        self.frames = seconds * 60
        # chunks the float64 reference recomputes: all of a one-chunk clip,
        # the first seam of a longer one
        self.reference_chunks = 1 if self.frames <= reference.CHUNK else 2

    def prepare(self, work: Path, seed: int, cmap: ChannelMap, dims=inputs.REFERENCE_DIMS):
        self.seed, self.cmap = seed, cmap
        rng_w, rng_c = _seeds(seed, 2)
        self.weights = work / "model.emow"
        self.sha = inputs.write_emow(self.weights, dims, rng_w)
        self.clips = []
        for k in range(self.CLIPS):
            feats = work / f"clip{k}.emof"
            inputs.write_emof(feats, inputs.speech_like_features(rng_c, self.rows, dims["feature_dim"]), 50.0)
            if self.timeline:
                rows = inputs.random_timeline(rng_c, self.frames, int(rng_c.integers(2, 5)))
                inputs.write_timeline(work / f"clip{k}.timeline.csv", rows)
                emotion = ["--timeline", str(work / f"clip{k}.timeline.csv")]
            else:
                rows = [(0, inputs.EMOTIONS[int(rng_c.integers(len(inputs.EMOTIONS)))])]
                emotion = ["--emotion", rows[0][1]]
            self.clips.append((feats, rows, emotion))

    def request(self, i: int, out: Path) -> Request:
        feats, _, emotion = self.clips[i % self.CLIPS]
        seed = _request_seed(self.seed, i)
        argv = ["infer", "--features", str(feats), *emotion, "--weights", str(self.weights),
                "--seed", str(seed), "--blink", "--gaze", "--out", str(out)]
        sidecar = {"fps": 60.0, "frames": self.frames, "seed": seed,
                   "weights_sha256": self.sha, "feature_family": "external",
                   "model_feature_family": "external", "smoothed": True,
                   "blink": True, "gaze": True}
        return Request([argv], self.frames,
                       lambda: check_rig_output(out, self.cmap, self.frames, sidecar))

    def reference_check(self, i: int, out: Path, skip_layer: int | None = None) -> list[str]:
        """Compare request ``i``'s output with the float64 reference."""
        feats, rows, _ = self.clips[i % self.CLIPS]
        with open(feats, "rb") as f:
            data = np.frombuffer(f.read()[20:], "<f4").reshape(self.rows, -1)
        model = reference.Model(*inputs.read_emow(self.weights))
        labels = reference.timeline_labels(rows, self.frames)
        want, n = reference.expected_rig(model, data, labels, self.cmap.lo, self.cmap.hi,
                                         self.reference_chunks, skip_layer)
        _, got = read_output_csv(out)
        err = float(np.abs(got[:n, self.cmap.free] - want[:, self.cmap.free]).max())
        if err > REFERENCE_ATOL:
            return [f"max |output - float64 reference| {err:.3g} over {n} frames "
                    f"exceeds {REFERENCE_ATOL:g}"]
        return []


class TrainDesk:
    """``speechrig train --manifest`` at desk scale for a fixed number of epochs."""

    CLIPS, EPOCHS = 32, 20
    dims = inputs.DESK_DIMS

    def prepare(self, work: Path, seed: int, cmap: ChannelMap):
        self.seed = seed
        rng = _seeds(seed, 1)[0]
        f, out = self.dims["feature_dim"], self.dims["output_dim"]
        affine = rng.normal(0.0, 0.25 / np.sqrt(f), (f, out))
        offsets = rng.uniform(-0.2, 0.2, (len(inputs.EMOTIONS), out))
        items, self.clip_frames = [], 0
        for k in range(self.CLIPS):
            t = int(rng.integers(20, 41))
            emotion = int(rng.integers(len(inputs.EMOTIONS)))
            feats = rng.normal(0.0, 1.0, (t, f)).astype(np.float32)
            target = np.tanh(feats.astype(np.float64) @ affine + offsets[emotion])
            inputs.write_emof(work / f"clip{k}.emof", feats, 60.0)
            inputs.write_rig_csv(work / f"clip{k}.csv", cmap.names, target)
            items.append({"features": f"clip{k}.emof", "target": f"clip{k}.csv",
                          "emotion": inputs.EMOTIONS[emotion]})
            self.clip_frames += t
        self.manifest = work / "manifest.json"
        self.manifest.write_text(json.dumps({"items": items}, indent=1) + "\n", encoding="utf-8")

    def request(self, i: int, out: Path) -> Request:
        d = self.dims
        loss_csv = Path(str(out) + ".loss.csv")
        argv = ["train", "--manifest", str(self.manifest), "--epochs", str(self.EPOCHS),
                "--layers", str(d["n_layers"]), "--d-model", str(d["d_model"]),
                "--heads", str(d["n_heads"]), "--d-ff", str(d["d_ff"]),
                "--seed", str(_request_seed(self.seed, i)),
                "--loss-csv", str(loss_csv), "--out", str(out)]
        return Request([argv], self.clip_frames * self.EPOCHS,
                       lambda: self.check(out, loss_csv))

    def check(self, weights: Path, loss_csv: Path) -> list[str]:
        problems = []
        losses = np.loadtxt(loss_csv, delimiter=",", skiprows=1, ndmin=2)[:, 2]
        if len(losses) != self.EPOCHS:
            problems.append(f"{len(losses)} loss rows for {self.EPOCHS} epochs")
        elif not (math.isfinite(losses[-1]) and losses[-1] < LOSS_FRACTION * losses[0]):
            problems.append(f"final loss {losses[-1]:.4g} not below {LOSS_FRACTION} x "
                            f"first-epoch loss {losses[0]:.4g}")
        try:
            meta, tensors = inputs.read_emow(weights)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"output weights do not load: {exc}"]
        if any(meta.get(k) != v for k, v in self.dims.items()):
            problems.append("output weights have other dimensions than requested")
        want = dict(inputs.tensor_shapes(self.dims))
        if {k: v.shape for k, v in tensors.items()} != want:
            problems.append("output weights hold other tensors than the model has")
        elif not all(np.isfinite(t).all() for t in tensors.values()):
            problems.append("output weights are not finite")
        return problems


class AnalyzeTakes:
    """Per take: ``speechrig analyze`` on a pair of rig CSVs, then ``blink-fit``."""

    TAKES, FRAMES, TRACES, EAR_FRAMES = 2, 3600, 2, 1800

    def prepare(self, work: Path, seed: int, cmap: ChannelMap):
        self.takes = [self._take(work, k, rng, cmap) for k, rng in enumerate(_seeds(seed, self.TAKES))]

    def _take(self, work: Path, k: int, rng, cmap: ChannelMap) -> dict:
        pred = inputs.smooth_curves(rng, self.FRAMES, len(cmap.names))
        for n, (left, right) in enumerate(cmap.pairs[:8]):  # exact mirrors and negations
            pred[:, right] = pred[:, left] if n % 2 == 0 else -pred[:, left]
        gt = pred + rng.normal(0.0, 0.05, pred.shape)
        paths = {"pred": work / f"take{k}.pred.csv", "gt": work / f"take{k}.gt.csv"}
        inputs.write_rig_csv(paths["pred"], cmap.names, pred)
        inputs.write_rig_csv(paths["gt"], cmap.names, gt)
        # the program reads the 9-digit text, so the expectations use it too
        pred, gt = (np.loadtxt(paths[p], delimiter=",", skiprows=1) for p in ("pred", "gt"))
        diff = np.abs(pred - gt)
        corr = np.corrcoef(pred[:, cmap.left], pred[:, cmap.right], rowvar=False)
        n_left = len(cmap.left)
        traces, rates = [], []
        for j in range(self.TRACES):
            trace, closed = inputs.ear_trace(rng, self.EAR_FRAMES, BLINK_MU_LN,
                                             BLINK_SIGMA_LN, BLINK_MAX_RATE)
            traces.append(work / f"take{k}.ear{j}.csv")
            inputs.write_ear_csv(traces[-1], trace)
            rates.extend(60.0 / (np.diff(closed) / 30.0))
        ln = np.log([r for r in rates if r <= BLINK_MAX_RATE])
        return {**paths, "traces": traces,
                "mae": {"full": diff.mean(), "mouth": diff[:, cmap.mouth].mean(),
                        "eye": diff[:, cmap.eye].mean()},
                "corr": corr[:n_left, n_left:], "mu_ln": ln.mean(), "sigma_ln": ln.std()}

    def request(self, i: int, out: Path) -> Request:
        take = self.takes[i % self.TAKES]
        mae, corr, fit = (Path(f"{out}.{s}") for s in ("mae.json", "corr.csv", "fit.json"))
        analyze = ["analyze", "--pred", str(take["pred"]), "--gt", str(take["gt"]),
                   "--mae-out", str(mae), "--corr-out", str(corr)]
        blink_fit = ["blink-fit", *(a for p in take["traces"] for a in ("--trace", str(p))),
                     "--out", str(fit)]
        return Request([analyze, blink_fit], self.FRAMES,
                       lambda: self.check(take, mae, corr, fit))

    @staticmethod
    def check(take: dict, mae_path: Path, corr_path: Path, fit_path: Path) -> list[str]:
        problems = []
        got = json.loads(mae_path.read_text(encoding="utf-8"))
        for key, want in take["mae"].items():
            if not abs(got.get(key, math.inf) - want) <= MAE_RTOL * want:
                problems.append(f"MAE {key} {got.get(key)} differs from numpy {want:.9g}")
        n_right = take["corr"].shape[1]
        corr = np.loadtxt(corr_path, delimiter=",", skiprows=1, usecols=range(1, n_right + 1),
                          ndmin=2)
        if corr.shape != take["corr"].shape:
            problems.append(f"correlation matrix shape {corr.shape}")
        elif not np.abs(corr - take["corr"]).max() <= CORR_ATOL:
            problems.append("correlation differs from np.corrcoef")
        fit = json.loads(fit_path.read_text(encoding="utf-8"))
        for key in ("mu_ln", "sigma_ln"):
            if not abs(fit.get(key, math.inf) - take[key]) <= BLINK_FIT_ATOL:
                problems.append(f"fitted {key} {fit.get(key)} vs generated {take[key]:.4f}")
        return problems


WORKLOADS = {
    "infer_10s": lambda: Infer(10, timeline=True),
    "infer_60s": lambda: Infer(60, timeline=False),
    "train_desk": TrainDesk,
    "analyze_takes": AnalyzeTakes,
}
