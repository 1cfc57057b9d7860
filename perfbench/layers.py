"""Which program functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>`` of the module that defines the
layer. Metrics ending in ``_s`` are seconds per request (medians over
the traced requests) of the span including its children, except the
``*self_s`` ones, which subtract the time child spans cover.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

from .spans import Tracer, self_times

# Per-layer self times must add up to at least this share of request wall time.
COVERAGE_SHARE = 0.98


def _file_read(span, args, kwargs, result):
    span.attrs["bytes_read"] = os.path.getsize(args[0])


def _file_written(span, args, kwargs, result):
    span.attrs["bytes_written"] = os.path.getsize(args[0])


def _chunk(span, args, kwargs, result):
    span.attrs["rows"] = result.shape[0]
    span.attrs["itemsize"] = result.dtype.itemsize


def _infer(span, args, kwargs, result):
    model = args[2]
    span.attrs.update(frames=len(result), n_layers=model.n_layers, d_model=model.d_model,
                      d_ff=model.d_ff, n_heads=model.n_heads, output_dim=model.output_dim)


def _train(tracer: Tracer, original):
    """``train`` with its per-epoch progress callback timed."""
    def traced(model, dataset, cfg, progress=None):
        last = [time.perf_counter()]

        def timed(epoch, lr, loss):
            now = time.perf_counter()
            tracer.epochs.append(now - last[0])
            last[0] = now
            if progress is not None:
                progress(epoch, lr, loss)
        return tracer.call("training.train", original, (model, dataset, cfg, timed), {})
    return traced


# (module the caller looks the name up in, attribute, span name, observer)
TARGETS = [
    ("speechrig.cli", "default_map", "rig.default_map", None),
    ("speechrig.cli", "load_model", "network.load_model", None),
    ("speechrig.network", "build_model", "network.build_model", None),
    ("speechrig.cli", "build_model", "network.build_model", None),
    ("speechrig.cli", "file_sha256", "network.file_sha256", None),
    ("speechrig.cli", "infer", "network.infer", _infer),
    ("speechrig.cli", "save_model", "network.save_model", None),
    ("speechrig.network", "encode_content", "encoders.encode_content", _chunk),
    ("speechrig.network", "encode_emotion_table", "encoders.encode_emotion_table", None),
    ("speechrig.cli", "load_features", "features.load_features", _file_read),
    ("speechrig.training", "load_features", "features.load_features", _file_read),
    ("speechrig.cli", "resample_features", "features.resample_features", None),
    ("speechrig.network", "resample_features", "features.resample_features", None),
    ("speechrig.training", "resample_features", "features.resample_features", None),
    ("speechrig.cli", "smooth_sequence", "smoothing.smooth_sequence", None),
    ("speechrig.cli", "clamp_sequence", "smoothing.clamp_sequence", None),
    ("speechrig.blink", "sample_blink_times", "blink.sample_blink_times", None),
    ("speechrig.blink", "inject_blinks", "blink.inject_blinks", None),
    ("speechrig.gaze", "sample_gaze_track", "gaze.sample_gaze_track", None),
    ("speechrig.gaze", "inject_gaze", "gaze.inject_gaze", None),
    ("speechrig.cli", "write_rig_csv", "rig.write_rig_csv", _file_written),
    ("speechrig.cli", "read_rig_csv", "rig.read_rig_csv", _file_read),
    ("speechrig.training", "read_rig_csv", "rig.read_rig_csv", _file_read),
    ("speechrig.cli", "mae_report", "evaluate.mae_report", None),
    ("speechrig.cli", "write_mae_report", "evaluate.write_mae_report", None),
    ("speechrig.cli", "lr_correlation", "evaluate.lr_correlation", None),
    ("speechrig.cli", "write_correlation_csv", "evaluate.write_correlation_csv", None),
    ("speechrig.blink", "read_ear_csv", "blink.read_ear_csv", None),
    ("speechrig.blink", "detect_blinks", "blink.detect_blinks", None),
    ("speechrig.blink", "fit_lognormal", "blink.fit_lognormal", None),
    ("speechrig.cli", "load_manifest", "training.load_manifest", None),
    ("speechrig.training", "clip_loss_and_grads", "training.clip_loss_and_grads", None),
    ("speechrig.training", "Adam.step", "training.adam_step", None),
    ("speechrig.cli", "write_loss_csv", "training.write_loss_csv", None),
]
TRAIN_TARGET = ("speechrig.cli", "train", "training.train")

# metric name -> (span, use self time)
TIMES = {f"{span}_s": (span, False) for span in dict.fromkeys(t[2] for t in TARGETS)}
TIMES.update({"network.infer_self_s": ("network.infer", True),
              "training.loop_self_s": ("training.train", True),
              "cli.self_s": ("cli.main", True)})
CALLS = {f"{span}_calls": span for span in
         dict.fromkeys([*(t[2] for t in TARGETS), "network.infer", "cli.main"])}
COMPUTED = ("network.forward_gflop", "network.gflops_per_s", "network.attn_score_mb",
            "network.useful_frame_ratio")


def instrument() -> Tracer:
    tracer = Tracer()
    for module, attr, span, observe in TARGETS:
        tracer.install(module, attr, span, observe)
    tracer.install(*TRAIN_TARGET, factory=_train)
    return tracer


def forward_flops(rows: int, a: dict) -> float:
    """Multiply-adds x 2 of the encoder stack and head on one chunk (computed)."""
    d, ff, layers = a["d_model"], a["d_ff"], a["n_layers"]
    per_layer = 8 * rows * d * d + 4 * rows * rows * d + 4 * rows * d * ff
    return layers * per_layer + 2 * rows * d * a["output_dim"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per_request(tracer: Tracer) -> dict[int, dict]:
    """Per request: time, self time, calls and failures per span, plus counters."""
    selfs = self_times(tracer.spans)
    out: dict[int, dict] = defaultdict(lambda: {
        "time": defaultdict(float), "self": defaultdict(float), "calls": defaultdict(int),
        "failed": defaultdict(int), "bytes_read": defaultdict(int),
        "bytes_written": 0, "chunks": [], "infer": []})
    for k, s in enumerate(tracer.spans):
        r = out[s.request]
        r["time"][s.name] += s.end - s.start
        r["self"][s.name] += selfs[k]
        r["calls"][s.name] += 1
        r["failed"][s.name] += s.failed
        if "bytes_read" in s.attrs:
            r["bytes_read"][s.name] += s.attrs["bytes_read"]
        r["bytes_written"] += s.attrs.get("bytes_written", 0)
        if s.name == "encoders.encode_content" and s.parent is not None \
                and tracer.spans[s.parent].name == "network.infer":
            r["chunks"].append((s.attrs["rows"], s.attrs["itemsize"]))
        if s.name == "network.infer":
            r["infer"].append((s.attrs, selfs[k]))
    return out


def summarize(tracer: Tracer, traced: list[dict], plain: list[dict], setup: list[dict]):
    """Per-layer metrics, their notes, and whether spans cover the request time."""
    reqs = _per_request(tracer)
    rows = [reqs[r["index"]] for r in traced]
    m: dict[str, tuple[float, str]] = {}
    for name, (span, use_self) in TIMES.items():
        m[name] = (_median(r["self" if use_self else "time"][span] for r in rows), "s")
    m["training.epoch_s"] = (_median(tracer.epochs), "s")
    m["blink.default_blink_classifier_s"] = (_median(p["classifier_s"] for p in setup), "s")
    m["cli.import_s"] = (_median(p["import_s"] for p in setup), "s")
    for name, span in CALLS.items():
        m[name] = (_median(r["calls"][span] for r in rows), "count")
    m["training.epoch_calls"] = (len(tracer.epochs) / max(len(rows), 1), "count")

    gflop, rates, chunks, useful, attn = [], [], [], [], []
    for r in rows:
        if r["infer"]:
            dims, infer_self = r["infer"][0]
            total = sum(forward_flops(n, dims) for n, _ in r["chunks"]) / 1e9
            gflop.append(total)
            rates.append(total / infer_self)
            chunks.append(len(r["chunks"]))
            useful.append(dims["frames"] / sum(n for n, _ in r["chunks"]))
            attn.append(max(dims["n_heads"] * n * n * size for n, size in r["chunks"]) / 1e6)
    m["network.forward_gflop"] = (_median(gflop), "GFLOP")
    m["network.gflops_per_s"] = (_median(rates), "GFLOP/s")
    m["network.chunks"] = (_median(chunks), "count")
    m["network.useful_frame_ratio"] = (_median(useful), "ratio")
    m["network.attn_score_mb"] = (_median(attn), "MB")
    m["features.bytes_read"] = (_median(r["bytes_read"]["features.load_features"] for r in rows), "B")
    m["rig.bytes_read"] = (_median(r["bytes_read"]["rig.read_rig_csv"] for r in rows), "B")
    m["rig.bytes_written"] = (_median(r["bytes_written"] for r in rows), "B")

    walls = {r["index"]: r["latency_s"] for r in traced}
    coverage = [sum(reqs[i]["self"].values()) / w for i, w in walls.items()]
    m["trace.coverage"] = (_median(coverage), "ratio")
    m["trace.overhead_s"] = (_median(walls.values()) - _median(r["latency_s"] for r in plain), "s")
    m["trace.requests"] = (len(rows), "count")
    m["trace.span_failures"] = (sum(sum(r["failed"].values()) for r in rows), "count")

    notes = {k: "computed" for k in COMPUTED}
    for span in CALLS.values():
        if any(r["calls"][span] for r in rows):
            notes[f"{span}_calls"] = "failed {}".format(sum(r["failed"][span] for r in rows))
    notes["trace.overhead_s"] = (f"traced p50 over n={len(walls)} minus untraced p50 "
                                 f"over n={len(plain)}")
    notes["trace.coverage"] = f"sum of self times / request wall time; must be >= {COVERAGE_SHARE}"
    return m, notes, bool(coverage) and min(coverage) >= COVERAGE_SHARE


def span_records(tracer: Tracer) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, "failed": s.failed, **s.attrs} for s in tracer.spans]
