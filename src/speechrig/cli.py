"""Command-line surface for the rig-generation pipeline.

Subcommands: infer, train, analyze, blink-fit, blink-detect, gradcheck.
Every run is a pure function of its inputs, flags, seed and BLAS thread
count: at a fixed thread count (OPENBLAS_NUM_THREADS) running a command
twice produces byte-identical artifacts. train's bytes depend on that
count. infer holds numpy's OpenBLAS at one thread from entry to return,
so its bytes are the same at any thread or core count. Where the count
cannot be set (another BLAS), infer's float32 outputs at different
thread counts differ by at most 1e-5 relative to the largest output
magnitude.

Exit codes: 0 ok, 2 usage, 3 bad data (an unreadable input or an
unwritable output path included), 4 numeric failure. With --json-errors,
a failure, a usage error included, is reported as one machine-readable
JSON line on stderr in place of the plain message.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import blink as blinkmod
from . import gaze as gazemod
from .errors import DataError, NumericError, RigPipelineError, UsageError
from .evaluate import lr_correlation, mae_report, write_correlation_csv, write_mae_report
from .features import (
    extract_fallback_features,
    load_features,
    read_wav,
    resample_features,  # noqa: F401  unused here; perfbench traces speechrig.cli.resample_features
    resampled_frames,
)
from .network import (
    WeightStream,
    build_model,
    file_sha256,  # noqa: F401  unused here; perfbench traces speechrig.cli.file_sha256
    grad_check,
    gradcheck_probe,
    infer,
    load_model,  # noqa: F401  unused here; perfbench traces speechrig.cli.load_model
    save_model,
)
from .rig import (
    RIG_FPS,
    ControllerMap,
    constant_timeline,
    default_map,
    emotion_id,
    load_controller_map,
    read_csv_rows,
    read_numeric_csv,
    read_rig_csv,
    timeline_from_rows,
    write_csv,
    write_json,
    write_rig_csv,
)
from .smoothing import clamp_sequence, smooth_sequence
from .training import TrainConfig, gen_synthetic, load_manifest, train, write_loss_csv

MAP_ENV_VAR = "SPEECHRIG_MAP"


def _resolve_map(path: str | None) -> ControllerMap:
    path = path or os.environ.get(MAP_ENV_VAR)
    return load_controller_map(path) if path else default_map()


def _read_timeline_csv(path, n_frames: int) -> np.ndarray:
    rows = read_csv_rows(path)
    try:
        pairs = [(float(r[0]), emotion_id(r[1].strip())) for r in rows]
    except (ValueError, IndexError, DataError) as exc:
        raise DataError(f"{path}: malformed timeline CSV: {exc}") from None
    for frame, _ in pairs:
        if not frame.is_integer():  # inf and NaN fail too
            raise DataError(f"{path}: timeline frame {frame!r} is not an integer")
    return timeline_from_rows(pairs, n_frames)


# --- subcommands ---------------------------------------------------------------


def _cmd_infer(args) -> int:
    cmap = _resolve_map(args.map)
    # the sidecar names the bytes this run read: infer's block runners hash
    # each layer's bytes between its blocks
    with WeightStream(args.weights) as weights:
        if weights.output_dim != cmap.width:
            raise DataError(
                f"model outputs {weights.output_dim} channels, map has {cmap.width}"
            )
        seq, n, family = _predict(args, cmap, weights)
        write_rig_csv(args.out, seq, cmap)
        weights_sha256 = weights.hexdigest()

    sidecar = {
        "fps": RIG_FPS,
        "frames": n,
        "seed": args.seed,
        "weights_sha256": weights_sha256,
        "feature_family": family,
        "model_feature_family": weights.feature_family,
        "smoothed": True,  # every run smooths; perfbench's output check reads the key
        "blink": bool(args.blink),
        "gaze": bool(args.gaze),
    }
    write_json(str(args.out) + ".json", sidecar, sort_keys=True)
    print(f"wrote {args.out} ({n} frames x {cmap.width} channels at {RIG_FPS:g} fps)")
    return 0


def _predict(args, cmap: ControllerMap, model):
    """The post-processed rig sequence of ``infer``'s inputs, its frame
    count, and the features' family. ``infer`` gets the only reference to
    the features, and so frees them before its encoder stack runs."""
    if args.features:
        feats = load_features(args.features, args.feature_rate)
    else:
        feats = extract_fallback_features(read_wav(args.audio))
    if (model.feature_family != "external" and feats.family != "external"
            and feats.family != model.feature_family):
        raise DataError(
            f"model expects feature family {model.feature_family!r}, "
            f"got {feats.family!r}"
        )
    # infer resamples the features a chunk at a time
    n = resampled_frames(feats, RIG_FPS)

    try:
        if args.timeline:
            timeline = _read_timeline_csv(args.timeline, n)
        else:
            timeline = constant_timeline(emotion_id(args.emotion), n)
    except MemoryError:  # numpy refuses the allocation: a low feature rate makes n huge
        raise DataError(f"{feats.n_frames} frames at {feats.rate_hz:g} Hz are {n} frames at "
                        f"{RIG_FPS:g} fps, more than numpy can allocate") from None

    family, feats = feats.family, [feats]  # infer empties the list
    seq = clamp_sequence(smooth_sequence(infer(feats, timeline, model)), cmap)

    if args.blink:
        freq = blinkmod.BlinkFrequencyModel(args.blink_mu, args.blink_sigma)
        starts = blinkmod.sample_blink_times(
            freq, n / RIG_FPS, seed=np.random.SeedSequence(args.seed, spawn_key=(1,)))
        seq = blinkmod.inject_blinks(seq, starts, cmap)
    if args.gaze:
        track = gazemod.sample_gaze_track(
            n, seed=np.random.SeedSequence(args.seed, spawn_key=(2,)))
        seq = gazemod.inject_gaze(seq, track, cmap)
    return seq, n, family


def _cmd_train(args) -> int:
    cfg = TrainConfig(lr0=args.lr0, epochs=args.epochs, batch=args.batch, seed=args.seed)
    data = load_manifest(args.manifest) if args.manifest else None
    # the model (and so its dims check) comes before any synthetic data
    model = build_model(
        data[0].features.shape[1] if data else args.feature_dim, d_model=args.d_model,
        n_layers=args.layers, n_heads=args.heads, d_ff=args.d_ff, dropout=args.dropout,
        seed=args.seed, feature_family="external" if data else "synthetic-desk",
    )
    if data is None:
        data = gen_synthetic(args.seed, args.items, (args.t_min, args.t_max),
                             args.feature_dim)

    def progress(epoch, lr, loss):
        if args.log_every and (epoch % args.log_every == 0 or epoch == cfg.epochs - 1):
            print(f"epoch {epoch:5d}  lr {lr:.6g}  loss {loss:.6g}")

    result = train(model, data, cfg, progress)
    save_model(args.out, result.model)
    if args.loss_csv:
        write_loss_csv(args.loss_csv, result.history)
    print(f"final loss {result.final_loss:.6g} after {cfg.epochs} epochs; wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if not args.gt and not args.corr_out:
        raise DataError("analyze needs --gt (for MAE) and/or --corr-out (for correlation)")
    cmap = _resolve_map(args.map)
    pred = read_rig_csv(args.pred)
    if args.gt:
        report = mae_report(pred, read_rig_csv(args.gt), cmap)
        print(json.dumps(report, indent=1))
        if args.mae_out:
            write_mae_report(args.mae_out, report)
    if args.corr_out:
        write_correlation_csv(args.corr_out, lr_correlation(pred, cmap))
        print(f"wrote {args.corr_out}")
    return 0


def _cmd_blink_detect(args) -> int:
    clf = (blinkmod.BlinkClassifier.load(args.classifier)
           if args.classifier else blinkmod.default_blink_classifier())
    trace = blinkmod.read_ear_csv(args.trace)
    events = blinkmod.detect_blinks(trace, clf)
    if args.out:
        write_csv(args.out, ["start", "end"], ([ev.start, ev.end] for ev in events))
    print(f"{len(events)} blink(s) in {len(trace)} frames")
    return 0


def _cmd_blink_fit(args) -> int:
    if not 0.0 < args.fps < math.inf:  # NaN fails too
        raise DataError(f"--fps must be finite and > 0, got {args.fps}")
    if args.rates is not None:
        rates = read_numeric_csv(args.rates, 1, "rate CSV")[:, 0]
    else:
        clf = (blinkmod.BlinkClassifier.load(args.classifier)
               if args.classifier else blinkmod.default_blink_classifier())
        intervals = []
        for path in args.trace:
            trace = blinkmod.read_ear_csv(path)
            events = blinkmod.detect_blinks(trace, clf)
            starts = np.array([ev.start for ev in events], dtype=float) / args.fps
            intervals.extend(np.diff(starts))
        if not intervals:
            raise DataError("no blink intervals found in the given traces")
        rates = 60.0 / np.asarray(intervals)
    model = blinkmod.fit_lognormal(rates)
    model.save(args.out)
    print(f"fitted ln-mean {model.mu_ln:.4f}, ln-std {model.sigma_ln:.4f} "
          f"from {rates.size} rate samples; wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    model, features, labels, target = gradcheck_probe(
        feature_dim=args.feature_dim, d_model=args.d_model, n_layers=args.layers,
        n_heads=args.heads, d_ff=args.d_ff, output_dim=args.output_dim,
        frames=args.frames, eps=args.eps, seed=args.seed)
    err = grad_check(model, features, labels, target, eps=args.eps)
    print(f"max relative gradient error: {err:.3e}")
    if args.fail_above is not None and err > args.fail_above:
        raise NumericError(f"max relative gradient error {err:.3e} exceeds threshold "
                           f"{args.fail_above:.3e}")
    return 0


# --- parser ----------------------------------------------------------------------


def _seed(text: str) -> int:
    """The type of every --seed and of --log-every: an integer >= 0.
    numpy seeds only from those; --log-every 0 logs no epoch, n > 0 every n-th."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def _threshold(text: str) -> float:
    """The type of --fail-above: a float that an error can exceed, so not NaN."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"must be a number, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors for ``main`` to report, in place of exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}",
                         f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="speechrig",
        description="Speech features + emotion labels -> facial rig controller curves",
    )
    ap.add_argument("--json-errors", action="store_true",
                    help="emit machine-readable error JSON on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="predict a rig CSV from features or audio")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--features", help="feature file (binary or numeric CSV)")
    src.add_argument("--audio", help="WAV file for the fallback extractor")
    p.add_argument("--feature-rate", type=float, default=50.0,
                   help="rate of CSV features (default 50 Hz)")
    emo = p.add_mutually_exclusive_group(required=True)
    emo.add_argument("--emotion", help="emotion name or label 0..6 for the whole clip")
    emo.add_argument("--timeline", help="per-frame emotion CSV (frame,label), step-hold")
    p.add_argument("--weights", required=True, help="model weight file")
    p.add_argument("--map", help=f"controller map JSON (default ${MAP_ENV_VAR} or built-in)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--blink", action="store_true", help="inject sampled blinks")
    p.add_argument("--gaze", action="store_true", help="inject a sampled gaze track")
    p.add_argument("--blink-mu", type=float, default=blinkmod.DEFAULT_MU_LN)
    p.add_argument("--blink-sigma", type=float, default=blinkmod.DEFAULT_SIGMA_LN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("train", help="train a model from a manifest or synthetic data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest", help="JSON manifest of feature/target/emotion triples")
    src.add_argument("--synthetic", action="store_true",
                     help="use the built-in synthetic generator")
    p.add_argument("--items", type=int, default=32)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--t-min", type=int, default=20)
    p.add_argument("--t-max", type=int, default=40)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=256)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr0", type=float, default=3e-3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--log-every", type=_seed, default=0)
    p.add_argument("--loss-csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="MAE report and/or left-right correlation")
    p.add_argument("--pred", required=True, help="predicted rig CSV")
    p.add_argument("--gt", help="ground-truth rig CSV for the MAE report")
    p.add_argument("--map")
    p.add_argument("--mae-out", help="write the MAE report JSON here")
    p.add_argument("--corr-out", help="write the left-right correlation CSV here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("blink-detect", help="detect blink events in an EAR trace")
    p.add_argument("--trace", required=True, help="EAR trace CSV (frame,ear)")
    p.add_argument("--classifier", help="classifier JSON (default: built-in)")
    p.add_argument("--out", help="write events CSV here")
    p.set_defaults(func=_cmd_blink_detect)

    p = sub.add_parser("blink-fit", help="fit the log-normal blink-rate model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", action="append",
                     help="EAR trace CSV; repeat for more traces")
    src.add_argument("--rates", help="CSV of blinks-per-minute samples")
    p.add_argument("--classifier", help="classifier JSON (default: built-in)")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--out", required=True, help="write the fitted model JSON here")
    p.set_defaults(func=_cmd_blink_fit)

    p = sub.add_parser("gradcheck", help="finite-difference check of the training gradients")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=32)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--output-dim", type=int, default=12)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--fail-above", type=_threshold, default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return ap


def main(argv=None) -> int:
    args = argparse.Namespace(json_errors=False)  # set before any usage error is found
    try:
        try:
            build_parser().parse_args(argv, args)
            return args.func(args)
        except OSError as exc:  # an unreadable input or unwritable output path
            raise DataError(str(exc)) from None
    except RigPipelineError as exc:
        if args.json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            code = getattr(exc, "code", None)
            if code:
                payload["code"] = code
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(getattr(exc, "text", f"error: {exc}\n"), end="", file=sys.stderr)
        if isinstance(exc, UsageError):
            raise SystemExit(exc.exit_code) from None  # as argparse exits
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
