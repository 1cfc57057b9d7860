"""The traced benchmark finds every program function it wraps, and each
runs on the thread that called the CLI."""

import functools
import importlib
import os
import threading
from collections import Counter

import numpy as np

import speechrig.network as network
import speechrig.training as training
from perfbench import layers  # perfbench/ is not installed; pyproject puts "." on the path
from speechrig.cli import main
from speechrig.features import FeatureSequence, write_feature_file
from speechrig.network import build_model, save_model
from speechrig.rig import RIG_WIDTH
from speechrig.training import TrainConfig, gen_synthetic


def _owner(module, attr):
    """The object holding ``attr`` (which may be ``Class.method``), and its last name."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _resolve(module, attr):
    return getattr(*_owner(module, attr))


def test_instrument_wraps_every_target_and_uninstall_restores_it():
    targets = [t[:2] for t in layers.TARGETS] + [layers.TRAIN_TARGET[:2]]
    originals = [_resolve(*t) for t in targets]  # AttributeError names a dropped function
    tracer = layers.instrument()
    try:
        wrapped = [_resolve(*t) for t in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [_resolve(*t) for t in targets] == originals


def _recording(fn, name, calls):
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        calls.append((name, threading.current_thread()))
        return fn(*args, **kwargs)
    return recorded


def test_traced_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    # perfbench/spans.py keeps one span stack per process, so a span
    # opened on a worker thread would nest under whatever the calling
    # thread has open
    calls, layer_threads = [], set()
    for module, attr, span, _ in layers.TARGETS:
        owner, leaf = _owner(module, attr)
        monkeypatch.setattr(owner, leaf, _recording(getattr(owner, leaf), span, calls))
    layer_forward = network._layer_forward

    def spy(*args, **kwargs):
        layer_threads.add(threading.current_thread())
        return layer_forward(*args, **kwargs)

    monkeypatch.setattr(network, "_layer_forward", spy)
    model = build_model(8, d_model=16, n_layers=2, n_heads=2, d_ff=32, output_dim=RIG_WIDTH,
                        dropout=0.0, seed=1)
    save_model(tmp_path / "w.emow", model)
    rng = np.random.default_rng(2)
    # 600 frames: one chunk in two row blocks; 1300 frames: three chunks
    for frames in (600, 1300):
        feats = tmp_path / f"f{frames}.emof"
        write_feature_file(feats, FeatureSequence(rng.normal(0, 1, (frames, 8)), 60.0))
        argv = ["infer", "--features", feats, "--emotion", "happy", "--weights",
                tmp_path / "w.emow", "--blink", "--gaze", "--out", tmp_path / f"o{frames}.csv"]
        assert main([str(a) for a in argv]) == 0

    assert {"encoders.encode_content", "network.infer", "rig.write_rig_csv"} <= \
        {name for name, _ in calls}
    assert [name for name, thread in calls if thread is not threading.current_thread()] == []
    if network._blas_thread_control() is not None and len(os.sched_getaffinity(0)) > 1:
        assert len(layer_threads) > 1  # the runners did run


def test_train_calls_the_traced_functions_once_per_clip_and_per_batch():
    # perfbench's training counters read these calls: clip_loss_and_grads
    # once per clip (640 in a train_desk request), Adam.step once per batch
    items, epochs, batch = 5, 3, 2
    data = gen_synthetic(4, items, (6, 9), 8)
    model = build_model(8, d_model=16, n_layers=1, n_heads=2, d_ff=32, output_dim=RIG_WIDTH,
                        dropout=0.1, seed=3)
    tracer = layers.instrument()
    tracer.request = 0  # record as a request does
    try:
        training.train(model, data, TrainConfig(lr0=1e-3, epochs=epochs, batch=batch, seed=1))
    finally:
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    assert not any(span.failed for span in tracer.spans)
    assert counts["training.clip_loss_and_grads"] == items * epochs
    assert counts["training.adam_step"] == epochs * -(-items // batch)
