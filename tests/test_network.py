"""Transformer core: forward contracts, chunked inference, gradients,
and the weight file format."""

import contextlib
import functools
import hashlib
import os
import sys
import threading
import time
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speechrig.network as network
from speechrig.encoders import (
    emotion_mlp,
    encode_content,
    encode_emotion_table,
    positional_encoding,
)
from speechrig.errors import DataError, NumericError
from speechrig.features import FeatureSequence, resample_features
from speechrig.network import (
    WeightStream,
    build_model,
    clip_loss_and_grads,
    grad_buffer,
    grad_check,
    gradcheck_probe,
    infer,
    load_model,
    mse_and_grad,
    named_parameters,
    reference_model,
    save_model,
    training_forward,
)
from speechrig.rig import constant_timeline


def forward(model, hidden):
    """The whole-clip pass over an encoder input (T x d_model), dropout off."""
    return network._stack_forward(model, np.asarray(hidden, dtype=np.float64), rng=None)[0]


def tiny_model(layers=1, seed=3, output_dim=12, dropout=0.0):
    return build_model(feature_dim=8, d_model=16, n_layers=layers, n_heads=2,
                       d_ff=32, output_dim=output_dim, dropout=dropout, seed=seed)


@pytest.fixture(scope="module")
def model():
    return tiny_model(layers=2, output_dim=174)


class TestForward:
    def test_output_shape(self, model):
        rng = np.random.default_rng(0)
        y = forward(model, rng.normal(0, 1, (9, 16)))
        assert y.shape == (9, 174)

    def test_attention_rows_sum_to_one(self, model):
        rng = np.random.default_rng(1)
        _, caches = network._stack_forward(model, rng.normal(0, 1, (7, 16)), rng=None)
        assert len(caches) == 3  # two layers, then the head input
        for layer_cache in caches[:-1]:
            attn = layer_cache[0][4]
            assert attn.shape == (2, 7, 7)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance_without_pe(self, model):
        # hidden states fed directly carry no positional information, so
        # unmasked self-attention commutes with row permutations
        rng = np.random.default_rng(2)
        hidden = rng.normal(0, 1, (8, 16))
        perm = rng.permutation(8)
        y = forward(model, hidden)
        yp = forward(model, hidden[perm])
        np.testing.assert_allclose(yp, y[perm], atol=1e-6)

    def test_repeated_calls_bitwise_identical(self, model):
        rng = np.random.default_rng(3)
        hidden = rng.normal(0, 1, (5, 16))
        assert np.array_equal(forward(model, hidden), forward(model, hidden))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_activation_reported_with_layer(self):
        bad = tiny_model(layers=2)
        bad.layers[1].w1[:] = np.inf
        rng = np.random.default_rng(4)
        with pytest.raises(NumericError, match="layer 1"):
            forward(bad, rng.normal(0, 1, (4, 16)))

    def test_inference_pass_without_caches_is_bit_equal(self, model):
        # model is float64 with dropout 0: its layers run without caches,
        # then the head, give exactly what the cache-keeping pass gives
        rng = np.random.default_rng(5)
        hidden = rng.normal(0, 1, (11, 16))
        y_train, train_caches = network._stack_forward(model, hidden, rng=None)
        assert len(train_caches) == model.n_layers + 1
        h = hidden
        for layer in model.layers:
            h, cache = network._layer_forward(h, layer, model.n_heads, 0.0, None,
                                              keep_cache=False)
            assert cache is None
        y = network._affine(h, model.head_w, model.head_b)
        assert y.dtype == np.float64
        assert np.array_equal(y, y_train)
        assert np.array_equal(y, forward(model, hidden))
        # a layer without a cache runs one head at a time; with one, every
        # head's scores are one batched product: both give the same bits,
        # in either precision, on a block's own keys or on all rows' keys
        for n_heads, d_model in [(1, 16), (2, 64), (4, 128), (8, 512)]:
            m = build_model(8, d_model=d_model, n_layers=1, n_heads=n_heads, d_ff=2 * d_model,
                            output_dim=12, dropout=0.0, seed=n_heads)
            for dtype in (np.float32, np.float64):
                layer = network._bind(m.flat.astype(dtype), network._model_meta(m)).layers[0]
                for rows in (11, 700):
                    x = rng.normal(0, 1, (rows, d_model)).astype(dtype)
                    for kv in (None, network._kv_forward(x, layer)):
                        block = x if kv is None else x[rows // 3:]
                        run = functools.partial(network._layer_forward, block, layer, n_heads,
                                                0.0, None, kv=kv)
                        head_loop, all_heads = run(keep_cache=False)[0], run(keep_cache=True)[0]
                        assert head_loop.dtype == dtype
                        assert np.array_equal(head_loop, all_heads), \
                            (n_heads, d_model, dtype, rows, kv is None)

    def test_attention_holds_one_head_of_scores_at_a_time(self):
        # at 1200 rows of width 64 the scores of all 8 heads take 46 MB, one
        # head's 5.8 MB: the layer's peak stays far below the first
        heads, rows = 8, 1200
        m = build_model(8, d_model=64, n_layers=1, n_heads=heads, d_ff=128, output_dim=12,
                        dropout=0.0, seed=1)
        layer = network._bind(m.flat.astype(np.float32), network._model_meta(m)).layers[0]
        x = np.random.default_rng(6).normal(0, 1, (rows, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            network._layer_forward(x, layer, heads, 0.0, None, keep_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        all_heads = heads * rows * rows * 4
        assert peak < all_heads / 4, f"peak {peak / 1e6:.1f} MB"


class TestEmotionPathway:
    def test_zeroed_emotion_parameters_make_output_label_invariant(self):
        m = tiny_model(output_dim=20)
        enc = m.encoder
        for name in ("emotion_embed", "emotion_w1", "emotion_b1",
                     "emotion_w2", "emotion_b2"):
            getattr(enc, name)[:] = 0.0
        rng = np.random.default_rng(5)
        feats = rng.normal(0, 1, (6, 8))
        outs = [training_forward(m, feats, constant_timeline(lab, 6))[0]
                for lab in range(7)]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_distinct_labels_change_output(self):
        m = tiny_model(output_dim=20)
        rng = np.random.default_rng(6)
        feats = rng.normal(0, 1, (6, 8))
        a = training_forward(m, feats, constant_timeline(0, 6))[0]
        b = training_forward(m, feats, constant_timeline(4, 6))[0]
        assert not np.allclose(a, b)


class TestChunkedInference:
    def test_short_clip_equals_single_pass(self):
        m = tiny_model(layers=2, output_dim=174)
        rng = np.random.default_rng(7)
        feats = FeatureSequence(rng.normal(0, 1, (40, 8)).astype(np.float32), 60.0)
        tl = constant_timeline(1, 40)
        h0 = encode_content(feats.data, m.encoder) + encode_emotion_table(m.encoder)[tl]
        stack = network._bind(m.flat.astype(np.float32), network._model_meta(m))
        single = network._stack_forward(stack, h0.astype(np.float32), rng=None)[0]
        assert np.array_equal(infer(feats, tl, m).values, single)

    def test_chunk_bounds_overlap_and_a_short_clip_is_one_chunk(self):
        assert network._chunk_bounds(1300) == [(0, 600), (540, 1140), (1080, 1300)]
        assert [network._chunk_bounds(n) for n in (0, 60, 600)] == \
            [[(0, 0)], [(0, 60)], [(0, 600)]]
        assert network._chunk_bounds(601) == [(0, 600), (540, 601)]

    def test_crossfade_passes_agreeing_chunks_through(self):
        rng = np.random.default_rng(8)
        const = np.tile(rng.normal(0, 1, (1, 6)), (1300, 1))
        bounds = network._chunk_bounds(1300)
        out = network._crossfade(bounds, np.concatenate([const[s:e] for s, e in bounds]))
        assert np.array_equal(out, const)

    def test_deterministic_across_runs(self):
        m = tiny_model(layers=1, output_dim=174, dropout=0.3)  # dropout off at inference
        rng = np.random.default_rng(9)
        feats = FeatureSequence(rng.normal(0, 1, (1300, 8)).astype(np.float32), 60.0)
        tl = constant_timeline(2, 1300)
        a = infer(feats, tl, m)
        b = infer(feats, tl, m)
        assert np.array_equal(a.values, b.values)

    def test_resamples_internally(self):
        m = tiny_model(layers=1, output_dim=174)
        rng = np.random.default_rng(10)
        feats = FeatureSequence(rng.normal(0, 1, (50, 8)).astype(np.float32), 50.0)
        seq = infer(feats, constant_timeline(0, 60), m)
        assert len(seq) == 60

    # 60 fps frames: one chunk, three chunks, and more than a layer holds keys for
    @pytest.mark.parametrize("frames", [300, 1300, 3660])
    def test_resampling_per_chunk_equals_resampling_first(self, frames):
        m = tiny_model(layers=2, output_dim=174)
        rng = np.random.default_rng(frames)
        feats = FeatureSequence(rng.normal(0, 1, (round(frames / 1.2), 8)), 50.0)
        labels = rng.integers(0, 7, frames)
        want = infer(resample_features(feats, 60.0), labels, m).values
        assert np.array_equal(infer(feats, labels, m).values, want)

    def test_a_one_item_list_of_features_is_emptied(self):
        m = tiny_model(layers=1, output_dim=174)
        feats = FeatureSequence(np.random.default_rng(3).normal(0, 1, (50, 8)), 50.0)
        held = [feats]
        assert np.array_equal(infer(held, constant_timeline(0, 60), m).values,
                              infer(feats, constant_timeline(0, 60), m).values)
        assert held == []

    def test_timeline_length_mismatch_rejected(self):
        m = tiny_model(layers=1, output_dim=174)
        feats = FeatureSequence(np.zeros((30, 8), dtype=np.float32), 60.0)
        with pytest.raises(DataError):
            infer(feats, constant_timeline(0, 29), m)

    def test_feature_width_mismatch_rejected(self):
        m = tiny_model(layers=1, output_dim=174)
        feats = FeatureSequence(np.zeros((30, 9), dtype=np.float32), 60.0)
        with pytest.raises(DataError):
            infer(feats, constant_timeline(0, 30), m)

    def test_timeline_variation_within_clip_changes_output(self):
        m = tiny_model(layers=1, output_dim=174)
        rng = np.random.default_rng(14)
        feats = FeatureSequence(rng.normal(0, 1, (40, 8)).astype(np.float32), 60.0)
        a = infer(feats, constant_timeline(0, 40), m)
        switched = np.array([0] * 20 + [5] * 20)
        b = infer(feats, switched, m)
        assert not np.array_equal(a.values, b.values)

    def test_reference_configuration_runs(self):
        m = reference_model(feature_dim=768, seed=1)
        assert (m.n_layers, m.d_model, m.n_heads, m.d_ff, m.output_dim) == \
            (10, 512, 8, 2048, 174)
        rng = np.random.default_rng(15)
        feats = FeatureSequence(rng.normal(0, 1, (100, 768)).astype(np.float32), 50.0)
        seq = infer(feats, constant_timeline(3, 120), m)
        assert seq.values.shape == (120, 174)
        assert np.isfinite(seq.values).all()

    def test_float32_inference_tracks_float64_forward(self):
        m = reference_model(feature_dim=768, seed=1)
        rng = np.random.default_rng(16)
        feats = FeatureSequence(rng.normal(0, 1, (120, 768)).astype(np.float32), 60.0)
        labels = constant_timeline(3, 120)
        h0 = (encode_content(feats.data, m.encoder)
              + encode_emotion_table(m.encoder)[labels])
        want = forward(m, h0)
        assert want.dtype == np.float64
        got = infer(feats, labels, m).values
        assert np.abs(got - want).max() <= 1e-4
        # the caller's model is left float64
        assert all(p.dtype == np.float64 for _, p in named_parameters(m))

    def test_head_loop_output_equals_the_all_heads_product(self, monkeypatch):
        # 300 frames: one row block; 600: two row blocks; 3600: seven chunks
        blas = network._blas_thread_control()
        m = build_model(8, d_model=64, n_layers=2, n_heads=4, d_ff=128, output_dim=174,
                        dropout=0.0, seed=4)
        rng = np.random.default_rng(18)
        attention = network._attention_forward

        def all_heads(x, p, n_heads, keep_cache, kv=None):
            return attention(x, p, n_heads, True, kv)

        before = blas[0]() if blas else None
        if blas:
            blas[1](1)
        try:
            for frames in (300, 600, 3600):
                feats = FeatureSequence(rng.normal(0, 1, (frames, 8)).astype(np.float32), 60.0)
                labels = rng.integers(0, 7, frames)
                head_loop = infer(feats, labels, m).values
                with monkeypatch.context() as patch:
                    patch.setattr(network, "_attention_forward", all_heads)
                    want = infer(feats, labels, m).values
                assert head_loop.tobytes() == want.tobytes(), frames
        finally:
            if blas:
                blas[1](before)

    def test_chunks_encode_at_their_global_start_frame(self, monkeypatch):
        import speechrig.network as network
        calls = []

        def spy(features, params, pos_offset=0):
            calls.append((pos_offset, len(features)))
            return encode_content(features, params, pos_offset=pos_offset)

        monkeypatch.setattr(network, "encode_content", spy)
        m = tiny_model(layers=1, output_dim=174)
        rng = np.random.default_rng(17)
        feats = FeatureSequence(rng.normal(0, 1, (1300, 8)).astype(np.float32), 60.0)
        infer(feats, constant_timeline(2, 1300), m)
        # stride 540: chunks [0, 600), [540, 1140), [1080, 1300)
        assert calls == [(0, 600), (540, 600), (1080, 220)]


def _phases(n_phases, n_blocks, run, prepare=None):
    """``n_phases`` phases of ``n_blocks`` blocks each, ``run(p, b)`` doing
    block b of phase p and ``prepare(p)``, if given, preparing phase p."""
    return [(None if prepare is None else functools.partial(prepare, p),
             [functools.partial(run, p, b) for b in range(n_blocks)]) for p in range(n_phases)]


def _blas_or_stub():
    """The BLAS thread count's getter and setter, and the runners two CPUs
    give: where the count cannot be set, one runner and nothing to restore."""
    blas = network._blas_thread_control()
    return (2, blas) if blas else (1, (lambda: 2, lambda threads: None))


class TestChunkPool:
    # 3000 frames in 600-frame chunks at stride 540: six chunks
    FRAMES = 3000

    def test_pool_output_equals_the_serial_run(self, monkeypatch):
        m = tiny_model(layers=2, output_dim=174)
        rng = np.random.default_rng(18)
        feats = FeatureSequence(rng.normal(0, 1, (self.FRAMES, 8)).astype(np.float32), 60.0)
        switched = np.array([0] * 1200 + [4] * 1800)
        pooled = infer(feats, switched, m).values
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = infer(feats, switched, m).values
        assert np.array_equal(pooled, serial)

    def test_more_runners_than_cores_take_each_chunk_once(self, monkeypatch):
        # 8 runners on 5 phases of 100 blocks, switching threads as often as
        # the interpreter allows: a block taken twice or skipped, a phase
        # started before the one before it ended, or a prepare run twice or
        # late, shows in the log
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        taken, prepared = [], []

        def run(p, b):
            time.sleep(0)  # lets another runner in
            taken.append((p, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            network._run_phases(_phases(5, 100, run, lambda p: prepared.append((p, len(taken)))))
        finally:
            sys.setswitchinterval(interval)
        assert prepared == [(p, 100 * p) for p in range(5)]
        assert [p for p, _ in taken] == sorted(p for p, _ in taken)
        assert sorted(taken) == [(p, b) for p in range(5) for b in range(100)]

    @pytest.mark.parametrize("failing", [(2,), (2, 4), (4, 0)])
    def test_earliest_failing_chunk_raises_unchanged(self, failing):
        def run(p, b):
            if b in failing:
                raise NumericError(f"block {b}")

        with pytest.raises(NumericError, match=f"block {min(failing)}$"):
            network._run_phases(_phases(1, 6, run))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_failure_rule_does_not_depend_on_the_runner_count(self, monkeypatch, cpus):
        # lowest phase first, its prepare before its blocks, then the
        # earliest block in clip order; an interrupt before any of them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def raising(cases):
            def act(p, b=-1):
                if (p, b) in cases:
                    raise cases[p, b]
            return act

        for cases, want in [
            ({(1, 5): ValueError("1/5"), (1, 3): ValueError("1/3"), (2, 0): ValueError("2/0")},
             "1/3"),
            ({(1, -1): ValueError("prepare 1"), (1, 0): ValueError("1/0")}, "prepare 1"),
            ({(0, 2): KeyboardInterrupt("0/2"), (0, 4): ValueError("0/4")}, "0/2"),
        ]:
            act = raising(cases)
            with pytest.raises(BaseException) as caught:
                network._run_phases(_phases(3, 8, act, act))
            assert str(caught.value) == want, (cpus, cases)

    def test_a_later_chunk_failing_first_does_not_win(self, monkeypatch):
        if network._blas_thread_control() is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two runners")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        later_failed = threading.Event()

        def run(p, b):
            if b == 1:  # taken before block 2; fails only once block 2 has
                later_failed.wait(10.0)
                raise NumericError("block 1")
            if b == 2:
                later_failed.set()
                raise NumericError("block 2")

        with pytest.raises(NumericError, match="block 1$"):
            network._run_phases(_phases(1, 6, run))
        assert later_failed.is_set()

    def test_interrupt_on_the_calling_thread_stops_the_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ran = []

        def run(p, b):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.05)
            ran.append((p, b))

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            network._run_phases(_phases(2, 6, run))
        assert len(ran) <= 1  # only the block the worker had taken before the interrupt
        assert threading.active_count() == before

    def test_an_interrupt_in_a_chunk_reaches_the_caller_and_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        runners, (get, put) = _blas_or_stub()
        interrupt, started = KeyboardInterrupt(), []

        def run(p, b):
            started.append(b)
            if b == runners - 1:  # a block the calling thread may or may not take
                raise interrupt
            time.sleep(0.05)

        before, threads = get(), threading.active_count()
        put(2)
        try:
            with pytest.raises(KeyboardInterrupt) as caught:
                network._run_phases(_phases(2, 6, run))
            assert caught.value is interrupt
            assert get() == 2
        finally:
            put(before)
        # of six blocks, only those a runner took before the interrupt ran
        assert runners - 1 in started and len(started) <= 1 + runners
        assert threading.active_count() == threads

    def test_blas_held_at_one_thread_then_restored(self):
        blas = network._blas_thread_control()
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set here")
        get, put = blas
        before = get()
        put(2)
        try:
            m = tiny_model(layers=1, output_dim=174)
            rng = np.random.default_rng(19)
            feats = FeatureSequence(rng.normal(0, 1, (self.FRAMES, 8)).astype(np.float32), 60.0)
            infer(feats, constant_timeline(1, self.FRAMES), m)
            assert get() == 2
            # a clean run, a block failing and an interrupt all restore the count
            for error in [None, NumericError("block 3"), KeyboardInterrupt()]:
                inside = []

                def run(p, b):
                    inside.append(get())
                    if b == 3 and error is not None:
                        raise error

                with pytest.raises(type(error)) if error else contextlib.nullcontext():
                    network._run_phases(_phases(2, 6, run))
                assert get() == 2, error
                assert inside and set(inside) == {1}, error
        finally:
            put(before)


@st.composite
def _schedules(draw):
    """(cpus, sizes, errors): 1-4 CPUs, 1-6 phases of 1-40 jobs, and the
    exception each failing (phase, job) raises, job -1 being the phase's
    prepare. A phase has up to three jobs raising ``ValueError``, maybe
    one raising ``KeyboardInterrupt`` no later than the earliest of them,
    and maybe a failing prepare."""
    sizes, errors = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6)), {}
    for p, n in enumerate(sizes):
        failing = draw(st.sets(st.integers(0, n - 1), max_size=3))
        errors.update({(p, b): ValueError(f"{p}/{b}") for b in failing})
        interrupt = draw(st.none() | st.integers(0, min(failing, default=n - 1)))
        if interrupt is not None:
            errors[p, interrupt] = KeyboardInterrupt(f"{p}/{interrupt}")
        if draw(st.integers(0, 3)) == 0:
            errors[p, -1] = ValueError(f"prepare {p}")
    return draw(st.integers(1, 4)), sizes, errors


class TestRunPhasesProperties:
    @settings(max_examples=200, deadline=None)
    @given(schedule=_schedules())
    def test_jobs_run_once_and_the_rule_picks_the_failure(self, schedule):
        cpus, sizes, errors = schedule
        # the documented rule: the lowest failing phase; in it the prepare,
        # then an interrupt, then the earliest job
        raised = min(errors, default=(len(sizes) - 1, sizes[-1] - 1),
                     key=lambda k: (k[0], k[1] != -1, isinstance(errors[k], Exception), k[1]))
        ran = []

        def act(p, b=-1):
            time.sleep(0)  # lets another runner in
            ran.append((p, b))
            if (p, b) in errors:
                raise errors[p, b]

        phases = [(functools.partial(act, p), [functools.partial(act, p, b) for b in range(n)])
                  for p, n in enumerate(sizes)]
        outcome = []

        def call():
            try:
                network._run_phases(phases)
            except BaseException as exc:
                outcome.append(exc)

        _, (get, put) = _blas_or_stub()
        before, interval = get(), sys.getswitchinterval()
        put(2)
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
                caller = threading.Thread(target=call, daemon=True)
                caller.start()
                caller.join(30.0)
            assert not caller.is_alive(), "the scheduler did not return"
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(before)
        assert outcome == ([errors[raised]] if errors else [])
        assert len(ran) == len(set(ran))
        assert [p for p, _ in ran] == sorted(p for p, _ in ran)  # a phase ends before the next
        assert ran[-1][0] == raised[0]  # no phase after the failing one starts
        # every job of an earlier phase ran, and in the failing phase every
        # job up to the raising one
        last, stop = raised
        assert set(ran) >= {(p, b) for p, n in enumerate(sizes[:last + 1])
                            for b in range(-1, n if p < last else stop + 1)}
        assert not [t for t in threading.enumerate() if t.name.startswith("speechrig-runner")]


def _float32_stack(layers=2):
    """A tiny model in the float32 layout ``infer`` runs."""
    m = tiny_model(layers=layers, output_dim=174)
    return network._bind(m.flat.astype(np.float32), network._model_meta(m))


def _stack_on(chunks, stack):
    """``_layer_major`` on a copy of the chunks of rows ``chunks``."""
    return network._layer_major(np.concatenate(chunks), [len(c) for c in chunks], stack)


def _plant_after(monkeypatch, layer, rows, action):
    """Make ``_layer_forward`` call ``action(y)`` on its output for
    ``layer`` when it runs on ``rows`` rows."""
    original = network._layer_forward

    def planted(x, p, *args, **kwargs):
        y, cache = original(x, p, *args, **kwargs)
        if p.wq is layer.wq and len(x) == rows:
            action(y)
        return y, cache

    monkeypatch.setattr(network, "_layer_forward", planted)


class TestRowBlocks:
    # 599 rows: two blocks, of 299 and 300 rows, told apart by their size
    ROWS, FIRST, LAST = 599, 299, 300

    def _hidden(self, rows=ROWS):
        return np.random.default_rng(20).normal(0, 1, (rows, 16)).astype(np.float32)

    def test_partition_depends_on_the_row_count_only(self, monkeypatch):
        assert network._row_blocks(300) == [(0, 300)]
        assert network._row_blocks(301) == [(0, 150), (150, 301)]
        assert network._row_blocks(360) == [(0, 180), (180, 360)]
        assert network._row_blocks(600) == [(0, 300), (300, 600)]
        assert network._row_blocks(1100) == [(0, 275), (275, 550), (550, 825), (825, 1100)]
        stack, sizes = _float32_stack(), {}
        original = network._layer_forward

        def spy(x, *args, **kwargs):
            sizes.setdefault(cpus, []).append(len(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(network, "_layer_forward", spy)
        for cpus in (1, 3, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            _stack_on([self._hidden(1100), self._hidden(360)], stack)
        assert all(sorted(got) == sorted([275] * 8 + [180] * 4) for got in sizes.values())

    @pytest.mark.parametrize("rows, cpus", [(600, 1), (600, 2), (1100, 3), (1100, 8)])
    def test_output_does_not_depend_on_the_runner_count(self, monkeypatch, rows, cpus):
        # 1100 rows are two chunks, and one chunk per group makes the
        # groups take turns with one key/value buffer. The runners switch
        # threads as often as the interpreter allows: a key or value row
        # read before it was written, or overwritten by the next group's or
        # layer's, changes the output.
        stack = _float32_stack()
        chunks = [self._hidden(rows)[s:e] for s, e in network._chunk_bounds(rows)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _stack_on(chunks, stack)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(network, "_GROUP_CHUNKS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocked = _stack_on(chunks, stack)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(blocked, serial)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("block", ["first", "last"])
    def test_non_finite_rows_raise_the_serial_pass_error(self, monkeypatch, layer, block):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        stack, h0 = _float32_stack(), self._hidden()
        s, e = (0, self.FIRST) if block == "first" else (self.FIRST, self.ROWS)

        def nan_rows(y):  # all of a block's output; rows s:e of the serial pass's
            y[(slice(s, e) if len(y) == self.ROWS else slice(None))] = np.nan

        _plant_after(monkeypatch, stack.layers[layer], self.ROWS, nan_rows)
        with pytest.raises(NumericError) as serial:
            network._stack_forward(stack, h0, rng=None)
        _plant_after(monkeypatch, stack.layers[layer], e - s, nan_rows)
        with pytest.raises(NumericError) as blocked:
            _stack_on([h0], stack)
        assert str(blocked.value) == str(serial.value) == \
            f"non-finite activations after encoder layer {layer}"

    @staticmethod
    def _released(monkeypatch, stack, hidden, error):
        """Run ``_layer_major`` on a thread of its own, at 2 CPUs and 2 BLAS
        threads; it must end, raising ``error``, and restore the count."""
        runners, (get, put) = _blas_or_stub()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        outcome = []

        def call():
            try:
                _stack_on([hidden], stack)
            except BaseException as exc:
                outcome.append(exc)

        before, threads = get(), threading.active_count()
        put(2)
        try:
            caller = threading.Thread(target=call, daemon=True)
            caller.start()
            caller.join(10.0)
            assert not caller.is_alive(), "a phase still waits for its runners"
            assert get() == 2
        finally:
            put(before)
        assert outcome == [error]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()])
    @pytest.mark.parametrize("block", ["first", "last"])  # the calling thread's, a worker's
    def test_a_failing_runner_ends_the_fork_join(self, monkeypatch, error, block):
        if network._blas_thread_control() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set here, so one runner")
        stack = _float32_stack()

        def fail(y):
            time.sleep(0.2)  # the other runner has finished its layer-0 block by now
            raise error

        _plant_after(monkeypatch, stack.layers[0], self.FIRST if block == "first" else self.LAST,
                     fail)
        self._released(monkeypatch, stack, self._hidden(), error)

    @pytest.mark.parametrize("at", [1, 2])  # a layer's read, the head's
    def test_a_failing_weight_read_releases_the_runners(self, monkeypatch, at):
        if network._blas_thread_control() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set here, so one runner")
        stack, error = _float32_stack(), DataError("truncated payload")
        tensors = network._tensors

        def failing_read(model):
            for i, t in enumerate(tensors(model)):
                if i == at:
                    time.sleep(0.2)  # the runners have finished the phase before by now
                    raise error
                yield t

        monkeypatch.setattr(network, "_tensors", failing_read)
        self._released(monkeypatch, stack, self._hidden(), error)


class TestGradients:
    def test_gradcheck_small_model(self):
        m, feats, labels, target = gradcheck_probe(seed=11)
        assert grad_check(m, feats, labels, target, eps=1e-5) < 1e-4

    def test_linear_model_gradients_nearly_exact(self):
        # with zero encoder layers the loss is exactly quadratic in the
        # output head, so central differences agree to roundoff
        m = tiny_model(layers=0)
        rng = np.random.default_rng(12)
        feats = rng.normal(0, 1, (5, 8))
        labels = rng.integers(0, 7, 5)
        target = rng.normal(0, 0.5, (5, 12))
        err = grad_check(m, feats, labels, target, eps=1e-5,
                         param_names=("head_w", "head_b"))
        assert err < 5e-8

    def test_zero_loss_probe_gives_zero_gradients(self):
        m = tiny_model(layers=1)
        rng = np.random.default_rng(13)
        feats = rng.normal(0, 1, (4, 8))
        labels = constant_timeline(3, 4)
        target, _ = training_forward(m, feats, labels)
        grads = grad_buffer(m)
        loss = clip_loss_and_grads(m, feats, labels, target, grads)
        assert loss == 0.0
        assert grads.flat.size == m.flat.size
        np.testing.assert_allclose(grads.flat, 0.0, atol=1e-15)

    def test_gradients_accumulate_across_clips(self):
        m = tiny_model(layers=1)
        rng = np.random.default_rng(14)
        both, each = grad_buffer(m), []
        for label, frames in ((1, 4), (5, 6)):
            clip = (rng.normal(0, 1, (frames, 8)), constant_timeline(label, frames),
                    rng.normal(0, 0.5, (frames, 12)))
            clip_loss_and_grads(m, *clip, both)
            alone = grad_buffer(m)
            clip_loss_and_grads(m, *clip, alone)
            each.append(alone.flat)
        assert np.count_nonzero(each[0]) > 0.9 * each[0].size  # every tensor is reached
        np.testing.assert_array_equal(both.flat, each[0] + each[1])

    def test_mse_shape_mismatch(self):
        with pytest.raises(DataError):
            mse_and_grad(np.zeros((2, 3)), np.zeros((3, 2)))


class TestReusedTrainingValues:
    """What ``train`` computes once per run or per batch, and the backward's
    scratch products, give the bits computing them per clip gives."""

    @pytest.mark.parametrize("width,longest", [(16, 1300), (64, 1300), (512, 600)])
    def test_positions_sliced_from_one_table_equal_each_fresh_table(self, width, longest):
        table = positional_encoding(longest, width)
        for t in range(1, longest + 1):
            assert table[:t].tobytes() == positional_encoding(t, width).tobytes(), t

    def test_given_positions_and_emotion_give_the_per_clip_gradients(self):
        m = tiny_model(layers=2)
        rng = np.random.default_rng(31)
        positions = positional_encoding(9, m.d_model)
        emotion = emotion_mlp(m.encoder)  # one batch's table, shared by its clips
        for label, frames in ((2, 5), (6, 9)):
            clip = (rng.normal(0, 1, (frames, 8)), constant_timeline(label, frames),
                    rng.normal(0, 0.5, (frames, 12)))
            fresh, reused = grad_buffer(m), grad_buffer(m)
            loss = clip_loss_and_grads(m, *clip, fresh)
            assert clip_loss_and_grads(m, *clip, reused, positions=positions, emotion=emotion,
                                       scratch=network.BackwardScratch(m)) == loss
            assert reused.flat.tobytes() == fresh.flat.tobytes()

    @staticmethod
    def _add_at(labels, dh):
        ref = np.zeros((7, dh.shape[1]))
        np.add.at(ref, labels, dh)
        return ref

    def test_one_label_row_sum_equals_add_at_bytes(self):
        rng = np.random.default_rng(32)
        dh = rng.normal(0, 1, (40, 16))
        dh[:, 3] = -0.0  # np.add.at from +0.0 leaves +0.0 here
        dh[::2, 5] = -0.0
        dh[:, 7] = rng.normal(0, 1e-300, 40)  # subnormal sums
        dh[:, 9] = [1e300, -1e300] * 20  # order-sensitive
        for label in range(7):
            labels = constant_timeline(label, 40)
            got = network._label_rows(labels, dh)
            assert got.tobytes() == self._add_at(labels, dh).tobytes()
            assert np.signbit(got[label, 3]) == np.False_

    def test_mixed_labels_go_through_add_at(self, monkeypatch):
        calls = []

        class Add:  # np.add, recording which reduction ran
            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, *args):
                calls.append("at")
                return np.add.at(*args)

            def reduce(self, *args, **kwargs):
                calls.append("reduce")
                return np.add.reduce(*args, **kwargs)

        spy = types.SimpleNamespace(**vars(np))
        spy.add = Add()
        monkeypatch.setattr(network, "np", spy)
        rng = np.random.default_rng(33)
        dh = rng.normal(0, 1, (12, 8))
        mixed = np.array([0, 0, 3, 3, 3, 1, 6, 6, 0, 2, 2, 5])
        assert network._label_rows(mixed, dh).tobytes() == self._add_at(mixed, dh).tobytes()
        network._label_rows(constant_timeline(4, 12), dh)
        assert calls == ["at", "reduce"]

    def test_scratch_products_equal_fresh_products_at_reference_width(self):
        # the backward's weight-gradient shapes at d_model 512, d_ff 2048, 300 frames
        rng = np.random.default_rng(34)
        t, d, ff = 300, 512, 2048
        scratch = network.BackwardScratch(build_model(24, d_model=d, n_layers=1, n_heads=8,
                                                      d_ff=ff, output_dim=174))
        for rows, cols in ((d, d), (ff, d), (d, ff), (d, 174), (24, d)):
            a, b = rng.normal(0, 1, (t, rows)), rng.normal(0, 1, (t, cols))
            start = rng.normal(0, 1, (rows, cols))
            fresh, reused = start.copy(), start.copy()
            fresh += a.T @ b
            reused += scratch.product(a.T, b)
            assert reused.tobytes() == fresh.tobytes()

    def test_scratch_is_one_vector_the_size_of_the_largest_weight(self):
        m = tiny_model(layers=1)  # d_model 16, d_ff 32, output 12: w1 and w2 are largest
        scratch = network.BackwardScratch(m)
        products = [scratch.product(np.ones((16, 3)), np.ones((3, 32))),
                    scratch.product(np.ones((32, 3)), np.ones((3, 16)))]
        assert all(p.base is products[0].base and p.base.shape == (16 * 32,) for p in products)
        with pytest.raises(ValueError):  # larger than any weight
            scratch.product(np.ones((17, 3)), np.ones((3, 32)))

    def test_scratch_is_made_anew_only_after_a_longer_clip_than_any_before(self):
        scratch = network.BackwardScratch(tiny_model(layers=1))
        vectors = []
        for frames in (10, 10, 5, 12, 11, 12, 13):
            scratch.end_of_clip(frames)
            vectors.append(scratch.product(np.ones((2, 1)), np.ones((1, 2))).base)
        fresh = [b is not a for a, b in zip(vectors, vectors[1:])]
        assert fresh == [False, False, True, False, False, True]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_norm_sums_give_np_means_bits(self, dtype):
        rng = np.random.default_rng(35)
        x = (rng.normal(0, 3, (257, 512)) + rng.normal(0, 50, (257, 1))).astype(dtype)
        g, b = rng.normal(1, 0.1, 512).astype(dtype), rng.normal(0, 0.1, 512).astype(dtype)
        ref = x.copy()
        ref -= ref.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.mean(ref * ref, axis=-1, keepdims=True) + network._LN_EPS)
        ref *= inv
        ref = ref * g + b
        out, _ = network._layer_norm_forward(x.copy(), g, b, keep_cache=False)
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()


class TestWeightFile:
    def test_roundtrip_preserves_f32_values_and_metadata(self, tmp_path):
        m = tiny_model(layers=2, output_dim=174)
        m.feature_family = "synthetic-desk"
        path = tmp_path / "w.emow"
        save_model(path, m)
        back = load_model(path)
        assert back.feature_family == "synthetic-desk"
        assert back.n_layers == 2 and back.d_model == 16 and back.n_heads == 2
        for (name_a, a), (name_b, b) in zip(named_parameters(m), named_parameters(back)):
            assert name_a == name_b
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_saved_file_reload_is_stable(self, tmp_path):
        # saving a loaded model reproduces the file byte for byte
        m = tiny_model(layers=1)
        p1, p2 = tmp_path / "a.emow", tmp_path / "b.emow"
        save_model(p1, m)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_reads_float32_without_building_a_model(self, tmp_path, monkeypatch):
        import speechrig.network as network
        m = tiny_model(layers=2, output_dim=174)
        path = tmp_path / "w.emow"
        save_model(path, m)

        def no_build(*args, **kwargs):
            raise AssertionError("load_model must not build a random-init model")

        monkeypatch.setattr(network, "build_model", no_build)
        back = load_model(path)
        for name, p in named_parameters(back):
            assert p.dtype == np.float32 and p.flags.writeable, name
        assert back.dropout == m.dropout

    def test_loaded_model_trains_and_gradchecks_in_float64(self, tmp_path):
        from speechrig.training import ClipExample, TrainConfig, train
        m, feats, labels, target = gradcheck_probe(seed=11)
        path = tmp_path / "w.emow"
        save_model(path, m)
        probe = load_model(path)
        assert grad_check(probe, feats, labels, target, eps=1e-5) < 1e-4
        assert all(p.dtype == np.float64 for _, p in named_parameters(probe))

        loaded = load_model(path)
        item = ClipExample(feats, 0, target)
        train(loaded, [item], TrainConfig(lr0=1e-3, epochs=1, batch=1))
        assert all(p.dtype == np.float64 for _, p in named_parameters(loaded))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.emow"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(DataError, match="magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        m = tiny_model(layers=1)
        path = tmp_path / "w.emow"
        save_model(path, m)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)


class TestWeightStream:
    @pytest.mark.parametrize("frames", [300, 1300])
    def test_stream_infers_what_the_loaded_model_does(self, tmp_path, frames):
        path = tmp_path / "w.emow"
        save_model(path, tiny_model(layers=3, output_dim=174))
        rng = np.random.default_rng(21)
        feats = FeatureSequence(rng.normal(0, 1, (frames, 8)).astype(np.float32), 60.0)
        labels = rng.integers(0, 7, frames)
        loaded = infer(feats, labels, load_model(path)).values
        with WeightStream(path) as weights:
            streamed = infer(feats, labels, weights).values
            assert weights.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert np.array_equal(streamed, loaded)

    def test_stream_checks_what_load_model_checks(self, tmp_path):
        path = tmp_path / "w.emow"
        path.write_bytes(b"XXXX" + bytes(32))
        before = threading.active_count()
        with pytest.raises(DataError, match="magic"):
            WeightStream(path)
        assert threading.active_count() == before

    def test_digest_needs_the_whole_file_read(self, tmp_path):
        path = tmp_path / "w.emow"
        save_model(path, tiny_model(layers=1))
        with WeightStream(path) as weights, pytest.raises(RuntimeError, match="not read"):
            weights.hexdigest()

    def test_peak_memory_holds_two_layers_not_all(self, tmp_path, monkeypatch):
        # at width 64 a layer is 0.2 MB; going from 2 to 8 layers adds 1.2
        # MB to the file, and less than one layer to infer's peak
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one allocation order
        rng = np.random.default_rng(22)
        feats = FeatureSequence(rng.normal(0, 1, (700, 8)).astype(np.float32), 60.0)
        labels = constant_timeline(2, 700)
        peaks, layer_bytes = {}, 0
        for layers in (2, 8):
            m = build_model(8, d_model=64, n_layers=layers, n_heads=4, d_ff=256, output_dim=174,
                            dropout=0.0, seed=1)
            layer_bytes = 4 * sum(p.size for p in vars(m.layers[0]).values())
            save_model(tmp_path / f"w{layers}.emow", m)
            tracemalloc.start()
            try:
                with WeightStream(tmp_path / f"w{layers}.emow") as weights:
                    infer(feats, labels, weights)
                peaks[layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] - peaks[2] < layer_bytes, (peaks, layer_bytes)

    def test_a_lagging_hash_still_names_the_bytes_read(self, tmp_path, monkeypatch):
        # each layer read over the one before while the runners' hash of it lags
        path = tmp_path / "w.emow"
        m = tiny_model(layers=3, output_dim=174)
        save_model(path, m)
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        sha256 = hashlib.sha256

        class Slow:
            def __init__(self):
                self._digest = sha256()

            def update(self, data):
                time.sleep(0.005)
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(network.hashlib, "sha256", Slow)
        feats = FeatureSequence(np.random.default_rng(5).normal(0, 1, (700, 8)), 60.0)
        labels = constant_timeline(1, 700)
        want_values = infer(feats, labels, load_model(path)).values
        for cpus in (1, 2):  # the runners
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            with WeightStream(path) as weights:
                streamed = infer(feats, labels, weights).values
                assert weights.hexdigest() == want, cpus
            assert np.array_equal(streamed, want_values), cpus

    def test_threads_hashing_at_once_keep_file_order(self, tmp_path):
        # 8 threads take small, uneven shares of the pending bytes at once,
        # switching as often as the interpreter allows: a share hashed
        # twice, lost or out of order changes the digest
        path = tmp_path / "w.emow"
        save_model(path, tiny_model(layers=3, output_dim=174))
        want = hashlib.sha256(path.read_bytes()).hexdigest()

        def share(weights, seed):
            rng = np.random.default_rng(seed)
            while weights.pending_nbytes():
                weights.hash_pending(int(rng.integers(1, 100)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in range(5):
                with WeightStream(path) as weights:
                    for _ in weights.read_tensors():
                        threads = [threading.Thread(target=share, args=(weights, 8 * run + k))
                                   for k in range(8)]
                        for t in threads:
                            t.start()
                        for t in threads:
                            t.join(10.0)
                        assert not any(t.is_alive() for t in threads)
                        assert weights.pending_nbytes() == 0
                    assert weights.hexdigest() == want, run
        finally:
            sys.setswitchinterval(interval)

    def test_reading_the_stream_holds_the_encoder_and_one_layer(self, tmp_path):
        m = build_model(8, d_model=64, n_layers=4, n_heads=4, d_ff=256, output_dim=174,
                        dropout=0.0, seed=1)
        encoder_bytes = 4 * sum(p.size for p in vars(m.encoder).values())
        layer_bytes = 4 * sum(p.size for p in vars(m.layers[0]).values())
        save_model(tmp_path / "w.emow", m)
        tracemalloc.start()
        try:
            with WeightStream(tmp_path / "w.emow") as weights:
                read = list(weights.read_tensors())
                digest = weights.hexdigest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read) == 5
        assert digest == hashlib.sha256((tmp_path / "w.emow").read_bytes()).hexdigest()
        assert peak < encoder_bytes + 1.5 * layer_bytes, (peak, encoder_bytes, layer_bytes)
