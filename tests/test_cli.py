"""End-to-end CLI behavior: determinism, injector wiring, exit codes."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import speechrig
import speechrig.cli as cli
import speechrig.network as network
import speechrig.rig as rig
from speechrig.blink import read_ear_csv
from speechrig.cli import _read_timeline_csv, build_parser, main
from speechrig.errors import DataError, NumericError
from speechrig.features import FeatureSequence, read_feature_csv, write_feature_file
from speechrig.network import build_model, infer, load_model, save_model
from speechrig.rig import RIG_WIDTH, RigSequence, constant_timeline, default_map, read_rig_csv, write_rig_csv
from speechrig.smoothing import clamp_sequence, smooth_sequence


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = build_model(12, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                        output_dim=RIG_WIDTH, dropout=0.0, seed=21)
    save_model(root / "w.emow", model)
    rng = np.random.default_rng(22)
    feats = FeatureSequence(rng.normal(0, 1, (50, 12)).astype(np.float32), 50.0)
    write_feature_file(root / "f.emof", feats)
    (root / "f.csv").write_text("".join(f"{k},0.5\n" for k in range(100)))
    (root / "ok_ear.csv").write_text("frame,ear\n" + "".join(f"{i},0.3\n" for i in range(20)))
    # a header rate so low that no resampled clip can be allocated
    write_feature_file(root / "slow.emof", FeatureSequence(feats.data, 1e-30))
    (root / "slow_manifest.json").write_text(
        '{"items": [{"features": "slow.emof", "target": "t.csv", "emotion": 0}]}')
    (root / "f12.csv").write_text("".join(",".join(["0.5"] * 12) + "\n" for _ in range(50)))
    return root


def run(*argv):
    return main([str(a) for a in argv])


class TestInfer:
    def test_fixed_seed_runs_are_byte_identical(self, workdir):
        a, b = workdir / "a.csv", workdir / "b.csv"
        for out in (a, b):
            code = run("infer", "--features", workdir / "f.emof",
                       "--emotion", "happy", "--weights", workdir / "w.emow",
                       "--seed", 7, "--blink", "--gaze", "--out", out)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        sidecar = json.loads((workdir / "a.csv.json").read_text())
        assert sidecar["blink"] and sidecar["gaze"]

    @pytest.mark.parametrize("rate", [50.0, 60.0])
    def test_features_are_freed_before_the_encoder_stack(self, workdir, tmp_path, monkeypatch,
                                                         rate):
        feats = tmp_path / "f.emof"
        rng = np.random.default_rng(4)
        write_feature_file(feats, FeatureSequence(rng.normal(0, 1, (round(rate * 20), 12)), rate))
        refs, alive = [], []
        load, layer_major = cli.load_features, network._layer_major

        def loading(*args, **kwargs):
            seq = load(*args, **kwargs)
            refs.append(weakref.ref(seq.data))
            return seq

        def checking(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return layer_major(*args, **kwargs)

        monkeypatch.setattr(cli, "load_features", loading)
        monkeypatch.setattr(network, "_layer_major", checking)
        assert run("infer", "--features", feats, "--emotion", "0", "--weights",
                   workdir / "w.emow", "--out", tmp_path / "o.csv") == 0
        assert alive == [False]
        assert json.loads((tmp_path / "o.csv.json").read_text())["frames"] == 1200

    def test_injectors_off_leaves_eye_channels_at_smoothed_output(self, workdir):
        out = workdir / "plain.csv"
        assert run("infer", "--features", workdir / "f.emof", "--emotion", "2",
                   "--weights", workdir / "w.emow", "--out", out) == 0
        got = read_rig_csv(out)

        model = load_model(workdir / "w.emow")
        from speechrig.features import read_feature_file, resample_features
        feats = resample_features(read_feature_file(workdir / "f.emof"), 60.0)
        seq = infer(feats, constant_timeline(2, feats.n_frames), model)
        expected = clamp_sequence(smooth_sequence(seq), default_map())
        np.testing.assert_allclose(got.values, expected.values, atol=2e-9)

    def test_blink_gaze_change_only_eye_channels(self, workdir):
        plain, injected = workdir / "p.csv", workdir / "i.csv"
        base = ["infer", "--features", workdir / "f.emof", "--emotion", "sad",
                "--weights", workdir / "w.emow", "--seed", 3]
        assert run(*base, "--out", plain) == 0
        assert run(*base, "--blink", "--gaze", "--out", injected) == 0
        a = read_rig_csv(plain).values
        b = read_rig_csv(injected).values
        cmap = default_map()
        touched = set(cmap.eye_role_indices("lid_closure"))
        touched |= set(cmap.eye_role_indices("gaze_horizontal"))
        touched |= set(cmap.eye_role_indices("gaze_vertical"))
        untouched = [i for i in range(RIG_WIDTH) if i not in touched]
        assert np.array_equal(a[:, untouched], b[:, untouched])
        assert not np.array_equal(a[:, sorted(touched)], b[:, sorted(touched)])

    def test_sidecar_records_provenance(self, workdir):
        out = workdir / "meta.csv"
        assert run("infer", "--features", workdir / "f.emof", "--emotion", "0",
                   "--weights", workdir / "w.emow", "--seed", 11, "--out", out) == 0
        sidecar = json.loads((workdir / "meta.csv.json").read_text())
        assert sidecar["fps"] == 60.0
        assert sidecar["seed"] == 11
        assert len(sidecar["weights_sha256"]) == 64
        assert sidecar["smoothed"] is True

    def test_feature_width_mismatch_exits_3(self, workdir, capsys):
        bad = workdir / "bad.emof"
        rng = np.random.default_rng(1)
        write_feature_file(bad, FeatureSequence(rng.normal(0, 1, (20, 9)).astype(np.float32), 50.0))
        code = run("--json-errors", "infer", "--features", bad, "--emotion", "0",
                   "--weights", workdir / "w.emow", "--out", workdir / "x.csv")
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert "feature width" in err["message"]

    def test_usage_error_exits_2(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run("infer", "--features", workdir / "f.emof")  # no emotion/weights/out
        assert exc.value.code == 2

    def test_blink_rate_drawn_as_zero_ends_the_blinks(self, workdir, capsys):
        # sigma 1000 at seed 3 draws a rate that underflows to 0.0
        out = workdir / "zero_rate.csv"
        assert run("--json-errors", *_infer_argv(workdir, out=out.name), "--blink",
                   "--blink-sigma", 1000, "--seed", 3) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_map_env_var_used(self, workdir, monkeypatch):
        cmap = default_map()
        doc = cmap.to_document()
        doc[0]["name"] = "customChannelXYZ"
        custom = workdir / "custom_map.json"
        custom.write_text(json.dumps(doc))
        monkeypatch.setenv("SPEECHRIG_MAP", str(custom))
        out = workdir / "envmap.csv"
        assert run("infer", "--features", workdir / "f.emof", "--emotion", "0",
                   "--weights", workdir / "w.emow", "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert "customChannelXYZ" in header

    def test_timeline_csv(self, workdir):
        tl = workdir / "tl.csv"
        tl.write_text("frame,label\n0,happy\n30,sad\n")
        out = workdir / "tlout.csv"
        assert run("infer", "--features", workdir / "f.emof", "--timeline", tl,
                   "--weights", workdir / "w.emow", "--out", out) == 0
        assert read_rig_csv(out).values.shape == (60, RIG_WIDTH)

    def test_audio_input_via_fallback_extractor(self, workdir):
        import wave

        rng = np.random.default_rng(55)
        samples = (rng.uniform(-0.4, 0.4, 16000) * 32767).astype("<i2")
        wav_path = workdir / "clip.wav"
        with wave.open(str(wav_path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(samples.tobytes())

        model = build_model(26, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                            output_dim=RIG_WIDTH, dropout=0.0, seed=31)
        save_model(workdir / "wav_model.emow", model)
        out = workdir / "wavout.csv"
        assert run("infer", "--audio", wav_path, "--emotion", "neutral",
                   "--weights", workdir / "wav_model.emow", "--out", out) == 0
        assert read_rig_csv(out).values.shape == (60, RIG_WIDTH)
        sidecar = json.loads((workdir / "wavout.csv.json").read_text())
        assert sidecar["feature_family"] == "mel-cepstrum-reference"

    def test_emotion_enters_only_through_emotion_parameters(self, workdir):
        # with the emotion pathway zeroed, any two labels must give the
        # same output byte for byte
        model = build_model(12, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                            output_dim=RIG_WIDTH, dropout=0.0, seed=41)
        for name in ("emotion_embed", "emotion_w1", "emotion_b1",
                     "emotion_w2", "emotion_b2"):
            getattr(model.encoder, name)[:] = 0.0
        save_model(workdir / "ablated.emow", model)
        outs = []
        for emotion in ("happy", "sad"):
            out = workdir / f"abl_{emotion}.csv"
            assert run("infer", "--features", workdir / "f.emof", "--emotion", emotion,
                       "--weights", workdir / "ablated.emow", "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _rewrite_metadata(src, dst, edit, ensure_ascii=True):
    """Copy a weight file, passing its metadata JSON through ``edit``; bytes
    that ``edit`` returns are appended to the payload."""
    blob = src.read_bytes()
    magic, version, n = struct.unpack_from("<4sII", blob)
    meta = json.loads(blob[12:12 + n])
    tail = edit(meta)
    new = json.dumps(meta, ensure_ascii=ensure_ascii).encode("utf-8")
    tail = tail if isinstance(tail, bytes) else b""
    dst.write_bytes(struct.pack("<4sII", magic, version, len(new)) + new + blob[12 + n:] + tail)


def _set(key, value):
    return lambda meta: meta.__setitem__(key, value)


class TestWeightFileErrors:
    @pytest.mark.parametrize("edit, needle", [
        (lambda meta: meta.pop("d_ff"), "d_ff"),
        (_set("n_heads", "2"), "n_heads"),
        (_set("d_model", 16.0), "d_model"),
        (_set("n_layers", -1), "n_layers"),
        (_set("n_heads", 3), "divisible"),
        (_set("dropout", "0.1"), "dropout"),
        (_set("dropout", 1.5), "dropout"),
        (_set("leaky_slope", 0.3), "leaky_slope"),
        (_set("feature_family", 7), "feature_family"),
        (_set("tensors", {}), "tensors"),
        (lambda meta: meta["tensors"].__setitem__(0, ["content_w"]), "malformed"),
        (lambda meta: meta["tensors"][0].__setitem__("offset", 0.5), "offset"),
        (lambda meta: meta["tensors"].insert(0, meta["tensors"].pop(1)), "layout has"),
        (lambda meta: meta["tensors"][1].__setitem__("offset", 0), "layout has"),
        (lambda meta: bytes(8), "8 bytes after the last tensor"),
        (lambda meta: meta["tensors"].pop(), "tensors listed"),
        # a layer more than the file lists: refused before the layout is built
        (_set("n_layers", 2), "missing tensors: 2 layers declared, 25 tensors listed"),
    ], ids=["missing-key", "str-dim", "float-dim", "negative-dim", "indivisible-heads",
            "str-dropout", "dropout-above-1", "other-leaky-slope", "int-family", "tensors-not-list", "tensor-entry-not-object",
            "float-offset", "reordered-manifest", "overlapping-offset", "trailing-payload",
            "missing-tensor", "layers-beyond-manifest"])
    def test_bad_metadata_exits_3_with_json_line(self, workdir, capsys, edit, needle):
        bad = workdir / "badmeta.emow"
        _rewrite_metadata(workdir / "w.emow", bad, edit)
        self._assert_data_error(workdir, capsys, bad, needle)

    @pytest.mark.parametrize("name", ["missing.emow", "."])
    def test_unreadable_weights_exit_3_with_json_line(self, workdir, capsys, name):
        self._assert_data_error(workdir, capsys, workdir / name, "cannot read weight file")

    def test_payload_shrunk_after_the_size_check_exits_3(self, workdir, tmp_path, capsys,
                                                          monkeypatch):
        short = tmp_path / "short.emow"
        short.write_bytes((workdir / "w.emow").read_bytes()[:-4])
        fstat, inode = os.fstat, short.stat().st_ino

        def stale(fd):  # the size the file had before it lost its last 4 bytes
            st = fstat(fd)
            if st.st_ino != inode:  # the feature file, read before the head
                return st
            return os.stat_result((*st[:6], st.st_size + 4, *st[7:]))

        monkeypatch.setattr(network.os, "fstat", stale)
        with pytest.raises(DataError, match="truncated payload"):
            load_model(short)
        self._assert_data_error(workdir, capsys, short, "truncated payload")

    @staticmethod
    def _assert_data_error(workdir, capsys, weights, needle):
        code = run("--json-errors", "infer", "--features", workdir / "f.emof",
                   "--emotion", "0", "--weights", weights, "--out", workdir / "x.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err.strip())
        assert payload["error"] == "DataError"
        assert needle in payload["message"]


class TestWeightDigest:
    """The sidecar's ``weights_sha256`` and the thread that computes it."""

    @pytest.mark.parametrize("family", ["external", "Stimme-ü-音声"])
    def test_sidecar_digest_is_the_files_sha256(self, workdir, tmp_path, family):
        weights = tmp_path / "w.emow"
        _rewrite_metadata(workdir / "w.emow", weights, _set("feature_family", family),
                          ensure_ascii=False)
        assert family.encode("utf-8") in weights.read_bytes()  # as UTF-8, not \u escapes
        out = tmp_path / "o.csv"
        assert run("infer", "--features", workdir / "f.emof", "--emotion", "0",
                   "--weights", weights, "--out", out) == 0
        want = hashlib.sha256(weights.read_bytes()).hexdigest()
        assert json.loads((tmp_path / "o.csv.json").read_text())["weights_sha256"] == want
        assert cli.file_sha256(weights) == want

    # one chunk, three chunks, and more chunks than a layer holds keys for at once
    @pytest.mark.parametrize("frames", [300, 1300, 540 * network._GROUP_CHUNKS + 61])
    def test_sidecar_digest_is_the_files_sha256_at_every_length(self, workdir, tmp_path, frames):
        feats = tmp_path / "f.emof"
        rng = np.random.default_rng(frames)
        write_feature_file(feats, FeatureSequence(rng.normal(0, 1, (frames, 12)), 60.0))
        out = tmp_path / "o.csv"
        assert run("infer", "--features", feats, "--emotion", "0", "--weights",
                   workdir / "w.emow", "--out", out) == 0
        sidecar = json.loads((tmp_path / "o.csv.json").read_text())
        assert sidecar["frames"] == frames
        assert sidecar["weights_sha256"] == hashlib.sha256((workdir / "w.emow").read_bytes()).hexdigest()

    # the stream reads only the encoder at open; each cut falls inside a
    # tensor of a section it reads later: a layer half, or the head
    CUTS = {"in-the-layer": "layers.1.ln2_g", "in-the-head": "head_b",
            "in-an-attention-half": "layers.0.wk", "in-a-feed-forward-half": "layers.0.w2"}

    @pytest.mark.parametrize("keep", list(CUTS))
    def test_weights_truncated_after_open_exit_3(self, workdir, tmp_path, monkeypatch, capsys,
                                                 keep):
        weights = tmp_path / "w.emow"
        model = build_model(12, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                            output_dim=RIG_WIDTH, dropout=0.0, seed=21)
        save_model(weights, model)
        layout = {name: sl for name, _, sl in network._layout(network._model_meta(model))}
        # the file keeps the first float of the tensor the cut falls in
        size = weights.stat().st_size - 4 * (model.flat.size - layout[self.CUTS[keep]].start - 1)
        real_infer = cli.infer

        def truncate_then_infer(*args, **kwargs):  # the stream has read the encoder
            os.truncate(weights, size)
            return real_infer(*args, **kwargs)

        monkeypatch.setattr(cli, "infer", truncate_then_infer)
        out = tmp_path / "o.csv"
        before = threading.active_count()
        assert run("--json-errors", "infer", "--features", workdir / "f.emof", "--emotion", "0",
                   "--weights", weights, "--out", out) == 3
        assert threading.active_count() == before
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "DataError" and "truncated payload" in payload["message"]
        assert list(tmp_path.iterdir()) == [weights]

    def test_digest_names_the_bytes_loaded_not_a_file_swapped_in(self, workdir, tmp_path,
                                                                monkeypatch):
        weights, other = tmp_path / "w.emow", tmp_path / "other.emow"
        weights.write_bytes((workdir / "w.emow").read_bytes())
        _rewrite_metadata(weights, other, _set("feature_family", "other"))
        loaded = cli.file_sha256(weights)
        real_infer = cli.infer

        def swap_then_infer(*args, **kwargs):
            os.replace(other, weights)
            return real_infer(*args, **kwargs)

        monkeypatch.setattr(cli, "infer", swap_then_infer)
        out = tmp_path / "o.csv"
        assert run("infer", "--features", workdir / "f.emof", "--emotion", "0",
                   "--weights", weights, "--out", out) == 0
        assert cli.file_sha256(weights) != loaded
        assert json.loads((tmp_path / "o.csv.json").read_text())["weights_sha256"] == loaded

    @staticmethod
    def _raise(exc):
        def infer(*args, **kwargs):
            raise exc
        return infer

    @staticmethod
    def _record_hashing(monkeypatch, record):
        """Make every SHA-256 call ``record()`` on each update."""
        sha256 = hashlib.sha256

        class Recording:
            def __init__(self):
                self._digest = sha256()

            def update(self, data):
                record()
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Recording)

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("out-in-missing-dir", 3), ("numeric-error", 4)])
    def test_no_thread_outlives_main(self, workdir, monkeypatch, capsys, case, code):
        hashed = []
        self._record_hashing(monkeypatch, lambda: hashed.append(1))
        if case == "numeric-error":
            monkeypatch.setattr(cli, "infer", self._raise(NumericError("non-finite output")))
        out = "nodir/x.csv" if case == "out-in-missing-dir" else "threads.csv"
        before = threading.active_count()
        assert run("--json-errors", *_infer_argv(workdir, out=out)) == code
        assert threading.active_count() == before
        assert hashed  # the hash had started
        if code:
            (line,) = capsys.readouterr().err.splitlines()
            assert json.loads(line)["error"] == ("DataError" if code == 3 else "NumericError")

    def test_hash_runs_on_the_caller_or_a_runner_and_the_caller_keeps_its_priority(
            self, tmp_path, monkeypatch):
        weights = tmp_path / "w.emow"
        save_model(weights, build_model(12, d_model=16, n_layers=3, n_heads=2, d_ff=32,
                                        output_dim=RIG_WIDTH, dropout=0.0, seed=21))
        want = hashlib.sha256(weights.read_bytes()).hexdigest()  # what sha256sum prints

        def thread_nice():  # a thread's own priority on Linux, the process's elsewhere
            return os.getpriority(os.PRIO_PROCESS,
                                  threading.get_native_id() if sys.platform == "linux" else 0)

        caller, threads, before = threading.current_thread(), [], thread_nice()
        self._record_hashing(monkeypatch, lambda: threads.append(threading.current_thread()))
        rng = np.random.default_rng(23)
        # one row block; three chunks of five blocks
        for frames in (60, 1300):
            feats = tmp_path / f"f{frames}.emof"
            write_feature_file(feats, FeatureSequence(rng.normal(0, 1, (frames, 12)), 60.0))
            out = tmp_path / f"o{frames}.csv"
            assert run("infer", "--features", feats, "--emotion", "0", "--weights", weights,
                       "--out", out) == 0
            sidecar = json.loads((tmp_path / f"o{frames}.csv.json").read_text())
            assert sidecar["weights_sha256"] == want, frames
        assert threads
        assert all(t is caller or t.name.startswith("speechrig-runner") for t in threads), \
            {t.name for t in threads}
        assert thread_nice() == before

    def test_interrupt_in_infer_reaches_the_caller_and_leaves_no_thread(self, workdir,
                                                                        monkeypatch):
        interrupt = KeyboardInterrupt()
        monkeypatch.setattr(cli, "infer", self._raise(interrupt))
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt) as exc:
            run(*_infer_argv(workdir, out="interrupted.csv"))
        assert exc.value is interrupt
        assert threading.active_count() == before
        assert not (workdir / "interrupted.csv").exists()


class TestInferHoldsOneBlasThread:
    LAYERS = 2

    def test_one_thread_inside_infer_and_the_callers_count_after(self, tmp_path, monkeypatch,
                                                                 capsys):
        blas = network._blas_thread_control()
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be read here")
        get, put = blas
        weights = tmp_path / "w.emow"
        save_model(weights, build_model(12, d_model=16, n_layers=self.LAYERS, n_heads=2,
                                        d_ff=32, output_dim=RIG_WIDTH, dropout=0.0, seed=21))
        encode, attend, block = (network.encode_content, network._attention_half,
                                 network._feed_forward_half)
        seen, faults = [], {}  # (where, the BLAS count there); the error to raise there

        def spy(where, real):
            def call(*args, **kwargs):
                seen.append((where, get()))
                if where in faults:
                    raise faults[where]
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(network, "encode_content", spy("encode", encode))
        # a block's two halves, each run in a fork/join of its own
        monkeypatch.setattr(network, "_attention_half", spy("attend", attend))
        monkeypatch.setattr(network, "_feed_forward_half", spy("block", block))
        rng = np.random.default_rng(24)

        def argv(frames):
            feats = tmp_path / f"f{frames}.emof"
            write_feature_file(feats, FeatureSequence(rng.normal(0, 1, (frames, 12)), 60.0))
            return ["infer", "--features", feats, "--emotion", "0", "--weights", weights,
                    "--out", tmp_path / f"o{frames}.csv"]

        before, threads = get(), threading.active_count()
        put(2)
        try:
            # one block; one chunk of one block at the row-block size; three chunks
            for frames, chunks, blocks in [(60, 1, 1), (300, 1, 1), (1300, 3, 5)]:
                seen.clear()
                assert run(*argv(frames)) == 0
                assert get() == 2, frames
                assert threading.active_count() == threads, frames
                where = [w for w, _ in seen]
                assert where.count("encode") == chunks and \
                    where.count("attend") == where.count("block") == self.LAYERS * blocks, \
                    (frames, where)
                assert {count for _, count in seen} == {1}, (frames, seen)
            # an error while encoding, a non-finite block, an interrupt in either half
            for fault, code in [(("encode", DataError("bad rows")), 3),
                                (("block", NumericError("non-finite")), 4),
                                (("attend", KeyboardInterrupt()), None),
                                (("block", KeyboardInterrupt()), None)]:
                seen.clear()
                faults.clear()
                faults.update([fault])
                if code is None:
                    with pytest.raises(KeyboardInterrupt):
                        run(*argv(1300))
                else:
                    assert run("--json-errors", *argv(1300)) == code
                    (line,) = capsys.readouterr().err.splitlines()
                    assert json.loads(line)["error"] == type(fault[1]).__name__
                assert seen and {count for _, count in seen} == {1}, fault
                assert get() == 2, fault
                assert threading.active_count() == threads, fault
        finally:
            put(before)


def _infer_argv(w, features="f.emof", emotion=("--emotion", "0"), out="x.csv"):
    return ["infer", "--features", w / features, *emotion, "--weights", w / "w.emow",
            "--out", w / out]


def _train_argv(w, *flags):
    return ["train", "--synthetic", "--items", "2", "--t-min", "4", "--t-max", "6",
            "--epochs", "1", *flags, "--out", w / "t.emow"]


def _manifest_case(name, emotion):
    return (lambda w: ["train", "--manifest", w / name, "--epochs", "1", "--out", w / "t.emow"],
            name, b'{"items": [{"features": "f.emof", "target": "t.csv", "emotion": %s}]}' % emotion)


# (argv under the work dir, a name the message must carry, the file of that name's
# content or None if no such file is written)
_BAD_PATHS = {
    "missing-features": (lambda w: _infer_argv(w, features="nofeat.emof"), "nofeat.emof", None),
    "missing-timeline": (lambda w: _infer_argv(w, emotion=("--timeline", w / "notl.csv")),
                         "notl.csv", None),
    "out-in-missing-dir": (lambda w: _infer_argv(w, out="nodir/x.csv"), "nodir", None),
    "missing-pred": (lambda w: ["analyze", "--pred", w / "nopred.csv", "--corr-out",
                                w / "c.csv"], "nopred.csv", None),
    "missing-trace": (lambda w: ["blink-detect", "--trace", w / "noear.csv"], "noear.csv", None),
    "missing-rates": (lambda w: ["blink-fit", "--rates", w / "norates.csv", "--out",
                                 w / "fit.json"], "norates.csv", None),
    "timeline-inf-frame": (lambda w: _infer_argv(w, emotion=("--timeline", w / "inf_tl.csv")),
                           "inf_tl.csv", b"frame,label\n0,happy\ninf,sad\n"),
    "trace-inf-frame": (lambda w: ["blink-detect", "--trace", w / "inf_ear.csv"],
                        "inf_ear.csv", b"frame,ear\n0,0.3\ninf,0.3\n"),
    "rates-non-numeric": (lambda w: ["blink-fit", "--rates", w / "abc_rates.csv", "--out",
                                     w / "fit.json"], "abc_rates.csv", b"rate\n12\nabc\n"),
    "pred-not-utf8": (lambda w: ["analyze", "--pred", w / "bin_pred.csv", "--corr-out",
                                 w / "c.csv"], "bin_pred.csv", b"\xff\xfe\x00\x01\n"),
    "map-not-utf8": (lambda w: [*_infer_argv(w), "--map", w / "bin_map.json"],
                     "bin_map.json", b"\xff\xfe[1"),
    # valid JSON that is not a map: the schema error names the file too
    "map-not-an-array": (lambda w: [*_infer_argv(w), "--map", w / "obj_map.json"],
                         "obj_map.json", b'{"controllers": []}'),
    "map-one-entry": (lambda w: [*_infer_argv(w), "--map", w / "one_map.json"], "one_map.json",
                      b'[{"index": 0, "name": "jaw", "region": "jaw", "side": "center"}]'),
    "classifier-non-numeric-weight": (
        lambda w: ["blink-detect", "--trace", w / "ok_ear.csv", "--classifier", w / "clf.json"],
        "clf.json", b'{"weights": ["a", 1, 1, 1, 1, 1, 1], "bias": 0}'),
    "manifest-not-utf8": (lambda w: ["train", "--manifest", w / "bin_manifest.json",
                                     "--out", w / "t.emow"], "bin_manifest.json", b"\xff\xfe{"),
    "manifest-emotion-list": _manifest_case("m_list.json", b"[1]"),
    "manifest-emotion-float": _manifest_case("m_float.json", b"1.5"),
    "manifest-emotion-null": _manifest_case("m_null.json", b"null"),
    "manifest-emotion-unknown-name": _manifest_case("m_name.json", b'"bored"'),
    "manifest-emotion-out-of-range": _manifest_case("m_range.json", b'"7"'),
    "manifest-bare-list": (
        lambda w: ["train", "--manifest", w / "m_bare.json", "--epochs", "1",
                   "--out", w / "t.emow"],
        "m_bare.json", b'[{"features": "f.emof", "target": "t.csv", "emotion": 0}]'),
    "trace-fractional-frames": (lambda w: ["blink-detect", "--trace", w / "half_ear.csv"],
                                "half_ear.csv", b"frame,ear\n0.5,0.3\n1.5,0.3\n"),
    "blink-mu-above-cutoff": (lambda w: [*_infer_argv(w), "--blink", "--blink-mu", "10"],
                              "max_rate", None),
    "blink-sigma-0-above-cutoff": (lambda w: [*_infer_argv(w), "--blink", "--blink-mu", "5",
                                              "--blink-sigma", "0"], "max_rate", None),
    "blink-mu-nan": (lambda w: [*_infer_argv(w), "--blink", "--blink-mu", "nan"], "mu_ln", None),
    "feature-rate-nan": (lambda w: [*_infer_argv(w, features="f.csv"), "--feature-rate", "nan"],
                         "feature rate", None),
    "feature-rate-inf": (lambda w: [*_infer_argv(w, features="f.csv"), "--feature-rate", "inf"],
                         "feature rate", None),
    "feature-rate-1e-300": (lambda w: [*_infer_argv(w, features="f12.csv"),
                                       "--feature-rate", "1e-300"], "50 frames at 1e-300 Hz", None),
    # inside numpy's size limit but past any memory: refused as the 60 fps timeline
    "feature-rate-1e-12": (lambda w: [*_infer_argv(w, features="f12.csv"),
                                      "--feature-rate", "1e-12"], "50 frames at 1e-12 Hz", None),
    "emof-rate-1e-30": (lambda w: _infer_argv(w, features="slow.emof"),
                        "50 frames at 1e-30 Hz", None),
    "manifest-rate-1e-30": (lambda w: ["train", "--manifest", w / "slow_manifest.json",
                                       "--epochs", "1", "--out", w / "t.emow"],
                            "50 frames at 1e-30 Hz", None),
    "timeline-fractional-frame": (
        lambda w: _infer_argv(w, emotion=("--timeline", w / "frac_tl.csv")),
        "frac_tl.csv", b"frame,label\n0,happy\n30.7,sad\n"),
    # the later row does not win: the file is ambiguous
    "timeline-repeated-frame": (
        lambda w: _infer_argv(w, emotion=("--timeline", w / "dup_tl.csv")),
        "dup_tl.csv", b"frame,label\n0,neutral\n0,happy\n300,sad\n300,angry\n"),
    "train-heads-0": (lambda w: _train_argv(w, "--heads", "0"), "n_heads", None),
    "train-d-model-0": (lambda w: _train_argv(w, "--d-model", "0"), "d_model", None),
    "train-odd-d-model": (lambda w: _train_argv(w, "--d-model", "3", "--heads", "1"),
                          "d_model", None),
    "train-layers-negative": (lambda w: _train_argv(w, "--layers", "-1"), "n_layers", None),
    "train-feature-dim-0": (lambda w: _train_argv(w, "--feature-dim", "0"), "feature_dim", None),
    "train-dropout-1.5": (lambda w: _train_argv(w, "--dropout", "1.5"), "dropout", None),
    "train-dropout-1": (lambda w: _train_argv(w, "--dropout", "1"), "dropout", None),
    "train-lr0-nan": (lambda w: _train_argv(w, "--lr0", "nan"), "lr0", None),
    "train-lr0-inf": (lambda w: _train_argv(w, "--lr0", "inf"), "lr0", None),
    "gradcheck-heads-0": (lambda w: ["gradcheck", "--heads", "0"], "n_heads", None),
    "gradcheck-eps-0": (lambda w: ["gradcheck", "--eps", "0"], "eps", None),
    "gradcheck-eps-nan": (lambda w: ["gradcheck", "--eps", "nan"], "eps", None),
    "gradcheck-frames-negative": (lambda w: ["gradcheck", "--frames", "-1"], "frames", None),
    # allocations sized from flags, which numpy refuses at once
    "gradcheck-frames-1e12": (lambda w: ["gradcheck", "--frames", "1000000000000"],
                              "1000000000000 frames x 8 features", None),
    "gradcheck-frames-1e19": (lambda w: ["gradcheck", "--frames", "10000000000000000000"],
                              "10000000000000000000 frames x 8 features", None),
    "train-feature-dim-1e12": (lambda w: _train_argv(w, "--feature-dim", "1000000000000"),
                               "feature_dim 1000000000000", None),
    "train-t-1e12": (lambda w: _train_argv(w, "--t-min", "1000000000000",
                                           "--t-max", "1000000000000"),
                     "1000000000000 frames x 32 features", None),
    # an empty path is a path that cannot be opened, not an absent --rates
    "blink-fit-rates-empty-path": (lambda w: ["blink-fit", "--rates", "", "--out",
                                              w / "fit.json"], "No such file", None),
    **{f"blink-fit-fps-{fps}": (
        lambda w, fps=fps: ["blink-fit", "--trace", w / "ok_ear.csv", "--fps", fps,
                            "--out", w / "fit.json"], "--fps", None)
       for fps in ("0", "-30", "nan")},
}


# the error a case's JSON line names where it is a DataError subclass
_BAD_PATH_ERRORS = {"map-not-utf8": "MapError", "map-not-an-array": "MapError",
                    "map-one-entry": "MapError"}


@pytest.mark.parametrize("case", _BAD_PATHS)
def test_bad_paths_and_rows_exit_3_with_json_line(workdir, capsys, case):
    argv, name, content = _BAD_PATHS[case]
    if content is not None:
        (workdir / name).write_bytes(content)
    assert run("--json-errors", *argv(workdir)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == _BAD_PATH_ERRORS.get(case, "DataError")
    assert name in payload["message"]


def test_a_map_rule_error_keeps_its_code_in_the_json_line(tmp_path, capsys):
    write_rig_csv(tmp_path / "pred.csv", RigSequence(np.zeros((5, RIG_WIDTH))), default_map())
    doc = default_map().to_document()
    doc[0]["side"] = "up"
    (tmp_path / "side_map.json").write_text(json.dumps(doc))
    assert run("--json-errors", "analyze", "--pred", tmp_path / "pred.csv", "--corr-out",
               tmp_path / "corr.csv", "--map", tmp_path / "side_map.json") == 3
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert (payload["error"], payload["code"]) == ("MapError", "bad-side")
    assert "side_map.json" in payload["message"] and not (tmp_path / "corr.csv").exists()


def test_zero_width_feature_file_exits_3_naming_it(workdir, capsys):
    path = workdir / "zero_cols.emof"
    path.write_bytes(struct.pack("<4sIIIf", b"EMOF", 1, 5, 0, 50.0))  # 20 bytes, no payload
    assert run("--json-errors", *_infer_argv(workdir, features=path.name)) == 3
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "FeatureFileError"
    assert str(path) in payload["message"] and "5x0" in payload["message"]


class _RowsFailingMidway:
    """Rig values whose second row cannot be written, as on a full disk."""

    shape = (3, RIG_WIDTH)

    def __iter__(self):
        yield np.zeros(RIG_WIDTH)
        raise OSError(28, "No space left on device")


def _clamp_then_fail(seq, cmap):
    seq = clamp_sequence(seq, cmap)
    seq.values = _RowsFailingMidway()
    return seq


def _dump_then_fail(obj, f, **kwargs):
    f.write('{"fps": ')
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("failing", ["csv", "sidecar"])
def test_failed_write_leaves_no_partial_output(workdir, monkeypatch, capsys, failing, existing):
    out = workdir / f"atomic_{failing}_{existing}.csv"
    sidecar = workdir / (out.name + ".json")
    old = {out: b"old csv\n", sidecar: b"old sidecar\n"}
    if existing:
        for path, blob in old.items():
            path.write_bytes(blob)
    if failing == "csv":
        monkeypatch.setattr(cli, "clamp_sequence", _clamp_then_fail)
    else:
        monkeypatch.setattr(cli.json, "dump", _dump_then_fail)
    assert run("--json-errors", *_infer_argv(workdir, out=out.name)) == 3
    assert "No space left" in json.loads(capsys.readouterr().err)["message"]
    # the CSV is complete before the sidecar is written
    written = {out} if failing == "sidecar" else set()
    for path, blob in old.items():
        if path in written:
            assert read_rig_csv(path).values.shape == (60, RIG_WIDTH)
        elif existing:
            assert path.read_bytes() == blob
        else:
            assert not path.exists()
    assert sorted(p.name for p in workdir.iterdir() if p.name.startswith(out.name)) == \
        sorted(p.name for p in old if p.exists())


class _FullDisk:
    """A file open for writing that takes one write, then fails as a full
    disk does."""

    def __init__(self, f):
        self._f, self._writes = f, 0

    def write(self, data):
        if self._writes:
            raise OSError(28, "No space left on device")
        self._writes += 1
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _write_output_inputs(d):
    """The inputs of the commands in ``_OUTPUTS``, written under ``d``."""
    rng = np.random.default_rng(33)
    write_rig_csv(d / "pred.csv", RigSequence(rng.uniform(-1, 1, (30, RIG_WIDTH))),
                  default_map())
    trace = np.full(240, 0.30)
    for s in (40, 160):  # two blinks, so blink-detect writes rows after its header
        trace[s:s + 5] = [0.22, 0.08, 0.03, 0.08, 0.22]
    (d / "ear.csv").write_text("frame,ear\n" + "".join(f"{i},{v:.6f}\n"
                                                       for i, v in enumerate(trace)))
    (d / "rates.csv").write_text("rate\n12\n20\n15\n18\n")


# every output the CLI writes besides the rig CSV and its sidecar: (argv under the
# work dir, the output's name)
_OUTPUTS = {
    "train-out": (lambda d: _train_argv(d), "t.emow"),
    "train-loss-csv": (lambda d: _train_argv(d, "--loss-csv", d / "loss.csv"), "loss.csv"),
    "analyze-mae-out": (lambda d: ["analyze", "--pred", d / "pred.csv", "--gt", d / "pred.csv",
                                   "--mae-out", d / "mae.json"], "mae.json"),
    "analyze-corr-out": (lambda d: ["analyze", "--pred", d / "pred.csv", "--corr-out",
                                    d / "corr.csv"], "corr.csv"),
    "blink-detect-out": (lambda d: ["blink-detect", "--trace", d / "ear.csv", "--out",
                                    d / "events.csv"], "events.csv"),
    "blink-fit-out": (lambda d: ["blink-fit", "--rates", d / "rates.csv", "--out",
                                 d / "fit.json"], "fit.json"),
}


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("case", _OUTPUTS)
def test_every_output_failing_midway_leaves_the_previous_file_or_none(
        tmp_path, monkeypatch, capsys, case, existing):
    argv, name = _OUTPUTS[case]
    _write_output_inputs(tmp_path)
    out = tmp_path / name
    if existing:
        out.write_bytes(b"old\n")
    target = os.path.realpath(out)

    def open_failing(file, mode="r", *args, **kwargs):  # only writes of ``out``
        f = open(file, mode, *args, **kwargs)
        return _FullDisk(f) if "w" in mode and str(file).startswith(target) else f

    # every output is written through rig.atomic_write, which opens it here
    monkeypatch.setattr(rig, "open", open_failing, raising=False)
    assert run("--json-errors", *argv(tmp_path)) == 3
    assert "No space left" in json.loads(capsys.readouterr().err)["message"]
    assert (out.read_bytes() == b"old\n") if existing else not out.exists()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(name)] == \
        ([name] if existing else [])


_RIG_ROW = ",".join(["0.25"] * RIG_WIDTH)


# bad rig CSV content, the 1-based file line the error names (None: no line)
_BAD_RIG_CSVS = {
    "headed-bad-cell": ("ch0\n" + _RIG_ROW + "\n\n" + _RIG_ROW.replace("0.25", "x", 1) + "\n", 4),
    "headless-bad-cell": (_RIG_ROW + "\n" + _RIG_ROW + "\n" + _RIG_ROW[:-4] + "1_0\n", 3),
    "headed-ragged-row": ("ch0\n\n" + _RIG_ROW + "\n" + _RIG_ROW + ",1\n", 4),
    "headless-non-finite": (_RIG_ROW + "\n\n\n" + _RIG_ROW.replace("0.25", "inf", 1) + "\n", 4),
    "headed-narrow": ("a,b\n0.25,0.5\n", None),
}


@pytest.mark.parametrize("case", _BAD_RIG_CSVS)
def test_bad_rig_csv_names_file_and_line(workdir, capsys, case):
    content, line = _BAD_RIG_CSVS[case]
    path = workdir / f"{case}.csv"
    path.write_text(content)
    assert run("--json-errors", "analyze", "--pred", path, "--corr-out", workdir / "c.csv") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (json_line,) = err.splitlines()
    payload = json.loads(json_line)
    assert payload["error"] == "DataError"
    assert str(path) in payload["message"]
    if line is None:
        assert ": line " not in payload["message"]
    else:
        assert f": line {line}: " in payload["message"]


def _fit_rates(path):
    out = f"{path}.fit.json"
    args = build_parser().parse_args(["blink-fit", "--rates", str(path), "--out", out])
    args.func(args)
    with open(out) as f:
        return json.load(f)


_RIG_ROWS = "\n".join(",".join(["0.25", "-0.5"] * (RIG_WIDTH // 2)) for _ in range(3))

# reader, header line, data rows
_CSV_READERS = {
    "rig": (lambda p: read_rig_csv(p).values,
            ",".join(f"ch{i:03d}" for i in range(RIG_WIDTH)), _RIG_ROWS),
    "timeline": (lambda p: _read_timeline_csv(p, 8), "frame,label", "0,happy\n4,2"),
    "ear-trace": (read_ear_csv, "frame,ear", "0,0.3\n1,0.25\n2,0.3"),
    "rates": (_fit_rates, "rate", "12\n20\n15\n18"),
    "features": (lambda p: read_feature_csv(p).data, "f0,f1,f2", "0.5,1.5,2.5\n-1,0,1e-3"),
}


@pytest.mark.parametrize("kind", _CSV_READERS)
def test_csv_readers_share_one_header_rule(tmp_path, kind):
    read, header, rows = _CSV_READERS[kind]
    plain, headed, empty = tmp_path / "plain.csv", tmp_path / "headed.csv", tmp_path / "empty.csv"
    plain.write_text(rows + "\n")
    headed.write_text(header + "\n\n" + rows + "\n")
    empty.write_text("")
    np.testing.assert_equal(read(headed), read(plain))
    with pytest.raises(DataError):
        read(empty)


# numeric CSV reader, header line, data row k (ending in a value cell)
_NUMERIC_READERS = {
    "rig": (read_rig_csv, "ch0", lambda k: _RIG_ROW),
    "ear-trace": (read_ear_csv, "frame,ear", lambda k: f"{k},0.3"),
    "rates": (_fit_rates, "rate", lambda k: f"{12 + k}"),
    "features": (read_feature_csv, "f0,f1", lambda k: f"{k},0.5"),
}

_ROW_DEFECTS = {
    "quoted-cell": lambda row: '%s%s"%s"' % row.rpartition(","),
    "nan-cell": lambda row: "%s%snan" % row.rpartition(",")[:2],
    "ragged-row": lambda row: row + ",1",
}


@pytest.mark.parametrize("defect", _ROW_DEFECTS)
@pytest.mark.parametrize("kind", _NUMERIC_READERS)
def test_malformed_numeric_csv_names_file_and_line(tmp_path, kind, defect):
    read, header, row = _NUMERIC_READERS[kind]
    rows = [row(k) for k in range(4)]
    rows[2] = _ROW_DEFECTS[defect](rows[2])
    path = tmp_path / f"{kind}.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError) as exc:
        read(path)
    assert f"{path}: line 4: " in str(exc.value)


_INFER_TO_NPY = """
import sys
import numpy as np
from speechrig.features import load_features
from speechrig.network import _blas_thread_control, infer, load_model
from speechrig.rig import constant_timeline
blas = _blas_thread_control()
threads = blas[0]() if blas else 0
model = load_model(sys.argv[1])
outputs = {}
for path in sys.argv[3:]:
    feats = load_features(path)
    outputs[path] = infer(feats, constant_timeline(3, feats.n_frames), model).values
    assert (blas[0]() if blas else 0) == threads  # infer restores the count
np.savez(sys.argv[2], **{f"y{i}": y for i, y in enumerate(outputs.values())})
print(threads)
"""


class TestDeterminismContract:
    def test_reruns_byte_identical_and_thread_counts_agree(self, tmp_path):
        # wide enough that OpenBLAS splits each product across two threads
        model = build_model(256, d_model=256, n_layers=2, n_heads=4, d_ff=1024,
                            output_dim=RIG_WIDTH, dropout=0.0, seed=5)
        save_model(tmp_path / "w.emow", model)
        rng = np.random.default_rng(6)
        clips = []
        for frames in (300, 1300):  # one row block; three chunks
            clips.append(tmp_path / f"f{frames}.emof")
            write_feature_file(clips[-1], FeatureSequence(
                rng.normal(0, 1, (frames, 256)).astype(np.float32), 60.0))
        src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))

        def infer_with_threads(threads, name):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            if threads is not None:
                env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                           MKL_NUM_THREADS=str(threads))
            out = tmp_path / name
            done = subprocess.run([sys.executable, "-c", _INFER_TO_NPY, str(tmp_path / "w.emow"),
                                   str(out), *map(str, clips)],
                                  env=env, check=True, capture_output=True, text=True)
            with np.load(out) as saved:
                return int(done.stdout), [saved[f"y{i}"].tobytes() for i in range(len(clips))]

        _, one = infer_with_threads(1, "one.npz")
        assert infer_with_threads(1, "again.npz")[1] == one
        # infer runs at one BLAS thread from entry to return, so every
        # thread count gives the one-thread bytes
        for threads in (2, None):
            count, got = infer_with_threads(threads, f"{threads}.npz")
            if threads == 2 and network._blas_thread_control() is not None:
                assert count == 2  # the setting took effect
            assert got == one, threads


class TestTrain:
    def test_synthetic_smoke_writes_artifacts(self, workdir):
        out = workdir / "trained.emow"
        loss = workdir / "loss.csv"
        code = run("train", "--synthetic", "--items", 4, "--feature-dim", 8,
                   "--t-min", 8, "--t-max", 12, "--epochs", 12, "--d-model", 16,
                   "--heads", 2, "--d-ff", 32, "--lr0", 1e-3, "--batch", 2,
                   "--seed", 5, "--out", out, "--loss-csv", loss)
        assert code == 0
        model = load_model(out)
        assert model.feature_family == "synthetic-desk"
        lines = loss.read_text().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert len(lines) == 13

    def test_training_deterministic(self, workdir):
        outs = []
        for tag in ("t1", "t2"):
            out = workdir / f"{tag}.emow"
            assert run("train", "--synthetic", "--items", 3, "--feature-dim", 8,
                       "--t-min", 8, "--t-max", 10, "--epochs", 6, "--d-model", 16,
                       "--heads", 2, "--d-ff", 32, "--seed", 9, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestAnalyze:
    def test_mae_and_correlation_outputs(self, workdir, capsys):
        rng = np.random.default_rng(33)
        pred = RigSequence(rng.uniform(-1, 1, (30, RIG_WIDTH)))
        gt = RigSequence(np.clip(pred.values + 0.01, -1, 1))
        write_rig_csv(workdir / "pred.csv", pred, default_map())
        write_rig_csv(workdir / "gt.csv", gt, default_map())
        code = run("analyze", "--pred", workdir / "pred.csv", "--gt", workdir / "gt.csv",
                   "--mae-out", workdir / "mae.json", "--corr-out", workdir / "corr.csv")
        assert code == 0
        report = json.loads((workdir / "mae.json").read_text())
        assert set(report) == {"full", "mouth", "eye"}
        assert (workdir / "corr.csv").exists()

    def test_analyze_without_action_exits_3(self, workdir):
        write_rig_csv(workdir / "only.csv", RigSequence(np.zeros((5, RIG_WIDTH))), default_map())
        assert run("analyze", "--pred", workdir / "only.csv") == 3


class TestBlinkCommands:
    def test_detect_and_fit(self, workdir):
        # a trace with two clear blinks
        trace = np.full(240, 0.30)
        for s in (40, 160):
            trace[s:s + 5] = [0.22, 0.08, 0.03, 0.08, 0.22]
        path = workdir / "ear.csv"
        path.write_text("frame,ear\n" + "\n".join(
            f"{i},{v:.6f}" for i, v in enumerate(trace)) + "\n")
        events_csv = workdir / "events.csv"
        assert run("blink-detect", "--trace", path, "--out", events_csv) == 0
        lines = events_csv.read_text().splitlines()
        assert lines[0] == "start,end"
        assert len(lines) == 3  # two events

        rates = workdir / "rates.csv"
        rng = np.random.default_rng(8)
        samples = rng.lognormal(3.5, 0.5, 400)
        rates.write_text("rate\n" + "\n".join(f"{v:.4f}" for v in samples) + "\n")
        model_json = workdir / "freq.json"
        assert run("blink-fit", "--rates", rates, "--out", model_json) == 0
        doc = json.loads(model_json.read_text())
        assert 3.0 < doc["mu_ln"] < 4.0

    def test_fit_from_traces(self, workdir):
        # three blinks -> two intervals -> a (degenerate-ish) fit
        trace = np.full(400, 0.30)
        for s in (50, 170, 290):
            trace[s:s + 5] = [0.22, 0.08, 0.03, 0.08, 0.22]
        path = workdir / "ear3.csv"
        path.write_text("frame,ear\n" + "\n".join(
            f"{i},{v:.6f}" for i, v in enumerate(trace)) + "\n")
        out = workdir / "freq2.json"
        assert run("blink-fit", "--trace", path, "--out", out) == 0
        doc = json.loads(out.read_text())
        # 120-frame gaps at 30 fps = 4 s intervals = 15 blinks/min
        assert doc["mu_ln"] == pytest.approx(np.log(15.0), abs=0.05)


class TestGradcheckCommand:
    def test_passes_threshold(self, workdir, capsys):
        code = run("gradcheck", "--layers", 1, "--d-model", 16, "--heads", 2,
                   "--d-ff", 32, "--feature-dim", 8, "--frames", 4,
                   "--fail-above", 1e-4)
        assert code == 0
        assert "max relative gradient error" in capsys.readouterr().out

    def test_above_threshold_exits_4_with_json_line(self, capsys):
        assert run("--json-errors", "gradcheck", "--fail-above", 0) == 4
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "NumericError"
        assert "exceeds threshold 0.000e+00" in payload["message"]

    def test_empty_feed_forward_has_no_kink_to_avoid(self, capsys):
        assert run("--json-errors", "gradcheck", "--d-ff", 0) == 0
        captured = capsys.readouterr()
        assert "max relative gradient error" in captured.out
        assert captured.err == ""


def _cli_in_subprocess(cwd, *argv):
    """``speechrig --json-errors *argv`` in a fresh interpreter that prints
    every warning to stderr (pytest would catch them in this one)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-W", "default", "-m", "speechrig.cli", "--json-errors",
                           *map(str, argv)], cwd=cwd, env=env, capture_output=True, text=True)


class TestOverflowExits4WithOneJsonLine:
    """Values that overflow end in exit 4 and one JSON line: numpy's
    floating-point warnings do not reach stderr before it."""

    @staticmethod
    def _assert_one_json_line(proc, message):
        assert proc.returncode == 4, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {"error": "NumericError", "message": message}

    def test_train_at_an_overflowing_learning_rate(self, tmp_path):
        proc = _cli_in_subprocess(tmp_path, "train", "--synthetic", "--items", 1, "--batch", 1,
                                  "--epochs", 3, "--d-model", 16, "--heads", 2, "--d-ff", 32,
                                  "--lr0", 1e300, "--out", "x.emow")
        self._assert_one_json_line(proc, "non-finite activations after encoder layer 0")
        assert not (tmp_path / "x.emow").exists()

    # 60 frames run as one block on the calling thread, 1300 as three
    # chunks of blocks over every runner
    @pytest.mark.parametrize("frames", [60, 1300])
    def test_infer_with_overflowing_feed_forward_weights(self, tmp_path, frames):
        model = build_model(8, d_model=16, n_layers=1, n_heads=2, d_ff=32, output_dim=RIG_WIDTH,
                            dropout=0.0, seed=1)
        model.layers[0].w1[...] *= 1e30  # float32 h @ w2 overflows
        model.layers[0].w2[...] *= 1e30
        save_model(tmp_path / "w.emow", model)
        feats = np.random.default_rng(0).normal(0, 1, (frames, 8))
        write_feature_file(tmp_path / "f.emof", FeatureSequence(feats, 60.0))
        proc = _cli_in_subprocess(tmp_path, "infer", "--features", "f.emof", "--emotion", "happy",
                                  "--weights", "w.emow", "--out", "o.csv")
        self._assert_one_json_line(proc, "non-finite activations after encoder layer 0")
        assert not (tmp_path / "o.csv").exists()


_INFER = ["infer", "--features", "f.emof", "--emotion", "happy", "--weights", "w.emow",
          "--out", "x.csv"]
_TRAIN = ["train", "--manifest", "m.json", "--out", "t.emow"]
_BLINK_FIT = ["blink-fit", "--rates", "r.csv", "--out", "fit.json"]

_USAGE_ERRORS = {
    "bad-value": (["gradcheck", "--seed", "abc"],
                  "speechrig gradcheck: argument --seed: invalid _seed value: 'abc'"),
    "missing-flag": (["infer", "--emotion", "happy"],
                     "speechrig infer: the following arguments are required"),
    "unknown-subcommand": (["bogus"], "speechrig: argument command: invalid choice: 'bogus'"),
    # err > nan is never true, so this gate could never fail
    "fail-above-nan": (["gradcheck", "--fail-above", "nan"],
                       "speechrig gradcheck: argument --fail-above: must be a number, got nan"),
    # epoch % -1 == 0 would log every epoch
    "log-every-negative": (["train", "--synthetic", "--log-every", "-1"],
                           "speechrig train: argument --log-every: must be an integer >= 0, "
                           "got -1"),
    # settings that are module constants now
    **{f"removed-{flag[2:]}": ([*argv, flag, *value],
                               f"speechrig: unrecognized arguments: {' '.join([flag, *value])}")
       for argv, flag, value in [
           (_INFER, "--chunk", ["600"]), (_INFER, "--overlap", ["60"]),
           (_INFER, "--no-smooth", []), (_INFER, "--smooth-window", ["15"]),
           (_INFER, "--smooth-order", ["3"]), (_TRAIN, "--step-size", ["100"]),
           (_TRAIN, "--gamma", ["0.995"]), (_BLINK_FIT, "--max-rate", ["100"])]},
}


@pytest.mark.parametrize("case", _USAGE_ERRORS)
def test_usage_errors_give_one_json_line_with_json_errors(capsys, case):
    argv, message = _USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        run("--json-errors", *argv)
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith(message)
    # without --json-errors, argparse's own report: the usage, then the error
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    prog, detail = message.split(": ", 1)
    assert err.startswith(f"usage: {prog} ") and f"\n{prog}: error: {detail}" in err


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--json-errors", "infer", "--help")
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: speechrig infer ") and captured.err == ""


@pytest.mark.parametrize("argv", [
    lambda w: [*_infer_argv(w), "--blink"],
    lambda w: [*_infer_argv(w), "--gaze"],
    lambda w: _train_argv(w),
    lambda w: ["gradcheck"],
], ids=["infer-blink", "infer-gaze", "train", "gradcheck"])
def test_negative_seed_is_a_usage_error(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run("--json-errors", *argv(workdir), "--seed", -1)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "argument --seed: must be an integer >= 0, got -1" in err
