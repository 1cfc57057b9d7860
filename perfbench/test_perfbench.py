"""Self-tests of the benchmark: inputs, percentile rule, span arithmetic, output checks.

They run at desk scale in a few seconds: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json

import numpy as np
import pytest

import speechrig.cli as cli
from speechrig.rig import default_map

from perfbench import inputs, reference, workloads
from perfbench.run import run_request, tail, tail_rank
from perfbench.spans import Span, Tracer, self_times

SMALL = dict(inputs.DESK_DIMS, feature_dim=24)


@pytest.fixture(scope="module")
def cmap():
    return workloads.ChannelMap(default_map())


def small_infer():
    wl = workloads.Infer(12, timeline=True)  # 720 frames: two chunks, one seam
    wl.CLIPS = 1
    return wl


@pytest.fixture(scope="module")
def infer_run(tmp_path_factory, cmap):
    work = tmp_path_factory.mktemp("infer")
    wl = small_infer()
    wl.prepare(work, 5, cmap, SMALL)
    record = run_request(cli, wl, 0, work / "out")
    return wl, work / "out", record


def file_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("make, dims", [
    (small_infer, {"dims": SMALL}),
    (workloads.TrainDesk, {}),
    (workloads.AnalyzeTakes, {}),
])
def test_same_seed_gives_byte_identical_inputs(tmp_path, cmap, monkeypatch, make, dims):
    monkeypatch.setattr(workloads.AnalyzeTakes, "FRAMES", 300)
    runs = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        make().prepare(tmp_path / name, seed, cmap, **dims)
        runs[name] = file_bytes(tmp_path / name)
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_generated_weights_match_the_documented_layout(tmp_path):
    sha = inputs.write_emow(tmp_path / "w.emow", SMALL, np.random.default_rng(0))
    meta, tensors = inputs.read_emow(tmp_path / "w.emow")
    assert {k: v.shape for k, v in tensors.items()} == dict(inputs.tensor_shapes(SMALL))
    assert all(meta[k] == v for k, v in SMALL.items())
    assert sha == cli.file_sha256(tmp_path / "w.emow")
    model = cli.load_model(tmp_path / "w.emow")
    np.testing.assert_array_equal(model.head_w, tensors["head_w"])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in range(21, 400):
        assert n - 1 - tail_rank(n) == 10
    xs = list(range(111))
    assert tail(xs) == (100, pytest.approx(100.0 * 100 / 110))
    # too few samples for any percentile above the median to have ten beyond it
    assert tail([3.0, 1.0, 2.0, 9.0]) == (2.5, 50.0)
    assert tail(list(range(21))) == (10, 50.0)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("c", 3.0, 5.0, 0, 0),      # overlaps a
             Span("b", 5.0, 9.0, 0, 0),
             Span("b1", 6.0, 7.0, 3, 0),
             Span("late", 9.5, 12.0, 0, 0)]  # runs past its parent
    assert self_times(spans) == pytest.approx([10 - 8 - 0.5, 3, 2, 3, 1, 2.5])


def test_tracer_nests_spans_and_marks_failures():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) + inner_t(1))
    assert outer_t(2) == 3 and tracer.spans == []  # untraced outside a request
    tracer.request = 7
    assert outer_t(2) == 3
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [(s.name, s.parent, s.request, s.failed) for s in tracer.spans]
    assert names == [("outer", None, 7, False), ("inner", 0, 7, False), ("inner", 0, 7, False),
                     ("outer", None, 7, True), ("inner", 3, 7, True)]


def test_infer_output_passes_every_check(infer_run):
    wl, out, record = infer_run
    assert not record["failed"]
    assert wl.reference_check(0, out) == []


def _perturbed(out, tmp_path, edit):
    """Copy of an infer output (and sidecar) with ``edit`` applied to its values."""
    header, values = workloads.read_output_csv(out)
    values, sidecar = edit(values.copy(), _sidecar(out))
    path = tmp_path / "bad"
    inputs.write_rig_csv(path, header, values)
    (tmp_path / "bad.json").write_text(json.dumps(sidecar), encoding="utf-8")
    return path


def _sidecar(out):
    return json.loads(open(str(out) + ".json", encoding="utf-8").read())


def _set(values, index, value):
    values[index] = value
    return values


@pytest.mark.parametrize("edit", [
    lambda v, s: (_set(v, (3, 20), 1.5), s),                   # out of bounds
    lambda v, s: (_set(v, (3, 20), np.nan), s),                # not finite
    lambda v, s: (v[:-1], s),                                  # a frame missing
    lambda v, s: (v, dict(s, seed=s["seed"] + 1)),             # wrong sidecar
    lambda v, s: (v, dict(s, weights_sha256="0" * 64)),
])
def test_infer_check_rejects_perturbed_output(infer_run, cmap, tmp_path, edit):
    wl, out, _ = infer_run
    bad = _perturbed(out, tmp_path, edit)
    assert workloads.check_rig_output(bad, cmap, wl.frames, _sidecar(out)) != []


def test_infer_check_rejects_gaze_that_differs_between_eyes(infer_run, cmap, tmp_path):
    wl, out, _ = infer_run
    right = cmap.gaze_h[1]
    bad = _perturbed(out, tmp_path, lambda v, s: (_set(v, (10, right), v[10, right] + 1e-3), s))
    assert workloads.check_rig_output(bad, cmap, wl.frames, _sidecar(out)) == [
        "gaze differs between the eyes"]


def test_reference_check_rejects_a_small_error_and_a_missing_layer(infer_run, cmap, tmp_path):
    wl, out, _ = infer_run
    free = cmap.free[5]
    bad = _perturbed(out, tmp_path, lambda v, s: (_set(v, (650, free), v[650, free] + 5e-4), s))
    assert wl.reference_check(0, bad) != []
    assert wl.reference_check(0, out, skip_layer=0) != []


def test_reference_tolerance_admits_float32_inference(infer_run):
    wl, _, _ = infer_run
    feats, rows, _ = wl.clips[0]
    data = np.frombuffer(feats.read_bytes()[20:], "<f4").reshape(wl.rows, -1)
    meta, tensors = inputs.read_emow(wl.weights)
    labels = reference.timeline_labels(rows, wl.frames)
    x = reference.resample(data.astype(np.float64), 50.0, 60.0)
    want = reference.forward_chunk(reference.Model(meta, tensors), x, labels, 0)
    f32 = reference.Model(meta, tensors)
    f32.t = {k: v.astype(np.float32) for k, v in f32.t.items()}
    got = reference.forward_chunk(f32, x.astype(np.float32), labels, 0)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() < workloads.REFERENCE_ATOL / 10


@pytest.fixture(scope="module")
def train_run(tmp_path_factory, cmap):
    work = tmp_path_factory.mktemp("train")
    wl = workloads.TrainDesk()
    wl.prepare(work, 2, cmap)
    return wl, work / "out", run_request(cli, wl, 0, work / "out")


def test_train_check_rejects_a_flat_loss_and_broken_weights(train_run, tmp_path):
    wl, out, record = train_run
    assert not record["failed"]
    loss = tmp_path / "loss.csv"
    loss.write_text("epoch,lr,loss\n" + "".join(f"{e},0.003,0.5\n" for e in range(wl.EPOCHS)))
    assert wl.check(out, loss) != []
    weights = tmp_path / "w.emow"
    weights.write_bytes(out.read_bytes()[:-4])
    assert wl.check(weights, f"{out}.loss.csv") != []


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory, cmap):
    work = tmp_path_factory.mktemp("analyze")
    wl = workloads.AnalyzeTakes()
    wl.prepare(work, 3, cmap)
    return wl, work / "out", run_request(cli, wl, 0, work / "out")


def _bump_json(key, delta):
    def edit(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] += delta
        path.write_text(json.dumps(doc), encoding="utf-8")
    return edit


def _bump_first_correlation(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("suffix, edit", [
    ("mae.json", _bump_json("mouth", 1e-6)),
    ("corr.csv", _bump_first_correlation),
    ("fit.json", _bump_json("mu_ln", 0.1)),
    ("fit.json", _bump_json("sigma_ln", 0.1)),
])
def test_analyze_check_rejects_perturbed_output(analyze_run, tmp_path, suffix, edit):
    wl, out, record = analyze_run
    assert not record["failed"]
    paths = {s: tmp_path / s for s in ("mae.json", "corr.csv", "fit.json")}
    for s, path in paths.items():
        path.write_bytes(open(f"{out}.{s}", "rb").read())
    edit(paths[suffix])
    assert wl.check(wl.takes[0], paths["mae.json"], paths["corr.csv"], paths["fit.json"]) != []
