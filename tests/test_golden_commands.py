"""Golden bytes of ``analyze``, ``blink-fit``, ``blink-detect``, ``gradcheck``
and ``infer --audio``.

Each case writes small seeded inputs and runs one command in a fresh
interpreter at one BLAS thread. The bytes depend on the OpenBLAS kernels
and on numpy, so the golden values name the numpy version and OpenBLAS
core they were recorded with. Where both match this process's, every
output file (and gradcheck's stdout) must hash the same. Elsewhere a
weaker check runs, the numbers each output holds within 1e-5 of the
recorded ones, and a warning says so.

A change that moves these bytes on purpose records new values with
``PYTHONPATH=src python tests/test_golden_commands.py`` and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest

import speechrig
from blink_corpus import gen_blink_traces
from speechrig.features import FALLBACK_FAMILY, N_COEFFS
from speechrig.network import build_model, save_model
from speechrig.rig import RigSequence, default_map, write_rig_csv
from test_golden_training import openblas_core

GOLDEN_FILE = Path(__file__).with_name("golden_commands.json")
SUMMARY_ATOL = 1e-5


def _write_traces(tmp_path, seed, n):
    paths = []
    for k, (trace, _) in enumerate(gen_blink_traces(seed, n_traces=n, length=400)):
        path = tmp_path / f"ear{k}.csv"
        path.write_text("frame,ear\n" + "".join(f"{i},{v:.6f}\n" for i, v in enumerate(trace)))
        paths.append(path)
    return paths


def _analyze(tmp_path):
    rng = np.random.default_rng(11)
    pred = rng.uniform(-1.0, 1.0, (120, 174))
    gt = np.clip(pred + rng.normal(0.0, 0.1, pred.shape), -1.0, 1.0)
    write_rig_csv(tmp_path / "pred.csv", RigSequence(pred), default_map())
    write_rig_csv(tmp_path / "gt.csv", RigSequence(gt), default_map())
    return (["analyze", "--pred", tmp_path / "pred.csv", "--gt", tmp_path / "gt.csv",
             "--mae-out", tmp_path / "mae.json", "--corr-out", tmp_path / "corr.csv"],
            ["mae.json", "corr.csv"])


def _blink_fit_rates(tmp_path):
    rates = np.random.default_rng(12).lognormal(3.5, 0.5, 200)
    (tmp_path / "rates.csv").write_text("rate\n" + "".join(f"{r:.6f}\n" for r in rates))
    return ["blink-fit", "--rates", tmp_path / "rates.csv", "--out", tmp_path / "fit.json"], \
        ["fit.json"]


def _blink_fit_trace(tmp_path):
    argv = ["blink-fit", "--out", tmp_path / "fit.json"]
    for path in _write_traces(tmp_path, 13, 4):
        argv += ["--trace", path]
    return argv, ["fit.json"]


def _blink_detect(tmp_path):
    (path,) = _write_traces(tmp_path, 14, 1)
    return ["blink-detect", "--trace", path, "--out", tmp_path / "events.csv"], ["events.csv"]


def _gradcheck(tmp_path):
    return ["gradcheck", "--seed", "3", "--layers", "2"], []


def _infer_audio(channels, width):
    """An ``infer --audio`` case on a seeded WAV of ``channels`` channels of
    ``width``-byte samples: 0.4 s at 16 kHz, a tone in noise that differs
    per channel, its last 0.1 s silent."""

    def case(tmp_path):
        rng = np.random.default_rng(20 + 2 * channels + width)
        tone = 0.5 * np.sin(2 * np.pi * 440.0 * np.arange(6400) / 16000)
        x = tone[:, None] + rng.uniform(-0.2, 0.2, (6400, channels))
        x[4800:] = 0.0
        pcm = (np.round(x * 32767).astype("<i2") if width == 2
               else np.round(x * 127 + 128).astype(np.uint8))
        with wave.open(str(tmp_path / "a.wav"), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(16000)
            w.writeframes(pcm.tobytes())
        model = build_model(N_COEFFS, d_model=32, n_layers=2, n_heads=4, d_ff=64, dropout=0.0,
                            seed=9, feature_family=FALLBACK_FAMILY)
        save_model(tmp_path / "w.emow", model)
        return (["infer", "--audio", tmp_path / "a.wav", "--emotion", "happy",
                 "--weights", tmp_path / "w.emow", "--blink", "--gaze", "--seed", "5",
                 "--out", tmp_path / "o.csv"], ["o.csv", "o.csv.json"])

    return case


# case -> writes its inputs and returns (argv, names of its output files)
CASES = {"analyze": _analyze, "blink_fit_rates": _blink_fit_rates,
         "blink_fit_trace": _blink_fit_trace, "blink_detect": _blink_detect,
         "gradcheck": _gradcheck, "infer_audio_16bit_mono": _infer_audio(1, 2),
         "infer_audio_16bit_stereo": _infer_audio(2, 2), "infer_audio_8bit": _infer_audio(1, 1)}


def _run(tmp_path, case):
    """Run the case in a fresh interpreter: {output name: bytes}, with
    the command's stdout under "stdout" where it writes no file."""
    argv, outputs = CASES[case](tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, speechrig.cli as c; sys.exit(c.main(sys.argv[1:]))",
                           *map(str, argv)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    if not outputs:
        return {"stdout": proc.stdout}
    return {name: (tmp_path / name).read_bytes() for name in outputs}


def _numbers(data):
    """Every number in an output, in order of appearance."""
    text = data.decode()
    if text.startswith("{"):
        return [float(v) for v in json.loads(text).values() if not isinstance(v, str)]
    cells = text.replace("\n", ",").replace(":", ",").split(",")
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            pass
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_bytes(tmp_path, case):
    golden = json.loads(GOLDEN_FILE.read_text())
    want = golden["cases"][case]
    got = _run(tmp_path, case)
    assert sorted(got) == sorted(want)
    here = {"numpy": np.__version__, "openblas_core": openblas_core()}
    if here == golden["recorded_with"]:
        for name, data in got.items():
            assert hashlib.sha256(data).hexdigest() == want[name]["sha256"], name
        return
    for name, data in got.items():
        np.testing.assert_allclose(_numbers(data), want[name]["numbers"], rtol=0.0,
                                   atol=SUMMARY_ATOL)
    warnings.warn(f"golden bytes were recorded with {golden['recorded_with']}, this run has "
                  f"{here}: checked each output's numbers within {SUMMARY_ATOL:g}, not the bytes")


if __name__ == "__main__":
    import tempfile

    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = {name: {"sha256": hashlib.sha256(data).hexdigest(),
                                  "numbers": _numbers(data)}
                           for name, data in _run(Path(tmp), case).items()}
    recorded_with = json.dumps({"numpy": np.__version__, "openblas_core": openblas_core()})
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
    GOLDEN_FILE.write_text(f'{{"recorded_with": {recorded_with},\n "cases": {{\n{body}}}}}\n')
