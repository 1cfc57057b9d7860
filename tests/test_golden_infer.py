"""Golden bytes of ``speechrig infer --blink --gaze``.

Each case is a fresh interpreter at one BLAS thread: seeded small weights
(2 layers at width 64), one, two and three chunks from 60 Hz features,
and three chunks from 50 Hz features, which ``infer`` resamples. The
bytes depend on the OpenBLAS kernels and on numpy, so the golden values
name the numpy version and OpenBLAS core they were recorded with. Where
both match this process's, the rig CSV and its sidecar must hash the
same. Elsewhere a weaker check runs, each channel's mean over the clip
within 1e-5 of the recorded one, and a warning says so.

A change that moves infer's bits on purpose records new values with
``PYTHONPATH=src python tests/test_golden_infer.py`` and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import speechrig
from speechrig.features import FeatureSequence, write_feature_file
from speechrig.network import build_model, save_model
from test_golden_training import openblas_core

GOLDEN_FILE = Path(__file__).with_name("golden_infer.json")
MEAN_ATOL = 1e-5
# case -> (feature rate, feature rows): 300, 600 and 1300 frames at 60 fps
CASES = {"60hz_300": (60.0, 300), "60hz_600": (60.0, 600), "60hz_1300": (60.0, 1300),
         "50hz_1300": (50.0, 1083)}
_TIMELINE = "frame,label\n0,neutral\n120,happy\n700,angry\n1100,sad\n"


def _infer(tmp_path, case):
    """Write the case's inputs, run the CLI on them in a fresh interpreter
    and return the paths of the CSV and the sidecar."""
    model = build_model(32, d_model=64, n_layers=2, n_heads=4, d_ff=256, output_dim=174,
                        dropout=0.0, seed=7)
    save_model(tmp_path / "w.emow", model)
    rate, rows = CASES[case]
    rng = np.random.default_rng(rows)
    write_feature_file(tmp_path / "f.emof",
                       FeatureSequence(rng.normal(0, 1, (rows, 32)).astype(np.float32), rate))
    (tmp_path / "t.csv").write_text(_TIMELINE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "o.csv"
    argv = ["infer", "--features", tmp_path / "f.emof", "--timeline", tmp_path / "t.csv",
            "--weights", tmp_path / "w.emow", "--blink", "--gaze", "--seed", "5", "--out", out]
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, speechrig.cli as c; sys.exit(c.main(sys.argv[1:]))",
                           *map(str, argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out, Path(f"{out}.json")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _channel_means(csv):
    return np.loadtxt(csv, delimiter=",", skiprows=1).mean(axis=0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_infer_bytes(tmp_path, case):
    golden = json.loads(GOLDEN_FILE.read_text())
    want = golden["cases"][case]
    csv, sidecar = _infer(tmp_path, case)
    here = {"numpy": np.__version__, "openblas_core": openblas_core()}
    if here == golden["recorded_with"]:
        assert _sha256(csv) == want["csv_sha256"]
        assert _sha256(sidecar) == want["sidecar_sha256"]
        return
    np.testing.assert_allclose(_channel_means(csv), want["channel_means"], rtol=0.0,
                               atol=MEAN_ATOL)
    warnings.warn(f"golden bytes were recorded with {golden['recorded_with']}, this run has "
                  f"{here}: checked each channel's mean within {MEAN_ATOL:g}, not the bytes")


if __name__ == "__main__":
    import tempfile

    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            csv, sidecar = _infer(Path(tmp), name)
            cases[name] = {"csv_sha256": _sha256(csv), "sidecar_sha256": _sha256(sidecar),
                           "channel_means": [float(f"{m:.9g}") for m in _channel_means(csv)]}
    recorded_with = json.dumps({"numpy": np.__version__, "openblas_core": openblas_core()})
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in cases.items())
    GOLDEN_FILE.write_text(f'{{"recorded_with": {recorded_with},\n "cases": {{\n{body}}}}}\n')
