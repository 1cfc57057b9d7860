"""Golden bytes of ``speechrig train --synthetic``.

Each run is a fresh interpreter at one BLAS thread: desk-scale dims, 101
epochs (across the first learning-rate decay), at dropout 0.0 and 0.1.
The bytes depend on the OpenBLAS kernels and on numpy, so each golden
value names the numpy version and OpenBLAS core it was recorded with.
Where both match this process's, the weight file and the loss CSV must
hash the same. Elsewhere a weaker check runs, the final loss within
1e-9 relative of the recorded one, and a warning says so.

A change that moves training's bits on purpose records new values here
and says why.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import speechrig

RECORDED_WITH = {"numpy": "2.4.6", "openblas_core": "SkylakeX"}
# dropout -> (weights sha256, loss CSV sha256, final loss)
GOLDEN = {
    "0.0": ("6cbc2b670d0503be4370059fa97cdf8d4b82c997a3cd33531b5288b9690d5c0d",
            "099953f1a09db50485618da3db9a4fe58b64915e102dea8fde56a1ab9a48f476",
            0.010119306508177914),
    "0.1": ("5556131d6a5233c73a57f23e17b81a06a82e64661c7731b4fa79021a23e76532",
            "892d7a56682bffd01cac1d045cec55f2f879375563b8e0bbf8a0c68e9c3ea700",
            0.009585591730414091),
}
LOSS_RTOL = 1e-9

# the CLI, and the final loss at full precision (the loss CSV has 9 digits)
_TRAIN = """
import sys
import speechrig.cli as cli
runs = []
train = cli.train
cli.train = lambda *args, **kwargs: runs.append(train(*args, **kwargs)) or runs[-1]
code = cli.main(sys.argv[1:])
print(repr(runs[0].final_loss))
sys.exit(code)
"""


def openblas_core():
    """The kernel set of numpy's bundled OpenBLAS, read from the library
    ``network._blas_thread_control`` finds, or None."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({ln.split()[-1] for ln in f if "scipy_openblas" in ln})
    for lib in libs:
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("dropout", sorted(GOLDEN))
def test_synthetic_training_bytes(tmp_path, dropout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["train", "--synthetic", "--items", "8", "--t-min", "20", "--t-max", "40",
            "--feature-dim", "32", "--d-model", "64", "--layers", "1", "--heads", "4",
            "--d-ff", "256", "--batch", "4", "--epochs", "101", "--lr0", "3e-3",
            "--dropout", dropout, "--seed", "7",
            "--out", str(tmp_path / "w.emow"), "--loss-csv", str(tmp_path / "loss.csv")]
    proc = subprocess.run([sys.executable, "-c", _TRAIN, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    weights_sha, loss_sha, final_loss = GOLDEN[dropout]

    here = {"numpy": np.__version__, "openblas_core": openblas_core()}
    if here == RECORDED_WITH:
        assert _sha256(tmp_path / "w.emow") == weights_sha
        assert _sha256(tmp_path / "loss.csv") == loss_sha
        return
    got = float(proc.stdout.splitlines()[-1])
    assert got == pytest.approx(final_loss, rel=LOSS_RTOL, abs=0.0)
    warnings.warn(f"golden bytes were recorded with {RECORDED_WITH}, this run has {here}: "
                  f"checked the final loss within {LOSS_RTOL:g} relative, not the bytes")


# (d_model, heads, frames) -> (grads.flat sha256, loss repr) of one clip's reverse pass
REVERSE_GOLDEN = {
    (64, 4, 150): ("d69501885e9d017d60efad17acc99d3ae0de409058029f214584922f0c8fa0dd",
                   "0.856643672782858"),
    (512, 8, 300): ("d67f4098382b3cf81cc61c46f31be044b773d8731af95ee4e8de8db42485d84c",
                    "1.9029305244049777"),
}

# each case's loss and gradients at 2 layers, dropout 0.1 and seven labels in turn
_REVERSE = """
import hashlib, sys
import numpy as np
from speechrig.network import build_model, clip_loss_and_grads, grad_buffer
for case in sys.argv[1:]:
    d_model, heads, frames = map(int, case.split(","))
    model = build_model(32, d_model=d_model, n_layers=2, n_heads=heads, d_ff=4 * d_model,
                        dropout=0.1, seed=frames)
    rng = np.random.default_rng(d_model)
    features = rng.normal(0.0, 1.0, (frames, 32))
    target = rng.uniform(-1.0, 1.0, (frames, model.output_dim))
    labels = np.arange(frames) * 7 // frames
    grads = grad_buffer(model)
    loss = clip_loss_and_grads(model, features, labels, target, grads, rng)
    print(hashlib.sha256(grads.flat.tobytes()).hexdigest(), repr(loss))
"""


def test_reverse_pass_bytes_beyond_desk_scale():
    src = os.path.dirname(os.path.dirname(os.path.abspath(speechrig.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cases = sorted(REVERSE_GOLDEN)
    proc = subprocess.run([sys.executable, "-c", _REVERSE,
                           *(",".join(map(str, case)) for case in cases)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = dict(zip(cases, (line.split() for line in proc.stdout.splitlines())))

    here = {"numpy": np.__version__, "openblas_core": openblas_core()}
    for case in cases:
        grads_sha, loss = REVERSE_GOLDEN[case]
        if here == RECORDED_WITH:
            assert got[case] == [grads_sha, loss], case
        else:
            assert float(got[case][1]) == pytest.approx(float(loss), rel=LOSS_RTOL, abs=0.0)
    if here != RECORDED_WITH:
        warnings.warn(f"golden bytes were recorded with {RECORDED_WITH}, this run has {here}: "
                      f"checked each loss within {LOSS_RTOL:g} relative, not the bytes")
