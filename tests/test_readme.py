"""README's Python example runs as written against the library."""

import pathlib
import re

import numpy as np

from speechrig.features import FeatureSequence, write_feature_file
from speechrig.network import build_model, save_model
from speechrig.rig import RIG_WIDTH

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    save_model(tmp_path / "model.emow",
               build_model(8, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                           output_dim=RIG_WIDTH, dropout=0.0, seed=1))
    rng = np.random.default_rng(2)
    write_feature_file(tmp_path / "clip.emof",
                       FeatureSequence(rng.normal(0, 1, (100, 8)), 50.0))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    seq = scope["seq"]
    assert seq.values.shape == (120, RIG_WIDTH)
    assert np.isfinite(seq.values).all()
