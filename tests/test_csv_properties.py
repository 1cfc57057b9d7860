"""Property tests for the input readers: damaged numeric CSVs, timeline
CSVs, feature (EMOF) and weight (EMOW) files and controller maps fail
only with DataError, and the rig CSV writer/reader pair round-trips
exactly."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from speechrig.blink import read_ear_csv
from speechrig.cli import _read_timeline_csv
from speechrig.errors import DataError
from speechrig.features import FeatureSequence, load_features, read_feature_csv, write_feature_file
from speechrig.network import build_model, load_model, save_model
from speechrig.rig import (
    RIG_WIDTH,
    RigSequence,
    default_map,
    load_controller_map,
    read_rig_csv,
    write_json,
    write_rig_csv,
)


def _written(write) -> bytes:
    """The bytes ``write(path)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "valid")
        write(path)
        with open(path, "rb") as f:
            return f.read()


_RIG = np.random.default_rng(3).uniform(-1.0, 1.0, (3, RIG_WIDTH))
_FEATURES = FeatureSequence(np.random.default_rng(4).normal(0.0, 1.0, (3, 2)), 50.0)
_MODEL = build_model(3, d_model=4, n_layers=1, n_heads=2, d_ff=4, output_dim=2,
                     dropout=0.0, seed=5)

# reader, a valid file it reads
_NUMERIC_CSVS = {
    "rig": (read_rig_csv, _written(lambda p: write_rig_csv(p, RigSequence(_RIG), default_map()))),
    "ear-trace": (read_ear_csv, b"frame,ear\n0,0.31\n1,0.25\n2,0.07\n3,0.2\n4,0.3\n"),
    "features": (read_feature_csv, b"f0,f1,f2\n0.5,-1.25,3e-2\n1,2,3\n\n-0.5,0.25,1e3\n"),
}
_OTHER_INPUTS = {
    "timeline": (lambda p: _read_timeline_csv(p, 60), b"frame,label\n0,happy\n30,sad\n45,2\n"),
    "emof": (load_features, _written(lambda p: write_feature_file(p, _FEATURES))),
    "emow": (load_model, _written(lambda p: save_model(p, _MODEL))),
}


def _read_damaged(read, blob, data) -> None:
    """Flip up to 3 bytes of ``blob``, truncate it, and read it: only a
    DataError may escape."""
    damaged = bytearray(blob)
    for at, byte in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                 st.integers(0, 255)), max_size=3)):
        damaged[at] = byte
    damaged = damaged[:data.draw(st.integers(0, len(blob)))]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "damaged.csv")
        with open(path, "wb") as f:
            f.write(damaged)
        try:
            read(path)
        except DataError:
            pass


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_NUMERIC_CSVS)), data=st.data())
def test_damaged_numeric_csv_raises_only_data_error(kind, data):
    _read_damaged(*_NUMERIC_CSVS[kind], data)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_OTHER_INPUTS)), data=st.data())
def test_damaged_timeline_feature_and_weight_files_raise_only_data_error(kind, data):
    _read_damaged(*_OTHER_INPUTS[kind], data)


_MAP = _written(lambda p: write_json(p, default_map().to_document()))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_controller_map_raises_only_data_error(data):
    # MapError, the schema violations' error, is a DataError
    _read_damaged(load_controller_map, _MAP, data)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(RIG_WIDTH)),
                  elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
def test_rig_csv_write_read_is_exact_after_one_write(values):
    # write_rig_csv keeps 9 significant digits, so the first write rounds;
    # from then on reading and writing again reproduces values and bytes
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write_rig_csv(first, RigSequence(values), default_map())
        seq = read_rig_csv(first)
        write_rig_csv(second, seq, default_map())
        again = read_rig_csv(second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert np.array_equal(again.values, seq.values)
    np.testing.assert_allclose(seq.values, values, rtol=1e-8, atol=0)
