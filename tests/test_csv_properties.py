"""Property tests for the numeric CSV readers: damaged files fail only
with DataError, and the rig CSV writer/reader pair round-trips exactly."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from speechrig.blink import read_ear_csv
from speechrig.errors import DataError
from speechrig.features import read_feature_csv
from speechrig.rig import RIG_WIDTH, RigSequence, read_rig_csv, write_rig_csv


def _rig_csv() -> bytes:
    values = np.random.default_rng(3).uniform(-1.0, 1.0, (3, RIG_WIDTH))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rig.csv")
        write_rig_csv(path, RigSequence(values))
        with open(path, "rb") as f:
            return f.read()


# reader, a valid file it reads
_VALID = {
    "rig": (read_rig_csv, _rig_csv()),
    "ear-trace": (read_ear_csv, b"frame,ear\n0,0.31\n1,0.25\n2,0.07\n3,0.2\n4,0.3\n"),
    "features": (read_feature_csv, b"f0,f1,f2\n0.5,-1.25,3e-2\n1,2,3\n\n-0.5,0.25,1e3\n"),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_VALID)), data=st.data())
def test_damaged_numeric_csv_raises_only_data_error(kind, data):
    read, blob = _VALID[kind]
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


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(RIG_WIDTH)),
                  elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
def test_rig_csv_write_read_is_exact_after_one_write(values):
    # write_rig_csv keeps 9 significant digits, so the first write rounds;
    # from then on reading and writing again reproduces values and bytes
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write_rig_csv(first, RigSequence(values))
        seq = read_rig_csv(first)
        write_rig_csv(second, seq)
        again = read_rig_csv(second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert np.array_equal(again.values, seq.values)
    np.testing.assert_allclose(seq.values, values, rtol=1e-8, atol=0)
