"""Regional MAE and left-right correlation."""

import numpy as np
import pytest

from speechrig.errors import DataError
from speechrig.evaluate import (
    lr_correlation,
    mae,
    mae_report,
    write_correlation_csv,
    write_mae_report,
)
from speechrig.rig import RIG_WIDTH, RigSequence, default_map


@pytest.fixture(scope="module")
def cmap():
    return default_map()


def _seq(values):
    return RigSequence(np.asarray(values, dtype=float))


class TestMae:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        x = _seq(rng.uniform(-1, 1, (10, RIG_WIDTH)))
        assert mae(x, x) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(-0.5, 0.5, (8, RIG_WIDTH))
        assert mae(_seq(base + 0.01), _seq(base)) == pytest.approx(0.01, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = _seq(rng.uniform(-1, 1, (6, RIG_WIDTH)))
        b = _seq(rng.uniform(-1, 1, (6, RIG_WIDTH)))
        assert mae(a, b) == mae(b, a)

    def test_full_equals_size_weighted_region_mean(self, cmap):
        rng = np.random.default_rng(3)
        a = _seq(rng.uniform(-1, 1, (20, RIG_WIDTH)))
        b = _seq(rng.uniform(-1, 1, (20, RIG_WIDTH)))
        regions = [cmap.region_indices({r}) for r in
                   ("eye", "jaw", "mouth", "teeth", "tongue", "brow", "ear", "nose", "neck")]
        weighted = sum(len(idx) * mae(a, b, idx) for idx in regions) / RIG_WIDTH
        assert mae(a, b) == pytest.approx(weighted, abs=1e-12)

    def test_region_report_keys(self, cmap):
        rng = np.random.default_rng(4)
        a = _seq(rng.uniform(-1, 1, (5, RIG_WIDTH)))
        b = _seq(rng.uniform(-1, 1, (5, RIG_WIDTH)))
        report = mae_report(a, b, cmap)
        assert set(report) == {"full", "mouth", "eye"}
        assert report["mouth"] == mae(a, b, cmap.mouth_area_indices())

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            mae(_seq(np.zeros((3, RIG_WIDTH))), _seq(np.zeros((4, RIG_WIDTH))))

    def test_report_json(self, tmp_path, cmap):
        report = {"full": 0.1, "mouth": 0.2, "eye": 0.3}
        path = tmp_path / "mae.json"
        write_mae_report(path, report)
        import json

        assert json.loads(path.read_text()) == report


class TestCorrelation:
    def _mirrored(self, cmap, seed=5, frames=50):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, (frames, RIG_WIDTH))
        for e in cmap.entries:
            if e.side == "right":
                values[:, e.index] = values[:, e.pair]
        return _seq(values)

    def test_mirrored_pairs_correlate_exactly_one(self, cmap):
        seq = self._mirrored(cmap)
        result = lr_correlation(seq, cmap)
        left = cmap.side_indices("left")
        right = cmap.side_indices("right")
        by_index = {e.index: e for e in cmap.entries}
        for i, li in enumerate(left):
            j = right.index(by_index[li].pair)
            assert result.matrix[i, j] == 1.0

    def test_negated_pairs_correlate_minus_one(self, cmap):
        rng = np.random.default_rng(6)
        values = rng.normal(0, 1, (40, RIG_WIDTH))
        for e in cmap.entries:
            if e.side == "right":
                values[:, e.index] = -values[:, e.pair]
        result = lr_correlation(_seq(values), cmap)
        left = cmap.side_indices("left")
        right = cmap.side_indices("right")
        by_index = {e.index: e for e in cmap.entries}
        for i, li in enumerate(left):
            j = right.index(by_index[li].pair)
            assert result.matrix[i, j] == -1.0

    def test_independent_noise_decorrelated(self, cmap):
        rng = np.random.default_rng(7)
        seq = _seq(rng.normal(0, 1, (10_000, RIG_WIDTH)))
        result = lr_correlation(seq, cmap)
        assert np.abs(result.matrix).max() <= 0.05

    def test_entries_bounded(self, cmap):
        rng = np.random.default_rng(8)
        seq = _seq(rng.normal(0, 1, (30, RIG_WIDTH)))
        result = lr_correlation(seq, cmap)
        assert np.all(result.matrix <= 1.0)
        assert np.all(result.matrix >= -1.0)

    def test_constant_channel_sentinel(self, cmap):
        rng = np.random.default_rng(9)
        values = rng.normal(0, 1, (20, RIG_WIDTH))
        left0 = cmap.side_indices("left")[0]
        values[:, left0] = 0.25
        result = lr_correlation(_seq(values), cmap)
        assert not result.valid[0].any()
        assert np.all(result.matrix[0] == 0.0)

    def test_matrix_shape_and_names(self, cmap):
        rng = np.random.default_rng(10)
        seq = _seq(rng.normal(0, 1, (15, RIG_WIDTH)))
        result = lr_correlation(seq, cmap)
        n_left = len(cmap.side_indices("left"))
        n_right = len(cmap.side_indices("right"))
        assert result.matrix.shape == (n_left, n_right)
        assert len(result.left_names) == n_left
        assert all(name.endswith("L") for name in result.left_names)

    def test_csv_export(self, tmp_path, cmap):
        rng = np.random.default_rng(11)
        seq = _seq(rng.normal(0, 1, (15, RIG_WIDTH)))
        result = lr_correlation(seq, cmap)
        path = tmp_path / "corr.csv"
        write_correlation_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[1:] == list(result.right_names)
        assert len(lines) == 1 + len(result.left_names)

    def test_matches_per_pair_reference(self, cmap):
        rng = np.random.default_rng(12)
        values = rng.normal(0, 1, (3600, RIG_WIDTH))
        left = cmap.side_indices("left")
        right = cmap.side_indices("right")
        pairs = [(e.index, e.pair) for e in cmap.entries if e.side == "left"]
        (m0, r0), (m1, r1), (n0, s0), (c0, d0), (q0, t0) = pairs[:5]
        values[:, r0] = values[:, m0]  # exact mirrors
        values[:, r1] = values[:, m1]
        values[:, s0] = -values[:, n0]  # exact negation
        values[:, c0] = 0.25  # constant left channel
        values[:, right[-1]] = -1.5  # constant right channel
        values[:, t0] = values[:, q0]  # near mirror: one frame off by one ulp
        values[100, t0] = np.nextafter(values[100, t0], np.inf)
        result = lr_correlation(_seq(values), cmap)

        lmat, rmat = values[:, left], values[:, right]
        lc, rc = lmat - lmat.mean(axis=0), rmat - rmat.mean(axis=0)
        want = np.zeros(result.matrix.shape)
        for i in range(len(left)):
            for j in range(len(right)):
                norm = np.sqrt((lc[:, i] @ lc[:, i]) * (rc[:, j] @ rc[:, j]))
                if norm > 0.0:
                    want[i, j] = np.clip((lc[:, i] @ rc[:, j]) / norm, -1.0, 1.0)
        np.testing.assert_allclose(result.matrix, want, rtol=0, atol=1e-12)

        def cell(li, ri):
            return result.matrix[left.index(li), right.index(ri)]

        assert cell(m0, r0) == 1.0 and cell(m1, r1) == 1.0
        assert cell(n0, s0) == -1.0
        assert cell(q0, t0) == pytest.approx(1.0, abs=1e-12)
        k = left.index(c0)
        assert not result.valid[k].any() and np.all(result.matrix[k] == 0.0)
        assert not result.valid[:, -1].any() and np.all(result.matrix[:, -1] == 0.0)
        assert result.valid.sum() == (len(left) - 1) * (len(right) - 1)

    def test_too_few_frames_rejected(self, cmap):
        with pytest.raises(DataError):
            lr_correlation(_seq(np.zeros((1, RIG_WIDTH))), cmap)
