"""Controller map, emotion labels, and rig sequence contracts."""

import os
import stat
import threading

import numpy as np
import pytest

import speechrig.rig as rig
from speechrig.errors import DataError, MapError
from speechrig.rig import (
    EMOTION_NAMES,
    REGIONS,
    RIG_WIDTH,
    RigSequence,
    atomic_write,
    constant_timeline,
    default_map,
    emotion_id,
    load_controller_map,
    load_controller_map_document,
    read_rig_csv,
    timeline_from_rows,
    validate_timeline,
    write_json,
    write_rig_csv,
)


@pytest.fixture(scope="module")
def cmap():
    return default_map()


class TestEmotionLabels:
    def test_seven_labels_bijective(self):
        assert len(EMOTION_NAMES) == 7
        for i, name in enumerate(EMOTION_NAMES):
            assert emotion_id(name) == i
        assert len(set(EMOTION_NAMES)) == 7

    def test_unknown_name_rejected(self):
        with pytest.raises(DataError):
            emotion_id("bored")

    def test_out_of_range_id_rejected(self):
        with pytest.raises(DataError):
            constant_timeline(7, 1)


class TestDefaultMap:
    def test_shipped_map_is_valid(self, cmap):
        assert cmap.width == RIG_WIDTH
        assert len(cmap.region_indices({"eye"})) >= 6

    def test_eye_roles_present_per_side(self, cmap):
        by_index = {e.index: e for e in cmap.entries}
        for role in ("lid_closure", "gaze_horizontal", "gaze_vertical"):
            sides = {by_index[i].side for i in cmap.eye_role_indices(role)}
            assert sides == {"left", "right"}

    def test_pairing_is_symmetric(self, cmap):
        by_index = {e.index: e for e in cmap.entries}
        for e in cmap.entries:
            if e.pair is not None:
                assert by_index[e.pair].pair == e.index

    def test_roundtrip_through_json(self, cmap, tmp_path):
        path = tmp_path / "map.json"
        write_json(path, cmap.to_document())
        assert load_controller_map(path) == cmap

    def test_a_controllers_object_is_not_a_map(self, cmap):
        with pytest.raises(MapError, match="JSON array") as err:
            load_controller_map_document({"controllers": cmap.to_document()})
        assert err.value.code == "bad-document"


def _first(doc, **tags):
    """The first entry of ``doc`` whose fields hold ``tags``."""
    return next(d for d in doc if all(d.get(k) == v for k, v in tags.items()))


def _flip_mates_side(doc):
    # the mate of a left channel becomes a left channel too; the pairing stays mutual
    mate = _first(doc, index=_first(doc, side="left")["pair"])
    mate["side"] = "left"


def _drop_left_gaze(doc):
    for d in doc:
        if d["side"] == "left" and (d.get("eye_role") or "").startswith("gaze"):
            d["eye_role"] = None


# rule: (edit of the default map's document, code, message pattern)
_MAP_RULES = {
    "index-out-of-range": (lambda doc: doc[0].update(index=RIG_WIDTH), "bad-index",
                           "permutation"),
    "unknown-region": (lambda doc: doc[0].update(region="elbow"), "bad-region",
                       "unknown region 'elbow'"),
    "unknown-side": (lambda doc: doc[0].update(side="up"), "bad-side", "unknown side 'up'"),
    "unknown-eye-role": (lambda doc: doc[0].update(eye_role="wink"), "bad-eye-role",
                         "unknown eye role 'wink'"),
    "center-with-pair": (lambda doc: _first(doc, side="center").update(pair=0),
                         "asymmetric-pair", "center channel has a pair"),
    "side-without-pair": (lambda doc: _first(doc, side="left").update(pair=None),
                          "asymmetric-pair", "left channel has no pair"),
    "pair-not-found": (lambda doc: _first(doc, side="left").update(pair=999),
                       "asymmetric-pair", "pair index 999 not found"),
    "pair-on-the-same-side": (_flip_mates_side, "asymmetric-pair", r"\(left\) paired with"),
    "no-gaze-channel": (_drop_left_gaze, "missing-eye-role", "no gaze channel on left side"),
}


class TestMapValidation:
    def _doc(self):
        return default_map().to_document()

    def test_duplicate_index_rejected(self):
        doc = self._doc()
        doc[5]["index"] = 4
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "duplicate-index"

    def test_duplicate_name_rejected(self):
        doc = self._doc()
        doc[5]["name"] = doc[4]["name"]
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "duplicate-name"

    def test_asymmetric_pair_rejected(self):
        # point a left channel at a right channel that pairs elsewhere
        doc = self._doc()
        lefts = [d for d in doc if d["side"] == "left"]
        a, b = lefts[0], lefts[1]
        a["pair"] = b["pair"]  # b's right mate still points back at b
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "asymmetric-pair"

    def test_missing_eye_role_rejected(self):
        doc = self._doc()
        for d in doc:
            if d.get("eye_role") == "lid_closure" and d["side"] == "left":
                d["eye_role"] = None
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "missing-eye-role"

    def test_wrong_count_rejected(self):
        with pytest.raises(MapError) as exc:
            load_controller_map_document(self._doc()[:-1])
        assert exc.value.code == "bad-count"

    def test_bad_bounds_rejected(self):
        doc = self._doc()
        doc[0]["min"], doc[0]["max"] = 1.0, -1.0
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "bad-bounds"

    @pytest.mark.parametrize("case", _MAP_RULES)
    def test_each_rule_raises_its_code(self, case):
        # one case per rule not reached by the tests above; the message
        # tells apart the rules that share a code
        edit, code, message = _MAP_RULES[case]
        doc = self._doc()
        edit(doc)
        with pytest.raises(MapError, match=message) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == code

    @pytest.mark.parametrize("key", ["index", "pair"])
    def test_infinite_integer_field_rejected(self, key):
        # JSON 1e999 parses to float inf, which int() cannot take
        doc = self._doc()
        doc[0][key] = float("inf")
        with pytest.raises(MapError) as exc:
            load_controller_map_document(doc)
        assert exc.value.code == "bad-entry"


class TestRegionIndices:
    def test_eye_area_disjoint_from_mouth_area(self, cmap):
        eye = set(cmap.eye_area_indices())
        mouth = set(cmap.mouth_area_indices())
        assert eye and mouth
        assert not eye & mouth

    def test_all_regions_cover_everything(self, cmap):
        assert cmap.region_indices(set(REGIONS)) == list(range(RIG_WIDTH))

    def test_empty_region_set(self, cmap):
        assert cmap.region_indices(set()) == []

    def test_full_region_set_is_a_partition(self, cmap):
        seen = []
        for region in REGIONS:
            seen.extend(cmap.region_indices({region}))
        assert sorted(seen) == list(range(RIG_WIDTH))
        assert len(seen) == RIG_WIDTH

    def test_unknown_region_rejected(self, cmap):
        with pytest.raises(DataError):
            cmap.region_indices({"cheekbone"})


class TestRigSequence:
    def test_width_enforced(self):
        with pytest.raises(DataError):
            RigSequence(np.zeros((5, 42)))

    def test_non_finite_rejected(self):
        values = np.zeros((3, RIG_WIDTH))
        values[1, 7] = np.nan
        with pytest.raises(DataError):
            RigSequence(values)

    def test_csv_roundtrip(self, cmap, tmp_path):
        rng = np.random.default_rng(4)
        seq = RigSequence(rng.uniform(-1, 1, (10, RIG_WIDTH)))
        path = tmp_path / "rig.csv"
        write_rig_csv(path, seq, cmap)
        back = read_rig_csv(path)
        # 9 significant digits survive a float round-trip at ~1e-9 relative
        np.testing.assert_allclose(back.values, seq.values, rtol=1e-8, atol=1e-9)
        header = path.read_text().splitlines()[0]
        assert header.split(",") == list(cmap.names)

    def test_csv_bytes_match_per_value_formatting(self, cmap, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1, 1, (6, RIG_WIDTH)) * 10.0 ** rng.integers(-15, 16, (6, RIG_WIDTH))
        values[0, :8] = [0.0, -0.0, 1e-12, -1e-12, 1e12, -1e12, 3.0, -42.0]
        values[1] = np.arange(RIG_WIDTH, dtype=np.float64)  # integers stored as floats
        values[2, :4] = [0.1, 1 / 3, 123456789.0, 1234567890.0]
        path = tmp_path / "rig.csv"
        write_rig_csv(path, RigSequence(values), cmap)
        want = ",".join(cmap.names) + "\n" + "".join(
            ",".join(f"{v:.9g}" for v in row) + "\n" for row in values)
        assert path.read_bytes() == want.encode("utf-8")


def _float_parse(path):
    """The per-cell float() parse that read_rig_csv replaced."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


_ROW = ",".join(["0.25", "-0.5"] * (RIG_WIDTH // 2))


def _two_rows(second):
    return f"{_ROW}\n{second}\n".encode("utf-8")


class TestRigCsvReader:
    def test_writer_output_reads_back_as_float_parses_it(self, cmap, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.uniform(-1, 1, (6, RIG_WIDTH)) * 10.0 ** rng.integers(-15, 16, (6, RIG_WIDTH))
        values[0, :8] = [0.0, -0.0, 1e-12, -1e-12, 1e12, -1e12, 3.0, -42.0]
        values[1] = np.arange(RIG_WIDTH, dtype=np.float64)
        values[2, :4] = [0.1, 1 / 3, 123456789.0, 1234567890.0]
        path = tmp_path / "rig.csv"
        write_rig_csv(path, RigSequence(values), cmap)
        got = read_rig_csv(path).values
        assert got.dtype == np.float64
        assert got.tobytes() == _float_parse(path).tobytes()  # bit for bit, -0.0 included
        assert np.signbit(got[0, 1])

    def test_header_blank_lines_and_crlf_are_skipped(self, cmap, tmp_path):
        rows = [",".join(f"{0.01 * (i + j):.9g}" for j in range(RIG_WIDTH)) for i in range(4)]
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        plain.write_text("\n".join(rows) + "\n")
        headed.write_bytes(("\r\n".join([",".join(cmap.names), "", *rows[:2], "\r", *rows[2:]])
                            + "\r\n\r\n").encode("utf-8"))
        want = read_rig_csv(plain).values
        assert want.shape == (4, RIG_WIDTH)
        assert read_rig_csv(headed).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("content", [
        _two_rows(_ROW[:-5]),
        _two_rows(_ROW.replace("-0.5", "", 1)),
        _two_rows("#" + _ROW),  # a comment marker is not a comment
        _two_rows(_ROW.replace("0.25", '"0.25"', 1)),  # float() took it from csv.reader
        _two_rows(_ROW.replace("0.25", "1_0", 1)),  # float() takes it
        b"\xff\xfe\x00\x01\n",
        b"",
        b"\n\r\n",
    ], ids=["ragged", "empty-cell", "hash-row", "quoted-cell", "digit-separator",
            "not-utf8", "empty", "blank-lines-only"])
    def test_malformed_file_is_a_data_error_naming_it(self, tmp_path, content):
        path = tmp_path / "bad_take.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match="bad_take.csv"):
            read_rig_csv(path)

    @pytest.mark.parametrize("bad", [_ROW.replace("0.25", "x", 1), _ROW.replace("0.25", "nan", 1)],
                             ids=["not-a-number", "non-finite"])
    def test_the_bad_line_is_named_from_the_one_read(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "bad_take.csv"
        path.write_bytes(b"ch\n\n" + _two_rows(bad))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(rig, "open", counting_open, raising=False)
        with pytest.raises(DataError, match="bad_take.csv: line 4: "):
            read_rig_csv(path)
        assert opened == [path]


def test_atomic_write_keeps_links_and_writes_other_files_in_place(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    with atomic_write(link) as f:
        f.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"

    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []

    def read():
        with open(pipe) as f:
            got.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with atomic_write(pipe) as f:
        f.write("through\n")
    reader.join(10.0)
    assert not reader.is_alive() and got == ["through\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "pipe", "real.csv"]


class TestTimelines:
    def test_constant_timeline(self):
        tl = constant_timeline(3, 5)
        assert tl.tolist() == [3, 3, 3, 3, 3]

    @pytest.mark.parametrize("label", [3, np.int64(3), 3.0])
    def test_constant_timeline_takes_integral_labels(self, label):
        assert constant_timeline(label, 4).tolist() == [3, 3, 3, 3]

    @pytest.mark.parametrize("label, message", [
        (2.7, "label 2.7 is not an integer"), (float("nan"), "label nan is not an integer"),
        (float("inf"), "label inf is not an integer"), (-0.5, "label -0.5 is not an integer"),
        (-1, "out of range 0..6: -1"), (7.0, "out of range 0..6: 7")])
    def test_constant_timeline_rejects_a_label_outside_the_integers_0_to_6(self, label,
                                                                           message):
        # never truncated: 2.7 is not label 2
        with pytest.raises(DataError, match=message):
            constant_timeline(label, 4)

    def test_validate_checks_length_and_range(self):
        validate_timeline([0, 1, 2], 3)
        with pytest.raises(DataError):
            validate_timeline([0, 1], 3)
        with pytest.raises(DataError):
            validate_timeline([0, 9, 1], 3)

    def test_step_hold_expansion(self):
        tl = timeline_from_rows([(0, 1), (4, 2)], 7)
        assert tl.tolist() == [1, 1, 1, 1, 2, 2, 2]

    def test_rows_must_start_at_zero(self):
        with pytest.raises(DataError):
            timeline_from_rows([(2, 1)], 7)

    @pytest.mark.parametrize("rows, frame", [([(0, 0), (0, 1), (300, 2), (300, 3)], 0),
                                             ([(0, 1), (4, 2), (4, 2)], 4),
                                             ([(0, 1), (9, 3), (9, 2)], 9)])
    def test_a_frame_listed_twice_is_rejected(self, rows, frame):
        # in any order, with the same label or another, inside the clip or past its end
        for order in (rows, rows[::-1]):
            with pytest.raises(DataError, match=f"frame {frame} more than once"):
                timeline_from_rows(order, 7)

    @pytest.mark.parametrize("rows, what", [([(0, 0), (3.7, 1)], "frame 3.7"),
                                            ([(0, 0), (3, 1.9)], "label 1.9"),
                                            ([(0, 0), (float("nan"), 1)], "frame nan"),
                                            ([(0, 0), (float("inf"), 1)], "frame inf"),
                                            ([(0.5, 0)], "frame 0.5")])
    def test_a_frame_or_label_that_is_not_an_integer_is_rejected(self, rows, what):
        # never truncated: (3.7, 1) is not frame 3, nor (3, 1.9) label 1
        with pytest.raises(DataError, match=f"{what} is not an integer"):
            timeline_from_rows(rows, 6)

    def test_integral_floats_are_frames_and_labels(self):
        assert timeline_from_rows([(0.0, 0.0), (3.0, 2.0)], 6).tolist() == [0, 0, 0, 2, 2, 2]
