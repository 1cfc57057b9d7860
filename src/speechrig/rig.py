"""Rig data model: controller map, emotion labels, and rig sequences.

A face pose is a vector of 174 scalar controller activations. The
controller map names each channel, tags it with a facial region and a
side, pairs left/right channels, and marks the channels the blink and
gaze injectors drive. Everything downstream keys off these tags; no
channel index is hard-coded anywhere in the pipeline.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DataError, MapError

RIG_WIDTH = 174
RIG_FPS = 60.0

REGIONS = ("eye", "jaw", "mouth", "teeth", "tongue", "brow", "ear", "nose", "neck")
SIDES = ("left", "right", "center")
EYE_ROLES = ("lid_closure", "gaze_horizontal", "gaze_vertical")

# Region groups used by the regional error metrics.
MOUTH_AREA_REGIONS = frozenset({"jaw", "mouth", "teeth", "tongue"})
EYE_AREA_REGIONS = frozenset({"eye", "brow"})

EMOTION_NAMES = ("neutral", "happy", "sad", "angry", "surprised", "fear", "disgusted")
N_EMOTIONS = len(EMOTION_NAMES)
_EMOTION_IDS = {name: i for i, name in enumerate(EMOTION_NAMES)}


def emotion_id(label) -> int:
    """The integer label (0..6) of an emotion given as a name, an integer
    or an integer string; every input that names an emotion reads it here."""
    if isinstance(label, str):
        if label in _EMOTION_IDS:
            return _EMOTION_IDS[label]
        try:
            label = int(label)
        except ValueError:
            raise DataError(f"emotion {label!r} is not a known name") from None
    if isinstance(label, bool) or not isinstance(label, int):
        raise DataError(f"emotion {label!r} is not a name or an integer")
    if not 0 <= label < N_EMOTIONS:
        raise DataError(f"emotion label out of range 0..6: {label}")
    return label


@dataclass(frozen=True)
class ControllerEntry:
    """One named rig channel with its region/side tags and value bounds."""

    name: str
    index: int
    region: str
    side: str
    pair: int | None = None
    eye_role: str | None = None
    vmin: float = -1.0
    vmax: float = 1.0


class ControllerMap:
    """Validated, immutable collection of 174 controller entries."""

    def __init__(self, entries):
        entries = sorted(entries, key=lambda e: e.index)
        _validate_entries(entries)
        self.entries = tuple(entries)

    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def region_indices(self, regions) -> list[int]:
        """Sorted indices of all channels whose region is in ``regions``."""
        regions = set(regions)
        unknown = regions.difference(REGIONS)
        if unknown:
            raise DataError(f"unknown regions: {sorted(unknown)}")
        return sorted(e.index for e in self.entries if e.region in regions)

    def mouth_area_indices(self) -> list[int]:
        return self.region_indices(MOUTH_AREA_REGIONS)

    def eye_area_indices(self) -> list[int]:
        return self.region_indices(EYE_AREA_REGIONS)

    def side_indices(self, side: str) -> list[int]:
        if side not in SIDES:
            raise DataError(f"unknown side: {side!r}")
        return sorted(e.index for e in self.entries if e.side == side)

    def eye_role_indices(self, role: str) -> list[int]:
        """Sorted indices of channels carrying the given eye role."""
        if role not in EYE_ROLES:
            raise DataError(f"unknown eye role: {role!r}")
        return sorted(e.index for e in self.entries if e.eye_role == role)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (vmin, vmax) arrays in index order."""
        lo = np.array([e.vmin for e in self.entries])
        hi = np.array([e.vmax for e in self.entries])
        return lo, hi

    # --- serialization ---------------------------------------------------

    def to_document(self) -> list[dict]:
        return [
            {
                "name": e.name,
                "index": e.index,
                "region": e.region,
                "side": e.side,
                "pair": e.pair,
                "eye_role": e.eye_role,
                "min": e.vmin,
                "max": e.vmax,
            }
            for e in self.entries
        ]

    def __eq__(self, other):
        return isinstance(other, ControllerMap) and self.entries == other.entries


def _validate_entries(entries) -> None:
    n = len(entries)
    if n != RIG_WIDTH:
        raise MapError("bad-count", f"expected {RIG_WIDTH} controllers, got {n}")

    indices = [e.index for e in entries]
    if len(set(indices)) != n:
        dup = sorted({i for i in indices if indices.count(i) > 1})
        raise MapError("duplicate-index", f"duplicate controller indices: {dup}")
    if sorted(indices) != list(range(n)):
        raise MapError("bad-index", f"indices must be a permutation of 0..{n - 1}")

    names = [e.name for e in entries]
    if len(set(names)) != n:
        dup = sorted({s for s in names if names.count(s) > 1})
        raise MapError("duplicate-name", f"duplicate controller names: {dup}")

    by_index = {e.index: e for e in entries}
    for e in entries:
        if e.region not in REGIONS:
            raise MapError("bad-region", f"{e.name}: unknown region {e.region!r}")
        if e.side not in SIDES:
            raise MapError("bad-side", f"{e.name}: unknown side {e.side!r}")
        if e.eye_role is not None and e.eye_role not in EYE_ROLES:
            raise MapError("bad-eye-role", f"{e.name}: unknown eye role {e.eye_role!r}")
        if not e.vmin < e.vmax:
            raise MapError("bad-bounds", f"{e.name}: min {e.vmin} must be < max {e.vmax}")

        if e.side == "center":
            if e.pair is not None:
                raise MapError("asymmetric-pair", f"{e.name}: center channel has a pair")
            continue
        if e.pair is None:
            raise MapError("asymmetric-pair", f"{e.name}: {e.side} channel has no pair")
        mate = by_index.get(e.pair)
        if mate is None:
            raise MapError("asymmetric-pair", f"{e.name}: pair index {e.pair} not found")
        if mate.pair != e.index:
            raise MapError(
                "asymmetric-pair",
                f"{e.name} pairs {mate.name}, but {mate.name} pairs index {mate.pair}",
            )
        want = "right" if e.side == "left" else "left"
        if mate.side != want:
            raise MapError(
                "asymmetric-pair", f"{e.name} ({e.side}) paired with {mate.name} ({mate.side})"
            )

    for side in ("left", "right"):
        have = {e.eye_role for e in entries if e.side == side and e.eye_role}
        if "lid_closure" not in have:
            raise MapError("missing-eye-role", f"no lid_closure channel on {side} side")
        if not have.intersection({"gaze_horizontal", "gaze_vertical"}):
            raise MapError("missing-eye-role", f"no gaze channel on {side} side")


def _entry_from_document(obj: dict) -> ControllerEntry:
    try:
        return ControllerEntry(
            name=str(obj["name"]),
            index=int(obj["index"]),
            region=str(obj["region"]),
            side=str(obj["side"]),
            pair=None if obj.get("pair") is None else int(obj["pair"]),
            eye_role=obj.get("eye_role") or None,
            vmin=float(obj.get("min", -1.0)),
            vmax=float(obj.get("max", 1.0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # 1e999 -> int
        raise MapError("bad-entry", f"malformed controller entry {obj!r}: {exc}") from None


def load_controller_map_document(document) -> ControllerMap:
    """Build a ControllerMap from a parsed JSON document: a list of entries."""
    if not isinstance(document, list):
        raise MapError("bad-document", "controller map must be a JSON array of entries")
    return ControllerMap([_entry_from_document(obj) for obj in document])


def load_controller_map(path) -> ControllerMap:
    """Load and validate a controller map JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            document = json.load(f)
    except OSError as exc:
        raise DataError(f"cannot read controller map {path}: {exc}") from None
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise MapError("bad-document", f"controller map {path} is not valid JSON: {exc}") from None
    try:
        return load_controller_map_document(document)
    except MapError as exc:
        raise MapError(exc.code, f"controller map {path}: {exc}") from None


def default_map() -> ControllerMap:
    """The controller map shipped with the package.

    A stand-in for a production character rig: plausible channel names
    covering all nine regions with full left/right pairing. Any real rig
    can be swapped in through a map file with the same schema.
    """
    doc = resources.files("speechrig.data").joinpath("default_map.json").read_text("utf-8")
    return load_controller_map_document(json.loads(doc))


# --- rig sequences --------------------------------------------------------


@dataclass
class RigSequence:
    """Controller values over time at RIG_FPS: one row per frame, one column
    per channel."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != RIG_WIDTH:
            raise DataError(
                f"rig sequence must be (frames, {RIG_WIDTH}), got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise DataError("rig sequence contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "RigSequence":
        return RigSequence(self.values.copy())


def write_rig_csv(path, seq: RigSequence, cmap: ControllerMap) -> None:
    """Write a rig sequence as CSV: ``cmap``'s controller names as the
    header, one row per frame, 9 significant digits per value."""
    row = ",".join(["%.9g"] * seq.values.shape[1]) + "\n"
    with atomic_write(path, newline="") as f:
        f.write(",".join(cmap.names) + "\n")
        for r in seq.values:
            f.write(row % tuple(r.tolist()))


def write_csv(path, header, rows) -> None:
    """Write the ``header`` row, then ``rows``, as CSV."""
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, doc, sort_keys=False) -> None:
    """Write ``doc`` as JSON indented by one space, and a newline."""
    with atomic_write(path) as f:
        json.dump(doc, f, indent=1, sort_keys=sort_keys)
        f.write("\n")


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_args):
    """A file to write ``path`` through, UTF-8 text unless ``mode`` is
    "wb": a temporary file next to it that replaces ``path`` only once
    written in full, and is removed if writing fails, so ``path`` never
    holds a partial file.

    A symbolic link stays: the file it names is replaced. A path that is
    not a regular file (``/dev/stdout``, a pipe) is written in place.
    """
    if mode == "w":
        open_args["encoding"] = "utf-8"
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(path, mode, **open_args) as f:
            yield f
        return
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        f = open(tmp, mode, **open_args)
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            yield f
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _data_lines(path) -> tuple[list[str], list[int]]:
    """The non-blank lines of a CSV input, without its header, and the
    1-based line number of each in the file.

    The first line is a header, and is dropped, when its first cell does
    not parse as a float. Every CSV input follows this rule.
    """
    try:
        with open(path, encoding="utf-8") as f:
            kept = [(n, line) for n, line in enumerate(f, 1) if line != "\n"]
        if kept:
            float(next(csv.reader([kept[0][1]]))[0])
    except (UnicodeDecodeError, csv.Error) as exc:  # before ValueError, UnicodeDecodeError's base
        raise DataError(f"{path}: not a readable CSV: {exc}") from None
    except ValueError:
        del kept[0]  # the header
    return [line for _, line in kept], [n for n, _ in kept]


def read_csv_rows(path) -> list[list[str]]:
    """The data rows of a CSV input split into cells; callers convert them."""
    try:
        return list(csv.reader(_data_lines(path)[0]))
    except csv.Error as exc:
        raise DataError(f"{path}: not a readable CSV: {exc}") from None


def read_numeric_csv(path, width: int | None, what: str) -> np.ndarray:
    """The data rows of a numeric CSV input as a (rows, cells) float64 array.

    Rig CSVs, EAR traces, blink-rate samples and feature CSVs are all read
    here: unquoted decimal cells, the same number in every row (``width``
    unless None), every value finite. Errors name ``path``, call the file
    ``what`` and, where one line is at fault, give its 1-based line.
    """
    lines, numbers = _data_lines(path)
    if not lines:
        raise DataError(f"{path}: {what} has no data rows")
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError as exc:
        where = _first_bad_row(lines)
        if where is None:
            raise DataError(f"{path}: non-numeric {what}: {exc}") from None
        raise DataError(f"{path}: line {numbers[where[0]]}: {where[1]}") from None
    if width is not None and values.shape[1] != width:
        raise DataError(f"{path}: {what} rows have {values.shape[1]} cells, expected {width}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: line {numbers[bad[0]]}: non-finite value")
    return values


def read_rig_csv(path) -> RigSequence:
    """Read a rig CSV produced by :func:`write_rig_csv`, with or without
    its header row."""
    return RigSequence(read_numeric_csv(path, RIG_WIDTH, "rig CSV"))


def _first_bad_row(lines) -> tuple[int, str] | None:
    """Index of the first data line that ``np.loadtxt`` rejects, and why."""
    width = len(lines[0].split(","))
    for k, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            return k, f"{len(cells)} cells where the first row has {width}"
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return k, "a cell is not a plain decimal number"
    return None


# --- emotion timelines ----------------------------------------------------


def constant_timeline(label: int, n_frames: int) -> np.ndarray:
    """Timeline holding one emotion label for every frame. The label
    follows ``timeline_from_rows``' rule: an integral value in 0..6."""
    label = _integral(label, "label")
    if not 0 <= label < N_EMOTIONS:
        raise DataError(f"emotion label out of range 0..6: {label}")
    return np.full(n_frames, label, dtype=np.int64)


def validate_timeline(labels, n_frames: int) -> np.ndarray:
    """Check a per-frame label array against the output frame count."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or len(labels) != n_frames:
        raise DataError(
            f"emotion timeline has {labels.shape} labels, expected ({n_frames},)"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= N_EMOTIONS:
        raise DataError("emotion timeline contains labels outside 0..6")
    return labels


def _integral(value, what: str) -> int:
    if isinstance(value, int) or float(value).is_integer():  # NaN and inf are not
        return int(value)
    raise DataError(f"emotion timeline {what} {value!r} is not an integer")


def timeline_from_rows(rows, n_frames: int) -> np.ndarray:
    """Expand sparse (frame, label) rows to a dense per-frame timeline.

    Each label holds from its frame until the next row (step-hold). The
    first row must be at frame 0 so every output frame is covered, and no
    frame may have two rows. Frames and labels must be integral values: a
    fractional one, NaN or inf is rejected, never truncated.
    """
    rows = sorted((_integral(f, "frame"), _integral(lab, "label")) for f, lab in rows)
    if not rows:
        raise DataError("emotion timeline has no rows")
    if rows[0][0] != 0:
        raise DataError("emotion timeline must start at frame 0")
    for (frame, _), (after, _) in zip(rows, rows[1:]):
        if frame == after:
            raise DataError(f"emotion timeline lists frame {frame} more than once")
    labels = np.empty(n_frames, dtype=np.int64)
    for k, (frame, lab) in enumerate(rows):
        if not 0 <= lab < N_EMOTIONS:
            raise DataError(f"emotion timeline label out of range 0..6: {lab}")
        if frame >= n_frames:
            break
        end = rows[k + 1][0] if k + 1 < len(rows) else n_frames
        labels[frame:min(end, n_frames)] = lab
    return labels
