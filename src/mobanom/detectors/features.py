"""Train/test splitting and windowed featurization shared by all detectors.

Each agent's stay points divide at a split index: everything before it is
training history, the remainder is the test side to be scored.  Labeled
outliers split at their deviate index; everyone else falls back to a global
onset timestamp or a fixed fraction (available from dataset provenance when
the data came from the simulator or the injector).

Windows are consecutive fixed-duration buckets counted from each agent's
first arrival.  A bucket straddling the split boundary is cut into a train
part and a test part.  Each agent's windows on each side form one
:class:`Windows` block, one row per window: ``vecs`` encodes a window's first
``L`` stays as per-point rows (one-hot place type over the train-side
vocabulary plus an Unknown bucket, then the 3D unit-sphere coordinates; zero
rows pad), and ``counts`` counts the place types of all its stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import ConfigError, Dataset, InvalidInputError, LabelSet, Trajectory, latlon_to_unit3

UNKNOWN_TYPE = "Unknown"
WINDOW_DAYS = 7.0  # the one default of ``window_days``, for the windows and for MoNav-TT


@dataclass
class SplitSpec:
    """Per-agent count of training-side stay points."""

    split_index: dict[str, int]

    @classmethod
    def from_labels(cls, ds: Dataset, labels: LabelSet, fallback_fraction: float | None = None,
                    fallback_time: int | None = None) -> "SplitSpec":
        """Split outliers at their deviate index, everyone else at the fallback.

        An outlier's deviate index must name one of its stays, else
        InvalidInputError.  The fallbacks must pass :func:`check_split_fallbacks`;
        with none, dataset provenance is consulted: ``meta["onset_time"]``
        (simulator output) or ``meta["switch_fraction"]`` (injector output).
        With none there either, ConfigError once an agent that is not a
        labelled outlier needs the fallback.
        """
        if fallback_fraction is None and fallback_time is None:
            if "onset_time" in ds.meta:
                fallback_time = ds.meta["onset_time"]
            elif "switch_fraction" in ds.meta:
                fallback_fraction = ds.meta["switch_fraction"]
        check_split_fallbacks(fallback_fraction, fallback_time)
        split = {}
        for t in ds.trajectories:
            entry = labels.entries.get(t.agent_id)
            if entry is not None and entry.is_outlier:
                if entry.deviate_index >= len(t):
                    raise InvalidInputError(f"outlier {t.agent_id!r} deviates at stay {entry.deviate_index}, "
                                            f"but it has {len(t)} stays")
                split[t.agent_id] = entry.deviate_index
            elif fallback_time is not None:
                split[t.agent_id] = t.stays_before(fallback_time)
            elif fallback_fraction is not None:
                split[t.agent_id] = int(math.floor(fallback_fraction * len(t)))
            else:
                raise ConfigError("no split fallback: pass fallback_fraction/fallback_time or use a "
                                  "dataset whose meta carries onset_time or switch_fraction")
        return cls(split_index=split)

    def train_count(self, t: Trajectory) -> int:
        """How many of ``t``'s stays are training history: all of them when the split does not name ``t``."""
        return self.split_index.get(t.agent_id, len(t))


def check_split_fallbacks(fallback_fraction: float | None, fallback_time: int | None) -> None:
    """ConfigError unless at most one split fallback is set and a fraction lies in [0, 1]."""
    if fallback_fraction is not None and fallback_time is not None:
        raise ConfigError(f"fallback_fraction and fallback_time are both set: {fallback_fraction}, {fallback_time}")
    if fallback_fraction is not None and not 0.0 <= fallback_fraction <= 1.0:
        raise ConfigError(f"fallback_fraction must be in [0, 1], got {fallback_fraction}")


def window_seconds_of(window_days: float) -> int:
    """``window_days`` in whole seconds: a ConfigError unless that is at least 1 and fits in int64."""
    seconds = int(round(window_days * 86400)) if 0 < window_days < math.inf else 0
    if not 1 <= seconds < 1 << 63:
        raise ConfigError(f"a window must last at least 1 second and fit in int64, got window_days = {window_days}")
    return seconds


def check_windows(window_days: float, L: int) -> int:
    """The seconds per window (:func:`window_seconds_of`); a ConfigError unless a window encodes ``L >= 1`` stays."""
    if L < 1:
        raise ConfigError(f"L must be >= 1, got {L}")
    return window_seconds_of(window_days)


def bucket_windows(t: Trajectory, split_idx: int, window_seconds: int) -> list[tuple[bool, np.ndarray]]:
    """(is_train, row indices) of each non-empty window of ``t``'s stays, in window order.

    Buckets count from the first arrival; the split cuts a straddling bucket in two, its train part first.
    The trajectory rule orders the arrivals, so each window is a run of consecutive rows.
    """
    if window_seconds < 1:
        raise ConfigError(f"a window must last at least 1 second, got {window_seconds}")
    arrive = t.arrive
    split = min(max(split_idx, 0), len(arrive))
    offsets = arrive.view(np.uint64) - arrive[:1].view(np.uint64)  # the arrivals rise, so each offset fits in uint64
    starts = np.flatnonzero(np.diff(offsets // window_seconds)) + 1  # [:1]: no stays give no windows
    bounds, rows = sorted({0, split, len(arrive), *starts.tolist()}), np.arange(len(arrive))
    return [(lo < split, rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class Windows:
    """One agent's windows on one side of the split; row k of each array is window k."""

    vecs: np.ndarray  # (windows, L * (len(vocab) + 3)): the encoded vectors
    counts: np.ndarray  # (windows, len(vocab)): place-type counts over all of a window's stays

    def __len__(self) -> int:
        return len(self.vecs)


@dataclass
class WindowedFeatures:
    vocab: list[str]
    window_len: int
    window_seconds: int
    train: dict[str, Windows] = field(default_factory=dict)
    test: dict[str, Windows] = field(default_factory=dict)
    ineligible: dict[str, str] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.window_len * (len(self.vocab) + 3)

    def eligible_agents(self) -> list[str]:
        """The agents with windows on both sides: those that OMPAD, DAE and DSVDD score."""
        return sorted(set(self.train) & set(self.test))

    def omitted(self) -> dict[str, str]:
        """Each agent left out of :meth:`eligible_agents` with the reason: ``ineligible``, or no test windows."""
        return {**self.ineligible, **{a: "no test windows" for a in sorted(set(self.train) - set(self.test))}}


def _block(windows: list[np.ndarray], types: np.ndarray, units: np.ndarray, n_types: int, L: int) -> Windows:
    """One side's block of ``windows``: row indices of stays, whose place-type codes are ``types`` and whose unit
    vectors are the rows of ``units``."""
    sizes = np.array([len(rows) for rows in windows])
    rows = np.concatenate(windows)
    window = np.repeat(np.arange(len(windows)), sizes)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    counts = np.bincount(window * n_types + types[rows], minlength=len(windows) * n_types)
    head = slot < L  # each window encodes its first L stays
    window, slot, rows = window[head], slot[head], rows[head]
    vecs = np.zeros((len(windows), L, n_types + 3))
    vecs[window, slot, types[rows]] = 1.0
    vecs[window, slot, n_types:] = units[rows]
    return Windows(vecs.reshape(len(windows), -1), counts.reshape(len(windows), n_types))


def build_windows(ds: Dataset, split: SplitSpec, window_days: float = WINDOW_DAYS, L: int = 64) -> WindowedFeatures:
    """Bucket, cut, and encode every agent's stay points.

    Agents whose training side is empty are marked ineligible (reported, not
    fatal).  The type vocabulary is built from training-side points only, so a
    test-side type never seen in training encodes as Unknown.
    """
    window_seconds = check_windows(window_days, L)

    train_types: set[str] = set()
    for t in ds.trajectories:
        train_types.update(t.places[c].place_type for c in set(t.place_code[:split.train_count(t)].tolist()))
    vocab = sorted(train_types | {UNKNOWN_TYPE})
    code = {v: i for i, v in enumerate(vocab)}

    feat = WindowedFeatures(vocab=vocab, window_len=L, window_seconds=window_seconds)
    for t in ds.trajectories:
        idx = split.train_count(t)
        if idx <= 0:
            feat.ineligible[t.agent_id] = "empty training side"
            continue
        windows = bucket_windows(t, idx, window_seconds)
        # each visited place's type code and unit vector, computed once
        types, units = np.zeros(len(t.places), dtype=np.intp), np.zeros((len(t.places), 3))
        for c in set(t.place_code.tolist()):
            types[c], units[c] = code.get(t.places[c].place_type, code[UNKNOWN_TYPE]), latlon_to_unit3(t.places[c].location)
        for side, is_train in ((feat.train, True), (feat.test, False)):
            rows = [r for train, r in windows if train == is_train]
            if rows:
                side[t.agent_id] = _block(rows, types[t.place_code], units[t.place_code], len(vocab), L)
    return feat
