"""Train/test splitting and windowed featurization shared by all detectors.

Each agent's stay points divide at a split index: everything before it is
training history, the remainder is the test side to be scored.  Labeled
outliers split at their deviate index; everyone else falls back to a global
onset timestamp or a fixed fraction (available from dataset provenance when
the data came from the simulator or the injector).

Windows are consecutive fixed-duration buckets counted from each agent's
first arrival.  A bucket straddling the split boundary is cut into a train
part and a test part.  Every non-empty window encodes as a flat vector of
``L`` per-point rows: one-hot place type over the train-side vocabulary
(plus an Unknown bucket) concatenated with the 3D unit-sphere coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import ConfigError, Dataset, LabelSet, StayPoint, Trajectory, latlon_to_unit3

UNKNOWN_TYPE = "Unknown"


@dataclass
class SplitSpec:
    """Per-agent count of training-side stay points."""

    split_index: dict[str, int]

    @classmethod
    def from_labels(
        cls,
        ds: Dataset,
        labels: LabelSet,
        fallback_fraction: float | None = None,
        fallback_time: int | None = None,
    ) -> "SplitSpec":
        """Split outliers at their deviate index, everyone else at the fallback.

        With no explicit fallback, dataset provenance is consulted:
        ``meta["onset_time"]`` (simulator output) or ``meta["switch_fraction"]``
        (injector output).
        """
        if fallback_fraction is None and fallback_time is None:
            if "onset_time" in ds.meta:
                fallback_time = int(ds.meta["onset_time"])
            elif "switch_fraction" in ds.meta:
                fallback_fraction = float(ds.meta["switch_fraction"])
            else:
                raise ConfigError(
                    "no split fallback: pass fallback_fraction/fallback_time or use a "
                    "dataset whose meta carries onset_time or switch_fraction"
                )
        split = {}
        for t in ds.trajectories:
            entry = labels.entries.get(t.agent_id)
            if entry is not None and entry.is_outlier and entry.deviate_index is not None:
                split[t.agent_id] = entry.deviate_index
            elif fallback_time is not None:
                idx = len(t.points)
                for k, sp in enumerate(t.points):
                    if sp.arrive >= fallback_time:
                        idx = k
                        break
                split[t.agent_id] = idx
            else:
                split[t.agent_id] = int(math.floor(fallback_fraction * len(t.points)))
        return cls(split_index=split)


def bucket_windows(
    t: Trajectory, split_idx: int, window_seconds: int
) -> list[tuple[int, bool, list[StayPoint]]]:
    """Group stay points into (bucket, is_train, points) windows.

    Buckets count from the agent's first arrival; the split cuts a straddling
    bucket in two.  Empty windows never appear in the output.
    """
    if not t.points:
        return []
    t0 = t.points[0].arrive
    groups: dict[tuple[int, bool], list[StayPoint]] = {}
    for i, sp in enumerate(t.points):
        bucket = (sp.arrive - t0) // window_seconds
        key = (int(bucket), i < split_idx)
        groups.setdefault(key, []).append(sp)
    out = [(bucket, is_train, pts) for (bucket, is_train), pts in groups.items()]
    # train part of a cut bucket sorts before its test part
    out.sort(key=lambda x: (x[0], not x[1]))
    return out


@dataclass
class Window:
    points: list[StayPoint]
    vec: np.ndarray
    t_start: int
    t_end: int


@dataclass
class WindowedFeatures:
    vocab: list[str]
    window_len: int
    window_seconds: int
    train: dict[str, list[Window]] = field(default_factory=dict)
    test: dict[str, list[Window]] = field(default_factory=dict)
    ineligible: dict[str, str] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.window_len * (len(self.vocab) + 3)

    def eligible_agents(self) -> list[str]:
        return sorted(set(self.train) & set(self.test))


def _encode_window(points: list[StayPoint], vocab: list[str], L: int) -> np.ndarray:
    vidx = {v: i for i, v in enumerate(vocab)}
    unknown = vidx[UNKNOWN_TYPE]
    width = len(vocab) + 3
    rows = np.zeros((L, width), dtype=np.float64)
    for r, sp in enumerate(points[:L]):
        rows[r, vidx.get(sp.place_type, unknown)] = 1.0
        rows[r, len(vocab) :] = latlon_to_unit3(sp.location)
    return rows.reshape(-1)


def build_windows(
    ds: Dataset,
    split: SplitSpec,
    window_days: float = 7.0,
    L: int = 64,
) -> WindowedFeatures:
    """Bucket, cut, and encode every agent's stay points.

    Agents whose training side is empty are marked ineligible (reported, not
    fatal).  The type vocabulary is built from training-side points only, so a
    test-side type never seen in training encodes as Unknown.
    """
    if window_days <= 0 or L < 1:
        raise ConfigError("window_days and L must be positive")
    window_seconds = int(round(window_days * 86400))

    train_types: set[str] = set()
    for t in ds.trajectories:
        idx = split.split_index.get(t.agent_id, len(t.points))
        for sp in t.points[:idx]:
            train_types.add(sp.place_type)
    vocab = sorted(train_types | {UNKNOWN_TYPE})

    feat = WindowedFeatures(vocab=vocab, window_len=L, window_seconds=window_seconds)
    for t in ds.trajectories:
        idx = split.split_index.get(t.agent_id, len(t.points))
        if idx <= 0:
            feat.ineligible[t.agent_id] = "empty training side"
            continue
        for _, is_train, pts in bucket_windows(t, idx, window_seconds):
            window = Window(
                points=pts,
                vec=_encode_window(pts, vocab, L),
                t_start=pts[0].arrive,
                t_end=pts[-1].depart,
            )
            side = feat.train if is_train else feat.test
            side.setdefault(t.agent_id, []).append(window)
    return feat


def type_histogram(points: list[StayPoint], vocab: list[str]) -> np.ndarray:
    """Normalized place-type histogram over the vocabulary (unknowns bucketed)."""
    vidx = {v: i for i, v in enumerate(vocab)}
    unknown = vidx[UNKNOWN_TYPE]
    h = np.zeros(len(vocab), dtype=np.float64)
    for sp in points:
        h[vidx.get(sp.place_type, unknown)] += 1.0
    total = h.sum()
    return h / total if total > 0 else h
