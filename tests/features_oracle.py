"""Object windows: the bucketing, encoding and window scorers that ``mobanom.detectors`` replaced with arrays.

Each window here keeps its list of ``StayPoint`` objects; OMPAD builds each
place-type histogram one point at a time, and MoNav-TT wraps every window in
a ``Trajectory`` to sum its hops. This lives on only as the test oracle: the
array blocks must hold the same rows, vectors and counts, and the OMPAD and
MoNav-TT score tables must match, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from conftest import from_stays
from mobanom.core import ConfigError, Dataset, StayPoint, Trajectory, haversine_km, latlon_to_unit3, params_hash
from mobanom.detectors.classical import SIGMA_FLOOR_KM
from mobanom.detectors.features import UNKNOWN_TYPE, SplitSpec
from mobanom.evaluation import ScoreTable


def total_travel_distance(t: Trajectory, interval: tuple[int, int] | None = None) -> float:
    """Sum of consecutive great-circle hops over ``points[start:stop]``.

    ``interval`` is a half-open index range; empty or singleton ranges
    contribute 0.
    """
    pts = t.points if interval is None else t.points[interval[0] : interval[1]]
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += haversine_km(a.location, b.location)
    return total


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


def ompad_score(feat: WindowedFeatures) -> ScoreTable:
    """Mean half-L1 distance between test-window histograms and the train profile."""
    scores = {}
    omitted = dict(feat.ineligible)
    for agent_id in sorted(set(feat.train) | set(feat.test)):
        train = feat.train.get(agent_id, [])
        test = feat.test.get(agent_id, [])
        if not train:
            omitted.setdefault(agent_id, "no training windows")
            continue
        if not test:
            omitted.setdefault(agent_id, "no test windows")
            continue
        profile = np.mean([type_histogram(w.points, feat.vocab) for w in train], axis=0)
        dists = [
            0.5 * float(np.abs(profile - type_histogram(w.points, feat.vocab)).sum())
            for w in test
        ]
        scores[agent_id] = float(np.mean(dists))
    return ScoreTable(
        detector="ompad",
        scores=scores,
        params_hash=params_hash({"window_seconds": feat.window_seconds, "L": feat.window_len}),
        omitted=omitted,
    )


def monav_tt_score(ds: Dataset, split: SplitSpec, window_days: float = 7.0) -> ScoreTable:
    """Traveled-distance z-scores of test windows against the train windows."""
    window_seconds = int(round(window_days * 86400))
    scores = {}
    omitted = {}
    for t in ds.trajectories:
        idx = split.split_index.get(t.agent_id, len(t.points))
        if idx <= 0:
            omitted[t.agent_id] = "empty training side"
            continue
        train_d = []
        test_d = []
        for _, is_train, pts in bucket_windows(t, idx, window_seconds):
            d = total_travel_distance(from_stays(t.agent_id, pts))
            (train_d if is_train else test_d).append(d)
        if len(train_d) < 2:
            omitted[t.agent_id] = "needs >= 2 training windows"
            continue
        if not test_d:
            omitted[t.agent_id] = "no test windows"
            continue
        mu = float(np.mean(train_d))
        sigma = max(float(np.std(train_d, ddof=1)), SIGMA_FLOOR_KM)
        scores[t.agent_id] = float(np.mean([abs(d - mu) / sigma for d in test_d]))
    return ScoreTable(
        detector="monav_tt",
        scores=scores,
        params_hash=params_hash({"window_days": window_days}),
        omitted=omitted,
    )
