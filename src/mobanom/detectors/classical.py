"""Three classical trajectory outlier detectors.

* ``ompad_score``: deviation of visited place-type histograms from the
  agent's training profile (half L1 distance, so scores live in [0, 1]).
* ``monav_tt_score``: z-score of per-window traveled distance against the
  agent's own training windows.
* ``traod_score``: partition-and-detect: trajectories become line segments in
  a local planar projection; a test segment is outlying when too few other
  agents own a training segment nearby; the agent score is the length-weighted
  outlying fraction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..core import Dataset, EARTH_RADIUS_KM, Trajectory, params_hash, total_travel_distance
from ..evaluation import ScoreTable
from .features import SplitSpec, WindowedFeatures, bucket_windows, type_histogram

SIGMA_FLOOR_KM = 1e-6


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
            d = total_travel_distance(Trajectory(agent_id=t.agent_id, points=pts))
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


# ---------------------------------------------------------------------------
# TRAOD: segment geometry in a local planar (equirectangular) projection.
# ---------------------------------------------------------------------------


def project_planar_km(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    """Equirectangular projection about (lat0, lon0); good enough at city scale."""
    x = math.radians(lon - lon0) * math.cos(math.radians(lat0)) * EARTH_RADIUS_KM
    y = math.radians(lat - lat0) * EARTH_RADIUS_KM
    return x, y


Segment = tuple[np.ndarray, np.ndarray]


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def segment_distance_components(s1: Segment, s2: Segment) -> tuple[float, float, float]:
    """(perpendicular, parallel, angular) distance components between segments.

    The shorter segment is measured against the longer one: perpendicular is
    the Lehmer mean of the two endpoint-to-line distances, parallel is the
    smaller overhang of the projected endpoints beyond the longer segment, and
    angular is ``len(shorter) * sin(theta)`` for theta <= 90 degrees, else the
    full shorter length.  Degenerate (zero-length) segments are treated as
    points: perpendicular becomes the point-to-segment distance, the other
    components are 0.
    """
    a1, b1 = (np.asarray(s1[0], dtype=np.float64), np.asarray(s1[1], dtype=np.float64))
    a2, b2 = (np.asarray(s2[0], dtype=np.float64), np.asarray(s2[1], dtype=np.float64))
    len1 = float(np.linalg.norm(b1 - a1))
    len2 = float(np.linalg.norm(b2 - a2))
    if len1 >= len2:
        la, lb, ln_l = a1, b1, len1
        sa, sb, ln_s = a2, b2, len2
    else:
        la, lb, ln_l = a2, b2, len2
        sa, sb, ln_s = a1, b1, len1

    if ln_l == 0.0:  # both are points
        return float(np.linalg.norm(la - sa)), 0.0, 0.0
    if ln_s == 0.0:  # shorter is a point
        return _point_segment_distance(sa, la, lb), 0.0, 0.0

    direction = (lb - la) / ln_l
    t1 = float((sa - la) @ direction)
    t2 = float((sb - la) @ direction)
    perp1 = float(np.linalg.norm(sa - (la + t1 * direction)))
    perp2 = float(np.linalg.norm(sb - (la + t2 * direction)))
    if perp1 + perp2 == 0.0:
        d_perp = 0.0
    else:
        d_perp = (perp1**2 + perp2**2) / (perp1 + perp2)

    def overhang(t: float) -> float:
        return max(0.0, -t, t - ln_l)

    d_par = min(overhang(t1), overhang(t2))

    cos_theta = float(np.clip(((lb - la) @ (sb - sa)) / (ln_l * ln_s), -1.0, 1.0))
    theta = math.acos(cos_theta)
    d_ang = ln_s * math.sin(theta) if theta <= math.pi / 2 else ln_s
    return d_perp, d_par, d_ang


def traod_segment_distance(
    s1: Segment, s2: Segment, weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> float:
    d_perp, d_par, d_ang = segment_distance_components(s1, s2)
    return weights[0] * d_perp + weights[1] * d_par + weights[2] * d_ang


@dataclass(frozen=True)
class TraodParams:
    D: float | None = None  # neighborhood radius in km; None = auto percentile
    p_frac: float = 0.95
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    auto_d_percentile: float = 10.0
    auto_d_samples: int = 1000
    seed: int = 0


def _trajectory_segments(t: Trajectory, lo: int, hi: int, lat0: float, lon0: float) -> list[Segment]:
    pts = t.points[lo:hi]
    coords = [np.array(project_planar_km(sp.location.lat, sp.location.lon, lat0, lon0)) for sp in pts]
    return [(coords[i], coords[i + 1]) for i in range(len(coords) - 1)]


def _auto_radius(pool: list[Segment], params: TraodParams) -> float:
    if len(pool) < 2:
        return 1.0
    rng = np.random.default_rng(params.seed)
    n = len(pool)
    dists = []
    for _ in range(params.auto_d_samples):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        dists.append(traod_segment_distance(pool[i], pool[j], params.weights))
    return float(np.percentile(dists, params.auto_d_percentile))


def traod_score(ds: Dataset, split: SplitSpec, params: TraodParams = TraodParams()) -> ScoreTable:
    """Length-weighted fraction of each agent's test segments that are outlying.

    The reference pool holds every agent's training segments.  A test segment
    is outlying when fewer than ``(1 - p_frac) * n_other`` other agents own at
    least one pool segment within distance D.
    """
    lats = [sp.location.lat for t in ds.trajectories for sp in t.points]
    lons = [sp.location.lon for t in ds.trajectories for sp in t.points]
    if not lats or len(ds.trajectories) < 2:
        return ScoreTable(detector="traod", scores={}, params_hash=params_hash(asdict(params)),
                          omitted={t.agent_id: "needs >= 2 agents" for t in ds.trajectories})
    lat0 = float(np.mean(lats))
    lon0 = float(np.mean(lons))

    train_segments: dict[str, list[Segment]] = {}
    test_segments: dict[str, list[Segment]] = {}
    for t in ds.trajectories:
        idx = split.split_index.get(t.agent_id, len(t.points))
        train_segments[t.agent_id] = _trajectory_segments(t, 0, idx, lat0, lon0)
        test_segments[t.agent_id] = _trajectory_segments(t, idx, len(t.points), lat0, lon0)

    pool = [seg for segs in train_segments.values() for seg in segs]
    radius = params.D if params.D is not None else _auto_radius(pool, params)

    scores = {}
    omitted = {}
    pool_owners = [a for a in sorted(train_segments) if train_segments[a]]
    for agent_id in sorted(test_segments):
        segs = test_segments[agent_id]
        if not segs:
            omitted[agent_id] = "no test segments"
            continue
        others = [a for a in pool_owners if a != agent_id]
        threshold = (1.0 - params.p_frac) * len(others)
        outlying_len = 0.0
        total_len = 0.0
        for seg in segs:
            seg_len = float(np.linalg.norm(seg[1] - seg[0]))
            total_len += seg_len
            supporters = 0
            for other in others:
                if any(
                    traod_segment_distance(seg, ref, params.weights) <= radius
                    for ref in train_segments[other]
                ):
                    supporters += 1
                    if supporters >= threshold:
                        break
            if supporters < threshold:
                outlying_len += seg_len
        scores[agent_id] = outlying_len / total_len if total_len > 0 else 0.0
    return ScoreTable(
        detector="traod",
        scores=scores,
        params_hash=params_hash(asdict(params)),
        omitted=omitted,
    )
