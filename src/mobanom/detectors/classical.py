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

from ..core import Dataset, EARTH_RADIUS_KM, check_settings, haversine_km, params_hash
from ..evaluation import ScoreTable
from .features import WINDOW_DAYS, SplitSpec, WindowedFeatures, bucket_windows, window_seconds_of

SIGMA_FLOOR_KM = 1e-6


def ompad_score(feat: WindowedFeatures) -> ScoreTable:
    """Mean half-L1 distance between test-window histograms and the train profile."""
    scores = {}
    for agent_id in feat.eligible_agents():
        # one normalized type histogram per window; the profile is the mean training histogram
        train, test = (side[agent_id].counts / side[agent_id].counts.sum(axis=1, keepdims=True)
                       for side in (feat.train, feat.test))
        scores[agent_id] = float(np.mean(0.5 * np.abs(train.mean(axis=0) - test).sum(axis=1)))
    return ScoreTable(
        detector="ompad",
        scores=scores,
        params_hash=params_hash({"window_seconds": feat.window_seconds, "L": feat.window_len}),
        omitted=feat.omitted(),
    )


def monav_tt_score(ds: Dataset, split: SplitSpec, window_days: float = WINDOW_DAYS) -> ScoreTable:
    """Traveled-distance z-scores of test windows against the train windows."""
    window_seconds = window_seconds_of(window_days)
    scores = {}
    omitted = {}
    for t in ds.trajectories:
        idx = split.train_count(t)
        if idx <= 0:
            omitted[t.agent_id] = "empty training side"
            continue
        train_d = []
        test_d = []
        locations = [sp.location for sp in t.points]
        for is_train, rows in bucket_windows(t, idx, window_seconds):
            d = 0.0  # hops added left to right: sum() is compensated from Python 3.12 on
            for k in range(rows[0], rows[-1]):
                d += haversine_km(locations[k], locations[k + 1])
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
# Segments are float64 arrays of shape (..., 2, 2): (start, end) x (x, y) km.
# ---------------------------------------------------------------------------

#: (test, pool) segment pairs per kernel call in the support query; bounds the kernel's temporaries.
PAIR_BLOCK = 4096
#: distinct pool segments per step of the support query; after each step the settled test segments drop out.
POOL_BLOCK = 64
#: (perpendicular, parallel, angular) weights of the segment distance (Lee, Han & Li, ICDE 2008).
TRAOD_WEIGHTS = (1.0, 1.0, 1.0)
#: an unset D is the AUTO_D_PERCENTILE-th percentile of the distances of AUTO_D_SAMPLES random pool segment pairs.
AUTO_D_PERCENTILE, AUTO_D_SAMPLES = 10.0, 1000


def _lengths(segs: np.ndarray) -> np.ndarray:
    # A per-row dot product, as np.linalg.norm of one vector uses: the same floats, so the same scores.
    d = segs[..., 1, :] - segs[..., 0, :]
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def segment_distance_components(s1, s2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(perpendicular, parallel, angular) distance components between segments.

    ``s1`` and ``s2`` have shape (..., 2, 2) and broadcast; a single
    ``(start, end)`` pair works too.  The shorter segment is measured against
    the longer (``s1`` on a tie): perpendicular is the Lehmer mean of the two
    endpoint-to-line distances, parallel the smaller overhang of the projected
    endpoints beyond the longer segment, angular ``len(shorter) * sin(theta)``
    for theta <= 90 degrees, else the full shorter length.  Written with cross
    and dot products, identical segments come out exactly 0 apart.  A
    zero-length segment is a point: perpendicular becomes the point-to-segment
    distance, the other components are 0.
    """
    s1, s2 = np.asarray(s1, dtype=np.float64), np.asarray(s2, dtype=np.float64)
    len1, len2 = _lengths(s1), _lengths(s2)
    first_long = (len1 >= len2)[..., None, None]
    lng, sht = np.where(first_long, s1, s2), np.where(first_long, s2, s1)
    ln_l, ln_s = np.maximum(len1, len2), np.minimum(len1, len2)
    la, lb, sa, sb = lng[..., 0, :], lng[..., 1, :], sht[..., 0, :], sht[..., 1, :]
    ab = lb - la
    with np.errstate(divide="ignore", invalid="ignore"):  # ln_l == 0 lanes are replaced below
        perp1 = np.abs(_cross(ab, sa - la)) / ln_l
        perp2 = np.abs(_cross(ab, sb - la)) / ln_l
        t1 = _dot(ab, sa - la) / ln_l
        t2 = _dot(ab, sb - la) / ln_l
        d_perp = np.where(perp1 + perp2 == 0.0, 0.0, (perp1 * perp1 + perp2 * perp2) / (perp1 + perp2))
        d_ang = np.where(_dot(ab, sb - sa) >= 0.0, np.abs(_cross(ab, sb - sa)) / ln_l, ln_s)
    d_par = np.minimum(*(np.maximum(0.0, np.maximum(-t, t - ln_l)) for t in (t1, t2)))
    # shorter is a point: its distance to the longer segment (or point), beyond either end or not
    gap = np.where((ln_l == 0.0) | (t1 < 0.0), np.sqrt(_dot(sa - la, sa - la)),
                   np.where(t1 > ln_l, np.sqrt(_dot(sa - lb, sa - lb)), perp1))
    point = ln_s == 0.0
    return np.where(point, gap, d_perp)[()], np.where(point, 0.0, d_par)[()], np.where(point, 0.0, d_ang)[()]


def traod_segment_distance(s1, s2, weights: tuple[float, float, float] = TRAOD_WEIGHTS) -> np.ndarray:
    """Weighted sum of :func:`segment_distance_components`, broadcast the same way."""
    d_perp, d_par, d_ang = segment_distance_components(s1, s2)
    return weights[0] * d_perp + weights[1] * d_par + weights[2] * d_ang


@dataclass(frozen=True)
class TraodParams:
    D: float | None = None  # neighborhood radius in km; None = auto percentile
    p_frac: float = 0.95
    seed: int = 0

    def __post_init__(self):
        check_settings(self, [("D", self.D is None or 0 <= self.D < math.inf, "None or finite and >= 0"),
                              ("p_frac", 0 <= self.p_frac <= 1, "in [0, 1]"),
                              ("seed", self.seed >= 0, ">= 0")])


def _trajectory_segments(lat: np.ndarray, lon: np.ndarray, lat0: float, lon0: float) -> np.ndarray:
    """Consecutive stays at ``lat``/``lon`` (degrees) as (n - 1, 2, 2) segments, projected equirectangularly."""
    x = np.radians(lon - lon0) * math.cos(math.radians(lat0)) * EARTH_RADIUS_KM
    y = np.radians(lat - lat0) * EARTH_RADIUS_KM
    coords = np.stack([x, y], axis=-1)
    return np.stack([coords[:-1], coords[1:]], axis=1)


def _unique_segments(segs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct segments, by exact coordinate bytes, and each row's index among them."""
    keys = np.ascontiguousarray(segs).reshape(len(segs), 4).view(np.dtype((np.void, 32)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return segs[first], inverse


def _auto_radius(pool: np.ndarray, params: TraodParams) -> float:
    n = len(pool)
    if n < 2:
        return 1.0
    rng = np.random.default_rng(params.seed)
    pairs = np.empty((AUTO_D_SAMPLES, 2), dtype=np.int64)
    for k in range(AUTO_D_SAMPLES):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        pairs[k] = i, j + (j >= i)
    dists = traod_segment_distance(pool[pairs[:, 0]], pool[pairs[:, 1]], TRAOD_WEIGHTS)
    return float(np.percentile(dists, AUTO_D_PERCENTILE))


def _traod_outlying(ds: Dataset, split: SplitSpec, params: TraodParams):
    """(radius, {agent: (is each test segment outlying, segment lengths)}, omitted).

    Identical segments (common: agents repeat the same hops) are compared
    once.  For each distinct test segment, the OR of the rows of the
    (distinct pool segment x owner) incidence matrix that lie within the
    radius marks its near owners; an agent's own column does not count.
    The pool is visited in blocks, and a test segment leaves the query once
    it has enough near owners to be supported whichever agent asks (Bay &
    Schwabacher, KDD 2003), so its row of near owners may stay incomplete.
    """
    lat = [np.array([sp.location.lat for sp in t.points], dtype=float) for t in ds.trajectories]
    lon = [np.array([sp.location.lon for sp in t.points], dtype=float) for t in ds.trajectories]
    lat0, lon0 = float(np.mean(np.concatenate(lat))), float(np.mean(np.concatenate(lon)))
    train, test = {}, {}  # agent -> (n, 2, 2) segments
    for t, y, x in zip(ds.trajectories, lat, lon):
        idx = split.train_count(t)
        train[t.agent_id] = _trajectory_segments(y[:idx], x[:idx], lat0, lon0)
        test[t.agent_id] = _trajectory_segments(y[idx:], x[idx:], lat0, lon0)

    pool = np.concatenate([np.empty((0, 2, 2)), *train.values()])
    radius = params.D if params.D is not None else _auto_radius(pool, params)

    owners = [a for a in sorted(train) if len(train[a])]
    column = {a: k for k, a in enumerate(owners)}  # the extra column len(owners) stays all False
    unique_pool, pool_index = _unique_segments(pool)
    incidence = np.zeros((len(unique_pool), len(owners) + 1), dtype=bool)
    incidence[pool_index, np.repeat([column.get(a, -1) for a in train], [len(s) for s in train.values()])] = True

    scored = [a for a in sorted(test) if len(test[a])]
    omitted = {a: "no test segments" for a in sorted(test) if not len(test[a])}
    sizes = [len(test[a]) for a in scored]
    queries = np.concatenate([np.empty((0, 2, 2)), *(test[a] for a in scored)])
    unique_test, test_index = _unique_segments(queries)
    near = np.zeros((len(unique_test), len(owners) + 1), dtype=bool)
    open_rows, rows = np.arange(len(unique_test)), max(1, PAIR_BLOCK // POOL_BLOCK)
    order = np.random.default_rng(0).permutation(len(unique_pool))  # any fixed order; only the speed depends on it
    for start in range(0, len(order), POOL_BLOCK):
        block = order[start:start + POOL_BLOCK]
        segs, owned = unique_pool[block][None], incidence[block].astype(np.float64)  # BLAS ORs rows; 0/1 sums exact
        for lo in range(0, len(open_rows), rows):
            idx = open_rows[lo:lo + rows]
            close = traod_segment_distance(unique_test[idx, None], segs, TRAOD_WEIGHTS) <= radius
            near[idx] |= close.astype(np.float64) @ owned > 0
        # k near owners give whoever asks >= k - 1 supporters, and k only grows: not outlying in the full query
        open_rows = open_rows[near[open_rows].sum(axis=1) - 1 < (1.0 - params.p_frac) * len(owners)]

    own = np.repeat(np.array([column.get(a, len(owners)) for a in scored], dtype=int), sizes)  # no pool: extra
    others = np.repeat([len(owners) - (a in column) for a in scored], sizes)
    supporters = near.sum(axis=1)[test_index] - near[test_index, own]
    outlying = supporters < (1.0 - params.p_frac) * others
    lengths = _lengths(queries)
    bounds = np.cumsum([0] + sizes)
    decisions = {a: (outlying[lo:hi], lengths[lo:hi]) for a, lo, hi in zip(scored, bounds[:-1], bounds[1:])}
    return radius, decisions, omitted


def traod_score(ds: Dataset, split: SplitSpec, params: TraodParams = TraodParams()) -> ScoreTable:
    """Length-weighted fraction of each agent's test segments that are outlying.

    The reference pool holds every agent's training segments.  A test segment
    is outlying when fewer than ``(1 - p_frac) * n_other`` other agents own at
    least one pool segment within distance D.
    """
    hashed = params_hash({**asdict(params), "weights": TRAOD_WEIGHTS, "auto_d_percentile": AUTO_D_PERCENTILE,
                          "auto_d_samples": AUTO_D_SAMPLES})  # the constants too: the hash names all that shaped the scores
    if not any(t.points for t in ds.trajectories) or len(ds.trajectories) < 2:
        return ScoreTable(detector="traod", scores={}, params_hash=hashed,
                          omitted={t.agent_id: "needs >= 2 agents" for t in ds.trajectories})
    _, decisions, omitted = _traod_outlying(ds, split, params)
    scores = {}
    for agent_id, (outlying, lengths) in decisions.items():
        # cumsum adds in order, as a running total does
        total_len = np.cumsum(lengths)[-1]
        outlying_len = np.cumsum(np.where(outlying, lengths, 0.0))[-1]
        scores[agent_id] = float(outlying_len / total_len) if total_len > 0 else 0.0
    return ScoreTable(detector="traod", scores=scores, params_hash=hashed, omitted=omitted)
