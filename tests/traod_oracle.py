"""Scalar TRAOD: one pair of segments per kernel call, one agent at a time in the support loop.

This is the straightforward implementation that ``mobanom.detectors.classical``
replaced with a vectorized one. It lives on only as the test oracle: the
vectorized kernel must agree with ``segment_distance_components`` here, and
the vectorized ``traod_score`` must make the same outlier decisions as
``traod_outlying`` here and give the same ``length_weighted_scores``.

``full_query_outlying`` is the vectorized support query as it was before it
learned to stop early: every distinct test segment against every distinct pool
segment. It shares the vectorized kernel, so it must agree bit for bit, at
D = 0 too, where ``traod_outlying``'s rounding noise does not.
"""

from __future__ import annotations

import math
import numpy as np

from mobanom.core import EARTH_RADIUS_KM, Dataset, Trajectory
from mobanom.detectors import SplitSpec, TraodParams, classical
from mobanom.detectors.classical import PAIR_BLOCK, _lengths, _unique_segments
from mobanom.detectors.classical import _auto_radius as vector_auto_radius
from mobanom.detectors.classical import traod_segment_distance as vector_distance

Segment = tuple[np.ndarray, np.ndarray]


def project_planar_km(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    x = math.radians(lon - lon0) * math.cos(math.radians(lat0)) * EARTH_RADIUS_KM
    y = math.radians(lat - lat0) * EARTH_RADIUS_KM
    return x, y


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def segment_distance_components(s1: Segment, s2: Segment) -> tuple[float, float, float]:
    """(perpendicular, parallel, angular) components; the shorter segment is measured against the longer."""
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
    for _ in range(classical.AUTO_D_SAMPLES):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        dists.append(traod_segment_distance(pool[i], pool[j], classical.TRAOD_WEIGHTS))
    return float(np.percentile(dists, classical.AUTO_D_PERCENTILE))


def traod_outlying(ds: Dataset, split: SplitSpec, params: TraodParams = TraodParams()):
    """(radius, {agent: [is each test segment outlying]}, {agent: [its length]}, omitted)."""
    lats = [sp.location.lat for t in ds.trajectories for sp in t.points]
    lons = [sp.location.lon for t in ds.trajectories for sp in t.points]
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

    outlying: dict[str, list[bool]] = {}
    lengths: dict[str, list[float]] = {}
    omitted = {}
    pool_owners = [a for a in sorted(train_segments) if train_segments[a]]
    for agent_id in sorted(test_segments):
        segs = test_segments[agent_id]
        if not segs:
            omitted[agent_id] = "no test segments"
            continue
        others = [a for a in pool_owners if a != agent_id]
        threshold = (1.0 - params.p_frac) * len(others)
        outlying[agent_id] = []
        lengths[agent_id] = []
        for seg in segs:
            lengths[agent_id].append(float(np.linalg.norm(seg[1] - seg[0])))
            supporters = 0
            for other in others:
                if any(
                    traod_segment_distance(seg, ref, classical.TRAOD_WEIGHTS) <= radius
                    for ref in train_segments[other]
                ):
                    supporters += 1
                    if supporters >= threshold:
                        break
            outlying[agent_id].append(supporters < threshold)
    return radius, outlying, lengths, omitted


def length_weighted_scores(outlying: dict[str, list[bool]], lengths: dict[str, list[float]]) -> dict[str, float]:
    """Each agent's outlying test length over its total test length, summed in segment order."""
    scores = {}
    for agent_id, flags in outlying.items():
        outlying_len = 0.0
        total_len = 0.0
        for is_out, seg_len in zip(flags, lengths[agent_id]):
            total_len += seg_len
            if is_out:
                outlying_len += seg_len
        scores[agent_id] = outlying_len / total_len if total_len > 0 else 0.0
    return scores


def per_point_segments(t: Trajectory, lo: int, hi: int, lat0: float, lon0: float) -> np.ndarray:
    """The (n, 2, 2) segments of ``t.points[lo:hi]``, built from per-point lists, not from one array per agent."""
    pts = t.points[lo:hi]
    x = np.radians(np.subtract([p.location.lon for p in pts], lon0)) * math.cos(math.radians(lat0)) * EARTH_RADIUS_KM
    y = np.radians(np.subtract([p.location.lat for p in pts], lat0)) * EARTH_RADIUS_KM
    coords = np.stack([x, y], axis=-1)
    return np.stack([coords[:-1], coords[1:]], axis=1)


def full_query_outlying(ds: Dataset, split: SplitSpec, params: TraodParams):
    """(radius, {agent: (is each test segment outlying, segment lengths)}, omitted), from the full support query."""
    lat0 = float(np.mean([sp.location.lat for t in ds.trajectories for sp in t.points]))
    lon0 = float(np.mean([sp.location.lon for t in ds.trajectories for sp in t.points]))
    train, test = {}, {}  # agent -> (n, 2, 2) segments
    for t in ds.trajectories:
        idx = split.train_count(t)
        train[t.agent_id] = per_point_segments(t, 0, idx, lat0, lon0)
        test[t.agent_id] = per_point_segments(t, idx, len(t.points), lat0, lon0)

    pool = np.concatenate([np.empty((0, 2, 2)), *train.values()])
    radius = params.D if params.D is not None else vector_auto_radius(pool, params)

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
    rows = max(1, PAIR_BLOCK // max(1, len(unique_pool)))
    for lo in range(0, len(unique_test), rows):
        close = vector_distance(unique_test[lo:lo + rows, None], unique_pool[None], classical.TRAOD_WEIGHTS) <= radius
        near[lo:lo + rows] = [incidence[row].any(axis=0) for row in close]

    own = np.repeat(np.array([column.get(a, len(owners)) for a in scored], dtype=int), sizes)  # no pool: extra
    others = np.repeat([len(owners) - (a in column) for a in scored], sizes)
    supporters = near.sum(axis=1)[test_index] - near[test_index, own]
    outlying = supporters < (1.0 - params.p_frac) * others
    lengths = _lengths(queries)
    bounds = np.cumsum([0] + sizes)
    decisions = {a: (outlying[lo:hi], lengths[lo:hi]) for a, lo, hi in zip(scored, bounds[:-1], bounds[1:])}
    return radius, decisions, omitted
