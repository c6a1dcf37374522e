"""The vectorized TRAOD kernel and support query against the scalar oracle in ``traod_oracle``."""

import contextlib
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import traod_oracle as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import from_stays
from mobanom.core import ConfigError, Dataset, GeoPoint, StayPoint
from mobanom.detectors import SplitSpec, TraodParams, classical, segment_distance_components, traod_score
from mobanom.detectors import traod_segment_distance
from mobanom.detectors.classical import _trajectory_segments, _traod_outlying
from mobanom.inject import InjectConfig, inject_imposter
from mobanom.simulator import SimConfig, simulate

DAY = 86400

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


@st.composite
def segments(draw):
    """A segment in a +-50 km box; some are zero-length."""
    a = draw(points)
    b = a if draw(st.booleans()) and draw(st.booleans()) else draw(points)
    return np.array([a, b], dtype=np.float64)


@st.composite
def segment_pairs(draw):
    """Two independent segments, or a segment and itself, reversed or shifted."""
    s1 = draw(segments())
    kind = draw(st.sampled_from(["free", "same", "reversed", "shifted"]))
    if kind == "free":
        return s1, draw(segments())
    if kind == "same":
        return s1, s1.copy()
    if kind == "reversed":
        return s1, s1[::-1].copy()
    return s1, s1 + np.array(draw(points)) * 1e-3


def length(s):
    return float(np.linalg.norm(s[1] - s[0]))


class TestKernelProperties:
    @given(segment_pairs())
    def test_symmetric_and_non_negative(self, pair):
        s1, s2 = pair
        d12 = traod_segment_distance(s1, s2)
        assert all(c >= 0.0 for c in segment_distance_components(s1, s2))
        assert d12 >= 0.0
        # on a length tie between distinct segments the first one is the longer, so the order matters there
        assume(length(s1) != length(s2) or np.array_equal(s1, s2) or np.array_equal(s1, s2[::-1]))
        assert traod_segment_distance(s2, s1) == d12

    @given(segments())
    def test_identical_segments_are_exactly_zero_apart(self, s):
        assert segment_distance_components(s, s.copy()) == (0.0, 0.0, 0.0)

    @given(st.lists(segments(), min_size=1, max_size=6), st.lists(segments(), min_size=1, max_size=6),
           st.tuples(*[st.floats(0.0, 3.0)] * 3))
    def test_block_equals_pairs_alone(self, left, right, weights):
        block = traod_segment_distance(np.array(left)[:, None], np.array(right)[None], weights)
        assert block.shape == (len(left), len(right))
        for i, s1 in enumerate(left):
            for j, s2 in enumerate(right):
                assert block[i, j] == traod_segment_distance(s1, s2, weights)

    @given(segment_pairs())
    def test_matches_scalar_oracle(self, pair):
        s1, s2 = pair
        perp, par, ang = segment_distance_components(s1, s2)
        o_perp, o_par, o_ang = oracle.segment_distance_components(s1, s2)
        assert abs(perp - o_perp) <= 1e-12
        assert abs(par - o_par) <= 1e-12
        # The oracle's acos is ill-conditioned near theta = 0: a cosine a few ulps below 1 gives
        # theta ~ 4e-8, i.e. ~8e-7 km on a 20 km segment and ~6e-6 km on the longest in the box.
        assert abs(ang - o_ang) <= 1e-6 + 4e-8 * min(length(s1), length(s2))

    def test_parallel_long_segments_have_no_angular_term(self):
        s1 = np.array([[-50.0, -50.0], [50.0, 50.0]])
        s2 = s1 + np.array([0.0, 1.0])
        assert segment_distance_components(s1, s2)[2] == 0.0


def town(seed, pairs=2):
    sim = SimConfig(n_agents=8, weeks=1, n_hunger=1, n_social=1, n_work=1, seed=seed)
    ds, labels = inject_imposter(simulate(sim).dataset, InjectConfig(n_outlier_pairs=pairs, seed=seed))
    return ds, SplitSpec.from_labels(ds, labels)


@contextlib.contextmanager
def constants(values):
    """``classical``'s module constants named in ``values`` set to their values while the block runs."""
    with contextlib.ExitStack() as stack:
        for name, value in values.items():
            stack.enter_context(mock.patch.object(classical, name, value))
        yield


# (settings, the module constants the set patches)
PARAMS = [
    (TraodParams(), {}),
    (TraodParams(p_frac=0.5), {}),
    (TraodParams(D=2.0, p_frac=0.7), {}),
    (TraodParams(), {"TRAOD_WEIGHTS": (1.0, 0.5, 2.0), "AUTO_D_PERCENTILE": 1.0}),
]
WEIGHTED = PARAMS[-1]


class TestAgainstScalarSupport:
    @pytest.mark.parametrize("seed", [5, 9])
    def test_same_decisions_and_score_bytes(self, seed):
        ds, split = town(seed)
        for params, fixed in PARAMS:
            with constants(fixed):
                radius, decisions, omitted = _traod_outlying(ds, split, params)
                o_radius, o_outlying, o_lengths, o_omitted = oracle.traod_outlying(ds, split, params)
                scores = traod_score(ds, split, params).scores
            assert radius == pytest.approx(o_radius, abs=1e-6)  # the acos error of the angular term
            assert omitted == o_omitted
            assert sorted(decisions) == sorted(o_outlying)
            for agent_id, (outlying, lengths) in decisions.items():
                assert outlying.tolist() == o_outlying[agent_id]
                assert lengths.tolist() == o_lengths[agent_id]
            assert scores == oracle.length_weighted_scores(o_outlying, o_lengths)

    def test_no_test_segments_anywhere(self):
        ds, _ = town(5)
        split = SplitSpec(split_index={t.agent_id: len(t.points) for t in ds.trajectories})
        table = traod_score(ds, split, TraodParams())
        assert table.scores == {} and table.omitted == oracle.traod_outlying(ds, split, TraodParams())[3]

    def test_a_pool_segment_at_exactly_d_supports(self):
        # x's test hop and y's training hop are D apart; with p_frac = 0.5 one supporter is enough
        x = from_stays("x", [sp(0, 10.0, 20.0), sp(1, 10.0, 20.01), sp(2, 10.0, 20.02), sp(3, 10.003, 20.03)])
        y = from_stays("y", [sp(0, 10.001, 20.0), sp(1, 10.0015, 20.012), sp(2, 11.0, 20.0), sp(3, 11.0, 20.01)])
        ds = Dataset(trajectories=[x, y])
        split = SplitSpec(split_index={"x": 2, "y": 2})
        lat0 = float(np.mean([p.location.lat for t in (x, y) for p in t.points]))
        lon0 = float(np.mean([p.location.lon for t in (x, y) for p in t.points]))
        x_hop, y_hop = ((np.array([p.location.lat for p in pts]), np.array([p.location.lon for p in pts]))
                        for pts in (x.points[2:4], y.points[:2]))
        d = float(traod_segment_distance(_trajectory_segments(*x_hop, lat0, lon0)[0],
                                         _trajectory_segments(*y_hop, lat0, lon0)[0]))
        assert traod_score(ds, split, TraodParams(D=d, p_frac=0.5)).scores["x"] == 0.0
        assert traod_score(ds, split, TraodParams(D=np.nextafter(d, 0.0), p_frac=0.5)).scores["x"] == 1.0


def sp(hour, lat, lon):
    return StayPoint(hour * 3600, hour * 3600 + 600, f"p{lat},{lon}", "Pub", GeoPoint(lat, lon))


def route(agent_id, n_weeks=2):
    """The same 5-stop route every week, at the same coordinates for every agent."""
    points = []
    for week in range(n_weeks):
        for i in range(5):
            t0 = week * 7 * DAY + i * 3600
            location = GeoPoint(40.0 + 0.013 * i, 116.3 + 0.021 * i * i)
            points.append(StayPoint(t0, t0 + 600, f"p{i}", "Pub", location))
    return from_stays(agent_id, points)


class TestZeroRadius:
    def test_repeated_hops_are_supported_at_d_zero(self):
        # Identical segments are exactly 0 apart, so D = 0 still finds the other agents'
        # copies of each hop.  (The scalar kernel put them ~1e-15 apart: every score was 0.57.)
        ds = Dataset(trajectories=[route(f"a{i}") for i in range(6)])
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        assert traod_score(ds, split, TraodParams(D=0.0)).scores == {f"a{i}": 0.0 for i in range(6)}

    def test_auto_radius_on_identical_pairs_is_exactly_zero(self):
        # The 1st percentile of this town's sampled pool distances falls on identical pairs:
        # the scalar kernel's rounding noise made it ~4e-15 km, where identical hops of other
        # agents, also ~1e-15 apart, failed to support some test hops.
        ds, split = town(8)
        params, fixed = WEIGHTED
        with constants(fixed):
            radius, decisions, _ = _traod_outlying(ds, split, params)
            o_radius, o_outlying, _, _ = oracle.traod_outlying(ds, split, params)
        assert radius == 0.0 and 0.0 < o_radius < 1e-12
        flips = [(a, k) for a, (out, _) in decisions.items() for k, o in enumerate(o_outlying[a]) if o != out[k]]
        assert flips and all(o_outlying[a][k] for a, k in flips)  # only ever fewer outlying hops


def query(ds, split, params):
    """(distinct test x distinct pool segments, pairs the support query compared, its result)."""
    distinct, pairs = [], []
    unique, kernel = classical._unique_segments, classical.traod_segment_distance

    def counted_unique(segs):
        out = unique(segs)
        distinct.append(len(out[0]))
        return out

    def counted_kernel(s1, s2, weights):
        out = kernel(s1, s2, weights)
        pairs.append(out.size)
        return out

    with mock.patch.object(classical, "_unique_segments", counted_unique), \
            mock.patch.object(classical, "traod_segment_distance", counted_kernel):
        result = _traod_outlying(ds, split, params)
    auto = classical.AUTO_D_SAMPLES if params.D is None else 0
    return distinct[0] * distinct[1], sum(pairs) - auto, result


def assert_same_decisions(got, want):
    radius, decisions, omitted = got
    o_radius, o_decisions, o_omitted = want
    assert radius == o_radius and omitted == o_omitted and sorted(decisions) == sorted(o_decisions)
    for agent_id, (outlying, lengths) in decisions.items():
        assert outlying.tolist() == o_decisions[agent_id][0].tolist()
        assert lengths.tolist() == o_decisions[agent_id][1].tolist()


def score_bytes(ds, split, params, outlying=_traod_outlying):
    with mock.patch.object(classical, "_traod_outlying", outlying):
        return traod_score(ds, split, params).to_jsonl()


GRID = [(40.0 + 0.01 * i, 116.3 + 0.013 * j) for i in range(3) for j in range(3)]


@st.composite
def small_towns(draw):
    """2-6 agents, each repeating a route over a 3 x 3 grid, some a few metres off the grid; any split.

    Hops repeat within an agent (its test hops meet its own training hops) and across agents (exactly, or
    near one another).
    """
    trajectories, split = [], {}
    for k in range(draw(st.integers(2, 6))):
        route = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4))
        offset = draw(st.sampled_from([0.0, 1e-4, 2e-4]))
        stops = (route * 3)[:draw(st.integers(1, 8))]
        trajectories.append(from_stays(f"a{k}", [sp(h, lat + offset, lon) for h, (lat, lon) in enumerate(stops)]))
        split[f"a{k}"] = draw(st.integers(0, len(stops)))
    return Dataset(trajectories=trajectories), SplitSpec(split_index=split)


class TestEarlyExit:
    """The support query drops a test segment once it is settled; decisions match the full query."""

    @settings(max_examples=150, deadline=None)
    @given(small_towns(), st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 3.0)),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.tuples(*[st.floats(0.0, 3.0)] * 3),
           st.one_of(st.just(64), st.integers(1, 7)), st.one_of(st.just(4096), st.integers(1, 11)))
    def test_same_decisions_and_score_bytes_as_the_full_query(self, town_split, D, p_frac, weights, pool_block,
                                                             pair_block):
        ds, split = town_split
        params = TraodParams(D=D, p_frac=p_frac)
        with constants({"TRAOD_WEIGHTS": weights, "AUTO_D_SAMPLES": 50, "POOL_BLOCK": pool_block,
                        "PAIR_BLOCK": pair_block}):
            full, compared, got = query(ds, split, params)
            assert compared <= full  # each (test, pool) pair at most once
            assert_same_decisions(got, oracle.full_query_outlying(ds, split, params))
            assert score_bytes(ds, split, params) == score_bytes(ds, split, params, oracle.full_query_outlying)

    @pytest.mark.parametrize("pool_block", [1, 64])
    @pytest.mark.parametrize("shift", [(1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)])
    def test_an_own_near_owner_is_not_a_supporter(self, pool_block, shift):
        # a's test hop is also its training hop and c's test hop; b's training hop is a few metres off it.
        # Near owners {a, b}, so a has 1 supporter of 2 others and c has 2: neither hop is outlying at
        # p_frac = 0.7.  Counting a's own column as a supporter would drop the hop after a's block, before
        # b's, and leave a with 0 supporters whenever a's hop comes first in the visiting order.
        p, q, far = (40.0, 116.3), (40.01, 116.32), (40.2, 116.6)
        p2, q2 = (p[0] + shift[0], p[1] + shift[1]), (q[0] + shift[0], q[1] + shift[1])
        a = from_stays("a", [sp(0, *p), sp(1, *q), sp(2, *p), sp(3, *q)])
        b = from_stays("b", [sp(0, *p2), sp(1, *q2)])
        c = from_stays("c", [sp(0, *far), sp(1, far[0], far[1] + 0.01), sp(2, *p), sp(3, *q)])
        ds, split = Dataset(trajectories=[a, b, c]), SplitSpec(split_index={"a": 2, "b": 2, "c": 2})
        params = TraodParams(D=0.05, p_frac=0.7)
        with mock.patch.object(classical, "POOL_BLOCK", pool_block):
            got = _traod_outlying(ds, split, params)
            assert traod_score(ds, split, params).scores == {"a": 0.0, "c": 0.0}
        assert_same_decisions(got, oracle.full_query_outlying(ds, split, params))
        assert got[2] == {"b": "no test segments"}

    def test_at_p_frac_0_no_segment_leaves_the_query(self):
        ds, split = town(5)
        params = TraodParams(D=2.0, p_frac=0.0)
        full, compared, got = query(ds, split, params)
        assert compared == full
        assert_same_decisions(got, oracle.full_query_outlying(ds, split, params))

    def test_at_p_frac_1_nothing_is_outlying(self):
        ds, split = town(5)
        params = TraodParams(D=2.0, p_frac=1.0)
        full, compared, got = query(ds, split, params)
        assert compared < full
        assert_same_decisions(got, oracle.full_query_outlying(ds, split, params))
        assert set(traod_score(ds, split, params).scores.values()) == {0.0}

    def test_at_default_params_segments_leave_the_query_early(self):
        ds, split = town(5)
        full, compared, got = query(ds, split, TraodParams())
        assert compared < full
        assert_same_decisions(got, oracle.full_query_outlying(ds, split, TraodParams()))

    @pytest.mark.parametrize("params", [params for params, _ in PARAMS[1:3]], ids=["p_frac_0.5", "D_2_p_frac_0.7"])
    def test_an_agent_without_training_segments_has_no_own_column(self, params):
        ds, split = town(5)
        newcomer = ds.trajectories[0].agent_id
        split = SplitSpec(split_index={**split.split_index, newcomer: 0})
        got = _traod_outlying(ds, split, params)
        assert_same_decisions(got, oracle.full_query_outlying(ds, split, params))
        _, o_outlying, _, _ = oracle.traod_outlying(ds, split, params)
        assert got[1][newcomer][0].tolist() == o_outlying[newcomer]

    def test_the_radius_and_params_hash_do_not_move(self):
        # the visiting order has its own generator: the auto radius draws the same pairs as before it
        ds, split = town(5)
        assert _traod_outlying(ds, split, TraodParams())[0].hex() == "0x1.0ba4437211f53p+2"
        assert traod_score(ds, split, TraodParams()).params_hash == "9d65b0753c48"
        params, fixed = WEIGHTED
        with constants(fixed):  # the hash reads the constants when it is taken
            assert traod_score(ds, split, params).params_hash == "6da2a3a42c89"


@pytest.mark.parametrize(
    "bad",
    [{"D": -1.0}, {"D": float("nan")}, {"D": float("inf")}, {"p_frac": 1.5}, {"p_frac": -0.1}, {"seed": -1}],
    # the seed case keeps the id it had while bad5-bad9 checked the weights and auto-radius fields
    ids=["bad0", "bad1", "bad2", "bad3", "bad4", "bad10"],
)
def test_params_out_of_range_are_rejected(bad):
    # were: D = -1 scored every agent 1.0, p_frac = 1.5 every agent 0.0, seed -1 a ValueError
    with pytest.raises(ConfigError):
        TraodParams(**bad)


def test_params_at_their_bounds_are_accepted():
    # the fixed values at their bounds too: the support query still agrees with the full query
    ds, split = town(5)
    for params, fixed in [
        (TraodParams(D=0.0, p_frac=0.0), {}),
        (TraodParams(p_frac=0.0), {"AUTO_D_PERCENTILE": 0.0, "AUTO_D_SAMPLES": 1, "TRAOD_WEIGHTS": (0.0, 0.0, 0.0)}),
        (TraodParams(p_frac=1.0), {"AUTO_D_PERCENTILE": 100.0}),
    ]:
        with constants(fixed):
            assert_same_decisions(_traod_outlying(ds, split, params), oracle.full_query_outlying(ds, split, params))


def test_classical_detectors_demo_runs(tmp_path):
    # demos/04 runs TRAOD on 80 agents x 2 weeks; it took ~30 s with the scalar support loop
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    demo = os.path.join(root, "demos", "04_classical_detectors.py")
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "traod" in result.stdout
