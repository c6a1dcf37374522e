"""The vectorized TRAOD kernel and support query against the scalar oracle in ``traod_oracle``."""

import os
import subprocess
import sys

import numpy as np
import pytest
import traod_oracle as oracle
from hypothesis import assume, given
from hypothesis import strategies as st

from mobanom.core import ConfigError, Dataset, GeoPoint, StayPoint, Trajectory
from mobanom.detectors import SplitSpec, TraodParams, segment_distance_components, traod_score, traod_segment_distance
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


PARAMS = [
    TraodParams(),
    TraodParams(p_frac=0.5),
    TraodParams(D=2.0, p_frac=0.7),
    TraodParams(weights=(1.0, 0.5, 2.0), auto_d_percentile=1.0),
]
WEIGHTED = PARAMS[-1]


class TestAgainstScalarSupport:
    @pytest.mark.parametrize("seed", [5, 9])
    def test_same_decisions_and_score_bytes(self, seed):
        ds, split = town(seed)
        for params in PARAMS:
            radius, decisions, omitted = _traod_outlying(ds, split, params)
            o_radius, o_outlying, o_lengths, o_omitted = oracle.traod_outlying(ds, split, params)
            assert radius == pytest.approx(o_radius, abs=1e-6)  # the acos error of the angular term
            assert omitted == o_omitted
            assert sorted(decisions) == sorted(o_outlying)
            for agent_id, (outlying, lengths) in decisions.items():
                assert outlying.tolist() == o_outlying[agent_id]
                assert lengths.tolist() == o_lengths[agent_id]
            assert traod_score(ds, split, params).scores == oracle.length_weighted_scores(o_outlying, o_lengths)

    def test_no_test_segments_anywhere(self):
        ds, _ = town(5)
        split = SplitSpec(split_index={t.agent_id: len(t.points) for t in ds.trajectories})
        table = traod_score(ds, split, TraodParams())
        assert table.scores == {} and table.omitted == oracle.traod_outlying(ds, split, TraodParams())[3]

    def test_a_pool_segment_at_exactly_d_supports(self):
        # x's test hop and y's training hop are D apart; with p_frac = 0.5 one supporter is enough
        x = Trajectory("x", [sp(0, 10.0, 20.0), sp(1, 10.0, 20.01), sp(2, 10.0, 20.02), sp(3, 10.003, 20.03)])
        y = Trajectory("y", [sp(0, 10.001, 20.0), sp(1, 10.0015, 20.012), sp(2, 11.0, 20.0), sp(3, 11.0, 20.01)])
        ds = Dataset(trajectories=[x, y])
        split = SplitSpec(split_index={"x": 2, "y": 2})
        lat0 = float(np.mean([p.location.lat for t in (x, y) for p in t.points]))
        lon0 = float(np.mean([p.location.lon for t in (x, y) for p in t.points]))
        d = float(traod_segment_distance(_trajectory_segments(x, 2, 4, lat0, lon0)[0],
                                         _trajectory_segments(y, 0, 2, lat0, lon0)[0]))
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
    return Trajectory(agent_id, points)


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
        radius, decisions, _ = _traod_outlying(ds, split, WEIGHTED)
        o_radius, o_outlying, _, _ = oracle.traod_outlying(ds, split, WEIGHTED)
        assert radius == 0.0 and 0.0 < o_radius < 1e-12
        flips = [(a, k) for a, (out, _) in decisions.items() for k, o in enumerate(o_outlying[a]) if o != out[k]]
        assert flips and all(o_outlying[a][k] for a, k in flips)  # only ever fewer outlying hops


@pytest.mark.parametrize(
    "bad",
    [{"D": -1.0}, {"D": float("nan")}, {"D": float("inf")}, {"p_frac": 1.5}, {"p_frac": -0.1},
     {"auto_d_percentile": 101.0}, {"auto_d_percentile": -1.0}, {"auto_d_samples": 0},
     {"weights": (1.0, -0.5, 1.0)}, {"weights": (1.0, 1.0, float("nan"))}, {"seed": -1}],
)
def test_params_out_of_range_are_rejected(bad):
    # were: D = -1 scored every agent 1.0, p_frac = 1.5 every agent 0.0, 0 samples an IndexError, seed -1 a ValueError
    with pytest.raises(ConfigError):
        TraodParams(**bad)


def test_params_at_their_bounds_are_accepted():
    TraodParams(D=0.0, p_frac=0.0, auto_d_percentile=0.0, auto_d_samples=1, weights=(0.0, 0.0, 0.0))
    TraodParams(p_frac=1.0, auto_d_percentile=100.0)


def test_classical_detectors_demo_runs(tmp_path):
    # demos/04 runs TRAOD on 80 agents x 2 weeks; it took ~30 s with the scalar support loop
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]))
    demo = os.path.join(root, "demos", "04_classical_detectors.py")
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "traod" in result.stdout
