import math

import numpy as np
import pytest

from conftest import from_stays
from mobanom.core import Dataset, GeoPoint, StayPoint
from mobanom.detectors import (
    SplitSpec,
    TraodParams,
    build_windows,
    monav_tt_score,
    ompad_score,
    segment_distance_components,
    traod_score,
    traod_segment_distance,
)

DAY = 86400


def sp(arrive, place_type="Pub", lat=10.0, lon=20.0):
    return StayPoint(arrive=arrive, depart=arrive + 600, place_id=place_type.lower(),
                     place_type=place_type, location=GeoPoint(lat, lon))


class TestOmpad:
    def build(self, train_types, test_types):
        arrivals_train = [i * 3600 for i in range(len(train_types))]
        arrivals_test = [7 * DAY + i * 3600 for i in range(len(test_types))]
        points = [sp(a, t) for a, t in zip(arrivals_train, train_types)]
        points += [sp(a, t) for a, t in zip(arrivals_test, test_types)]
        ds = Dataset(trajectories=[from_stays("a", points)])
        split = SplitSpec(split_index={"a": len(train_types)})
        return build_windows(ds, split, window_days=7.0, L=16)

    def test_hand_histogram(self):
        feat = self.build(["Pub", "Pub", "Apartment", "Apartment"], ["Pub"] * 4)
        table = ompad_score(feat)
        assert table.scores["a"] == pytest.approx(0.5, abs=1e-12)

    def test_identical_histograms(self):
        feat = self.build(["Pub", "Apartment"], ["Apartment", "Pub"])
        assert ompad_score(feat).scores["a"] == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support(self):
        feat = self.build(["Pub", "Pub"], ["Restaurant", "Restaurant"])
        assert ompad_score(feat).scores["a"] == pytest.approx(1.0, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(0)
        types = ["Pub", "Apartment", "Restaurant", "Workplace"]
        feat = self.build(
            [str(rng.choice(types)) for _ in range(12)],
            [str(rng.choice(types)) for _ in range(12)],
        )
        s = ompad_score(feat).scores["a"]
        assert 0.0 <= s <= 1.0

    def test_translation_invariance(self):
        # histogram detector only sees types, not coordinates
        def build_at(lon):
            points = [sp(i * 3600, "Pub", lon=lon) for i in range(3)]
            points += [sp(7 * DAY + i * 3600, "Apartment", lon=lon) for i in range(3)]
            ds = Dataset(trajectories=[from_stays("a", points)])
            return build_windows(ds, SplitSpec(split_index={"a": 3}), window_days=7.0, L=8)

        assert ompad_score(build_at(20.0)).scores == ompad_score(build_at(25.0)).scores

    def test_ineligible_reported(self):
        feat = self.build(["Pub"], [])
        table = ompad_score(feat)
        assert "a" not in table.scores
        assert "a" in table.omitted


def distance_traj(agent_id, week_kms, start=0):
    """One window per week; each week's points walk east to cover the given km."""
    points = []
    for week, km in enumerate(week_kms):
        t0 = start + week * 7 * DAY
        # two points per week spaced `km` apart along the equator
        lon0 = 0.0
        lon1 = math.degrees(km / 6371.0)
        points.append(StayPoint(t0, t0 + 600, "x", "Pub", GeoPoint(0.0, lon0)))
        points.append(StayPoint(t0 + 3600, t0 + 4200, "y", "Pub", GeoPoint(0.0, lon1)))
    return from_stays(agent_id, points)


class TestMonav:
    def test_z_score_oracle(self):
        t = distance_traj("a", [8.0, 10.0, 12.0, 16.0])
        ds = Dataset(trajectories=[t])
        split = SplitSpec(split_index={"a": 6})  # first three weeks are training
        table = monav_tt_score(ds, split, window_days=7.0)
        assert table.scores["a"] == pytest.approx(3.0, abs=1e-6)

    def test_test_at_mean_scores_zero(self):
        t = distance_traj("a", [8.0, 10.0, 12.0, 10.0])
        ds = Dataset(trajectories=[t])
        table = monav_tt_score(ds, SplitSpec(split_index={"a": 6}), window_days=7.0)
        assert table.scores["a"] == pytest.approx(0.0, abs=1e-6)

    def test_sigma_floor(self):
        t = distance_traj("a", [10.0, 10.0, 10.0, 10.0])
        ds = Dataset(trajectories=[t])
        table = monav_tt_score(ds, SplitSpec(split_index={"a": 6}), window_days=7.0)
        assert table.scores["a"] == pytest.approx(0.0, abs=1e-3)

    def test_needs_two_train_windows(self):
        t = distance_traj("a", [10.0, 12.0])
        ds = Dataset(trajectories=[t])
        table = monav_tt_score(ds, SplitSpec(split_index={"a": 2}), window_days=7.0)
        assert "a" in table.omitted

    def test_place_type_relabeling_invariance(self):
        t1 = distance_traj("a", [8.0, 10.0, 12.0, 16.0])
        points2 = [
            StayPoint(p.arrive, p.depart, p.place_id, "Recreation", p.location) for p in t1.points
        ]
        ds1 = Dataset(trajectories=[t1])
        ds2 = Dataset(trajectories=[from_stays("a", points2)])
        split = SplitSpec(split_index={"a": 6})
        assert monav_tt_score(ds1, split).scores == monav_tt_score(ds2, split).scores


def seg(ax, ay, bx, by):
    return (np.array([ax, ay], dtype=float), np.array([bx, by], dtype=float))


class TestSegmentDistance:
    def test_identical_segments(self):
        s = seg(0, 0, 5, 0)
        assert traod_segment_distance(s, s) == 0.0

    def test_parallel_offset(self):
        s1 = seg(0, 0, 5, 0)
        s2 = seg(0, 2, 5, 2)
        perp, par, ang = segment_distance_components(s1, s2)
        assert perp == pytest.approx(2.0, abs=1e-12)
        assert par == 0.0
        assert ang == pytest.approx(0.0, abs=1e-12)
        assert traod_segment_distance(s1, s2) == pytest.approx(2.0, abs=1e-12)

    def test_perpendicular_shared_endpoint(self):
        s1 = seg(0, 0, 1, 0)
        s2 = seg(0, 0, 0, 1)
        perp, par, ang = segment_distance_components(s1, s2)
        assert ang == pytest.approx(1.0, abs=1e-12)  # len(shorter) * sin(90 deg)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s1 = seg(*rng.uniform(-5, 5, size=4))
            s2 = seg(*rng.uniform(-5, 5, size=4))
            assert traod_segment_distance(s1, s2) == pytest.approx(
                traod_segment_distance(s2, s1), abs=1e-9
            )

    def test_point_segment(self):
        s1 = seg(0, 0, 4, 0)
        s2 = seg(2, 3, 2, 3)  # degenerate
        perp, par, ang = segment_distance_components(s1, s2)
        assert perp == pytest.approx(3.0, abs=1e-12)
        assert par == 0.0
        assert ang == 0.0

    def test_two_points(self):
        s1 = seg(0, 0, 0, 0)
        s2 = seg(3, 4, 3, 4)
        assert traod_segment_distance(s1, s2) == pytest.approx(5.0, abs=1e-12)

    def test_antiparallel_uses_full_length(self):
        s1 = seg(0, 0, 5, 0)
        s2 = seg(3, 1, 1, 1)  # opposite direction, length 2
        _, _, ang = segment_distance_components(s1, s2)
        assert ang == pytest.approx(2.0, abs=1e-12)


def route_traj(agent_id, lat_offset, n_weeks=2, switch_to=None):
    """Walks the same 5-point eastward route every week; optionally a distant route in week 2."""
    points = []
    for week in range(n_weeks):
        lat = lat_offset if (switch_to is None or week == 0) else switch_to
        for i in range(5):
            t0 = week * 7 * DAY + i * 3600
            points.append(
                StayPoint(t0, t0 + 600, f"w{week}p{i}", "Pub", GeoPoint(lat, 20.0 + i * 0.01))
            )
    return from_stays(agent_id, points)


class TestTraodScore:
    def test_two_cluster_fixture(self):
        trajectories = [route_traj(f"a{i}", 10.0 + i * 1e-4) for i in range(9)]
        trajectories.append(route_traj("switcher", 10.0, switch_to=12.0))
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        table = traod_score(ds, split, TraodParams(D=1.0))
        assert table.scores["switcher"] == pytest.approx(1.0)
        for i in range(9):
            assert table.scores[f"a{i}"] == pytest.approx(0.0)

    def test_far_from_everything(self):
        trajectories = [route_traj(f"a{i}", 10.0 + i * 1e-4) for i in range(5)]
        trajectories.append(route_traj("louner", 10.0, switch_to=14.0))
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        # neighborhood radius far smaller than the 4-degree jump
        table = traod_score(ds, split, TraodParams(D=0.5))
        assert table.scores["louner"] == 1.0

    def test_duplicated_routes_score_zero(self):
        trajectories = [route_traj(f"a{i}", 10.0 + i * 1e-4) for i in range(6)]
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        table = traod_score(ds, split, TraodParams(D=1.0))
        assert all(s == 0.0 for s in table.scores.values())

    def test_scores_in_unit_interval_and_deterministic(self):
        trajectories = [route_traj(f"a{i}", 10.0 + i * 0.3) for i in range(6)]
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        t1 = traod_score(ds, split, TraodParams())
        t2 = traod_score(ds, split, TraodParams())
        assert t1.scores == t2.scores
        assert all(0.0 <= s <= 1.0 for s in t1.scores.values())

    def test_empty_test_side_omitted(self):
        trajectories = [route_traj(f"a{i}", 10.0) for i in range(3)]
        ds = Dataset(trajectories=trajectories)
        split = {t.agent_id: 5 for t in ds.trajectories}
        split["a0"] = 10  # everything is training
        table = traod_score(ds, SplitSpec(split_index=split), TraodParams(D=1.0))
        assert "a0" in table.omitted


def rank_of(table, agent_id):
    ranked = sorted(table.scores, key=lambda a: (-table.scores[a], a))
    return ranked.index(agent_id) + 1


class TestPlantedRanking:
    """Each classical detector must put a planted 1-in-20 anomaly in its top 2."""

    def test_ompad_planted_type_shift(self):
        rng = np.random.default_rng(8)
        trajectories = []
        for i in range(20):
            agent_id = f"a{i:02d}"
            points = []
            for week in range(4):
                mix = ["Pub", "Apartment", "Workplace", "Apartment"]
                if agent_id == "a07" and week >= 3:
                    mix = ["Restaurant"] * 4
                for k, place_type in enumerate(mix):
                    t0 = week * 7 * DAY + k * 7200 + int(rng.integers(0, 600))
                    points.append(sp(t0, place_type))
            trajectories.append(from_stays(agent_id, points))
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 12 for t in ds.trajectories})
        feat = build_windows(ds, split, window_days=7.0, L=8)
        assert rank_of(ompad_score(feat), "a07") <= 2

    def test_monav_planted_distance_shift(self):
        trajectories = []
        for i in range(20):
            agent_id = f"a{i:02d}"
            kms = [10.0, 11.0, 9.0, 10.5]
            if agent_id == "a03":
                kms[3] = 40.0  # travel explodes in the test week
            trajectories.append(distance_traj(agent_id, kms))
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 6 for t in ds.trajectories})
        assert rank_of(monav_tt_score(ds, split, window_days=7.0), "a03") <= 2

    def test_traod_planted_route_switch(self):
        trajectories = [route_traj(f"a{i:02d}", 10.0 + i * 1e-4) for i in range(19)]
        trajectories.append(route_traj("a19", 10.0, switch_to=12.0))
        ds = Dataset(trajectories=trajectories)
        split = SplitSpec(split_index={t.agent_id: 5 for t in ds.trajectories})
        assert rank_of(traod_score(ds, split, TraodParams(D=1.0)), "a19") <= 2
