import numpy as np
import pytest

from conftest import from_stays
from mobanom.core import (
    ConfigError,
    Dataset,
    GeoPoint,
    InjectionError,
    InvalidInputError,
    StayPoint,
)
from mobanom.inject import InjectConfig, _swap_pair, inject_imposter


def make_traj(agent_id, arrivals, place="Apartment", lat=10.0, lon=20.0, dwell=50):
    points = [
        StayPoint(arrive=a, depart=a + dwell, place_id=f"{agent_id}_{i}", place_type=place,
                  location=GeoPoint(lat, lon + 0.001 * i))
        for i, a in enumerate(arrivals)
    ]
    return from_stays(agent_id, points)


def interleaved_dataset(n_agents=6, n_points=10, spacing=1000, seed=0):
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(n_agents):
        offset = int(rng.integers(0, 200))
        arrivals = [offset + spacing * j for j in range(n_points)]
        trajectories.append(make_traj(f"a{i}", arrivals, lat=10.0 + i * 0.01))
    return Dataset(trajectories=trajectories)


class TestContract:
    def test_eighty_percent_rule(self):
        # A and B over the same span; switch at depart of A's point floor(0.8*10)-1 = 7
        a = make_traj("A", [1000 * i for i in range(10)])
        b = make_traj("B", [1000 * i + 500 for i in range(10)], lat=11.0)
        ds = Dataset(trajectories=[a, b])
        out, labels = inject_imposter(ds, InjectConfig(n_outlier_pairs=1, seed=0))
        switch_time = a.points[7].depart  # 7050
        new_a = out.by_agent()["A"]
        assert new_a.points[:8] == a.points[:8]
        assert all(p.arrive > switch_time for p in new_a.points[8:])
        assert all(p.place_id.startswith("B") for p in new_a.points[8:])
        assert labels.entries["A"].deviate_index == 8
        assert labels.entries["A"].outlier_type == "imposter"
        assert labels.entries["B"].is_outlier

    def test_degenerate_pair_resampled(self):
        # B entirely before the switch point: swapping with B moves nothing,
        # so the valid partner C must be chosen instead.
        a = make_traj("A", [1000 * i for i in range(10)])
        b = make_traj("B", [10 * i for i in range(10)], lat=11.0, dwell=5)
        c = make_traj("C", [1000 * i + 500 for i in range(10)], lat=12.0)
        ds = Dataset(trajectories=[a, b, c])
        out, labels = inject_imposter(ds, InjectConfig(n_outlier_pairs=1, seed=1))
        assert not labels.entries["B"].is_outlier
        assert labels.entries["A"].is_outlier and labels.entries["C"].is_outlier

    def test_impossible_swap_errors(self):
        a = make_traj("A", [1000 * i for i in range(10)])
        # anchored at A, B has no tail past the switch; anchored at B, A's first stay would overlap B's tail
        b = make_traj("B", [5 * i for i in range(10)], lat=11.0, dwell=1)
        ds = Dataset(trajectories=[a, b])
        with pytest.raises(InjectionError):
            inject_imposter(ds, InjectConfig(n_outlier_pairs=1, seed=0))

    def test_determinism(self):
        ds = interleaved_dataset(seed=3)
        cfg = InjectConfig(n_outlier_pairs=2, seed=42)
        out1, labels1 = inject_imposter(ds, cfg)
        out2, labels2 = inject_imposter(ds, cfg)
        assert out1.trajectories == out2.trajectories
        assert labels1 == labels2

    def test_config_validation(self):
        ds = interleaved_dataset(n_agents=4)
        with pytest.raises(ConfigError):
            inject_imposter(ds, InjectConfig(n_outlier_pairs=3))
        with pytest.raises(ConfigError):
            inject_imposter(ds, InjectConfig(n_outlier_pairs=1, switch_fraction=1.5))


def swap_by_filters(a, b, switch_time):
    """The swap as four filters over the stays by arrival: the oracle of ``_swap_pair``'s cut."""
    a_head = [p for p in a.points if p.arrive <= switch_time]
    a_tail = [p for p in a.points if p.arrive > switch_time]
    b_head = [p for p in b.points if p.arrive <= switch_time]
    b_tail = [p for p in b.points if p.arrive > switch_time]
    if not a_tail or not b_tail:
        return None
    try:
        return from_stays(a.agent_id, a_head + b_tail), from_stays(b.agent_id, b_head + a_tail), len(a_head), len(b_head)
    except InvalidInputError:
        return None


class TestCut:
    def zero_gap_pair(self):
        """Either one's switch time is 7050, the depart of A's stay 7 and of B's stay 6; B's stay 7 arrives then."""
        a = make_traj("A", [1000 * i for i in range(10)])
        b_stays = [(1000 * i + 500, 1000 * i + 550) for i in range(6)] + [(6500, 7050), (7050, 7060), (8500, 8550)]
        b = from_stays("B", [StayPoint(s, e, f"B_{i}", "Pub", GeoPoint(11.0, 20.0)) for i, (s, e) in enumerate(b_stays)])
        return a, b

    def test_a_stay_arriving_at_the_switch_time_stays_in_the_head(self):
        a, b = self.zero_gap_pair()
        new_a, new_b, dev_a, dev_b = _swap_pair(a, b, 7050)
        assert (dev_a, dev_b) == (8, 8)
        assert new_a.points == a.points[:8] + b.points[8:]
        assert new_b.points == b.points[:8] + a.points[8:]
        out, labels = inject_imposter(Dataset(trajectories=[a, b]), InjectConfig(n_outlier_pairs=1, seed=0))
        assert out.by_agent() == {"A": new_a, "B": new_b}
        assert labels.entries["A"].deviate_index == labels.entries["B"].deviate_index == 8

    def test_the_cut_matches_the_four_filters(self):
        a, b = self.zero_gap_pair()
        times = {p.arrive + d for t in (a, b) for p in t.points for d in (-1, 0, 1)}
        times |= {p.depart + d for t in (a, b) for p in t.points for d in (-1, 0, 1)}
        for x, y in ((a, b), (b, a)):
            for switch_time in sorted(times):
                assert _swap_pair(x, y, switch_time) == swap_by_filters(x, y, switch_time), switch_time


def point_multiset(traj):
    return sorted(
        (p.arrive, p.depart, p.place_id, p.place_type, p.location.lat, p.location.lon)
        for p in traj.points
    )


class TestInvariants:
    def test_random_datasets(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            n_agents = int(rng.integers(4, 10))
            n_points = int(rng.integers(6, 24))
            ds = interleaved_dataset(n_agents=n_agents, n_points=n_points, seed=trial)
            pairs = int(rng.integers(1, n_agents // 2 + 1))
            cfg = InjectConfig(n_outlier_pairs=pairs, seed=trial)
            out, labels = inject_imposter(ds, cfg)

            assert labels.n_outliers() == 2 * pairs
            for t in out.trajectories:
                arrivals = [p.arrive for p in t.points]
                assert arrivals == sorted(arrivals)

            # multiset preservation per swapped pair and untouched normals
            before = {t.agent_id: t for t in ds.trajectories}
            outliers = set(labels.outlier_ids())
            combined_before = []
            combined_after = []
            for t in out.trajectories:
                if t.agent_id in outliers:
                    combined_before.extend(point_multiset(before[t.agent_id]))
                    combined_after.extend(point_multiset(t))
                else:
                    assert t.points == before[t.agent_id].points
            assert sorted(combined_before) == sorted(combined_after)

    def test_deviate_index_is_first_swapped_point(self):
        ds = interleaved_dataset(n_agents=6, n_points=12, seed=5)
        out, labels = inject_imposter(ds, InjectConfig(n_outlier_pairs=2, seed=5))
        before = {t.agent_id: t for t in ds.trajectories}
        for agent_id in labels.outlier_ids():
            t = out.by_agent()[agent_id]
            k = labels.entries[agent_id].deviate_index
            own = {p.place_id for p in before[agent_id].points}
            assert all(p.place_id in own for p in t.points[:k])
            assert t.points[k].place_id not in own
