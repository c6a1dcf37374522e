import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mobanom.core import ConfigError, write_dataset, write_labels
from mobanom.simulator import SimConfig, build_map, simulate, spawn_agents

SMALL = SimConfig(n_agents=20, weeks=1, n_hunger=2, n_social=2, n_work=2, seed=5)


class TestBuildMap:
    def test_counts(self):
        cfg = dataclasses.replace(
            SMALL, n_apartments=5, n_workplaces=2, n_restaurants=3, n_pubs=2, n_recreation=3
        )
        smap = build_map(cfg)
        assert len(smap.by_type("Apartment")) == 5
        assert len(smap.by_type("Workplace")) == 2
        assert len(smap.by_type("Restaurant")) == 3
        assert len(smap.by_type("Pub")) == 2
        assert len(smap.by_type("Recreation")) == 3

    def test_determinism(self):
        assert build_map(SMALL) == build_map(SMALL)

    def test_zero_required_type_rejected(self):
        with pytest.raises(ConfigError):
            build_map(dataclasses.replace(SMALL, n_workplaces=0))

    def test_places_inside_bbox(self):
        smap = build_map(SMALL)
        lat_min, lat_max, lon_min, lon_max = SMALL.bbox
        for p in smap.places:
            assert lat_min <= p.location.lat <= lat_max
            assert lon_min <= p.location.lon <= lon_max


class TestSpawnAgents:
    def test_outlier_counts_and_disjoint_types(self):
        cfg = dataclasses.replace(SMALL, n_agents=10, n_hunger=1, n_social=1, n_work=1)
        profiles = spawn_agents(cfg, build_map(cfg))
        outliers = [p for p in profiles if p.outlier_type != "none"]
        assert len(outliers) == 3
        types = [p.outlier_type for p in outliers]
        assert sorted(types) == ["hunger", "social", "work"]

    def test_too_many_outliers(self):
        with pytest.raises(ConfigError):
            cfg = dataclasses.replace(SMALL, n_agents=10, n_hunger=11, n_social=0, n_work=0)
            spawn_agents(cfg, build_map(dataclasses.replace(cfg, n_hunger=0)))

    def test_determinism(self):
        smap = build_map(SMALL)
        p1 = spawn_agents(SMALL, smap)
        p2 = spawn_agents(SMALL, smap)
        assert p1 == p2
        assert [p.outlier_type for p in p1] == [p.outlier_type for p in p2]

    def test_preferences_positive_and_home_differs_from_work(self):
        profiles = spawn_agents(SMALL, build_map(SMALL))
        for p in profiles:
            assert all(w > 0 for w in p.site_preferences.values())
            assert p.home != p.workplace  # different type namespaces


class TestSimulate:
    def test_dataset_shape_and_labels(self):
        res = simulate(SMALL)
        assert len(res.dataset.trajectories) == 20
        assert res.labels.n_outliers() == 6
        for agent_id, e in res.labels.entries.items():
            t = res.dataset.by_agent()[agent_id]
            if e.is_outlier:
                assert e.deviate_index is not None
                assert 0 <= e.deviate_index < len(t.points)
            else:
                assert e.deviate_index is None

    def test_all_trajectories_valid(self):
        res = simulate(SMALL)
        for t in res.dataset.trajectories:
            times = [x for sp in t.points for x in (sp.arrive, sp.depart)]
            assert times == sorted(times) and len({sp.arrive for sp in t.points}) == len(t)

    def test_no_overlapping_stays(self):
        res = simulate(SMALL)
        for t in res.dataset.trajectories:
            for a, b in zip(t.points, t.points[1:]):
                assert b.arrive > a.depart

    def test_byte_identical_outputs(self, tmp_path):
        for run in ("one", "two"):
            res = simulate(SMALL)
            write_dataset(res.dataset, str(tmp_path / f"{run}.jsonl"))
            write_labels(res.labels, str(tmp_path / f"{run}_labels.jsonl"))
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "one_labels.jsonl").read_bytes() == (tmp_path / "two_labels.jsonl").read_bytes()

    def test_work_outlier_skips_workplace_after_onset(self):
        res = simulate(SMALL)
        for agent_id, e in res.labels.entries.items():
            if e.outlier_type != "work":
                continue
            t = res.dataset.by_agent()[agent_id]
            post = [p for p in t.points if p.arrive >= res.onset_time and p.place_type == "Workplace"]
            assert post == []

    def test_normal_agents_do_visit_workplace(self):
        res = simulate(SMALL)
        for agent_id, e in res.labels.entries.items():
            if e.is_outlier:
                continue
            t = res.dataset.by_agent()[agent_id]
            assert any(p.place_type == "Workplace" for p in t.points)

    def test_hunger_outlier_eats_more_than_twin(self):
        cfg = dataclasses.replace(SMALL, n_agents=12, n_hunger=3, n_social=0, n_work=0)
        twin_cfg = dataclasses.replace(cfg, n_hunger=0)
        res = simulate(cfg)
        twin = simulate(twin_cfg)
        for agent_id, e in res.labels.entries.items():
            if e.outlier_type != "hunger":
                continue
            eats = lambda r: sum(
                1 for ev in r.events[agent_id]
                if ev.kind.startswith("eat") and ev.tick >= res.onset_tick
            )
            assert eats(res) > eats(twin)

    def test_pre_onset_twin_event_log_identical(self):
        cfg = dataclasses.replace(SMALL, n_agents=12, n_hunger=2, n_social=1, n_work=1)
        twin_cfg = dataclasses.replace(cfg, n_hunger=0, n_social=0, n_work=0)
        res = simulate(cfg)
        twin = simulate(twin_cfg)
        for agent_id in res.events:
            pre = [e for e in res.events[agent_id] if e.tick < res.onset_tick]
            pre_twin = [e for e in twin.events[agent_id] if e.tick < twin.onset_tick]
            assert pre == pre_twin

    def test_mean_stay_points_in_band(self):
        # defaults except the population size; the band is per agent
        cfg = SimConfig(n_agents=50, weeks=4, n_hunger=2, n_social=2, n_work=2, seed=9)
        res = simulate(cfg)
        mean_points = np.mean([len(t.points) for t in res.dataset.trajectories])
        assert cfg.weeks * 20 <= mean_points <= cfg.weeks * 120

    def test_onset_metadata(self):
        res = simulate(SMALL)
        assert res.dataset.meta["onset_time"] == res.onset_time
        assert res.onset_tick == SMALL.onset_tick

    def test_tick_minutes_must_divide_hour(self):
        with pytest.raises(ConfigError):
            simulate(dataclasses.replace(SMALL, tick_minutes=7))

    def test_default_scale_population(self):
        # full defaults: 1000 agents over 4 weeks with 90 outliers
        res = simulate(SimConfig())
        assert len(res.dataset.trajectories) == 1000
        assert res.labels.n_outliers() == 90
        mean_points = np.mean([len(t.points) for t in res.dataset.trajectories])
        assert 4 * 20 <= mean_points <= 4 * 120


class TestPinnedOutput:
    """sha256 of the files and the event log, recorded with the two-pass
    simulator (a per-tick place list merged into stays afterwards)."""

    CASES = {
        "three_kinds": (
            SimConfig(n_agents=30, weeks=2, n_hunger=3, n_social=3, n_work=3, seed=11),
            "fbb4b8332dfca169a47555b4a3db11f610f20d918cad5224be51e3316909ca13",
            "522fc7b3c89564c9ca79f9dc1f75d395ae14173126ea62a335e79bb5f93afc32",
            "e1f1a441a30bc695139b12b36c7ad863d2381966d0abca7dffa7d70b957fd905",
        ),
        "hourly_ticks": (
            SimConfig(n_agents=20, weeks=2, n_hunger=2, n_social=2, n_work=2, tick_minutes=60, seed=4),
            "3ff64fdf9c6662c5baeeb9e152061a247e5ab7bd0a4b3833376bb180aec51964",
            "698ad8870efc6f0f09107e805286dd6938963147876002dd573d54c1c96b339b",
            "5b72e41e27c36532fc6241b15190b9a778863583187de7057ab5988029848f4b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_hashes_match_two_pass_reference(self, name, tmp_path):
        cfg, dataset_sha, labels_sha, events_sha = self.CASES[name]
        res = simulate(cfg)
        write_dataset(res.dataset, str(tmp_path / "dataset.jsonl"))
        write_labels(res.labels, str(tmp_path / "labels.jsonl"))
        events = "".join(
            json.dumps(dataclasses.asdict(e), sort_keys=True) + "\n"
            for agent_id in sorted(res.events)
            for e in res.events[agent_id]
        )
        assert hashlib.sha256((tmp_path / "dataset.jsonl").read_bytes()).hexdigest() == dataset_sha
        assert hashlib.sha256((tmp_path / "labels.jsonl").read_bytes()).hexdigest() == labels_sha
        assert hashlib.sha256(events.encode("utf-8")).hexdigest() == events_sha
