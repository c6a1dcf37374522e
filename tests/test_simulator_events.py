"""The event-driven simulator against the scalar tick loop in ``simulator_oracle``, and config validation."""

import dataclasses
import json
import math

import pytest
import simulator_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from mobanom.core import ConfigError, write_dataset, write_labels
from mobanom import simulator
from mobanom.simulator import DEFAULT_START_TIME, SimConfig, _rng, build_map, simulate, spawn_agents

DIVISORS_OF_60 = [d for d in range(60, 0, -1) if 60 % d == 0]  # coarse first: a failure shrinks to the cheapest
BASE = SimConfig(n_agents=12, weeks=1, n_hunger=2, n_social=2, n_work=2, seed=11)


def artifacts(result, directory) -> dict[str, bytes]:
    """The files the simulate stage writes, and the event log (one JSON array, fields in order), as bytes."""
    write_dataset(result.dataset, str(directory / "dataset.jsonl"))
    write_labels(result.labels, str(directory / "labels.jsonl"))
    files = {name: (directory / name).read_bytes() for name in ("dataset.jsonl", "dataset.meta.json", "labels.jsonl")}
    log = [[agent] + [list(vars(e).values()) for e in result.events[agent]] for agent in sorted(result.events)]
    files["events"] = json.dumps(log).encode("utf-8")
    return files


def assert_like_the_oracle(config: SimConfig, directory) -> None:
    new, old = simulate(config), oracle.simulate(config)
    assert new.events == old.events
    assert (new.onset_tick, new.onset_time) == (old.onset_tick, old.onset_time)
    (directory / "new").mkdir(exist_ok=True)
    (directory / "old").mkdir(exist_ok=True)
    assert artifacts(new, directory / "new") == artifacts(old, directory / "old")


@st.composite
def configs(draw) -> SimConfig:
    tick_minutes = draw(st.sampled_from(DIVISORS_OF_60))
    # Off midnight and off the tick grid, so the 09:00 and 17:00 edges fall inside a tick.
    offset = draw(st.integers(1, 7 * 86400 - 1).filter(lambda s: s % (tick_minutes * 60) != 0))
    # Over [0, 1.5] in hundredths (0 and 1 exactly), or any float below 1.  At 1 and above a need
    # is below its threshold on every tick, an event each tick: the slow end, so drawn less often.
    threshold = st.one_of(st.integers(0, 150).map(lambda c: c / 100), st.floats(0.0, 1.0))
    config = SimConfig(
        n_agents=3,  # one outlier of each kind; before onset each is a normal agent
        weeks=1,
        n_hunger=1,
        n_social=1,
        n_work=1,
        seed=draw(st.integers(0, 2**16)),
        tick_minutes=tick_minutes,
        start_time=DEFAULT_START_TIME + offset,
        hunger_multiplier=draw(st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.0, 25.0))),
        hunger_threshold=draw(threshold),
        social_threshold=draw(threshold),
    )
    # The onset falls on a work-hours tick: mid-tick as a fraction, so int() lands on it.
    times = [config.start_time + k * config.tick_seconds for k in range(config.total_ticks)]
    onset = draw(st.sampled_from([k for k, t in enumerate(times) if oracle._in_work_hours(t)]))
    return dataclasses.replace(config, outlier_onset_fraction=(onset + 0.5) / config.total_ticks)


@settings(max_examples=200, deadline=None)
@given(config=configs())
def test_jumps_give_the_tick_loop_bytes(config, tmp_path_factory):
    assert oracle._in_work_hours(config.start_time + config.onset_tick * config.tick_seconds)
    assert_like_the_oracle(config, tmp_path_factory.mktemp("sim"))


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"tick_minutes": 5, "start_time": DEFAULT_START_TIME + 1234},
        {"tick_minutes": 60, "start_time": DEFAULT_START_TIME + 1234},
        {"outlier_onset_fraction": 1e-6},  # onset at tick 0
        {"outlier_onset_fraction": 0.37},
        {"outlier_onset_fraction": 0.61},
        {"hunger_threshold": 0.0, "social_threshold": 0.0},  # never below: the needs sit at 0.0
        {"hunger_threshold": 1.5, "social_threshold": 1.5},  # below on every tick
        {"hunger_threshold": 1.0, "social_threshold": 1.0},
        {"hunger_multiplier": 0.0},  # a hunger outlier stops draining at onset
        {"hunger_multiplier": 1e-12},
        {"hunger_rate_range": (0.0, 0.0)},
        {"social_rate_per_hour": 0.0},
    ],
    ids=lambda changes: ",".join(f"{k}={v}" for k, v in changes.items()) or "base",
)
def test_edge_configs_give_the_tick_loop_bytes(changes, tmp_path):
    assert_like_the_oracle(dataclasses.replace(BASE, **changes), tmp_path)


@pytest.mark.parametrize("n", [1, 2, 200, 1000])
def test_friendship_rows_draw_like_the_pair_loop(n, monkeypatch):
    config = SimConfig(n_agents=n, n_hunger=0, n_social=0, n_work=0, seed=n)
    smap = build_map(config)
    streams = {}  # each stream spawn_agents draws from, by its key
    monkeypatch.setattr(simulator, "_rng", lambda *key: streams.setdefault(key, _rng(*key)))
    old_rng = _rng(n, 2)
    new, old = spawn_agents(config, smap), oracle.spawn_agents(config, smap, old_rng)
    assert [p.friends for p in new] == [p.friends for p in old]
    assert new == old
    assert streams[n, 2].random() == old_rng.random()


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"tick_minutes": 0}, "tick_minutes"),
        ({"tick_minutes": -15}, "tick_minutes"),
        ({"tick_minutes": 7}, "tick_minutes"),
        ({"tick_minutes": 7.5}, "tick_minutes"),  # 60 % 7.5 == 0, but there is no half tick
        ({"n_hunger": -2}, "n_hunger"),
        ({"n_social": -1}, "n_social"),
        ({"hunger_rate_range": (0.12, 0.06)}, "hunger_rate_range"),
        ({"hunger_rate_range": (-0.1, 0.06)}, "hunger_rate_range"),
        ({"pref_weight_range": (10.0, 0.1)}, "pref_weight_range"),
        ({"pref_weight_range": (0.0, 0.1)}, "pref_weight_range"),
        ({"bbox": (40.2, 40.0, 116.2, 116.5)}, "bbox"),
        ({"bbox": (40.0, 40.2, 116.5, 116.2)}, "bbox"),
        ({"bbox": (40.0, math.inf, 116.2, 116.5)}, "bbox"),
        ({"bbox": (89.5, 95.0, 116.2, 116.5)}, "bbox"),  # places beyond the pole
        ({"bbox": (40.0, 40.2, 179.5, 181.0)}, "bbox"),
        ({"hunger_threshold": math.nan}, "hunger_threshold"),
        ({"social_threshold": -math.inf}, "social_threshold"),
        ({"hunger_multiplier": math.inf}, "hunger_multiplier"),
        ({"hunger_multiplier": -1.0}, "hunger_multiplier"),
        ({"social_rate_per_hour": math.nan}, "social_rate_per_hour"),
        ({"hunger_rate_range": (0.06, math.nan)}, "hunger_rate_range"),
        ({"mean_friend_degree": math.nan}, "mean_friend_degree"),
    ],
)
def test_bad_values_are_config_errors(changes, named):
    with pytest.raises(ConfigError, match=named):
        dataclasses.replace(BASE, **changes)


def test_the_bounds_themselves_are_accepted():
    dataclasses.replace(
        BASE, tick_minutes=60, n_hunger=0, hunger_rate_range=(0.0, 0.0), pref_weight_range=(1.0, 1.0),
        bbox=(-90.0, 90.0, -180.0, 180.0), hunger_threshold=-1.0, hunger_multiplier=0.0, social_rate_per_hour=0.0,
    )
