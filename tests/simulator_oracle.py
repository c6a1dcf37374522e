"""Scalar simulator: one pass of the need and place logic per agent and tick.

This is the straightforward implementation that ``mobanom.simulator``
replaced with one that jumps from one decision tick to the next, and the
scalar friendship-graph draw that it replaced with one draw per row. It
lives on only as the test oracle: ``simulate`` here and there must give the
same dataset, labels and event log, byte for byte, and ``spawn_agents`` the
same profiles and leave the random stream in the same state.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from conftest import from_stays
from mobanom.core import Dataset, LabelEntry, LabelSet, StayPoint, Trajectory, params_hash
from mobanom.simulator import (
    SECONDS_PER_DAY,
    WORK_END_S,
    WORK_START_S,
    AgentProfile,
    SimConfig,
    SimEvent,
    SimResult,
    SyntheticMap,
    _rng,
    _social_choice,
    build_map,
)


def spawn_agents(
    config: SimConfig,
    smap: SyntheticMap,
    rng: np.random.Generator | None = None,
) -> list[AgentProfile]:
    """Draw agent attributes, the friendship graph, and outlier assignments.

    :func:`simulate` labels each agent once it knows the agent's stay points.  Attribute draws happen
    before outlier assignment (and outliers use a separate stream), so turning
    outliers on or off never changes anyone's home, preferences, or friends.
    """
    rng = rng if rng is not None else _rng(config.seed, 2)
    n = config.n_agents
    apartments = smap.by_type("Apartment")
    workplaces = smap.by_type("Workplace")
    social_sites = smap.by_type("Recreation") + smap.by_type("Pub")
    lo, hi = config.pref_weight_range

    profiles = []
    for i in range(n):
        home = apartments[int(rng.integers(len(apartments)))]
        workplace = workplaces[int(rng.integers(len(workplaces)))]
        prefs = {
            site.place_id: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            for site in social_sites
        }
        hunger_rate = float(rng.uniform(*config.hunger_rate_range))
        profiles.append(
            AgentProfile(
                agent_id=f"agent{i:04d}",
                home=home.place_id,
                workplace=workplace.place_id,
                site_preferences=prefs,
                friends=(),
                hunger_rate=hunger_rate,
            )
        )

    # Erdos-Renyi friendship graph with the configured mean degree.
    p_edge = min(1.0, config.mean_friend_degree / max(1, n - 1))
    friends: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                friends[i].append(j)
                friends[j].append(i)
    for i, profile in enumerate(profiles):
        profile.friends = tuple(friends[i])

    outlier_rng = _rng(config.seed, 3)
    chosen = outlier_rng.permutation(n)[: config.n_hunger + config.n_social + config.n_work]
    assignment = (
        [("hunger", idx) for idx in chosen[: config.n_hunger]]
        + [("social", idx) for idx in chosen[config.n_hunger : config.n_hunger + config.n_social]]
        + [("work", idx) for idx in chosen[config.n_hunger + config.n_social :]]
    )
    onset = config.onset_tick
    for outlier_type, idx in assignment:
        profiles[idx].outlier_type = outlier_type
        profiles[idx].outlier_onset = onset
    return profiles


def _weekday(t: int) -> int:
    # Monday = 0; 1970-01-01 was a Thursday.
    return (t // SECONDS_PER_DAY + 3) % 7


def _in_work_hours(t: int) -> bool:
    sod = t % SECONDS_PER_DAY
    return _weekday(t) < 5 and WORK_START_S <= sod < WORK_END_S


def _simulate_agent(
    profile: AgentProfile,
    all_profiles: list[AgentProfile],
    smap: SyntheticMap,
    config: SimConfig,
    rng: np.random.Generator,
) -> tuple[Trajectory, list[SimEvent]]:
    """Run the tick loop for one agent; returns its stay points and events.

    A stay closes whenever the place changes.  The final tick of every stay is
    charged as travel toward the next place, so consecutive stays are
    separated by a one-tick gap (depart = last tick start).  Real stay-point
    data has such gaps, and downstream tail swapping needs a seam to cut at.
    """
    tick_hours = config.tick_minutes / 60.0
    by_id = {p.place_id: p for p in smap.places}
    restaurants = [p.place_id for p in smap.by_type("Restaurant")]
    recreations = [p.place_id for p in smap.by_type("Recreation")]
    social_sites = recreations + [p.place_id for p in smap.by_type("Pub")]
    preferred_site = _social_choice(profile, all_profiles, social_sites)

    hunger = social = 1.0
    points: list[StayPoint] = []
    events: list[SimEvent] = []
    skip_day_plan: tuple[int, str] | None = None  # (day ordinal, place id)
    stay_place: str | None = None
    stay_arrive = 0

    def close_stay(depart: int) -> None:
        place = by_id[stay_place]
        points.append(StayPoint(stay_arrive, depart, place.place_id, place.place_type, place.location))

    for tick in range(config.total_ticks):
        t = config.start_time + tick * config.tick_seconds
        active = profile.outlier_type != "none" and profile.outlier_onset is not None and tick >= profile.outlier_onset

        rate = profile.hunger_rate * (config.hunger_multiplier if active and profile.outlier_type == "hunger" else 1.0)
        hunger = min(1.0, max(0.0, hunger - rate * tick_hours))
        social = min(1.0, max(0.0, social - config.social_rate_per_hour * tick_hours))

        if hunger < config.hunger_threshold:
            if rng.integers(2) == 0:
                place = restaurants[int(rng.integers(len(restaurants)))]
                events.append(SimEvent(tick, profile.agent_id, "eat_out", place))
            else:
                place = profile.home
                events.append(SimEvent(tick, profile.agent_id, "eat_home", place))
            hunger = 1.0
        elif _in_work_hours(t):
            if active and profile.outlier_type == "work":
                day = t // SECONDS_PER_DAY
                if skip_day_plan is None or skip_day_plan[0] != day:
                    if rng.integers(2) == 0:
                        hideout = profile.home
                    else:
                        hideout = recreations[int(rng.integers(len(recreations)))]
                    skip_day_plan = (day, hideout)
                    events.append(SimEvent(tick, profile.agent_id, "work_skip", hideout))
                place = skip_day_plan[1]
            else:
                place = profile.workplace
        elif social < config.social_threshold:
            if active and profile.outlier_type == "social":
                place = social_sites[int(rng.integers(len(social_sites)))]
            else:
                place = preferred_site
            events.append(SimEvent(tick, profile.agent_id, "social", place))
            social = 1.0
        else:
            place = profile.home

        if place != stay_place:
            if stay_place is not None:
                close_stay(t - config.tick_seconds)
            stay_place, stay_arrive = place, t
    close_stay(config.start_time + (config.total_ticks - 1) * config.tick_seconds)

    return from_stays(profile.agent_id, points), events


def simulate(config: SimConfig) -> SimResult:
    """Produce a labeled stay-point dataset for the configured population."""
    smap = build_map(config)
    profiles = spawn_agents(config, smap)
    onset_time = config.start_time + config.onset_tick * config.tick_seconds

    trajectories = []
    events: dict[str, list[SimEvent]] = {}
    entries = {}
    for i, profile in enumerate(profiles):
        agent_rng = _rng(config.seed, 4, i)
        trajectory, agent_events = _simulate_agent(profile, profiles, smap, config, agent_rng)
        trajectories.append(trajectory)
        events[profile.agent_id] = agent_events

        is_outlier = profile.outlier_type != "none"
        deviate_index = None
        if is_outlier:
            deviate_index = len(trajectory.points) - 1
            for k, sp in enumerate(trajectory.points):
                if sp.arrive >= onset_time:
                    deviate_index = k
                    break
        entries[profile.agent_id] = LabelEntry(
            is_outlier=is_outlier,
            outlier_type=profile.outlier_type,
            deviate_index=deviate_index,
        )

    dataset = Dataset(
        trajectories=trajectories,
        meta={
            "source": "simulator",
            "seed": config.seed,
            "config_hash": params_hash(asdict(config)),
            "onset_time": onset_time,
            "n_agents": config.n_agents,
            "weeks": config.weeks,
        },
    )
    return SimResult(
        dataset=dataset,
        labels=LabelSet(entries=entries),
        events=events,
        onset_tick=config.onset_tick,
        onset_time=onset_time,
    )
