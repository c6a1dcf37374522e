"""Lightweight patterns-of-life agent simulator with labeled outlier agents.

Agents live on a synthetic uniform map and follow three drives per 15-minute
tick, in priority order: eat when hungry, commute to work on weekday work
hours, socialize at a preferred venue when the social need runs low, otherwise
stay home.  Consecutive ticks at one place merge into a single stay point
whose final tick counts as travel, so the output is a gapped stay-point
dataset directly (no en-route fixes are generated).

Three outlier families switch on at a configurable onset tick:

* ``hunger``: the hunger need drains ``hunger_multiplier`` times faster, so
  the agent eats out or returns home far more often.
* ``social``: leisure venues are picked uniformly at random instead of via
  the agent's preferences and friend network.
* ``work``: the agent skips the workplace on workdays, staying home or
  idling at a recreation site.

Before onset, outlier agents run exactly the same code path as everyone else;
the per-agent event log of an outlier equals that of its seed-twin with the
outlier disabled.  Randomness is split into independent per-agent streams so
results do not depend on scheduling order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    Dataset,
    GeoPoint,
    LabelEntry,
    LabelSet,
    StayPoint,
    Trajectory,
    params_hash,
)

SECONDS_PER_DAY = 86400
WORK_START_S = 9 * 3600
WORK_END_S = 17 * 3600

#: Default simulation start: Monday 2023-01-02 00:00:00 UTC.
DEFAULT_START_TIME = 1_672_617_600

REQUIRED_PLACE_TYPES = ("Apartment", "Workplace", "Restaurant", "Pub", "Recreation")


@dataclass(frozen=True)
class Place:
    place_id: str
    place_type: str
    location: GeoPoint


@dataclass
class SyntheticMap:
    places: list[Place]

    def by_type(self, place_type: str) -> list[Place]:
        return [p for p in self.places if p.place_type == place_type]

    def by_id(self) -> dict[str, Place]:
        return {p.place_id: p for p in self.places}


@dataclass
class AgentProfile:
    agent_id: str
    home: str
    workplace: str
    site_preferences: dict[str, float]
    friends: tuple[int, ...]
    hunger_rate: float  # need units per hour
    outlier_type: str = "none"
    outlier_onset: int | None = None  # tick index


@dataclass(frozen=True)
class SimConfig:
    n_agents: int = 1000
    weeks: int = 4
    n_hunger: int = 30
    n_social: int = 30
    n_work: int = 30
    seed: int = 0
    tick_minutes: int = 15
    hunger_multiplier: float = 3.0
    outlier_onset_fraction: float = 0.5
    start_time: int = DEFAULT_START_TIME
    # map parameters
    n_apartments: int = 50
    n_workplaces: int = 10
    n_restaurants: int = 15
    n_pubs: int = 8
    n_recreation: int = 12
    bbox: tuple[float, float, float, float] = (40.0, 40.2, 116.2, 116.5)
    # behavioral constants (documented here for reproducibility)
    hunger_rate_range: tuple[float, float] = (0.06, 0.12)
    social_rate_per_hour: float = 0.05
    hunger_threshold: float = 0.2
    social_threshold: float = 0.3
    mean_friend_degree: float = 5.0
    pref_weight_range: tuple[float, float] = (0.1, 10.0)

    def validate(self) -> None:
        if self.weeks < 1:
            raise ConfigError("weeks must be >= 1")
        if self.n_agents < 1:
            raise ConfigError("n_agents must be >= 1")
        if 60 % self.tick_minutes != 0:
            raise ConfigError("tick_minutes must divide 60")
        if self.n_hunger + self.n_social + self.n_work > self.n_agents:
            raise ConfigError("outlier counts exceed n_agents")
        if not (0.0 < self.outlier_onset_fraction < 1.0):
            raise ConfigError("outlier_onset_fraction must be in (0, 1)")
        for name, count in (
            ("n_apartments", self.n_apartments),
            ("n_workplaces", self.n_workplaces),
            ("n_restaurants", self.n_restaurants),
            ("n_pubs", self.n_pubs),
            ("n_recreation", self.n_recreation),
        ):
            if count < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def total_ticks(self) -> int:
        return self.weeks * 7 * 24 * 60 // self.tick_minutes

    @property
    def onset_tick(self) -> int:
        return int(self.outlier_onset_fraction * self.total_ticks)

    @property
    def tick_seconds(self) -> int:
        return self.tick_minutes * 60


@dataclass(frozen=True)
class SimEvent:
    tick: int
    agent_id: str
    kind: str  # eat_home | eat_out | social | work_skip
    place_id: str


@dataclass
class SimResult:
    dataset: Dataset
    labels: LabelSet
    events: dict[str, list[SimEvent]]
    onset_tick: int
    onset_time: int


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))


def build_map(config: SimConfig, rng: np.random.Generator | None = None) -> SyntheticMap:
    """Sample place locations uniformly inside the bounding box."""
    config.validate()
    rng = rng if rng is not None else _rng(config.seed, 1)
    lat_min, lat_max, lon_min, lon_max = config.bbox
    counts = (
        ("Apartment", "apt", config.n_apartments),
        ("Workplace", "work", config.n_workplaces),
        ("Restaurant", "rest", config.n_restaurants),
        ("Pub", "pub", config.n_pubs),
        ("Recreation", "rec", config.n_recreation),
    )
    places = []
    for place_type, prefix, count in counts:
        for i in range(count):
            lat = float(rng.uniform(lat_min, lat_max))
            lon = float(rng.uniform(lon_min, lon_max))
            places.append(Place(f"{prefix}{i:03d}", place_type, GeoPoint(lat, lon)))
    return SyntheticMap(places=places)


def spawn_agents(
    config: SimConfig,
    smap: SyntheticMap,
    rng: np.random.Generator | None = None,
) -> tuple[list[AgentProfile], LabelSet]:
    """Draw agent attributes, the friendship graph, and outlier assignments.

    The returned LabelSet is provisional: ``deviate_index`` stays None until
    :func:`simulate` knows each outlier's stay points.  Attribute draws happen
    before outlier assignment (and outliers use a separate stream), so turning
    outliers on or off never changes anyone's home, preferences, or friends.
    """
    config.validate()
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

    entries = {
        p.agent_id: LabelEntry(
            is_outlier=p.outlier_type != "none",
            outlier_type=p.outlier_type,
            deviate_index=None,
        )
        for p in profiles
    }
    return profiles, LabelSet(entries=entries)


def _weekday(t: int) -> int:
    # Monday = 0; 1970-01-01 was a Thursday.
    return (t // SECONDS_PER_DAY + 3) % 7


def _in_work_hours(t: int) -> bool:
    sod = t % SECONDS_PER_DAY
    return _weekday(t) < 5 and WORK_START_S <= sod < WORK_END_S


def _social_choice(profile: AgentProfile, all_profiles: list[AgentProfile], site_ids: list[str]) -> str:
    # Deterministic: own weight plus the summed weights of friends, argmax,
    # ties broken by place id.
    best_id = site_ids[0]
    best_score = -1.0
    for sid in site_ids:
        score = profile.site_preferences[sid]
        for fidx in profile.friends:
            score += all_profiles[fidx].site_preferences[sid]
        if score > best_score or (score == best_score and sid < best_id):
            best_id = sid
            best_score = score
    return best_id


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
    by_id = smap.by_id()
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

    return Trajectory(agent_id=profile.agent_id, points=points), events


def simulate(config: SimConfig) -> SimResult:
    """Produce a labeled stay-point dataset for the configured population."""
    config.validate()
    smap = build_map(config)
    profiles, labels = spawn_agents(config, smap)
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
