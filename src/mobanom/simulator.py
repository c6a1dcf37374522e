"""Lightweight patterns-of-life agent simulator with labeled outlier agents.

Agents live on a synthetic uniform map and follow three drives per 15-minute
tick, in priority order: eat when hungry, commute to work on weekday work
hours, socialize at a preferred venue when the social need runs low, otherwise
stay home.  Consecutive ticks at one place merge into a single stay point
whose final tick counts as travel, so the output is a gapped stay-point
dataset directly (no en-route fixes are generated).

The semantics are per tick, but the loop visits only *decision ticks*: the
next hunger firing, the next flip of the work-hours flag, the tick at which
the social need falls due, the outlier onset, and the tick after an eat or
social event.  Every other tick keeps the place of the tick before it (home,
the workplace or the work-skip hideout), so no stay can change there.  A
need's value after n ticks is the tick loop's own update iterated n times
from its reset value, so the firing ticks are exact, not estimated.

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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    Dataset,
    GeoPoint,
    LabelEntry,
    LabelSet,
    StayPoint,
    Trajectory,
    check_settings,
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

    def __post_init__(self) -> None:
        tick, outliers = self.tick_minutes, self.n_hunger + self.n_social + self.n_work
        (hunger_lo, hunger_hi), (pref_lo, pref_hi), (south, north, west, east) = (
            self.hunger_rate_range, self.pref_weight_range, self.bbox)
        check_settings(self, [
            ("weeks", self.weeks >= 1, ">= 1"),
            ("n_agents", self.n_agents >= 1, ">= 1"),
            ("tick_minutes", isinstance(tick, int) and tick >= 1 and 60 % tick == 0, "a positive divisor of 60"),
            *((name, getattr(self, name) >= 0, ">= 0") for name in ("seed", "n_hunger", "n_social", "n_work")),
            ("n_agents", outliers <= self.n_agents, f">= n_hunger + n_social + n_work = {outliers}"),
            ("outlier_onset_fraction", 0.0 < self.outlier_onset_fraction < 1.0, "in (0, 1)"),
            *((name, getattr(self, name) >= 1, ">= 1")
              for name in ("n_apartments", "n_workplaces", "n_restaurants", "n_pubs", "n_recreation")),
            *((name, math.isfinite(getattr(self, name)), "finite") for name in ("hunger_threshold", "social_threshold")),
            *((name, 0.0 <= getattr(self, name) < math.inf, "finite and >= 0")
              for name in ("hunger_multiplier", "social_rate_per_hour", "mean_friend_degree")),
            ("hunger_rate_range", 0.0 <= hunger_lo <= hunger_hi < math.inf, "finite with 0 <= low <= high"),
            ("pref_weight_range", 0.0 <= pref_lo <= pref_hi < math.inf, "finite with 0 <= low <= high"),
            ("bbox", -90.0 <= south <= north <= 90.0, "(south, north, west, east) with -90 <= south <= north <= 90"),
            ("bbox", -180.0 <= west <= east <= 180.0, "(south, north, west, east) with -180 <= west <= east <= 180"),
            ("pref_weight_range", pref_lo > 0, "(low, high) with low > 0: its log is drawn")])

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


def build_map(config: SimConfig) -> SyntheticMap:
    """Sample place locations uniformly inside the bounding box."""
    rng = _rng(config.seed, 1)
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


def spawn_agents(config: SimConfig, smap: SyntheticMap) -> list[AgentProfile]:
    """Draw agent attributes, the friendship graph, and outlier assignments.

    :func:`simulate` labels each agent once it knows the agent's stay points.
    Attribute draws happen before outlier assignment (and outliers use a
    separate stream), so turning outliers on or off never changes anyone's
    home, preferences, or friends.
    """
    rng = _rng(config.seed, 2)
    n = config.n_agents
    apartments = smap.by_type("Apartment")
    workplaces = smap.by_type("Workplace")
    social_sites = smap.by_type("Recreation") + smap.by_type("Pub")
    log_lo, log_hi = np.log(config.pref_weight_range[0]), np.log(config.pref_weight_range[1])

    profiles = []
    for i in range(n):
        home = apartments[int(rng.integers(len(apartments)))]
        workplace = workplaces[int(rng.integers(len(workplaces)))]
        prefs = {site.place_id: float(np.exp(rng.uniform(log_lo, log_hi))) for site in social_sites}
        hunger_rate = float(rng.uniform(*config.hunger_rate_range))
        profiles.append(AgentProfile(f"agent{i:04d}", home.place_id, workplace.place_id, prefs, (), hunger_rate))

    # Erdos-Renyi friendship graph with the configured mean degree; row i
    # draws its n - i - 1 pairs (i, j > i) in one call, the same stream as
    # one draw per pair.
    p_edge = min(1.0, config.mean_friend_degree / max(1, n - 1))
    friends: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        row = (np.flatnonzero(rng.random(n - i - 1) < p_edge) + (i + 1)).tolist()
        friends[i].extend(row)
        for j in row:
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


def _in_work_hours(t: int) -> bool:
    # Weekdays are 0-4 from Monday; 1970-01-01 was a Thursday.
    return (t // SECONDS_PER_DAY + 3) % 7 < 5 and WORK_START_S <= t % SECONDS_PER_DAY < WORK_END_S


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


def _ticks_below(need: float, step: float, threshold: float, limit: int) -> tuple[int, float]:
    """Updates of a need by the tick loop's ``min(1, max(0, need - step))`` until it is below
    ``threshold`` (``limit + 1`` if not within ``limit``), and the need after them."""
    for ticks in range(1, limit + 1):
        after = min(1.0, max(0.0, need - step))
        if after < threshold:
            return ticks, after
        if after == need:  # a fixed point: the need stays where it is
            break
        need = after
    return limit + 1, need


@dataclass(frozen=True)
class _Calendar:
    """Shared by every agent of one config: places by id and by type, each tick's work-hours
    flag and the next tick at which it flips, and the ticks from a social reset until it is due."""

    by_id: dict[str, Place]
    restaurants: list[str]
    recreations: list[str]
    social_sites: list[str]
    work: list[bool]
    next_flip: list[int]
    social_due: int

    @classmethod
    def build(cls, config: SimConfig, smap: SyntheticMap) -> _Calendar:
        n = config.total_ticks
        work = [_in_work_hours(config.start_time + tick * config.tick_seconds) for tick in range(n)]
        next_flip = [n] * n
        for tick in range(n - 2, -1, -1):
            next_flip[tick] = tick + 1 if work[tick + 1] != work[tick] else next_flip[tick + 1]
        rec, rest, pubs = ([p.place_id for p in smap.by_type(kind)] for kind in ("Recreation", "Restaurant", "Pub"))
        social_step = config.social_rate_per_hour * (config.tick_minutes / 60.0)
        social_due = _ticks_below(1.0, social_step, config.social_threshold, n)[0]
        return cls(smap.by_id(), rest, rec, rec + pubs, work, next_flip, social_due)


def _simulate_agent(
    profile: AgentProfile, all_profiles: list[AgentProfile], cal: _Calendar, config: SimConfig, rng: np.random.Generator
) -> tuple[Trajectory, list[SimEvent]]:
    """Run one agent from decision tick to decision tick; returns its stay points and events.

    A stay closes whenever the place changes.  The final tick of every stay is
    charged as travel toward the next place, so consecutive stays are
    separated by a one-tick gap (depart = last tick start).  Real stay-point
    data has such gaps, and downstream tail swapping needs a seam to cut at.
    """
    n, start, tick_s, threshold = config.total_ticks, config.start_time, config.tick_seconds, config.hunger_threshold
    tick_hours = config.tick_minutes / 60.0
    preferred_site = _social_choice(profile, all_profiles, cal.social_sites)
    kind = profile.outlier_type
    onset = profile.outlier_onset if kind != "none" and profile.outlier_onset is not None else n
    # Hunger drains by ``step`` per tick, and by ``step_after`` from a hunger outlier's onset on.
    hunger_onset = onset if kind == "hunger" else n
    step = profile.hunger_rate * tick_hours
    step_after = profile.hunger_rate * config.hunger_multiplier * tick_hours
    period = _ticks_below(1.0, step, threshold, n)[0]
    period_after = _ticks_below(1.0, step_after, threshold, n)[0] if kind == "hunger" else period

    def next_meal(reset: int) -> int:
        # The first tick after ``reset`` at which hunger is below its threshold.
        if reset + 1 >= hunger_onset:
            return reset + period_after
        if reset + period < hunger_onset:
            return reset + period
        need = _ticks_below(1.0, step, threshold, hunger_onset - 1 - reset)[1]
        return hunger_onset - 1 + _ticks_below(need, step_after, threshold, n)[0]

    points: list[StayPoint] = []
    events: list[SimEvent] = []
    skip_day_plan: tuple[int, str] | None = None  # (day ordinal, place id)
    stay_place: str | None = None
    stay_arrive = social_reset = -1
    meal, tick = next_meal(-1), 0

    def close_stay(depart: int) -> None:
        place = cal.by_id[stay_place]
        points.append(StayPoint(stay_arrive, depart, place.place_id, place.place_type, place.location))

    while tick < n:
        t = start + tick * tick_s
        active = tick >= onset
        social_due = social_reset + cal.social_due
        upcoming = min(meal, cal.next_flip[tick], onset if onset > tick else n, social_due if social_due > tick else n)

        if tick == meal:
            eat_out = rng.integers(2) == 0
            place = cal.restaurants[int(rng.integers(len(cal.restaurants)))] if eat_out else profile.home
            events.append(SimEvent(tick, profile.agent_id, "eat_out" if eat_out else "eat_home", place))
            meal, upcoming = next_meal(tick), tick + 1
        elif cal.work[tick]:
            place = profile.workplace
            if active and kind == "work":
                day = t // SECONDS_PER_DAY
                if skip_day_plan is None or skip_day_plan[0] != day:
                    home = rng.integers(2) == 0
                    hideout = profile.home if home else cal.recreations[int(rng.integers(len(cal.recreations)))]
                    skip_day_plan = (day, hideout)
                    events.append(SimEvent(tick, profile.agent_id, "work_skip", hideout))
                place = skip_day_plan[1]
        elif tick >= social_due:  # steps are >= 0, so a need only falls between resets: due stays due
            social = active and kind == "social"
            place = cal.social_sites[int(rng.integers(len(cal.social_sites)))] if social else preferred_site
            events.append(SimEvent(tick, profile.agent_id, "social", place))
            social_reset, upcoming = tick, tick + 1
        else:
            place = profile.home

        if place != stay_place:
            if stay_place is not None:
                close_stay(t - tick_s)
            stay_place, stay_arrive = place, t
        tick = upcoming
    close_stay(start + (n - 1) * tick_s)

    return Trajectory(agent_id=profile.agent_id, points=points), events


def simulate(config: SimConfig) -> SimResult:
    """Produce a labeled stay-point dataset for the configured population."""
    smap = build_map(config)
    profiles = spawn_agents(config, smap)
    onset_time = config.start_time + config.onset_tick * config.tick_seconds
    cal = _Calendar.build(config, smap)

    trajectories, events, entries = [], {}, {}
    for i, profile in enumerate(profiles):
        trajectory, events[profile.agent_id] = _simulate_agent(profile, profiles, cal, config, _rng(config.seed, 4, i))
        trajectories.append(trajectory)
        deviate_index = None
        if profile.outlier_type != "none":
            deviate_index = min(trajectory.stays_before(onset_time), len(trajectory) - 1)
        entries[profile.agent_id] = LabelEntry(profile.outlier_type != "none", profile.outlier_type, deviate_index)

    meta = {"source": "simulator", "seed": config.seed, "config_hash": params_hash(asdict(config)),
            "onset_time": onset_time, "n_agents": config.n_agents, "weeks": config.weeks}
    return SimResult(Dataset(trajectories, meta), LabelSet(entries), events, config.onset_tick, onset_time)
