"""Window blocks against the object windows of ``features_oracle``: rows, vectors, counts and score tables."""

import inspect
import math
from dataclasses import replace

import features_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import from_stays
from mobanom.core import ConfigError, Dataset, GeoPoint, InvalidInputError, Place, StayPoint, Trajectory, haversine_km
from mobanom.detectors import (NetHyper, SplitSpec, bucket_windows, build_windows, dae_score, dsvdd_score,
                               monav_tt_score, ompad_score)
from mobanom.detectors import features
from mobanom.detectors.features import UNKNOWN_TYPE

HOUR = 3600
# drawn on both sides of the split; "Zoo" only on the test side, where it must encode and count as Unknown
TYPES = ["Home", "Pub", "Work"]


@st.composite
def arrivals(draw) -> list[int]:
    """Up to 12 arrival times in any order, with ties."""
    n = draw(st.integers(0, 12))
    pool = draw(st.lists(st.integers(-30 * HOUR, 80 * HOUR), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool) | st.integers(-30 * HOUR, 80 * HOUR), min_size=n, max_size=n))


def splits(n: int):
    """A split index for ``n`` stays: at either end, past them, negative, or inside."""
    return st.sampled_from([0, 1, n, n + 3, -1, -n - 2]) | st.integers(0, n)


@st.composite
def trajectories(draw, agent_id: str) -> tuple[Trajectory, int | None]:
    """(trajectory, split index or None for the default): the distinct drawn arrivals in order, as the trajectory
    rule asks, each stay departing by the next arrival."""
    arrive = sorted(set(draw(arrivals())))
    n = len(arrive)
    split = draw(st.none() | splits(n))
    cut = n if split is None else split
    points = []
    for i, a in enumerate(arrive):
        kind = draw(st.sampled_from(TYPES + (["Zoo"] if i >= cut else [])))
        lat = draw(st.sampled_from([0.0, 39.9, -12.5]) | st.floats(-90, 90))
        lon = draw(st.sampled_from([0.0, 116.3, 179.99]) | st.floats(-180, 180))
        depart = min([a + draw(st.integers(0, 2 * HOUR)), *arrive[i + 1:i + 2]])
        points.append(StayPoint(a, depart, f"p{i % 3}", kind, GeoPoint(lat, lon)))
    return from_stays(agent_id, points), split


@st.composite
def windowed_inputs(draw):
    drawn = [draw(trajectories(f"a{k}")) for k in range(draw(st.integers(1, 4)))]
    ds = Dataset(trajectories=[t for t, _ in drawn])
    split = SplitSpec(split_index={t.agent_id: s for t, s in drawn if s is not None})
    window_days = draw(st.sampled_from([0.05, 0.25, 1.0, 7.0]))
    return ds, split, window_days, draw(st.integers(1, 4))


def assert_same_table(new, old):
    assert (new.detector, new.params_hash, new.omitted) == (old.detector, old.params_hash, old.omitted)
    assert list(new.scores.items()) == list(old.scores.items())
    assert new.to_jsonl() == old.to_jsonl()


@settings(max_examples=300, deadline=None)
@given(windowed_inputs())
def test_blocks_and_scores_match_the_object_windows(inputs):
    ds, split, window_days, L = inputs
    new, old = build_windows(ds, split, window_days, L), oracle.build_windows(ds, split, window_days, L)
    assert (new.vocab, new.window_len, new.window_seconds, new.ineligible) == (
        old.vocab, old.window_len, old.window_seconds, old.ineligible)
    code = {v: i for i, v in enumerate(new.vocab)}
    for blocks, windows in ((new.train, old.train), (new.test, old.test)):
        assert list(blocks) == list(windows)
        for agent_id, block in blocks.items():
            assert len(block) == len(windows[agent_id])
            assert block.vecs.tobytes() == np.stack([w.vec for w in windows[agent_id]]).tobytes()
            counts = [np.bincount([code.get(p.place_type, code[UNKNOWN_TYPE]) for p in w.points],
                                  minlength=len(code)) for w in windows[agent_id]]
            assert np.array_equal(block.counts, counts)

    for t in ds.trajectories:
        idx = split.split_index.get(t.agent_id, len(t.points))
        rows = bucket_windows(t, idx, new.window_seconds)
        expected = oracle.bucket_windows(t, idx, new.window_seconds)
        # arrivals strictly increase, so they name the stays
        assert [(is_train, t.arrive[r_].tolist()) for is_train, r_ in rows] == [
            (is_train, [p.arrive for p in pts]) for _, is_train, pts in expected]

    assert_same_table(ompad_score(new), oracle.ompad_score(old))
    assert_same_table(monav_tt_score(ds, split, window_days), oracle.monav_tt_score(ds, split, window_days))


def test_hop_sums_are_added_left_to_right():
    """A test window of one long hop then 20 tiny ones, which a compensated sum would add differently."""
    def stay(t, lat, lon):
        return StayPoint(t, t, "p", "Pub", GeoPoint(lat, lon))

    train = [stay(d * 86400 + k, 0.0, 0.1 * d * k) for d in range(2) for k in range(2)]
    test = [stay(2 * 86400, 0.0, 90.0)] + [stay(2 * 86400 + 1 + k, 0.0, k * 1e-14) for k in range(21)]
    hops = [haversine_km(a.location, b.location) for a, b in zip(test, test[1:])]
    running = 0.0
    for h in hops:
        running += h
    assert running != math.fsum(hops)  # else the data could not tell the two sums apart
    ds = Dataset(trajectories=[from_stays("a", train + test)])
    split = SplitSpec(split_index={"a": len(train)})
    assert_same_table(monav_tt_score(ds, split, 1.0), oracle.monav_tt_score(ds, split, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8, unique=True),
       st.sampled_from([1, 3600, 86400, 2**62]) | st.integers(1, 2**63 - 1), st.integers(0, 8))
@example([-(2**62), 2**62 + 185000, 2**62 + 228200], 86400, 0)  # were: windows [0], [1, 2]
def test_windows_count_from_the_first_arrival_across_the_whole_int64_range(arrive, window_seconds, split):
    """Against the oracle's Python-int bucketing, with arrivals that may span more than 2**63 seconds."""
    arrive = sorted(arrive)
    t = Trajectory("a", arrive=arrive, depart=arrive, place_code=[0] * len(arrive),
                   places=[Place("p", "Pub", GeoPoint(0.0, 0.0))])
    assert [(is_train, t.arrive[rows].tolist()) for is_train, rows in bucket_windows(t, split, window_seconds)] == [
        (is_train, [p.arrive for p in pts]) for _, is_train, pts in oracle.bucket_windows(t, split, window_seconds)]


@pytest.mark.parametrize("window_days", [1e-6, -1.0])
def test_a_window_shorter_than_a_second_is_a_config_error(window_days):
    ds = Dataset(trajectories=[from_stays("a", [StayPoint(k, k, "p", "Pub", GeoPoint(0.0, 0.0)) for k in range(3)])])
    with pytest.raises(ConfigError, match="at least 1 second"):
        monav_tt_score(ds, SplitSpec(split_index={"a": 2}), window_days)


@pytest.mark.parametrize("window_days", [math.nan, math.inf, 1e300])
def test_a_window_without_a_finite_length_is_a_config_error(window_days):
    # were: nan a ValueError, inf and 1e300 an OverflowError
    ds = Dataset(trajectories=[from_stays("a", [StayPoint(k, k, "p", "Pub", GeoPoint(0.0, 0.0)) for k in range(3)])])
    split = SplitSpec(split_index={"a": 2})
    for detect in (lambda: monav_tt_score(ds, split, window_days), lambda: build_windows(ds, split, window_days, 4)):
        with pytest.raises(ConfigError, match="window_days"):
            detect()


def test_an_arrival_beyond_64_bits_is_an_input_error():
    # a trajectory refuses it when built, so no detector meets one
    points = [StayPoint(a, a, "p", "Pub", GeoPoint(0.0, 0.0)) for a in (0, 2**63)]
    with pytest.raises(InvalidInputError, match="^stay 1 of 'a': arrive 9223372036854775808 does not fit"):
        from_stays("a", points)


def test_the_windowed_detectors_omit_the_agents_the_windows_leave_out():
    """One agent's split leaves it no test stays and another's no training stays: OMPAD and the nets at both
    scopes score the rest and omit those two; the population nets still train on the first one's windows."""
    rng = np.random.default_rng(4)
    agents = ["a0", "a1", "a2", "no_test", "no_train"]
    ds = Dataset(trajectories=[
        from_stays(a, [StayPoint(k * 6 * HOUR, k * 6 * HOUR + HOUR, f"p{k % 4}", TYPES[int(rng.integers(3))],
                                 GeoPoint(float(rng.uniform(39, 40)), float(rng.uniform(116, 117)))) for k in range(24)])
        for a in agents])
    split = SplitSpec(split_index={"a0": 12, "a1": 16, "a2": 8, "no_test": 24, "no_train": 0})
    feat = build_windows(ds, split, window_days=1.0, L=4)
    hyper = NetHyper(epochs=5)
    tables = [ompad_score(feat)] + [score(feat, hyper, scope) for score in (dae_score, dsvdd_score)
                                    for scope in ("population", "per_agent")]
    for table in tables:
        assert table.omitted == {"no_test": "no test windows", "no_train": "empty training side"}, table.detector
        assert list(table.scores) == ["a0", "a1", "a2"], table.detector
    pruned = replace(feat, train={a: block for a, block in feat.train.items() if a != "no_test"})
    assert dae_score(pruned, hyper).scores != dae_score(feat, hyper).scores


def test_the_window_default_lives_in_one_place():
    for fn in (build_windows, monav_tt_score):
        assert inspect.signature(fn).parameters["window_days"].default == features.WINDOW_DAYS, fn.__name__
