import json
import math
import os
import re
import sys
import tempfile
import threading
from dataclasses import asdict

import numpy as np
import pytest
from features_oracle import total_travel_distance
from core_oracle import dataset_text, trajectory_fault
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobanom.core import (
    OUTLIER_TYPES,
    ConfigError,
    Dataset,
    GeoPoint,
    InvalidInputError,
    LabelEntry,
    LabelSet,
    Place,
    StayPoint,
    TrainingDivergedError,
    Trajectory,
    atomic_write,
    haversine_km,
    config_from_mapping,
    convert_value,
    latlon_to_unit3,
    naming,
    params_hash,
    read_dataset,
    read_jsonl,
    read_labels,
    settings_of,
    write_dataset,
    write_labels,
)
from mobanom.core import _JSON_TYPES
from mobanom.detectors import NetHyper, TraodParams
from mobanom.evaluation import ScoreTable
from mobanom.ingest import PoiEntry, PoiMap
from mobanom.simulator import SimConfig


def sp(arrive, depart, lat=0.0, lon=0.0, place_type="Unknown", place_id="p"):
    return StayPoint(arrive=arrive, depart=depart, place_id=place_id, place_type=place_type,
                     location=GeoPoint(lat, lon))


class TestGeoPoint:
    @pytest.mark.parametrize("lat, lon, message", [
        (math.nan, 0.0, "non-finite coordinates"), (0.0, math.inf, "non-finite coordinates"),
        (90.5, 0.0, "latitude out of range"), (0.0, -180.5, "longitude out of range"),
    ])
    def test_checked_when_built(self, lat, lon, message):
        with pytest.raises(InvalidInputError, match=message):
            GeoPoint(lat, lon)

    def test_the_bounds_themselves_are_accepted(self):
        assert haversine_km(GeoPoint(-90.0, 180.0), GeoPoint(90.0, -180.0)) == pytest.approx(math.pi * 6371.0)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 0)) == 0.0

    def test_antipodal(self):
        # analytic oracle: half circumference = pi * R
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(math.pi * 6371.0, abs=0.01)

    def test_quarter_circumference(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 90)) == pytest.approx(math.pi / 2 * 6371.0, abs=0.01)

    def test_symmetry_nonnegativity_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = [GeoPoint(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(3)]
            d01 = haversine_km(pts[0], pts[1])
            d10 = haversine_km(pts[1], pts[0])
            assert d01 == d10  # exact symmetry
            assert d01 >= 0.0
            d12 = haversine_km(pts[1], pts[2])
            d02 = haversine_km(pts[0], pts[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            haversine_km(GeoPoint(float("nan"), 0), GeoPoint(0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            haversine_km(GeoPoint(100.0, 0), GeoPoint(0, 0))


class TestUnitVector:
    @pytest.mark.parametrize(
        "lat,lon,expected",
        [(0, 0, (1, 0, 0)), (90, 0, (0, 0, 1)), (0, 90, (0, 1, 0))],
    )
    def test_axes(self, lat, lon, expected):
        got = latlon_to_unit3(GeoPoint(lat, lon))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = latlon_to_unit3(GeoPoint(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestTrajectoryRule:
    def test_ok(self):
        t = Trajectory("a", [sp(0, 10), sp(20, 30), sp(40, 50)])
        assert t.points == (sp(0, 10), sp(20, 30), sp(40, 50))

    def test_bad_latitude(self):
        # a bad coordinate cannot reach a trajectory: building its GeoPoint raises
        with pytest.raises(InvalidInputError, match="latitude out of range"):
            Trajectory("a", [sp(0, 10, lat=100.0)])

    @pytest.mark.parametrize("points, named", [
        ([sp(0, 0), sp(0, 5)], "stay 1 of 'a': arrive 0 <= previous arrive 0"),
        ([sp(0, 100), sp(50, 150)], "stay 1 of 'a': arrive 50 < previous depart 100"),
        ([sp(0, 100), sp(99, 150)], "stay 1 of 'a': arrive 99 < previous depart 100"),
        ([sp(100, 50)], "stay 0 of 'a': depart 50 < arrive 100"),
        ([sp(100, 99)], "stay 0 of 'a': depart 99 < arrive 100"),
        ([sp(-(2**63) - 1, 0)], "stay 0 of 'a': arrive -9223372036854775809 does not fit in a signed 64-bit integer"),
        ([sp(0, 1), sp(2**63 - 1, 2**63)],
         "stay 1 of 'a': depart 9223372036854775808 does not fit in a signed 64-bit integer"),
    ], ids=["non_monotonic", "overlap", "overlap_by_1", "negative_stay", "negative_by_1", "arrive_not_int64",
            "depart_not_int64"])
    def test_each_fault_is_refused_when_built(self, points, named):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            Trajectory("a", points)

    def test_the_first_fault_of_the_first_bad_stay_is_named(self):
        # stay 1 both precedes stay 0 and has depart < arrive; stay 2 overlaps too, but is never reached
        with pytest.raises(InvalidInputError, match=re.escape("stay 1 of 'a': depart 3 < arrive 5") + "$"):
            Trajectory("a", [sp(10, 20), sp(5, 3), sp(4, 30)])
        with pytest.raises(InvalidInputError, match=re.escape("stay 1 of 'a': arrive 10 <= previous arrive 10")):
            Trajectory("a", [sp(10, 20), sp(10, 30)])  # also an overlap

    # small times that break each part of the rule, and the times at and just beyond the int64 bounds
    rule_times = st.one_of(st.integers(-3, 12), st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(rule_times, rule_times), max_size=6))
    def test_the_columns_name_the_fault_of_the_scalar_rule(self, times):
        """Built from stays and from columns, against the loop over stays in ``core_oracle``."""
        place = Place("p", "Pub", GeoPoint(0.0, 0.0))
        expected = trajectory_fault("a", times)
        for build in (lambda: Trajectory("a", [sp(a, d) for a, d in times]),
                      lambda: Trajectory("a", arrive=[a for a, _ in times], depart=[d for _, d in times],
                                         place_code=[0] * len(times), places=[place])):
            if expected is None:
                assert [(p.arrive, p.depart) for p in build().points] == times
            else:
                with pytest.raises(InvalidInputError) as info:
                    build()
                assert str(info.value) == expected

    def test_times_at_the_int64_bounds_are_kept(self):
        assert len(Trajectory("a", [sp(-(2**63), 2**63 - 1)])) == 1

    def test_a_stay_may_begin_when_the_previous_one_ends(self):
        assert len(Trajectory("a", [sp(0, 10), sp(10, 10), sp(11, 20)])) == 3


class TestRecordsAreLawfulOnceBuilt:
    """A Trajectory, Dataset and LabelSet check themselves when built and cannot change after."""

    def test_a_repeated_agent_id_is_refused_when_built(self):
        # were: held in memory, and refused by write_dataset
        with pytest.raises(InvalidInputError, match="^duplicate agent_id 'a'$"):
            Dataset([Trajectory("a"), Trajectory("b"), Trajectory("a")])

    def test_a_meta_value_of_the_wrong_json_type_is_refused_when_built(self):
        with pytest.raises(InvalidInputError, match="^onset_time must be an integer, got 1.5$"):
            Dataset([], meta={"seed": 1, "onset_time": 1.5})

    @pytest.mark.parametrize("agent_id", [7, None, "x\ud800"[1:]], ids=["int", "none", "surrogate"])
    def test_a_label_key_that_is_not_a_string_is_refused_when_built(self, agent_id):
        # were: refused by write_labels
        with pytest.raises(InvalidInputError, match="^agent_id must be (a string|UTF-8 text), got "):
            LabelSet({"a": LabelEntry(False), agent_id: LabelEntry(False)})

    def test_lists_and_dicts_are_kept_as_read_only_copies(self):
        points, trajectories, meta, entries = [sp(0, 1)], [Trajectory("a")], {"seed": 1}, {"a": LabelEntry(False)}
        t, ds, labels = Trajectory("a", points), Dataset(trajectories, meta), LabelSet(entries)
        points.append(sp(0, 1))
        trajectories.append(Trajectory("a"))
        meta["onset_time"] = 1.5
        entries[7] = LabelEntry(False)
        assert t.points == (sp(0, 1),) and ds.trajectories == (Trajectory("a"),)
        assert dict(ds.meta) == {"seed": 1} and dict(labels.entries) == {"a": LabelEntry(False)}

    def test_meta_is_kept_in_the_key_order_that_its_sidecar_holds(self, tmp_path):
        ds = Dataset([], {"seed": 1, "injected": "imposter", "config_hash": "h"})
        write_dataset(ds, str(tmp_path / "d.jsonl"))
        assert list(ds.meta) == ["config_hash", "injected", "seed"] == list(read_dataset(str(tmp_path / "d.jsonl")).meta)

    @pytest.mark.parametrize("mutate", [
        lambda t, ds, labels: setattr(t, "points", ()),
        lambda t, ds, labels: t.points.append(sp(0, 1)),
        lambda t, ds, labels: setattr(ds, "trajectories", ()),
        lambda t, ds, labels: ds.trajectories.append(Trajectory("a")),
        lambda t, ds, labels: ds.meta.__setitem__("onset_time", 1.5),
        lambda t, ds, labels: labels.entries.__setitem__(7, LabelEntry(False)),
        lambda t, ds, labels: setattr(labels, "entries", {}),
    ], ids=["points", "points_append", "trajectories", "trajectories_append", "meta_item", "entries_item", "entries"])
    def test_mutating_a_built_record_raises(self, mutate):
        t = Trajectory("a", [sp(0, 1)])
        ds, labels = Dataset([t], {"seed": 1}), LabelSet({"a": LabelEntry(False)})
        with pytest.raises((AttributeError, TypeError)):  # a FrozenInstanceError is an AttributeError
            mutate(t, ds, labels)
        assert (t.points, ds.trajectories, dict(ds.meta), dict(labels.entries)) == (
            (sp(0, 1),), (t,), {"seed": 1}, {"a": LabelEntry(False)})


    @pytest.mark.parametrize("column", ["arrive", "depart", "place_code"])
    def test_a_trajectory_s_columns_are_read_only(self, column):
        t = Trajectory("a", [sp(0, 1), sp(2, 3)])
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, column)[0] = 1
        assert t.points == (sp(0, 1), sp(2, 3))

    def test_columns_that_do_not_fit_together_are_refused_when_built(self):
        place = Place("p", "Pub", GeoPoint(1.0, 2.0))
        for columns in (dict(arrive=[0, 5], depart=[1], place_code=[0, 0]), dict(arrive=[0], depart=[1], place_code=[1])):
            with pytest.raises(InvalidInputError, match="^'a' needs one depart and one place code below 1 per arrive$"):
                Trajectory("a", **columns, places=[place])
        assert Trajectory("a", arrive=[0, 5], depart=[1, 6], place_code=[0, 0], places=[place]).points == (
            StayPoint(0, 1, "p", "Pub", place.location), StayPoint(5, 6, "p", "Pub", place.location))


class TestTravelDistance:
    """The hop sum of the MoNav-TT oracle (``features_oracle``), which ``monav_tt_score`` must match."""

    def test_single_point(self):
        assert total_travel_distance(Trajectory("a", [sp(0, 1)])) == 0.0

    def test_zero_distance(self):
        t = Trajectory("a", [sp(0, 1, lat=5, lon=5), sp(2, 3, lat=5, lon=5)])
        assert total_travel_distance(t) == 0.0

    def test_collinear_equator(self):
        t = Trajectory("a", [sp(0, 1, 0, 0.0), sp(2, 3, 0, 0.5), sp(4, 5, 0, 1.0)])
        # oracle: pairwise sum of the two equal hops
        hop = haversine_km(GeoPoint(0, 0.0), GeoPoint(0, 0.5))
        assert total_travel_distance(t) == pytest.approx(2 * hop, abs=1e-9)

    def test_interval(self):
        t = Trajectory("a", [sp(0, 1, 0, 0.0), sp(2, 3, 0, 0.5), sp(4, 5, 0, 1.0)])
        assert total_travel_distance(t, (0, 1)) == 0.0
        assert total_travel_distance(t, (1, 1)) == 0.0
        hop = haversine_km(GeoPoint(0, 0.5), GeoPoint(0, 1.0))
        assert total_travel_distance(t, (1, 3)) == pytest.approx(hop, abs=1e-12)


class TestRoundTrip:
    def build_dataset(self):
        rng = np.random.default_rng(3)
        trajectories = []
        for i in range(5):
            points = []
            t = 1_600_000_000 + int(rng.integers(0, 1000))
            for j in range(int(rng.integers(1, 8))):
                arrive = t
                depart = arrive + int(rng.integers(0, 3600))
                points.append(
                    sp(arrive, depart, lat=float(rng.uniform(-80, 80)), lon=float(rng.uniform(-170, 170)),
                       place_type=rng.choice(["Pub", "Apartment", "Workplace"]), place_id=f"pl{j}")
                )
                t = depart + int(rng.integers(1, 3600))
            trajectories.append(Trajectory(f"agent{i}", points))
        return Dataset(trajectories=trajectories, meta={"source": "test", "seed": 3})

    def test_dataset_round_trip_bytes(self, tmp_path):
        ds = self.build_dataset()
        p1 = tmp_path / "dataset.jsonl"
        p2 = tmp_path / "again.jsonl"
        write_dataset(ds, str(p1))
        ds2 = read_dataset(str(p1))
        write_dataset(ds2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert ds2.meta == ds.meta
        assert ds2.trajectories == ds.trajectories

    def test_labels_round_trip(self, tmp_path):
        labels = LabelSet(
            entries={
                "a": LabelEntry(True, "imposter", 4),
                "b": LabelEntry(False, "none", None),
                "c": LabelEntry(True, "hunger", 0),
            }
        )
        p1 = tmp_path / "labels.jsonl"
        write_labels(labels, str(p1))
        labels2 = read_labels(str(p1))
        assert labels2 == labels
        p2 = tmp_path / "labels2.jsonl"
        write_labels(labels2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_agent_rejected(self):
        with pytest.raises(InvalidInputError, match="^duplicate agent_id 'a'$"):  # were: by write_dataset
            Dataset(trajectories=[Trajectory("a", []), Trajectory("a", [])])

    def test_missing_depart_defaults_to_arrive(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text(
            '{"agent_id": "a", "points": [{"arrive": 100, "place_id": "p", '
            '"place_type": "Pub", "lat": 0.0, "lon": 0.0}]}\n'
        )
        assert read_dataset(str(path)).trajectories[0].points[0].depart == 100

    def test_label_invariants_enforced(self, tmp_path):
        # were refused by write_labels; the entry now refuses them when built, so no writer sees them
        with pytest.raises(InvalidInputError, match="deviate_index must be set for outliers only, got None"):
            write_labels(LabelSet(entries={"a": LabelEntry(True, "hunger", None)}), str(tmp_path / "bad.jsonl"))
        with pytest.raises(InvalidInputError, match="deviate_index must be set for outliers only, got 3"):
            write_labels(LabelSet(entries={"a": LabelEntry(False, "none", 3)}), str(tmp_path / "bad2.jsonl"))
        assert os.listdir(tmp_path) == []

    def test_negative_deviate_index_is_rejected_on_write_and_read(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        with pytest.raises(InvalidInputError, match=re.escape("deviate_index must be >= 0, got -2")):
            write_labels(LabelSet(entries={"a": LabelEntry(True, "imposter", -2)}), str(path))
        assert not path.exists()
        path.write_text('{"agent_id":"a","is_outlier":true,"outlier_type":"imposter","deviate_index":-2}\n')
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:1: deviate_index of 'a' must be >= 0, got -2")):
            read_labels(str(path))


FINITE = {"allow_nan": False, "allow_infinity": False}
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(**FINITE), st.text())


@st.composite
def lawful_points(draw, names=st.text(),
                  locations=st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
                  ints=st.just(int), max_size=5) -> list[StayPoint]:
    """Stays by the trajectory rule, int64 extremes included: strictly rising arrivals (each of a type ``ints``
    draws), each depart from its arrive up to the next arrive.  The place strings and the locations come from pools
    of up to three, so one location object, and one place under two ids, repeat in a trajectory."""
    arrive = sorted(draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=max_size)))
    names, locations = (st.sampled_from(draw(st.lists(pool, min_size=1, max_size=3))) for pool in (names, locations))
    return [StayPoint(draw(ints)(a), draw(st.integers(a, end)), draw(names), draw(names), draw(locations))
            for a, end in zip(arrive, arrive[1:] + [2**63 - 1])]


datasets = st.builds(
    lambda ids, points, meta: Dataset([Trajectory(a, p) for a, p in zip(ids, points)], meta),
    st.lists(st.text(), unique=True, max_size=6),
    st.lists(lawful_points(), min_size=6, max_size=6),
    st.dictionaries(st.text().filter(lambda key: key not in _JSON_TYPES), json_scalars, max_size=4),  # untyped keys
)
label_entries = st.one_of(
    st.builds(LabelEntry, st.just(True), st.sampled_from(OUTLIER_TYPES), st.integers(min_value=0)),
    st.builds(LabelEntry, st.just(False), st.sampled_from(OUTLIER_TYPES), st.none()),
)


class TestStaysBefore:
    @settings(max_examples=300, deadline=None)
    @given(lawful_points(names=st.just("p"), max_size=8), st.integers(-(2**63), 2**63 - 1))
    @example([], 0)
    @example([sp(0, 10), sp(10, 10), sp(20, 30)], 15)  # a stay arriving as the previous one departs
    def test_it_counts_the_stays_that_arrive_before_a_time(self, points, time):
        """Against a linear count, at the drawn time and at, just before and just after each arrival."""
        t, arrive = Trajectory("a", points), [p.arrive for p in points]
        for time in [time, *(a + d for a in arrive for d in (-1, 0, 1))]:
            assert t.stays_before(time) == sum(a < time for a in arrive)


class TestRoundTripProperties:
    """write -> read -> write gives byte-identical files and equal values."""

    @settings(max_examples=150, deadline=None)
    @given(datasets)
    def test_dataset(self, ds):
        with tempfile.TemporaryDirectory() as d:
            first, again = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            write_dataset(ds, first)
            back = read_dataset(first)
            write_dataset(back, again)
            for suffix in (".jsonl", ".meta.json"):
                with open(first[:-6] + suffix, "rb") as x, open(again[:-6] + suffix, "rb") as y:
                    assert x.read() == y.read()
        assert back.trajectories == ds.trajectories and back.meta == ds.meta
        assert list(back.meta.items()) == list(ds.meta.items())  # `==` of two mappings ignores their order

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.text(), label_entries).map(lambda e: LabelSet(entries=e)))
    def test_labels(self, labels):
        with tempfile.TemporaryDirectory() as d:
            first, again = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            write_labels(labels, first)
            back = read_labels(first)
            write_labels(back, again)
            with open(first, "rb") as x, open(again, "rb") as y:
                assert x.read() == y.read()
        assert back == labels and list(back.entries.items()) == list(labels.entries.items())


class LoudInt(int):
    """An int whose ``str`` and ``repr`` are not its digits; ``json`` writes its digits all the same."""

    def __str__(self):
        return "loud"

    __repr__ = __str__


# Pairs that compare equal but write different bytes (0.0 and -0.0), a pair as floats and as np.float64, and
# floats that need all 17 digits.
COORDINATES = [(0.0, 5.5), (-0.0, 5.5), (0.0, -0.0), (-0.0, 0.0), (12.25, 5.5), (np.float64(12.25), np.float64(5.5)),
               (1 / 3, -179.99999999999997), (-90.0, 180.0), (5e-324, 1e-300)]
PLACE_STRINGS = ['"', "\\", "\x00\x1f\x7f\n", "café", "東京 🚉", 'a"b\\c\td']


class TestWriterOracle:
    """``write_dataset`` writes the bytes of the dict-based encoder in ``core_oracle``."""

    locations = st.sampled_from(COORDINATES).map(lambda pair: GeoPoint(*pair))  # each draw a new object
    names = st.one_of(st.sampled_from(PLACE_STRINGS), st.text(), st.text().map(np.str_))
    shared, twin = GeoPoint(12.25, 5.5), GeoPoint(12.25, 5.5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(lawful_points(names, locations, st.sampled_from([int, LoudInt]), max_size=12), max_size=4))
    @example([[StayPoint(LoudInt(0), 1, "p", "Pub", shared), StayPoint(2, 3, "q", "Home", shared),
               StayPoint(4, 5, "p", "Pub", twin), StayPoint(6, 7, np.str_('a"\\\x01é'), "東京", GeoPoint(0.0, 5.5)),
               StayPoint(8, 9, "p", "Pub", GeoPoint(-0.0, 5.5)),
               StayPoint(10, 11, np.str_("p"), "Pub", GeoPoint(np.float64(12.25), np.float64(5.5)))],
              [StayPoint(0, 0, "q", "Pub", shared)]])
    def test_the_written_bytes_are_the_oracle_lines(self, points):
        ds = Dataset([Trajectory(np.str_(f'a"{i}') if i % 2 else f"agent{i}", p) for i, p in enumerate(points)])
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "dataset.jsonl")
            write_dataset(ds, path)
            with open(path, "rb") as fh:
                assert fh.read() == dataset_text(ds).encode("utf-8")


def test_trajectories_compare_times_and_places_without_building_a_stay_point(monkeypatch):
    """``==`` compares the columns and each stay's Place, however the places are coded: ``0.0`` and ``-0.0``, ``40``
    and ``40.0`` compare equal, as the stays' values do, and another place type or agent id does not."""
    def places(lat, home="Home"):
        return [Place("p", "Pub", GeoPoint(lat, lat)), Place("h", home, GeoPoint(1.0, 2.0))]

    def shared(lat, home="Home", agent="a"):  # one place for the first and the last stay
        return Trajectory(agent, arrive=[0, 2, 4], depart=[1, 3, 5], place_code=[0, 1, 0], places=places(lat, home))

    def apart(lat):  # a place per stay, in another order
        pub, home = places(lat)
        return Trajectory("a", arrive=[0, 2, 4], depart=[1, 3, 5], place_code=[1, 0, 2], places=[home, pub, pub])

    trajectories = [shared(0.0), shared(-0.0), apart(0.0), shared(40), shared(40.0), apart(40),
                    shared(0.0, home="Office"), shared(0.0, agent="b"), shared(40, agent="b")]
    built = []
    check = StayPoint.__post_init__
    monkeypatch.setattr(StayPoint, "__post_init__", lambda sp: built.append(sp) or check(sp))
    equal = {(i, j) for i, a in enumerate(trajectories) for j, b in enumerate(trajectories) if a == b}
    assert built == []
    classes = [{0, 1, 2}, {3, 4, 5}, {6}, {7}, {8}]
    assert equal == {(i, j) for cls in classes for i in cls for j in cls}
    monkeypatch.undo()
    assert equal == {(i, j) for i, a in enumerate(trajectories) for j, b in enumerate(trajectories)
                     if a.agent_id == b.agent_id and a.points == b.points}  # as the StayPoint views compare


def test_places_that_compare_equal_keep_their_own_bytes_across_trajectories(tmp_path):
    """``write_dataset`` encodes each place once per file. The four coordinates here compare equal in pairs (``0.0``
    and ``-0.0``, ``40`` and ``40.0``) but are spelled apart, each in trajectories of its own, in both orders."""
    spellings = [(0.0, "0.0"), (-0.0, "-0.0"), (40, "40"), (40.0, "40.0")]
    agents = spellings + spellings[::-1]
    ds = Dataset([Trajectory(f"a{i}", [StayPoint(0, 1, "p", "Pub", GeoPoint(lat, lat))])
                  for i, (lat, _) in enumerate(agents)])
    write_dataset(ds, str(tmp_path / "dataset.jsonl"))
    stay = '{{"arrive":0,"depart":1,"place_id":"p","place_type":"Pub","lat":{0},"lon":{0}}}'
    assert (tmp_path / "dataset.jsonl").read_text() == "".join(
        f'{{"agent_id":"a{i}","points":[{stay.format(text)}]}}\n' for i, (_, text) in enumerate(agents))


class TestReadSharesPlaces:
    """``read_dataset`` builds one Place per place of a trajectory; the values read stay as they were."""

    @staticmethod
    def write(path, *agents):
        """One canonical line per agent, each stay given as ``(arrive, lat, lon)`` in JSON text."""
        stay = '{{"arrive":{0},"depart":{0},"place_id":"p","place_type":"Pub","lat":{1},"lon":{2}}}'
        path.write_text("".join(f'{{"agent_id":"a{i}","points":[{",".join(stay.format(*s) for s in stays)}]}}\n'
                                for i, stays in enumerate(agents)))

    def test_the_stays_of_a_trajectory_at_one_place_share_its_code(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        self.write(path, [(0, "40.5", "116.25"), (1, "41", "116.25"), (2, "41.0", "116.25"), (3, "40.5", "116.25")],
                   [(0, "41.0", "116.25")])
        a, b = read_dataset(str(path)).trajectories
        assert a.place_code.tolist() == [0, 1, 1, 0] and b.place_code.tolist() == [0]
        assert a.places == (Place("p", "Pub", GeoPoint(40.5, 116.25)), Place("p", "Pub", GeoPoint(41.0, 116.25)))
        assert type(a.places[1].location.lat) is float

    def test_zero_and_minus_zero_come_back_byte_identical(self, tmp_path):
        path, again = tmp_path / "dataset.jsonl", tmp_path / "again.jsonl"
        self.write(path, [(0, "0.0", "5.5"), (1, "-0.0", "5.5"), (2, "0.0", "-0.0"), (3, "-0.0", "0.0")],
                   [(0, "-0.0", "5.5"), (1, "0.0", "5.5"), (2, "-0.0", "0.0"), (3, "0.0", "-0.0")])
        ds = read_dataset(str(path))
        write_dataset(ds, str(again))
        assert again.read_bytes() == path.read_bytes()
        assert [len(t.places) for t in ds.trajectories] == [4, 4]  # a place holding a zero is never shared


class TestNaming:
    def test_the_innermost_source_names_a_fault(self):
        with pytest.raises(ConfigError) as info:
            with naming("outer.ini"), naming(None), naming("inner.json"):
                raise ConfigError("bad")
        assert str(info.value) == "inner.json: bad"

    def test_none_names_nothing_and_other_errors_pass(self):
        with pytest.raises(ConfigError, match="^bad$"), naming(None):
            raise ConfigError("bad")
        with pytest.raises(ValueError, match="^bad$"), naming("x.ini"):
            raise ValueError("bad")


class TestReadFaults:
    @pytest.mark.parametrize(
        "lat, lon, named",
        [("NaN", "116.0", "non-finite coordinates: (nan, 116.0)"),
         ("40.0", "Infinity", "non-finite coordinates: (40.0, inf)"),
         ("90.5", "116.0", "latitude out of range: 90.5"), ("40.0", "-180.5", "longitude out of range: -180.5")],
    )
    def test_dataset_coordinates_are_validated(self, tmp_path, lat, lon, named):
        # the bad pair again on a later line: a coordinate that failed is never shared, so the first line is named
        path = tmp_path / "dataset.jsonl"
        point = f'{{"arrive":0,"depart":1,"place_id":"p","place_type":"Pub","lat":{lat},"lon":{lon}}}'
        path.write_text('{"agent_id":"a","points":[]}\n'
                        + "".join(f'{{"agent_id":"{a}","points":[{point}]}}\n' for a in "bc"))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}:2: {named}')}$"):
            read_dataset(str(path))

    @pytest.mark.parametrize(
        "points, named",
        [([(0, 10), (5, 20)], "stay 1 of 'b': arrive 5 < previous depart 10"),
         ([(0, 10), (0, 10)], "stay 1 of 'b': arrive 0 <= previous arrive 0"),
         ([(10, 0)], "stay 0 of 'b': depart 0 < arrive 10"),
         ([(2**70, 2**70)], "stay 0 of 'b': arrive 1180591620717411303424 does not fit in a signed 64-bit integer"),
         ([(0, -(2**63) - 1)], "stay 0 of 'b': depart -9223372036854775809 does not fit")],
        ids=["overlap", "non_monotonic", "negative_stay", "arrive_not_int64", "depart_not_int64"],
    )
    def test_a_trajectory_breaking_the_rule_is_refused_when_built_and_on_read(self, tmp_path, points, named):
        # were: written and read as they are; later refused by write_dataset and on read
        path = tmp_path / "dataset.jsonl"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}"):
            Trajectory("b", [sp(a, d) for a, d in points])
        stays = ",".join(f'{{"arrive":{a},"depart":{d},"place_id":"p","place_type":"Pub","lat":0,"lon":0}}'
                         for a, d in points)
        path.write_text(f'{{"agent_id":"a","points":[]}}\n{{"agent_id":"b","points":[{stays}]}}\n')
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:2: {named}")):
            read_dataset(str(path))

    @pytest.mark.parametrize("stay, named", [
        (dict(arrive=1.5, depart=2), "arrive must be an integer, got 1.5"),
        (dict(arrive=0, depart=True), "depart must be an integer, got True"),
        (dict(arrive=0, depart=None), "depart must be an integer, got None"),
        (dict(arrive=0, depart=1, place_id=7), "place_id must be a string, got 7"),
        (dict(arrive=0, depart=1, place_type=None), "place_type must be a string, got None"),
        (dict(arrive=0, depart=1, lat=False), "lat must be a number, got False"),
    ], ids=["float_arrive", "bool_depart", "null_depart", "int_place_id", "null_place_type", "bool_lat"])
    def test_a_value_read_would_refuse_is_refused_on_write(self, tmp_path, stay, named):
        # were: written, then refused by every reader (`path:1: arrive must be an integer, got 1.5`); later refused
        # by write_dataset as `stay 1 of 'b': ...`; now the stay (or its GeoPoint) refuses them when built
        path = tmp_path / "dataset.jsonl"
        path.write_text("kept\n")
        stay = {"place_id": "p", "place_type": "Pub", "lat": 0.0, "lon": 0.0, **stay}
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            location = GeoPoint(stay.pop("lat"), stay.pop("lon"))
            write_dataset(Dataset([Trajectory("b", [sp(0, 0), StayPoint(**stay, location=location)])]), str(path))
        assert path.read_text() == "kept\n" and not os.path.exists(tmp_path / "dataset.meta.json")

    @pytest.mark.parametrize("agent_id", [7, None, ["a"]])
    def test_an_agent_id_that_is_not_a_string_is_refused_when_built(self, agent_id):
        # were: refused by write_dataset
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'agent_id must be a string, got {agent_id!r}')}$"):
            Trajectory(agent_id, [sp(0, 1)])

    def test_a_subclass_is_written_as_its_json_type(self, tmp_path):
        path = str(tmp_path / "dataset.jsonl")
        stay = sp(0, 1, np.float64(40.25), np.float64(116.5), np.str_("Pub"), np.str_("p"))
        ds = Dataset([Trajectory(np.str_("a"), [stay])])
        write_dataset(ds, path)
        assert read_dataset(path).trajectories == (Trajectory("a", [sp(0, 1, 40.25, 116.5, "Pub", "p")]),)

    def test_dataset_rejects_a_repeated_agent_id(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        line = '{"agent_id":"a","points":[]}\n'
        path.write_text(line + '{"agent_id":"b","points":[]}\n\n' + line)
        with pytest.raises(InvalidInputError, match=f"{path}:4: duplicate agent_id 'a'"):
            read_dataset(str(path))

    def test_labels_reject_a_repeated_agent_id(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        line = '{"agent_id":"a","is_outlier":false,"outlier_type":"none","deviate_index":null}\n'
        path.write_text(line + line.replace("false", "true").replace("null", "3").replace("none", "work"))
        with pytest.raises(InvalidInputError, match=f"{path}:2: duplicate agent_id 'a'"):
            read_labels(str(path))

    @pytest.mark.parametrize(
        "key, value, named",
        [("agent_id", "7", "agent_id must be a string, got 7"),
         ("arrive", "1.9", "arrive must be an integer, got 1.9"),
         ("arrive", "true", "arrive must be an integer, got True"),
         ("depart", '"100"', "depart must be an integer or null, got '100'"),
         ("place_id", "5", "place_id must be a string, got 5"),
         ("place_type", "null", "place_type must be a string, got None"),
         ("lat", '"40.5"', "lat must be a number, got '40.5'"),
         ("lon", "true", "lon must be a number, got True"),
         ("place_id", '["x"]', "place_id must be a string, got ['x']"),
         ("place_type", '{"x":1}', "place_type must be a string, got {'x': 1}")],
    )
    def test_dataset_values_must_have_their_json_type(self, tmp_path, key, value, named):
        # the bad stay follows a lawful one at the same place, whose GeoPoint it shares: an unhashable place
        # string is still named by its type, not a CorruptInputError from a cache key
        lawful = '{"arrive":-2,"depart":-1,"place_id":"p","place_type":"Pub","lat":40,"lon":116.5}'
        record = {"agent_id": '"a"', "arrive": "0", "depart": "1", "place_id": '"p"', "place_type": '"Pub"',
                  "lat": "40", "lon": "116.5", key: value}
        point = ",".join(f'"{k}":{v}' for k, v in record.items() if k != "agent_id")
        path = tmp_path / "dataset.jsonl"
        path.write_text(f'{{"agent_id":{record["agent_id"]},"points":[{lawful},{{{point}}}]}}\n')
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:1: {named}")):
            read_dataset(str(path))

    def test_dataset_accepts_integer_coordinates_and_a_null_depart(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text('{"agent_id":"a","points":[{"arrive":5,"depart":null,"place_id":"p","place_type":"Pub",'
                        '"lat":40,"lon":-116}]}\n')
        (t,) = read_dataset(str(path)).trajectories
        assert t.points == (StayPoint(5, 5, "p", "Pub", GeoPoint(40.0, -116.0)),)
        assert type(t.points[0].location.lat) is float

    @pytest.mark.parametrize(
        "key, value, named",
        [("agent_id", "1", "agent_id must be a string, got 1"),
         ("is_outlier", "1", "is_outlier must be true or false, got 1"),
         ("is_outlier", '"no"', "is_outlier must be true or false, got 'no'"),
         ("outlier_type", "0", "outlier_type must be a string, got 0"),
         ("deviate_index", "3.0", "deviate_index must be an integer or null, got 3.0"),
         ("deviate_index", "false", "deviate_index must be an integer or null, got False")],
    )
    def test_label_values_must_have_their_json_type(self, tmp_path, key, value, named):
        record = {"agent_id": '"a"', "is_outlier": "true", "outlier_type": '"work"', "deviate_index": "3", key: value}
        path = tmp_path / "labels.jsonl"
        path.write_text("{" + ",".join(f'"{k}":{v}' for k, v in record.items()) + "}\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}:1: {named}")):
            read_labels(str(path))

    def test_error_type_and_attributes_survive_the_prefix(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n')

        def record(obj):
            raise TrainingDivergedError(3, 9.5)

        with pytest.raises(TrainingDivergedError, match=f"{path}:1: training diverged") as info:
            read_jsonl(str(path), record)
        assert (info.value.epoch, info.value.loss) == (3, 9.5)


# A valid record of each file kind that holds values of ``core._JSON_TYPES``.
VALID_RECORDS = {
    "dataset": {"agent_id": "a", "arrive": 0, "depart": 1, "place_id": "p", "place_type": "Pub", "lat": 40.0,
                "lon": 116.0},
    "sidecar": {"onset_time": 0, "switch_fraction": 0.5},
    "labels": {"agent_id": "a", "is_outlier": True, "outlier_type": "work", "deviate_index": 0},
    "scores": {"agent_id": "a", "score": 0.5, "method": "ompad", "params_hash": "h"},
    "poi": {"lat": 40.0, "lon": 116.0, "radius_m": 50.0, "place_type": "Pub", "place_id": "p"},
}
STAY_KEYS = ("arrive", "depart", "place_id", "place_type", "lat", "lon")


def write_record(kind: str, r: dict, path: str) -> None:
    """Build the records of ``r`` and write them as ``kind``: the one path a library caller has."""
    if kind == "dataset":
        stay = StayPoint(r["arrive"], r["depart"], r["place_id"], r["place_type"], GeoPoint(r["lat"], r["lon"]))
        write_dataset(Dataset([Trajectory(r["agent_id"], [stay])]), path)
    elif kind == "sidecar":
        write_dataset(Dataset([], meta=r), path)
    elif kind == "labels":
        write_labels(LabelSet({r["agent_id"]: LabelEntry(r["is_outlier"], r["outlier_type"], r["deviate_index"])}), path)
    elif kind == "scores":
        atomic_write(path, ScoreTable(r["method"], {r["agent_id"]: r["score"]}, r["params_hash"]).to_jsonl())
    else:
        PoiEntry(GeoPoint(r["lat"], r["lon"]), r["radius_m"], r["place_type"], r["place_id"])  # a POI map has no writer
        atomic_write(path, json.dumps(r) + "\n")


def read_record(kind: str, tmp_path, text: str):
    """Write ``text`` (one JSON object) as a file of ``kind`` and read it; returns the path that an error names."""
    path = tmp_path / ("dataset.meta.json" if kind == "sidecar" else f"{kind}.jsonl")
    if kind == "dataset":
        r = json.loads(text)
        stay = {k: r.pop(k) for k in STAY_KEYS}
        text = json.dumps({**r, "points": [stay]})
    path.write_text(text + "\n")
    if kind == "sidecar":
        (tmp_path / "dataset.jsonl").write_text("")
    reader = {"dataset": read_dataset, "sidecar": lambda p: read_dataset(p.replace(".meta.json", ".jsonl")),
              "labels": read_labels, "scores": ScoreTable.read, "poi": PoiMap.from_jsonl}[kind]
    reader(str(path))
    return path


# One wrong value per key: a bool for a number, a float for an int, an int for a string, or np.float32 (built only,
# since JSON has none).  The labels and scores rows marked "written" were written by the writers, and every reader
# then refused the file.
WRONG_VALUES = [
    ("dataset", "agent_id", 7), ("dataset", "arrive", 1.5), ("dataset", "depart", 2.5), ("dataset", "place_id", 7),
    ("dataset", "place_type", 7), ("dataset", "lat", True), ("dataset", "lon", np.float32(116.0)),
    ("sidecar", "onset_time", 1.5), ("sidecar", "switch_fraction", True),
    ("labels", "agent_id", 7),  # written
    ("labels", "is_outlier", 1), ("labels", "is_outlier", "yes"),  # written
    ("labels", "outlier_type", 7),
    ("labels", "deviate_index", 1.5), ("labels", "deviate_index", True),  # written
    ("scores", "agent_id", 7), ("scores", "score", True),  # written
    ("scores", "score", np.float32(0.5)), ("scores", "method", 7), ("scores", "params_hash", 7),
    ("poi", "radius_m", True), ("poi", "lat", np.float32(40.0)),
]


class TestRecordsCheckThemselves:
    """``core._JSON_TYPES`` names each value a reader type-checks; every key has a rule where its record is built."""

    def test_every_key_of_the_table_has_a_case(self):
        assert {key for _, key, _ in WRONG_VALUES} == set(_JSON_TYPES)

    @pytest.mark.parametrize("kind, key, value", WRONG_VALUES, ids=[f"{k}-{key}-{v!r}" for k, key, v in WRONG_VALUES])
    def test_a_wrong_type_is_refused_on_read_and_when_built(self, tmp_path, kind, key, value):
        named = rf"^{key} must be [^,]+, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInputError, match=named):
            write_record(kind, {**VALID_RECORDS[kind], key: value}, str(tmp_path / "written"))
        assert not os.path.exists(tmp_path / "written")
        if not isinstance(value, np.float32):
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(tmp_path))}/[a-z.]+:1: {named[1:]}"):
                read_record(kind, tmp_path, json.dumps({**VALID_RECORDS[kind], key: value}))

    @pytest.mark.parametrize("kind", list(VALID_RECORDS))
    def test_the_valid_records_are_written_and_read(self, tmp_path, kind):
        write_record(kind, VALID_RECORDS[kind], str(tmp_path / "written"))
        read_record(kind, tmp_path, json.dumps(VALID_RECORDS[kind]))

    def test_a_score_table_takes_a_subclass_and_an_int(self):
        assert ScoreTable(np.str_("ompad"), {np.str_("a"): np.float64(0.5), "b": 1}).to_jsonl().count("\n") == 2

    @pytest.mark.parametrize("kind, key", [("dataset", "agent_id"), ("dataset", "place_id"), ("dataset", "place_type"),
                                           ("labels", "agent_id"), ("scores", "agent_id"), ("scores", "method"),
                                           ("poi", "place_id")])
    def test_a_lone_surrogate_is_refused_on_read_and_when_built(self, tmp_path, kind, key):
        # were: read and written; `detect --method llm` then failed in PromptCache.key with a UnicodeEncodeError
        named = re.escape(f"{key} must be UTF-8 text, got '\\ud800'")
        with pytest.raises(InvalidInputError, match=f"^{named}$"):
            write_record(kind, {**VALID_RECORDS[kind], key: "x\ud800"[1:]}, str(tmp_path / "written"))
        assert not os.path.exists(tmp_path / "written")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(tmp_path))}/[a-z.]+:1: {named}$"):
            read_record(kind, tmp_path, json.dumps({**VALID_RECORDS[kind], key: "\ud800"}))

    def test_text_that_utf8_encodes_is_kept(self, tmp_path):
        record = {**VALID_RECORDS["dataset"], "place_type": "Caf\u00e9", "place_id": "\U0001f37a"}
        write_record("dataset", record, str(tmp_path / "dataset.jsonl"))
        (t,) = read_dataset(str(tmp_path / "dataset.jsonl")).trajectories
        assert (t.points[0].place_type, t.points[0].place_id) == ("Caf\u00e9", "\U0001f37a")

    @pytest.mark.parametrize("entry, named", [
        ((True, "work", None), "deviate_index must be set for outliers only, got None"),
        ((False, "none", 0), "deviate_index must be set for outliers only, got 0"),
        ((True, "work", -1), "deviate_index must be >= 0, got -1"),
        ((False, "bogus", None), "outlier_type must be one of imposter, hunger, social, work, none, got bogus"),
    ])
    def test_a_label_rule_is_refused_when_built_and_named_with_its_agent_on_read(self, tmp_path, entry, named):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)}$"):
            LabelEntry(*entry)
        key, rule = named.split(" ", 1)
        with pytest.raises(InvalidInputError, match=re.escape(f"labels.jsonl:1: {key} of 'a' {rule}")):
            read_record("labels", tmp_path, json.dumps(dict(zip(["agent_id", "is_outlier", "outlier_type",
                                                                 "deviate_index"], ["a", *entry]))))


class TestAtomicWrite:
    def test_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write(str(path), "new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(TypeError):
            atomic_write(str(path), 123)
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["oserror", "interrupt"])
    def test_interrupted_write_dataset_keeps_the_old_files(self, tmp_path, interrupt_write, exc):
        ds = TestRoundTrip().build_dataset()
        path = str(tmp_path / "dataset.jsonl")
        write_dataset(ds, path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        interrupt_write("dataset.", exc)
        with pytest.raises(type(exc)):
            write_dataset(Dataset(ds.trajectories[1:], {"seed": 4}), path)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_concurrent_writers_and_readers_see_whole_files(self, tmp_path):
        path = str(tmp_path / "entry.json")
        texts = [str(i) * 50_000 for i in range(8)]
        atomic_write(path, texts[0])
        seen, errors = set(), []

        def run(fn):
            try:
                fn()
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        def write(text):
            for _ in range(25):
                atomic_write(path, text)

        def read():
            for _ in range(200):
                with open(path, encoding="utf-8") as fh:
                    seen.add(fh.read())

        jobs = [lambda t=t: write(t) for t in texts] + [read, read]
        threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen <= set(texts) and len(seen) > 0
        assert os.listdir(tmp_path) == ["entry.json"]


class TestConfigFromMapping:
    def test_strings_convert_by_field_type(self):
        cfg = config_from_mapping(SimConfig, {
            "n_agents": "700", "hunger_multiplier": "2.5", "bbox": "1.0, 2.0,3,4", "hunger_rate_range": "0.1,0.2",
        })
        assert cfg == SimConfig(n_agents=700, hunger_multiplier=2.5, bbox=(1.0, 2.0, 3.0, 4.0),
                                hunger_rate_range=(0.1, 0.2))

    def test_absent_and_unknown_keys(self):
        assert config_from_mapping(SimConfig, {"stages": "simulate", "out_dir": "x"}) == SimConfig()

    def test_renamed_keys_and_optional(self):
        keys = {"traod_d": "D", "p_frac": "p_frac"}
        assert config_from_mapping(TraodParams, {"traod_d": "1.5", "D": "9"}, keys).D == 1.5
        assert config_from_mapping(TraodParams, {"traod_d": ""}, keys).D is None

    def test_bad_values_name_their_key(self):
        with pytest.raises(ConfigError, match="n_agents"):
            config_from_mapping(SimConfig, {"n_agents": "abc"})
        with pytest.raises(ConfigError, match="bbox needs 4"):
            config_from_mapping(SimConfig, {"bbox": "1,2,3"})

    def test_typed_values_are_not_coerced(self):
        # parsed flags and JSON values: an int is an int or a float, a float only a float
        assert convert_value(int, "seed", 3) == 3
        assert convert_value(float, "window_days", 2) == 2.0 and convert_value(float, "window_days", 2.5) == 2.5
        assert convert_value(tuple[float, float], "range", [1, 2.5]) == (1.0, 2.5)
        for hint, value in [(str, None), (int, 2.7), (float, True), (int, False), (str, 3)]:
            with pytest.raises(ConfigError, match="key"):
                convert_value(hint, "key", value)

    def test_annotated_function_and_list(self):
        def ranks(name: str, ks: list[int], scale: float = 1.0):
            return name, ks, scale

        assert settings_of(ranks, {"top_k": "3, 5"}, {"top_k": "ks", "scale": "scale"}) == {"ks": [3, 5], "scale": 1.0}

    def test_asdict_keeps_params_hash(self):
        # the values the hand-written to_dict methods hashed to
        assert params_hash(asdict(SimConfig())) == "845a2d262a06"
        # 7 agents cannot hold the default 90 outliers, so this config is hashed without being built
        assert params_hash({**asdict(SimConfig()), "n_agents": 7, "bbox": (1.0, 2.0, 3.0, 4.0)}) == "7981c60ff819"
        assert params_hash(asdict(NetHyper())) == "10126e6233f3"
