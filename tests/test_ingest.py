import calendar

import pytest
from ingest_oracle import Fix, to_fixes, to_records

from conftest import from_stays
from mobanom.core import CorruptInputError, Dataset, GeoPoint, InvalidInputError, Trajectory
from mobanom.ingest import (
    Fixes,
    PoiEntry,
    PoiMap,
    StayPointParams,
    assign_place_types,
    detect_stay_points,
    fallback_cell_id,
    filter_min_records,
    parse_raw_log,
)


def fix(ts, lat, lon):
    return Fix(timestamp=ts, location=GeoPoint(lat, lon))


def parsed(*args):
    """``parse_raw_log``, each agent's :class:`Fixes` as a list of :class:`Fix` records."""
    out = parse_raw_log(*args)
    assert all(isinstance(f, Fixes) for f in out.values())
    return {owner: to_records(f) for owner, f in out.items()}


class TestParseRawLog:
    def test_csv_line(self):
        out = parsed(b"a1,1200000000,39.9,116.4\n", "csv")
        assert out == {"a1": [fix(1200000000, 39.9, 116.4)]}

    def test_plt_record_timestamp(self):
        header = b"h\n" * 6
        record = b"39.906631,116.385564,0,492,39745.1,2008-10-24,02:09:59\n"
        out = parsed(header + record, "plt", "u7")
        # independent oracle: UTC calendar arithmetic
        expected_ts = calendar.timegm((2008, 10, 24, 2, 9, 59))
        assert expected_ts == 1224814199
        assert out["u7"] == [fix(expected_ts, 39.906631, 116.385564)]

    def test_empty_file(self):
        assert parse_raw_log(b"", "csv") == {}
        assert parse_raw_log(b"", "plt") == {}

    def test_malformed_lines_skipped(self):
        data = b"a1,1200000000,39.9,116.4\nbroken line\na1,1200000060,39.9,116.4\n"
        out = parse_raw_log(data, "csv")
        assert len(out["a1"]) == 2

    def test_majority_malformed_raises(self):
        data = b"junk\nmore junk\na1,1200000000,39.9,116.4\n"
        with pytest.raises(CorruptInputError):
            parse_raw_log(data, "csv")

    def test_sorted_by_timestamp(self):
        data = b"a1,1200000060,39.9,116.4\na1,1200000000,39.8,116.3\n"
        out = parsed(data, "csv")
        assert [f.timestamp for f in out["a1"]] == [1200000000, 1200000060]

    def test_unknown_format(self):
        with pytest.raises(InvalidInputError):
            parse_raw_log(b"", "gpx")


class TestDetectStayPoints:
    def test_single_cluster(self):
        fixes = [fix(1000 + 60 * i, 10.0, 20.0) for i in range(61)]  # one hour at one spot
        out = detect_stay_points(to_fixes(fixes), StayPointParams()).points
        assert len(out) == 1
        assert out[0].arrive == 1000
        assert out[0].depart == 1000 + 60 * 60
        assert out[0].place_type == "Unknown"

    def test_alternating_far_points(self):
        fixes = []
        for i in range(40):
            lat = 10.0 if i % 2 == 0 else 10.09  # ~10 km apart
            fixes.append(fix(1000 + 60 * i, lat, 20.0))
        assert detect_stay_points(to_fixes(fixes), StayPointParams()).points == ()

    def test_two_planted_clusters(self):
        params = StayPointParams(dist_threshold_m=200, time_threshold_s=1200)
        fixes = []
        t = 0
        for _ in range(31):  # 30 minutes at first center
            fixes.append(fix(t, 40.0, 116.0))
            t += 60
        for i in range(5):  # fast travel, spread out
            fixes.append(fix(t, 40.0 + 0.02 * (i + 1), 116.0))
            t += 60
        for _ in range(31):  # 30 minutes at second center
            fixes.append(fix(t, 40.5, 116.5))
            t += 60
        out = detect_stay_points(to_fixes(fixes), params).points
        assert len(out) == 2
        assert out[0].location.lat == pytest.approx(40.0, abs=1e-6)
        assert out[0].location.lon == pytest.approx(116.0, abs=1e-6)
        assert out[1].location.lat == pytest.approx(40.5, abs=1e-6)
        assert out[1].location.lon == pytest.approx(116.5, abs=1e-6)

    def test_duration_at_least_threshold(self):
        params = StayPointParams(dist_threshold_m=200, time_threshold_s=1200)
        fixes = [fix(60 * i, 40.0 + (i % 3) * 1e-5, 116.0) for i in range(200)]
        for sp in detect_stay_points(to_fixes(fixes), params).points:
            assert sp.depart - sp.arrive >= 1200

    def test_output_leq_input(self):
        fixes = [fix(60 * i, 40.0, 116.0) for i in range(100)]
        assert len(detect_stay_points(to_fixes(fixes))) <= len(fixes)


def sp_at(lat, lon, arrive=0, depart=0):
    from mobanom.core import StayPoint

    return StayPoint(arrive=arrive, depart=depart, place_id="", place_type="Unknown",
                     location=GeoPoint(lat, lon))


def labelled(points, poi):
    """The stay points of ``assign_place_types`` over the trajectory of ``points``."""
    return assign_place_types(from_stays("", points), poi).points


class TestAssignPlaceTypes:
    def test_inside_one_circle(self):
        poi = PoiMap(entries=[PoiEntry(GeoPoint(10.0, 20.0), 500.0, "Pub", "pub1")])
        out = labelled([sp_at(10.0001, 20.0001)], poi)
        assert out[0].place_type == "Pub"
        assert out[0].place_id == "pub1"

    def test_grid_cell_fallback(self):
        out = labelled([sp_at(10.0001, 20.0001)], PoiMap())
        assert out[0].place_type == "Unknown"
        assert out[0].place_id == "cell:2000:4000"

    def test_fallback_negative_coordinates(self):
        assert fallback_cell_id(GeoPoint(-0.001, -0.001)) == "cell:-1:-1"

    def test_tie_breaks_lexicographic(self):
        poi = PoiMap(
            entries=[
                PoiEntry(GeoPoint(10.001, 20.0), 500.0, "Pub", "b_pub"),
                PoiEntry(GeoPoint(9.999, 20.0), 500.0, "Restaurant", "a_rest"),
            ]
        )
        out = labelled([sp_at(10.0, 20.0)], poi)  # equidistant
        assert out[0].place_id == "a_rest"

    def test_nearest_containing_wins(self):
        poi = PoiMap(
            entries=[
                PoiEntry(GeoPoint(10.0, 20.0), 5000.0, "Recreation", "big"),
                PoiEntry(GeoPoint(10.0005, 20.0), 500.0, "Pub", "near"),
            ]
        )
        out = labelled([sp_at(10.0006, 20.0)], poi)
        assert out[0].place_id == "near"

    def test_deterministic(self):
        poi = PoiMap(entries=[PoiEntry(GeoPoint(10.0, 20.0), 400.0, "Pub", "p")])
        pts = [sp_at(10.0 + i * 1e-4, 20.0, arrive=i, depart=i) for i in range(10)]
        out1 = labelled(pts, poi)
        out2 = labelled(pts, poi)
        assert out1 == out2


class TestPoiMapIO:
    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "poi.jsonl"
        path.write_text(
            '{"lat": 10.0, "lon": 20.0, "radius_m": 300, "place_type": "Pub", "place_id": "p1"}\n'
            '{"lat": 10.5, "lon": 20.5, "radius_m": 100, "place_type": "Workplace", "place_id": "w1"}\n'
        )
        poi = PoiMap.from_jsonl(str(path))
        assert len(poi.entries) == 2
        assert poi.entries[0].place_type == "Pub"
        assert poi.entries[1].radius_m == 100.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            PoiMap(entries=[
                PoiEntry(GeoPoint(0, 0), 10.0, "Pub", "x"),
                PoiEntry(GeoPoint(1, 1), 10.0, "Pub", "x"),
            ])


class TestFilterMinRecords:
    def make_ds(self, counts):
        trajectories = []
        for i, n in enumerate(counts):
            pts = [sp_at(10.0, 20.0, arrive=100 * j, depart=100 * j + 50) for j in range(n)]
            trajectories.append(from_stays(f"a{i}", pts))
        return Dataset(trajectories=trajectories)

    def test_boundaries(self):
        ds = self.make_ds([49, 50, 51])
        out = filter_min_records(ds, 50)
        assert [t.agent_id for t in out.trajectories] == ["a1", "a2"]

    def test_empty(self):
        assert filter_min_records(Dataset(), 50).trajectories == ()

    def test_idempotent(self):
        ds = self.make_ds([10, 60, 70])
        once = filter_min_records(ds, 50)
        twice = filter_min_records(once, 50)
        assert once.trajectories == twice.trajectories


class TestPipeline:
    def test_parse_detect_assign_is_valid(self):
        lines = []
        t = 1_600_000_000
        for _ in range(31):
            lines.append(f"a1,{t},40.0,116.0")
            t += 60
        for i in range(5):
            lines.append(f"a1,{t},{40.0 + 0.02 * (i + 1)},116.0")
            t += 60
        for _ in range(31):
            lines.append(f"a1,{t},40.5,116.5")
            t += 60
        fixes = parse_raw_log("\n".join(lines).encode(), "csv")
        t = assign_place_types(detect_stay_points(fixes["a1"], StayPointParams(), "a1"), PoiMap())
        assert isinstance(t, Trajectory) and t.agent_id == "a1"  # the trajectory rule holds: building it raises otherwise
        assert len(t) == 2
