"""The columnar ingest against the scalar oracle in ``ingest_oracle``, and its invariants."""

import contextlib
import logging
import os
import re
import subprocess
import sys

import ingest_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_stays
from mobanom.core import (
    ConfigError,
    CorruptInputError,
    Dataset,
    GeoPoint,
    InvalidInputError,
    StayPoint,
    haversine_km,
    write_dataset,
)
from mobanom.ingest import (
    Fixes,
    PoiEntry,
    PoiMap,
    StayPointParams,
    _distance_within,
    assign_place_types,
    detect_stay_points,
    filter_min_records,
    ingest_dataset,
    load_plt_tree,
    parse_raw_log,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def exact(points):
    """Everything a written stay point carries, floats by their bits."""
    return [(type(p.arrive), p.arrive, p.depart, p.place_id, p.place_type, type(p.location.lat),
             p.location.lat.hex(), p.location.lon.hex()) for p in points]


def fixes_m(a: oracle.Fix, b: oracle.Fix) -> float:
    return haversine_km(a.location, b.location) * 1000.0


def stay_points(fixes: list[oracle.Fix], *params) -> list[StayPoint]:
    """The stay points of ``detect_stay_points`` over the oracle's records, as columns."""
    return list(detect_stay_points(oracle.to_fixes(fixes), *params).points)


def parsed_records(*args) -> dict[str, list[oracle.Fix]]:
    """``parse_raw_log`` with each agent's columns as the oracle's records."""
    return {owner: oracle.to_records(f) for owner, f in parse_raw_log(*args).items()}


@contextlib.contextmanager
def warnings_of(*names):
    """Collect the warning messages of the named loggers."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    loggers = [logging.getLogger(name) for name in names]
    for lg in loggers:
        lg.addHandler(handler)
    try:
        yield messages
    finally:
        for lg in loggers:
            lg.removeHandler(handler)


def outcome(parse, *args):
    """(result, warnings) of a parse, or the exception's type and text."""
    with warnings_of("mobanom.ingest", oracle.__name__) as messages:
        try:
            return parse(*args), messages
        except Exception as exc:  # the oracle's exception is part of what must match
            return (type(exc), str(exc)), messages


# ---------------------------------------------------------------------------
# Stay points
# ---------------------------------------------------------------------------

offsets = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.004, 0.004))  # up to ~450 m


@st.composite
def fix_runs(draw):
    """Time-sorted fixes around one base point (ties in time allowed) and thresholds for them.

    The distance threshold is either a round number or exactly the oracle
    distance from one fix to another, so runs end on the boundary.
    """
    lat0 = draw(st.sampled_from([0.0, -0.0, 39.9, -33.87, 89.995]))
    lon0 = draw(st.sampled_from([0.0, 116.4, -179.996, 179.996]))
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.sampled_from([0, 30, 60, 120, 600]), min_size=n, max_size=n))
    fixes, t = [], 1_200_000_000
    for gap in gaps:
        t += gap
        lat = min(90.0, max(-90.0, lat0 + draw(offsets)))
        lon = min(180.0, max(-180.0, lon0 + draw(offsets)))
        fixes.append(oracle.Fix(t, GeoPoint(lat, lon)))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    tie = fixes_m(fixes[a], fixes[b])
    dist = tie if tie > 0 and draw(st.booleans()) else draw(st.sampled_from([50.0, 200.0, 500.0]))
    params = StayPointParams(dist_threshold_m=dist, time_threshold_s=draw(st.sampled_from([1, 60, 600, 1200])))
    return fixes, params


@settings(max_examples=200, deadline=None)
@given(fix_runs())
def test_stay_points_equal_the_oracle_and_keep_their_invariants(case):
    fixes, params = case
    out = stay_points(fixes, params)
    assert exact(out) == exact(oracle.detect_stay_points(fixes, params))
    for sp in out:
        assert sp.depart - sp.arrive >= params.time_threshold_s
    for prev, nxt in zip(out, out[1:]):
        assert prev.arrive <= prev.depart <= nxt.arrive  # time-ordered, never overlapping


def test_fix_exactly_at_the_threshold_stays_in_the_run():
    fixes = [oracle.Fix(60 * k, GeoPoint(40.0 + 1e-4 * k, 116.0)) for k in range(30)]
    edge = fixes_m(fixes[0], fixes[20])
    for dist, last in ((edge, 20), (np.nextafter(edge, 0.0), 19)):
        params = StayPointParams(dist_threshold_m=float(dist), time_threshold_s=600)
        out = stay_points(fixes, params)
        assert exact(out) == exact(oracle.detect_stay_points(fixes, params))
        assert out[0].arrive == 0 and out[0].depart == 60 * last


def test_a_threshold_where_numpy_and_libm_disagree_is_decided_by_libm():
    # numpy's arcsin and squares differ from libm's asin and pow in the last bit
    # for some pairs (a few percent of pairs thousands of km apart); find one
    # whose array distance lies above the libm one
    rng = np.random.default_rng(7)
    a = GeoPoint(40.0, 116.0)
    for _ in range(10_000):
        b = GeoPoint(float(rng.uniform(-60.0, 60.0)), float(rng.uniform(-60.0, 60.0)))
        libm = haversine_km(a, b) * 1000.0
        if _distance_within(a.lat, a.lon, [b.lat], [b.lon], 1e12)[0][0] > libm:  # a limit nothing is near
            break
    else:
        pytest.skip("numpy and libm agree on every pair tried")
    fixes = [oracle.Fix(0, a), oracle.Fix(600, b), oracle.Fix(1200, GeoPoint(-40.0, -64.0))]  # the last at a's antipode
    params = StayPointParams(dist_threshold_m=libm, time_threshold_s=600)
    assert _distance_within(a.lat, a.lon, [b.lat], [b.lon], libm)[1][0]
    out = stay_points(fixes, params)
    assert exact(out) == exact(oracle.detect_stay_points(fixes, params)) and len(out) == 1


def test_runs_end_at_the_last_fix_and_a_single_fix_is_no_stay():
    fixes = [oracle.Fix(60 * k, GeoPoint(40.0, 116.0)) for k in range(200)]  # longer than the first scan block
    out = stay_points(fixes)
    assert exact(out) == exact(oracle.detect_stay_points(fixes)) and out[0].depart == 60 * 199
    assert stay_points(fixes[:1]) == [] == oracle.detect_stay_points(fixes[:1])
    assert stay_points([]) == []


def test_all_negative_zero_run_means_positive_zero_as_sum_does():
    fixes = [oracle.Fix(60 * k, GeoPoint(-0.0, -0.0)) for k in range(30)]
    out = stay_points(fixes)
    assert exact(out) == exact(oracle.detect_stay_points(fixes))
    assert str(out[0].location.lat) == "0.0"


@pytest.mark.parametrize("field", ["dist_threshold_m", "time_threshold_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_stay_point_params_reject_non_finite_and_non_positive(field, value):
    with pytest.raises(ConfigError):
        StayPointParams(**{field: value})


def test_out_of_range_fixes_are_rejected():
    # the parsers drop such fixes; columns built by hand fail when the GeoPoint of their stay is built
    fixes = Fixes(np.array([0, 1200]), np.array([91.0, 91.0]), np.array([0.0, 0.0]))
    with pytest.raises(InvalidInputError):
        detect_stay_points(fixes)


# ---------------------------------------------------------------------------
# Place labels
# ---------------------------------------------------------------------------


@st.composite
def labelling_cases(draw):
    """Stay points (two minutes apart) and POIs in a ~1 km box; some POIs share a center, some radii end exactly on
    a point."""
    def near():
        return GeoPoint(39.9 + draw(st.floats(-0.005, 0.005)), 116.4 + draw(st.floats(-0.005, 0.005)))

    points = [StayPoint(120 * k, 120 * k + 60, "", "Unknown", near()) for k in range(draw(st.integers(0, 8)))]
    entries = []
    for k in range(draw(st.integers(0, 8))):
        center = entries[-1].center if entries and draw(st.booleans()) else near()
        radius = draw(st.floats(10.0, 800.0))
        if points and draw(st.booleans()):
            radius = max(1e-9, haversine_km(draw(st.sampled_from(points)).location, center) * 1000.0)
        entries.append(PoiEntry(center, radius, draw(st.sampled_from(["Pub", "Workplace"])), f"p{draw(st.integers(0, 99))}-{k}"))
    return points, PoiMap(entries=entries)


@settings(max_examples=200, deadline=None)
@given(labelling_cases())
def test_place_labels_equal_the_oracle(case):
    points, poi = case
    assert exact(assign_place_types(from_stays("", points), poi).points) == exact(oracle.assign_place_types(points, poi))


def test_poi_centres_are_validated_at_load():
    with pytest.raises(InvalidInputError):
        PoiEntry(GeoPoint(10.0, 200.0), 100.0, "Pub", "p")
    with pytest.raises(InvalidInputError):
        PoiEntry(GeoPoint(10.0, 20.0), float("nan"), "Pub", "p")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

COORDS = ["39.906631", "116.385564", " 39.9", "39.9 ", "-0.0", "nan", "inf", "-inf", "1e3", "1e1", "91", "-90", "180",
          "180.0001", "1_0", "abc", ""]
DATES = ["2008-10-24", "2008-10- 4", " 2008-10-24", "2008-10-24 ", "2008-02-30", "2008-02-29", "2009-02-29",
         "2008-1-5", "08-10-24", "2008-13-01", "2008-00-10", "0001-01-01", "9999-12-31", "٢٠٠٨-١٠-٢٤", "2008/10/24"]
TIMES = ["02:09:59", "2:9:5", "02:09:60", "02:09:61", "23:59:59", " 02:09:59", "24:00:00", "02:09:59x", "02:09",
         "00:00:00", "12:60:00"]
STAMPS = ["1200000000", " 1200000000", "1200000000 ", "+5", "-5", "0", "1.5", "1e3", "", "0x10", "1_000",
          str(2**63 - 1), str(-(2**63))]


def joined(draw, fields):
    """Fields joined by commas with optional spaces around them."""
    seps = draw(st.lists(st.sampled_from([",", ", ", " ,", ",,"]), min_size=len(fields) - 1, max_size=len(fields) - 1))
    return "".join(f + s for f, s in zip(fields, seps + [""]))


@st.composite
def plt_logs(draw):
    lines = ["header"] * 6
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS)), "0", "492", "39745.1",
                  draw(st.sampled_from(DATES)), draw(st.sampled_from(TIMES))]
        lines.append(draw(st.sampled_from(["", "   "])) if draw(st.integers(0, 9)) == 0 else joined(draw, fields))
    return "\n".join(lines).encode()


@st.composite
def csv_logs(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):  # agents interleave
        fields = [draw(st.sampled_from(["a", "b", "c", " a", "a "])), draw(st.sampled_from(STAMPS)),
                  draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS))]
        lines.append(joined(draw, fields))
    return "\r\n".join(lines).encode()


@settings(max_examples=250, deadline=None)
@given(plt_logs())
def test_plt_lines_parse_like_the_oracle(data):
    assert outcome(parsed_records, data, "plt", "u1") == outcome(oracle.parse_raw_log, data, "plt", "u1")


@settings(max_examples=250, deadline=None)
@given(csv_logs())
def test_csv_lines_parse_like_the_oracle(data):
    new, old = outcome(parsed_records, data, "csv"), outcome(oracle.parse_raw_log, data, "csv")
    assert new == old
    if isinstance(new[0], dict):
        assert list(new[0]) == list(old[0])  # agents in order of their first fix


def test_timestamp_beyond_int64_is_malformed():
    data = f"a,{2**63},40.0,116.0\na,1200000000,40.0,116.0\n".encode()
    assert parsed_records(data, "csv") == {"a": [oracle.Fix(1200000000, GeoPoint(40.0, 116.0))]}


def test_csv_agent_ids_drop_surrounding_whitespace():
    data = b"a ,1200000000,40.0,116.0\n a\t,1200000060,40.0,116.0\na,1200000120,40.0,116.0\n"
    expected = {"a": [oracle.Fix(1200000000 + 60 * k, GeoPoint(40.0, 116.0)) for k in range(3)]}
    assert parsed_records(data, "csv") == oracle.parse_raw_log(data, "csv") == expected


def write_tree(root, files):
    for (agent, name), rows in files.items():
        path = os.path.join(root, agent, "Trajectory", name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("h\n" * 6 + "".join(f"{lat},{lon},0,0,0,{stamp}\n" for lat, lon, stamp in rows))


def test_plt_tree_sorts_each_agent_once_like_the_oracle(tmp_path):
    # files out of time order, many equal timestamps within and across files (an unstable
    # sort reorders them), junk lines
    stamps = ["2008-10-24,02:00:00", "2008-10-24,01:00:00", "2008-10-24,03:00:00"]
    write_tree(str(tmp_path), {
        ("u1", "b.plt"): [(40.0 + k * 1e-4, 116.0, stamps[k % 3]) for k in range(90)],
        ("u1", "a.plt"): [(41.0 + k * 1e-4, 116.0, stamps[k % 2]) for k in range(60)] + [("x", 116.0, stamps[0])],
        ("u2", "c.plt"): [(41.0, 117.0, "2008-10-25,00:00:00")],
        ("u3", "d.plt"): [("junk", 117.0, "2008-10-25,00:00:00"), (41.0, 117.0, "2008-10-25,00:00:00")],
    })
    new, old = load_plt_tree(str(tmp_path)), oracle.load_plt_tree(str(tmp_path))
    assert list(new) == list(old) == ["u1", "u2", "u3"]
    for agent, f in new.items():
        assert [(fx.timestamp, fx.location.lat) for fx in old[agent]] == list(zip(f.ts.tolist(), f.lat.tolist()))
        assert f.ts.dtype == np.int64 and len(f) == len(old[agent])


def test_a_corrupt_plt_file_is_named_and_aborts_the_tree(tmp_path):
    good = [(40.0, 116.0, "2008-10-24,02:00:00"), (40.1, 116.0, "2008-10-24,03:00:00")]
    write_tree(str(tmp_path), {
        ("u1", "a.plt"): good,
        ("u2", "b.plt"): good,
        ("u2", "c.plt"): [("junk", 116.0, "2008-10-24,02:00:00")] * 2 + good[:1],
        ("u3", "d.plt"): good,
    })
    bad = os.path.join(str(tmp_path), "u2", "Trajectory", "c.plt")
    with pytest.raises(CorruptInputError, match=re.escape(f"{bad}: 2/3 lines malformed")):
        load_plt_tree(str(tmp_path))
    with open(bad, "rb") as fh, pytest.raises(CorruptInputError, match="^2/3 lines malformed$"):  # parse_raw_log's own
        parse_raw_log(fh.read(), "plt")


def test_multi_agent_csv_ingests_byte_identical_to_the_oracle(tmp_path):
    rng = np.random.default_rng(3)
    rows, t = [], 1_600_000_000
    places = [(40.0, 116.0), (40.01, 116.02), (39.99, 116.01)]
    for step in range(900):  # three agents, interleaved, hopping between places
        t += 60
        for a in range(3):
            lat, lon = places[(step // (40 + 10 * a) + a) % 3]
            rows.append(f"agent{a},{t},{lat + rng.normal(0, 1e-4):.6f},{lon + rng.normal(0, 1e-4):.6f}")
    csv = tmp_path / "raw.csv"
    csv.write_text("\n".join(rows) + "\nbroken\n", encoding="utf-8")
    poi = PoiMap(entries=[PoiEntry(GeoPoint(*places[0]), 300.0, "Apartment", "home"),
                          PoiEntry(GeoPoint(*places[1]), 300.0, "Workplace", "work")])
    ds = ingest_dataset(str(csv), "csv", poi=poi, min_points=1)
    with open(csv, "rb") as fh:
        parsed = oracle.parse_raw_log(fh.read(), "csv")
    expected = [from_stays(a, oracle.assign_place_types(oracle.detect_stay_points(parsed[a]), poi)) for a in sorted(parsed)]
    write_dataset(ds, str(tmp_path / "new.jsonl"))
    write_dataset(filter_min_records(Dataset(trajectories=expected, meta=ds.meta), 1), str(tmp_path / "old.jsonl"))
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    assert sum(len(t.points) for t in ds.trajectories) >= 30


DEMO_02_STDOUT = """\
parsed 105 fixes for agent u1
detected 2 stay points:
  1700000000 .. 1700002520  (42 min) at (40.0001, 116.0001)
  1700003420 .. 1700006240  (47 min) at (40.0079, 116.0080)
  -> Apartment  place_id=home1
  -> Unknown    place_id=cell:8001:23201
"""


def test_ingest_demo_prints_what_it_always_printed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    demo = os.path.join(ROOT, "demos", "02_ingest_gps_logs.py")
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_02_STDOUT
