"""Raw GPS log parsing, stay-point compression, and semantic place labeling.

Input formats:

* ``plt``: one file per trajectory chunk: 6 header lines, then
  ``lat,lon,0,altitude_ft,days,date,time`` records (dates are UTC).  Agent
  identity comes from the directory layout (``<root>/<agent>/[Trajectory/]*.plt``).
* ``csv``: flat ``agent_id,timestamp,lat,lon`` rows with integer epoch-second
  timestamps; may hold many agents.  Whitespace around the agent id is dropped.

Both parse into :class:`Fixes` (numpy columns, coordinates validated once).
The stay-point detector is the classic two-threshold scan: a maximal run of
fixes that all stay within ``dist_threshold_m`` of the run's first fix and
that spans at least ``time_threshold_s`` collapses into a single stay point at
the run's mean coordinates.  The detector and the labeller return trajectories.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core import EARTH_RADIUS_KM, CorruptInputError, Dataset, GeoPoint, InvalidInputError, Place, Trajectory
from .core import _check_types, _one_line_per, check_settings, haversine_km, naming, params_hash, read_jsonl

log = logging.getLogger(__name__)

PLT_HEADER_LINES = 6

#: Grid cell side used for the fallback place ids of unlabeled stay points.
FALLBACK_CELL_DEG = 0.005

#: Relative gap below which an array distance is recomputed by ``haversine_km``
#: before it is compared (the array and libm results differ by a few ulps at most).
_NEAR_REL = 1e-9


@dataclass(frozen=True, eq=False)
class Fixes:
    """One agent's raw fixes as columns: ``ts`` int64 epoch seconds, ``lat``/``lon`` float64 degrees."""

    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


def _valid(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Which raw coordinates a ``GeoPoint`` would accept (NaN and inf fail both comparisons)."""
    return (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)


def _by_time(*parts: Fixes) -> Fixes:
    """The fixes of ``parts`` in one stable sort by time (ties keep their order)."""
    ts, lat, lon = (np.concatenate(col) for col in zip(*((f.ts, f.lat, f.lon) for f in parts)))
    order = np.argsort(ts, kind="stable")
    return Fixes(ts[order], lat[order], lon[order])


@dataclass(frozen=True)
class StayPointParams:
    dist_threshold_m: float = 200.0
    time_threshold_s: float = 1200.0

    def __post_init__(self):
        check_settings(self, [("dist_threshold_m", 0 < self.dist_threshold_m < math.inf, "finite and > 0"),
                              ("time_threshold_s", 0 < self.time_threshold_s < math.inf, "finite and > 0")])


@dataclass(frozen=True)
class PoiEntry:
    center: GeoPoint
    radius_m: float
    place_type: str
    place_id: str

    def __post_init__(self):
        _check_types({"radius_m": self.radius_m, "place_type": self.place_type, "place_id": self.place_id})
        if not 0 < self.radius_m < math.inf:
            raise InvalidInputError(f"radius of {self.place_id!r} must be positive and finite")


def _poi_entry(obj: dict) -> PoiEntry:
    _check_types(obj)
    center = GeoPoint(float(obj["lat"]), float(obj["lon"]))
    return PoiEntry(center, float(obj["radius_m"]), obj["place_type"], obj["place_id"])


@dataclass
class PoiMap:
    entries: list[PoiEntry] = field(default_factory=list)

    def __post_init__(self):
        checked = _one_line_per("place_id", dict)  # each entry checked itself when built
        for e in self.entries:
            checked({"place_id": e.place_id})

    @classmethod
    def from_jsonl(cls, path: str) -> "PoiMap":
        """One POI per line, one line per place_id; a fault names ``path:line``."""
        return cls(entries=read_jsonl(path, _one_line_per("place_id", _poi_entry)))


def _field_seconds(fmt: str, origin: datetime):
    """A memo of the seconds since ``origin`` of a field that ``strptime(field, fmt)`` accepts, else None."""
    def seconds(text: str) -> int | None:
        try:
            return int((datetime.strptime(text, fmt) - origin).total_seconds())
        except ValueError:
            return None
    return functools.lru_cache(maxsize=1 << 16)(seconds)


_plt_day_s = _field_seconds("%Y-%m-%d", datetime(1970, 1, 1))
_plt_time_s = _field_seconds("%H:%M:%S", datetime(1900, 1, 1))


def _plt_ts(date: str, time_of_day: str) -> int:
    """Epoch seconds of ``strptime(date + " " + time_of_day, "%Y-%m-%d %H:%M:%S")``.

    Two fields that parse alone parse together to the same instant; a field
    that fails alone (say, a time with leading whitespace, which the joint
    format's space absorbs) goes to the joint parse.
    """
    day, second = _plt_day_s(date), _plt_time_s(time_of_day)
    if day is None or second is None:
        dt = datetime.strptime(date + " " + time_of_day, "%Y-%m-%d %H:%M:%S")
        return int(dt.replace(tzinfo=timezone.utc).timestamp())
    return day + second


def _parse_columns(data: bytes, format_tag: str, agent_id: str) -> dict[str, Fixes]:
    """Unsorted fixes per agent of one raw log (``agent_id`` owns ``plt`` data), in order of first fix.

    Lines with the wrong field count, a field that does not parse, a
    timestamp outside int64 or coordinates out of range are counted and
    skipped; more than 50% malformed raises :class:`CorruptInputError`.
    """
    if format_tag not in ("plt", "csv"):
        raise InvalidInputError(f"unknown format {format_tag!r}")
    lines = data.decode("utf-8", errors="replace").splitlines()
    if format_tag == "plt":
        lines = lines[PLT_HEADER_LINES:]
    lines = [line for line in map(str.strip, lines) if line]
    plt = format_tag == "plt"
    rows: dict[str, list[int]] = {}
    ts, lat, lon = [], [], []
    for line in lines:
        parts = line.split(",")
        if len(parts) != (7 if plt else 4):
            continue
        try:
            if plt:
                owner, t, la, lo = agent_id, _plt_ts(parts[5], parts[6]), float(parts[0]), float(parts[1])
            else:
                owner, t, la, lo = parts[0].strip(), int(parts[1]), float(parts[2]), float(parts[3])
        except ValueError:
            continue
        if -(1 << 63) <= t < 1 << 63:
            rows.setdefault(owner, []).append(len(ts))
            ts.append(t)
            lat.append(la)
            lon.append(lo)
    ts, lat, lon = np.array(ts, dtype=np.int64), np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64)
    valid = _valid(lat, lon)
    malformed = len(lines) - int(valid.sum())
    if lines and malformed / len(lines) > 0.5:
        raise CorruptInputError(f"{malformed}/{len(lines)} lines malformed")
    if malformed:
        log.warning("skipped %d malformed lines", malformed)
    kept = [(owner, k) for owner, index in rows.items() if len(k := np.array(index)[valid[index]])]
    return {owner: Fixes(ts[k], lat[k], lon[k]) for owner, k in sorted(kept, key=lambda item: item[1][0])}


def parse_raw_log(data: bytes, format_tag: str, agent_id: str = "agent0") -> dict[str, Fixes]:
    """Time-sorted fixes per agent of one raw log (see :func:`_parse_columns`)."""
    return {owner: _by_time(f) for owner, f in _parse_columns(data, format_tag, agent_id).items()}


def load_plt_tree(root: str) -> dict[str, Fixes]:
    """Walk a per-agent directory tree of ``.plt`` files.

    A file more than 50% malformed aborts the walk with a
    :class:`CorruptInputError` that names the file.
    """
    if not os.path.isdir(root):
        raise InvalidInputError(f"not a directory: {root}")
    out: dict[str, Fixes] = {}
    for agent in sorted(os.listdir(root)):
        agent_dir = os.path.join(root, agent)
        if not os.path.isdir(agent_dir):
            continue
        plt_files = [os.path.join(d, name) for d, _, names in os.walk(agent_dir) for name in names if name.endswith(".plt")]
        parts: list[Fixes] = []
        for path in sorted(plt_files):
            with open(path, "rb") as fh, naming(path):
                parts.extend(_parse_columns(fh.read(), "plt", agent).values())
        if parts:
            out[agent] = _by_time(*parts)
    return out


def _distance_within(lat1, lon1, lat2, lon2, limit) -> tuple[np.ndarray, np.ndarray]:
    """Great-circle metres between broadcast degree arrays, and whether each is ``<= limit``.

    This is ``haversine_km * 1000`` in its operation order, but numpy's
    arcsin and squares can differ from libm's by an ulp, so a distance this
    close to its limit is decided by ``haversine_km`` itself.
    """
    la1, lo1, la2, lo2 = np.radians(lat1), np.radians(lon1), np.radians(lat2), np.radians(lon2)
    h = np.sin((la2 - la1) / 2.0) ** 2 + np.cos(la1) * np.cos(la2) * np.sin((lo2 - lo1) / 2.0) ** 2
    d = EARTH_RADIUS_KM * 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(h))) * 1000.0
    inside = d <= limit
    near = np.abs(d - limit) <= _NEAR_REL * limit
    if near.any():
        args = np.broadcast_arrays(lat1, lon1, lat2, lon2, limit)
        for index in zip(*np.nonzero(near)):
            a1, o1, a2, o2, bound = (float(x[index]) for x in args)
            inside[index] = haversine_km(GeoPoint(a1, o1), GeoPoint(a2, o2)) * 1000.0 <= bound
    return d, inside


def detect_stay_points(fixes: Fixes, params: StayPointParams = StayPointParams(), agent_id: str = "") -> Trajectory:
    """Compress time-sorted fixes into ``agent_id``'s stay points, each at a place of its own (place_type "Unknown").

    Runs never overlap and output is time-ordered; every stay point spans at
    least ``time_threshold_s``.  Only a fix whose next step stays within
    ``dist_threshold_m`` can anchor a run (a lone fix spans 0 s); each such
    anchor is scanned in growing blocks up to its first fix beyond the radius.
    """
    n, limit, ts, lat, lon = len(fixes), params.dist_threshold_m, fixes.ts.tolist(), fixes.lat, fixes.lon
    anchors = np.flatnonzero(_distance_within(lat[:-1], lon[:-1], lat[1:], lon[1:], limit)[1])
    stays = []  # (arrive, depart, place) of each run
    a = 0
    while a < len(anchors):
        i = j = int(anchors[a])
        block = 64
        while j + 1 < n:  # fixes i..j are within the radius of fix i
            hi = min(n, j + 1 + block)
            inside = _distance_within(lat[i], lon[i], lat[j + 1 : hi], lon[j + 1 : hi], limit)[1]
            if not inside.all():
                j += int(np.argmin(inside))
                break
            j, block = hi - 1, 2 * block
        if ts[j] - ts[i] >= params.time_threshold_s:
            # the run's running total from 0.0, bit for bit: cumsum adds left to right, and 0.0 + -0.0 is +0.0
            mean = [(0.0 + float(np.cumsum(c[i : j + 1])[-1])) / (j - i + 1) for c in (lat, lon)]
            stays.append((ts[i], ts[j], Place("", "Unknown", GeoPoint(*mean))))
            a = int(np.searchsorted(anchors, j + 1))
        else:
            a += 1
    arrive, depart, places = zip(*stays) if stays else ((), (), ())
    return Trajectory(agent_id, arrive=arrive, depart=depart, place_code=range(len(places)), places=places)


def fallback_cell_id(p: GeoPoint) -> str:
    return f"cell:{math.floor(p.lat / FALLBACK_CELL_DEG)}:{math.floor(p.lon / FALLBACK_CELL_DEG)}"


def assign_place_types(t: Trajectory, poi: PoiMap) -> Trajectory:
    """``t``'s columns, each of its places labelled with the nearest containing POI, or a grid cell.

    Containment means center distance <= radius; ties break on smaller center
    distance, then lexicographic place_id.  Deterministic for fixed inputs.
    One place x POI distance matrix decides; the POIs within a hair of a
    place's nearest containing one are compared by ``haversine_km`` itself.
    """
    locations = [p.location for p in t.places]
    lat, lon = (np.array([getattr(p, c) for p in locations], dtype=np.float64)[:, None] for c in ("lat", "lon"))
    entries = poi.entries
    centers = np.array([(e.center.lat, e.center.lon) for e in entries], dtype=np.float64).reshape(-1, 2)
    radius = np.array([e.radius_m for e in entries], dtype=np.float64)
    d, inside = _distance_within(lat, lon, centers[:, 0], centers[:, 1], radius)
    places = []
    for r, location in enumerate(locations):
        hits = np.flatnonzero(inside[r])
        if len(hits):
            ties = hits[d[r, hits] <= d[r, hits].min() * (1.0 + _NEAR_REL)]
            best = entries[min(ties, key=lambda c: (haversine_km(location, entries[c].center) * 1000.0, entries[c].place_id))]
            places.append(Place(best.place_id, best.place_type, location))
        else:
            places.append(Place(fallback_cell_id(location), "Unknown", location))
    return Trajectory(t.agent_id, arrive=t.arrive, depart=t.depart, place_code=t.place_code, places=places)


def filter_min_records(ds: Dataset, min_points: int = 50) -> Dataset:
    """Drop agents with fewer than ``min_points`` stay points (order preserved)."""
    kept = [t for t in ds.trajectories if len(t) >= min_points]
    return Dataset(trajectories=kept, meta=ds.meta)


def ingest_dataset(
    input_path: str,
    format_tag: str = "csv",
    params: StayPointParams = StayPointParams(),
    poi: PoiMap | None = None,
    min_points: int = 50,
) -> Dataset:
    """Full raw-log -> canonical-dataset pipeline (parse, detect, label, filter)."""
    if format_tag == "plt":
        per_agent = load_plt_tree(input_path)
    else:
        with open(input_path, "rb") as fh:
            per_agent = parse_raw_log(fh.read(), format_tag)
    poi = poi or PoiMap()
    trajectories = [assign_place_types(detect_stay_points(per_agent[a], params, a), poi) for a in sorted(per_agent)]
    meta = {
        "source": os.path.basename(input_path),
        "format": format_tag,
        "dist_threshold_m": params.dist_threshold_m,
        "time_threshold_s": params.time_threshold_s,
        "min_points": min_points,
    }
    meta["config_hash"] = params_hash(meta)
    return filter_min_records(Dataset(trajectories=trajectories, meta=meta), min_points)
