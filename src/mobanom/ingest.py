"""Raw GPS log parsing, stay-point compression, and semantic place labeling.

Input formats:

* ``plt``: one file per trajectory chunk: 6 header lines, then
  ``lat,lon,0,altitude_ft,days,date,time`` records (dates are UTC).  Agent
  identity comes from the directory layout (``<root>/<agent>/[Trajectory/]*.plt``).
* ``csv``: flat ``agent_id,timestamp,lat,lon`` rows with integer epoch-second
  timestamps; may hold many agents.

The stay-point detector is the classic two-threshold scan: a maximal run of
fixes that all stay within ``dist_threshold_m`` of the run's first fix and
that spans at least ``time_threshold_s`` collapses into a single stay point at
the run's mean coordinates.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .core import (
    CorruptInputError,
    Dataset,
    GeoPoint,
    InvalidInputError,
    StayPoint,
    Trajectory,
    haversine_km,
    params_hash,
)

log = logging.getLogger(__name__)

PLT_HEADER_LINES = 6

#: Grid cell side used for the fallback place ids of unlabeled stay points.
FALLBACK_CELL_DEG = 0.005


@dataclass(frozen=True)
class RawFix:
    timestamp: int
    location: GeoPoint


@dataclass(frozen=True)
class StayPointParams:
    dist_threshold_m: float = 200.0
    time_threshold_s: float = 1200.0

    def __post_init__(self):
        if self.dist_threshold_m <= 0 or self.time_threshold_s <= 0:
            raise InvalidInputError("stay-point thresholds must be positive")


@dataclass(frozen=True)
class PoiEntry:
    center: GeoPoint
    radius_m: float
    place_type: str
    place_id: str


@dataclass
class PoiMap:
    entries: list[PoiEntry] = field(default_factory=list)

    def __post_init__(self):
        ids = [e.place_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise InvalidInputError("duplicate place_id in PoiMap")
        for e in self.entries:
            if e.radius_m <= 0:
                raise InvalidInputError(f"non-positive radius for {e.place_id!r}")

    @classmethod
    def from_jsonl(cls, path: str) -> "PoiMap":
        import json

        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                entries.append(
                    PoiEntry(
                        center=GeoPoint(float(obj["lat"]), float(obj["lon"])),
                        radius_m=float(obj["radius_m"]),
                        place_type=str(obj["place_type"]),
                        place_id=str(obj["place_id"]),
                    )
                )
        return cls(entries=entries)


def _parse_plt_line(line: str) -> RawFix | None:
    parts = line.strip().split(",")
    if len(parts) != 7:
        return None
    try:
        lat = float(parts[0])
        lon = float(parts[1])
        dt = datetime.strptime(parts[5] + " " + parts[6], "%Y-%m-%d %H:%M:%S")
        ts = int(dt.replace(tzinfo=timezone.utc).timestamp())
    except ValueError:
        return None
    gp = GeoPoint(lat, lon)
    try:
        gp.validate()
    except InvalidInputError:
        return None
    return RawFix(timestamp=ts, location=gp)


def _parse_csv_line(line: str) -> tuple[str, RawFix] | None:
    parts = line.strip().split(",")
    if len(parts) != 4:
        return None
    try:
        ts = int(parts[1])
        gp = GeoPoint(float(parts[2]), float(parts[3]))
        gp.validate()
    except (ValueError, InvalidInputError):
        return None
    return parts[0], RawFix(timestamp=ts, location=gp)


def parse_raw_log(data: bytes, format_tag: str, agent_id: str = "agent0") -> dict[str, list[RawFix]]:
    """Parse one raw log into time-sorted fixes per agent.

    Malformed lines are counted and skipped; more than 50% malformed raises
    :class:`CorruptInputError`.  ``agent_id`` names the owner of ``plt`` data
    (the format itself carries no agent field).
    """
    if format_tag not in ("plt", "csv"):
        raise InvalidInputError(f"unknown format {format_tag!r}")
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if format_tag == "plt":
        lines = lines[PLT_HEADER_LINES:]
    lines = [ln for ln in lines if ln.strip()]
    fixes: dict[str, list[RawFix]] = {}
    malformed = 0
    for line in lines:
        if format_tag == "plt":
            fix = _parse_plt_line(line)
            if fix is None:
                malformed += 1
                continue
            fixes.setdefault(agent_id, []).append(fix)
        else:
            parsed = _parse_csv_line(line)
            if parsed is None:
                malformed += 1
                continue
            aid, fix = parsed
            fixes.setdefault(aid, []).append(fix)
    if lines and malformed / len(lines) > 0.5:
        raise CorruptInputError(f"{malformed}/{len(lines)} lines malformed")
    if malformed:
        log.warning("skipped %d malformed lines", malformed)
    for agent_fixes in fixes.values():
        agent_fixes.sort(key=lambda f: f.timestamp)
    return fixes


def load_plt_tree(root: str) -> dict[str, list[RawFix]]:
    """Walk a per-agent directory tree of ``.plt`` files."""
    if not os.path.isdir(root):
        raise InvalidInputError(f"not a directory: {root}")
    out: dict[str, list[RawFix]] = {}
    for agent in sorted(os.listdir(root)):
        agent_dir = os.path.join(root, agent)
        if not os.path.isdir(agent_dir):
            continue
        plt_files = []
        for dirpath, _, filenames in os.walk(agent_dir):
            for name in filenames:
                if name.endswith(".plt"):
                    plt_files.append(os.path.join(dirpath, name))
        agent_fixes: list[RawFix] = []
        for path in sorted(plt_files):
            with open(path, "rb") as fh:
                parsed = parse_raw_log(fh.read(), "plt", agent_id=agent)
            agent_fixes.extend(parsed.get(agent, []))
        if agent_fixes:
            agent_fixes.sort(key=lambda f: f.timestamp)
            out[agent] = agent_fixes
    return out


def detect_stay_points(fixes: list[RawFix], params: StayPointParams = StayPointParams()) -> list[StayPoint]:
    """Compress time-sorted fixes into stay points (place_type "Unknown").

    Runs never overlap and output is time-ordered; every stay point spans at
    least ``time_threshold_s``.
    """
    out: list[StayPoint] = []
    n = len(fixes)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and (
            haversine_km(fixes[i].location, fixes[j + 1].location) * 1000.0 <= params.dist_threshold_m
        ):
            j += 1
        if fixes[j].timestamp - fixes[i].timestamp >= params.time_threshold_s:
            run = fixes[i : j + 1]
            lat = sum(f.location.lat for f in run) / len(run)
            lon = sum(f.location.lon for f in run) / len(run)
            out.append(
                StayPoint(
                    arrive=fixes[i].timestamp,
                    depart=fixes[j].timestamp,
                    place_id="",
                    place_type="Unknown",
                    location=GeoPoint(lat, lon),
                )
            )
            i = j + 1
        else:
            i += 1
    return out


def fallback_cell_id(p: GeoPoint) -> str:
    return f"cell:{math.floor(p.lat / FALLBACK_CELL_DEG)}:{math.floor(p.lon / FALLBACK_CELL_DEG)}"


def assign_place_types(points: list[StayPoint], poi: PoiMap) -> list[StayPoint]:
    """Label each stay point with the nearest containing POI, or a grid cell.

    Containment means center distance <= radius; ties break on smaller center
    distance, then lexicographic place_id.  Deterministic for fixed inputs.
    """
    out = []
    for sp in points:
        best: tuple[float, str, PoiEntry] | None = None
        for entry in poi.entries:
            d_m = haversine_km(sp.location, entry.center) * 1000.0
            if d_m <= entry.radius_m:
                key = (d_m, entry.place_id)
                if best is None or key < (best[0], best[1]):
                    best = (d_m, entry.place_id, entry)
        if best is None:
            out.append(replace(sp, place_id=fallback_cell_id(sp.location), place_type="Unknown"))
        else:
            out.append(replace(sp, place_id=best[2].place_id, place_type=best[2].place_type))
    return out


def filter_min_records(ds: Dataset, min_points: int = 50) -> Dataset:
    """Drop agents with fewer than ``min_points`` stay points (order preserved)."""
    kept = [t for t in ds.trajectories if len(t.points) >= min_points]
    return Dataset(trajectories=kept, meta=dict(ds.meta))


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
    trajectories = []
    for agent_id in sorted(per_agent):
        points = detect_stay_points(per_agent[agent_id], params)
        points = assign_place_types(points, poi)
        trajectories.append(Trajectory(agent_id=agent_id, points=points))
    meta = {
        "source": os.path.basename(input_path),
        "format": format_tag,
        "dist_threshold_m": params.dist_threshold_m,
        "time_threshold_s": params.time_threshold_s,
        "min_points": min_points,
    }
    meta["config_hash"] = params_hash(meta)
    return filter_min_records(Dataset(trajectories=trajectories, meta=meta), min_points)
