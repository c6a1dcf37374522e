"""Scalar ingest: one object per fix, one ``haversine_km`` per distance.

This is the straightforward implementation that ``mobanom.ingest`` replaced
with a columnar one. It lives on only as the test oracle: the columnar parse
must keep the same fixes and count the same malformed lines as
``parse_raw_log`` and ``load_plt_tree`` here, and the array versions of
``detect_stay_points`` and ``assign_place_types`` must return the same stay
points, bytes included. Its fixes are :class:`Fix` records, one object each;
:func:`to_fixes` and :func:`to_records` convert between them and the
columnar :class:`~mobanom.ingest.Fixes`.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from mobanom.core import CorruptInputError, GeoPoint, InvalidInputError, StayPoint, haversine_km
from mobanom.ingest import PLT_HEADER_LINES, Fixes, PoiEntry, PoiMap, StayPointParams, fallback_cell_id

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Fix:
    timestamp: int
    location: GeoPoint


def to_fixes(records: list[Fix]) -> Fixes:
    """The columns of ``records``, in their order."""
    lat, lon = (np.array([getattr(f.location, c) for f in records], dtype=np.float64) for c in ("lat", "lon"))
    return Fixes(np.array([f.timestamp for f in records], dtype=np.int64), lat, lon)


def to_records(fixes: Fixes) -> list[Fix]:
    """One :class:`Fix` per row of ``fixes``, in their order."""
    return [Fix(t, GeoPoint(a, o)) for t, a, o in zip(fixes.ts.tolist(), fixes.lat.tolist(), fixes.lon.tolist())]


def parse_plt_line(line: str) -> Fix | None:
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
    try:
        gp = GeoPoint(lat, lon)
    except InvalidInputError:
        return None
    return Fix(timestamp=ts, location=gp)


def parse_csv_line(line: str) -> tuple[str, Fix] | None:
    parts = line.strip().split(",")
    if len(parts) != 4:
        return None
    try:
        ts = int(parts[1])
        gp = GeoPoint(float(parts[2]), float(parts[3]))
    except (ValueError, InvalidInputError):
        return None
    return parts[0].strip(), Fix(timestamp=ts, location=gp)


def parse_raw_log(data: bytes, format_tag: str, agent_id: str = "agent0") -> dict[str, list[Fix]]:
    if format_tag not in ("plt", "csv"):
        raise InvalidInputError(f"unknown format {format_tag!r}")
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if format_tag == "plt":
        lines = lines[PLT_HEADER_LINES:]
    lines = [ln for ln in lines if ln.strip()]
    fixes: dict[str, list[Fix]] = {}
    malformed = 0
    for line in lines:
        if format_tag == "plt":
            fix = parse_plt_line(line)
            if fix is None:
                malformed += 1
                continue
            fixes.setdefault(agent_id, []).append(fix)
        else:
            parsed = parse_csv_line(line)
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


def load_plt_tree(root: str) -> dict[str, list[Fix]]:
    if not os.path.isdir(root):
        raise InvalidInputError(f"not a directory: {root}")
    out: dict[str, list[Fix]] = {}
    for agent in sorted(os.listdir(root)):
        agent_dir = os.path.join(root, agent)
        if not os.path.isdir(agent_dir):
            continue
        plt_files = []
        for dirpath, _, filenames in os.walk(agent_dir):
            for name in filenames:
                if name.endswith(".plt"):
                    plt_files.append(os.path.join(dirpath, name))
        agent_fixes: list[Fix] = []
        for path in sorted(plt_files):
            with open(path, "rb") as fh:
                parsed = parse_raw_log(fh.read(), "plt", agent_id=agent)
            agent_fixes.extend(parsed.get(agent, []))
        if agent_fixes:
            agent_fixes.sort(key=lambda f: f.timestamp)
            out[agent] = agent_fixes
    return out


def detect_stay_points(fixes: list[Fix], params: StayPointParams = StayPointParams()) -> list[StayPoint]:
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
            # a running total from 0.0, left to right: the builtin sum() of floats is compensated from Python 3.12 on
            lat = lon = 0.0
            for f in run:
                lat += f.location.lat
                lon += f.location.lon
            lat, lon = lat / len(run), lon / len(run)
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


def assign_place_types(points: list[StayPoint], poi: PoiMap) -> list[StayPoint]:
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
