"""
From raw GPS fixes to semantic stay points
==========================================

Raw location logs are noisy streams of (timestamp, lat, lon) fixes.  The
ingest pipeline compresses them with the classic two-threshold scan (a run of
fixes within 200 m of its anchor lasting at least 20 minutes becomes one stay
point), then labels each stay point against a point-of-interest map, falling
back to deterministic grid-cell ids.
"""

import numpy as np

from mobanom.core import GeoPoint
from mobanom.ingest import (
    PoiEntry,
    PoiMap,
    StayPointParams,
    assign_place_types,
    detect_stay_points,
    parse_raw_log,
)

rng = np.random.default_rng(0)

# Synthesize a morning: 40 minutes at home, a 20-minute walk, 45 minutes at a
# cafe.  Fixes jitter by ~20 m around each anchor.
lines = []
t = 1_700_000_000
home = (40.0000, 116.0000)
cafe = (40.0080, 116.0080)


def jitter(center):
    return center[0] + rng.normal(0, 2e-4) * 0.5, center[1] + rng.normal(0, 2e-4) * 0.5


for _ in range(40):  # at home
    lat, lon = jitter(home)
    lines.append(f"u1,{t},{lat:.6f},{lon:.6f}")
    t += 60
for i in range(20):  # walking, fixes spread out
    frac = (i + 1) / 21
    lat = home[0] + frac * (cafe[0] - home[0])
    lon = home[1] + frac * (cafe[1] - home[1])
    lines.append(f"u1,{t},{lat:.6f},{lon:.6f}")
    t += 60
for _ in range(45):  # at the cafe
    lat, lon = jitter(cafe)
    lines.append(f"u1,{t},{lat:.6f},{lon:.6f}")
    t += 60

fixes = parse_raw_log("\n".join(lines).encode(), "csv")
print(f"parsed {len(fixes['u1'])} fixes for agent u1")

stay_points = detect_stay_points(fixes["u1"], StayPointParams(dist_threshold_m=200, time_threshold_s=1200))
print(f"detected {len(stay_points)} stay points:")
for sp in stay_points.points:
    print(f"  {sp.arrive} .. {sp.depart}  ({(sp.depart - sp.arrive) / 60:.0f} min) "
          f"at ({sp.location.lat:.4f}, {sp.location.lon:.4f})")

# Label them: one POI covers the home location; the cafe falls back to a grid cell.
poi = PoiMap(entries=[PoiEntry(GeoPoint(*home), radius_m=150.0, place_type="Apartment", place_id="home1")])
labeled = assign_place_types(stay_points, poi)
for sp in labeled.points:
    print(f"  -> {sp.place_type:10s} place_id={sp.place_id}")
