"""One dict per stay: the dataset line encoder that ``mobanom.core.write_dataset`` replaced with per-place tails.

Each stay here becomes a six-key dict and each trajectory one dict that
``json`` encodes whole, as ``write_dataset`` did before it encoded each
place's JSON once per call. It lives on only as the test oracle:
``write_dataset`` must write the same bytes, line for line.
"""

from __future__ import annotations

from mobanom.core import Dataset, Trajectory, _dumps


def trajectory_to_json(t: Trajectory) -> str:
    points = [
        {
            "arrive": sp.arrive,
            "depart": sp.depart,
            "place_id": sp.place_id,
            "place_type": sp.place_type,
            "lat": sp.location.lat,
            "lon": sp.location.lon,
        }
        for sp in t.points
    ]
    return _dumps({"agent_id": t.agent_id, "points": points})


def dataset_text(ds: Dataset) -> str:
    """The ``dataset.jsonl`` text of ``ds``: one line per trajectory, in order."""
    return "".join(trajectory_to_json(t) + "\n" for t in ds.trajectories)
