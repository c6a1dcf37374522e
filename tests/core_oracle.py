"""Scalar forms that ``mobanom.core`` replaced, kept as test oracles.

``trajectory_to_json``: one dict per stay, the dataset line encoder that
``write_dataset`` replaced with per-place tails. Each stay here becomes a
six-key dict and each trajectory one dict that ``json`` encodes whole, as
``write_dataset`` did before it encoded each place's JSON once per call;
``write_dataset`` must write the same bytes, line for line.

``trajectory_fault``: the trajectory rule as the loop over stays that
``Trajectory`` ran before it held columns; the vectorized rule must name the
same fault.
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


def trajectory_fault(agent_id: str, times: list[tuple[int, int]]) -> str | None:
    """The message of the first fault of the (arrive, depart) ``times``, or None when they keep the rule."""
    prev_arrive = prev_depart = -2**63 - 1
    for i, (arrive, depart) in enumerate(times):
        if not -2**63 <= arrive < 2**63:
            fault = f"arrive {arrive} does not fit in a signed 64-bit integer"
        elif not -2**63 <= depart < 2**63:
            fault = f"depart {depart} does not fit in a signed 64-bit integer"
        elif depart < arrive:
            fault = f"depart {depart} < arrive {arrive}"
        elif arrive <= prev_arrive:
            fault = f"arrive {arrive} <= previous arrive {prev_arrive}"
        elif arrive < prev_depart:
            fault = f"arrive {arrive} < previous depart {prev_depart}"
        else:
            prev_arrive, prev_depart = arrive, depart
            continue
        return f"stay {i} of {agent_id!r}: {fault}"
    return None
