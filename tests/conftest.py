import builtins
import json
import os

import pytest

from mobanom.core import GeoPoint, Place, StayPoint, Trajectory

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_path(*parts: str) -> str:
    return os.path.join(GOLDEN_DIR, *parts)


def read_golden(*parts: str) -> str:
    with open(golden_path(*parts), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def from_stays(agent_id, stays=()) -> Trajectory:
    """The trajectory of ``stays`` (:class:`StayPoint` values), built from its columns, each stay at a place of its own."""
    stays = list(stays)
    return Trajectory(agent_id, arrive=[s.arrive for s in stays], depart=[s.depart for s in stays],
                      place_code=range(len(stays)), places=[Place(s.place_id, s.place_type, s.location) for s in stays])


@pytest.fixture
def fixture_trajectory() -> Trajectory:
    with open(golden_path("fixture_trajectory.json"), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    points = [
        StayPoint(p["arrive"], p["depart"], p["place_id"], p["place_type"], GeoPoint(p["lat"], p["lon"]))
        for p in obj["points"]
    ]
    return from_stays(obj["agent_id"], points)


@pytest.fixture
def interrupt_write(monkeypatch):
    """``interrupt_write(name, exc)``: every later write to a file opened for writing under a name
    starting with ``name`` writes half its text, then raises ``exc``."""
    real_open = builtins.open

    def arm(name: str, exc: BaseException) -> None:
        def interrupting_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and os.path.basename(os.fspath(file)).startswith(name):
                write = fh.write

                def half_write(text):
                    write(text[: len(text) // 2])
                    raise exc

                fh.write = half_write
            return fh

        monkeypatch.setattr(builtins, "open", interrupting_open)

    return arm
