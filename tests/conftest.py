import builtins
import json
import os

import pytest

from mobanom.core import GeoPoint, StayPoint, Trajectory

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_path(*parts: str) -> str:
    return os.path.join(GOLDEN_DIR, *parts)


def read_golden(*parts: str) -> str:
    with open(golden_path(*parts), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.fixture
def fixture_trajectory() -> Trajectory:
    with open(golden_path("fixture_trajectory.json"), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    points = [
        StayPoint(p["arrive"], p["depart"], p["place_id"], p["place_type"], GeoPoint(p["lat"], p["lon"]))
        for p in obj["points"]
    ]
    return Trajectory(obj["agent_id"], points)


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
