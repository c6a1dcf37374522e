"""Trajectory data model, spherical geometry, validation, and JSONL (de)serialization.

Everything downstream (ingestion, simulation, injection, detectors, prompting,
evaluation) consumes the types defined here.  All operations are pure functions
over immutable values.

File formats
------------
``dataset.jsonl``
    One JSON object per line, one line per trajectory::

        {"agent_id": ..., "points": [{"arrive": ..., "depart": ..., "place_id": ...,
                                      "place_type": ..., "lat": ..., "lon": ...}, ...]}

    ``arrive``/``depart`` are integer UTC epoch seconds.  Dataset-level
    provenance (``meta``) is stored in a sidecar ``<name>.meta.json`` next to
    the JSONL file so the per-line schema stays pure while round trips stay
    lossless.

``labels.jsonl``
    One JSON object per line::

        {"agent_id": ..., "is_outlier": ..., "outlier_type": ..., "deviate_index": ...}

Every file mobanom writes goes through :func:`atomic_write`, and every JSONL
file it reads through :func:`read_jsonl`, whose errors name ``path:line``.
Dataset and label values must have their JSON types; only integer coordinates become floats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import threading
import typing
from dataclasses import dataclass, field

EARTH_RADIUS_KM = 6371.0

OUTLIER_TYPES = ("imposter", "hunger", "social", "work", "none")


class MobanomError(Exception):
    """Base class for all library errors."""


class InvalidInputError(MobanomError):
    pass


class CorruptInputError(MobanomError):
    pass


class ConfigError(MobanomError):
    pass


class InjectionError(MobanomError):
    pass


class TrainingDivergedError(MobanomError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss={loss!r})")
        self.epoch = epoch
        self.loss = loss


class ScoreParseError(MobanomError):
    """Raised when no anomaly score can be extracted from a model answer."""

    def __init__(self, message: str, raw_text: str):
        super().__init__(message)
        self.raw_text = raw_text


class PartialParseError(ScoreParseError):
    """Multi-agent answer resolved only some agents."""

    def __init__(self, message: str, raw_text: str, resolved: dict, unresolved: list):
        super().__init__(message, raw_text)
        self.resolved = resolved
        self.unresolved = unresolved


class UndefinedMetricError(MobanomError):
    pass


class EndpointError(MobanomError):
    pass


class AuthError(EndpointError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    """WGS-ish latitude/longitude pair in decimal degrees, checked once when built: finite and in range."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidInputError(f"non-finite coordinates: ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0):
            raise InvalidInputError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise InvalidInputError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class StayPoint:
    """A contiguous dwell at one semantic place.

    ``arrive``/``depart`` are UTC epoch seconds with ``depart >= arrive``.
    """

    arrive: int
    depart: int
    place_id: str
    place_type: str
    location: GeoPoint


@dataclass
class Trajectory:
    """Time-ordered stay points of one agent."""

    agent_id: str
    points: list[StayPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Dataset:
    trajectories: list[Trajectory] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def agent_ids(self) -> list[str]:
        return [t.agent_id for t in self.trajectories]

    def by_agent(self) -> dict[str, Trajectory]:
        return {t.agent_id: t for t in self.trajectories}


@dataclass(frozen=True)
class LabelEntry:
    is_outlier: bool
    outlier_type: str = "none"
    deviate_index: int | None = None


@dataclass
class LabelSet:
    """Ground-truth outlier flags keyed by agent id."""

    entries: dict[str, LabelEntry] = field(default_factory=dict)

    def outlier_ids(self) -> list[str]:
        return [a for a, e in self.entries.items() if e.is_outlier]

    def n_outliers(self) -> int:
        return len(self.outlier_ids())


def params_hash(params) -> str:
    """Stable short hash of a JSON-serializable parameter mapping."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def check_settings(settings, rules: typing.Iterable[tuple[str, bool, str]]) -> None:
    """ConfigError ``<field> must be <rule>, got <value>`` for the first ``(field, ok, rule)`` row that fails;
    the rows are tested as the list is built, so a test that could itself raise must guard itself."""
    for name, ok, rule in rules:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {getattr(settings, name)}")


def convert_value(hint, key: str, value):
    """``value`` (a config-file string, or an already typed flag or JSON value) as type ``hint``.

    Handles ``int``, ``float``, ``str``, ``X | None`` (an empty value is
    None), fixed-length tuples and lists of those, written comma-separated.
    A typed value must already be of the type (an int is a valid float; a
    bool is neither).  Raises :class:`ConfigError` naming ``key`` when the
    value does not fit.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None or value == "":
            return None
        hint = next(a for a in args if a is not type(None))
        args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is None:
        typed = isinstance(value, (hint, int) if hint is float else hint) and not isinstance(value, bool)
        try:
            if typed or isinstance(value, str):
                return hint(value)
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{key} = {value!r} is not a valid {hint.__name__}")
    parts = value.split(",") if isinstance(value, str) else list(value)
    if origin is list:
        args = args * len(parts)
    if len(parts) != len(args):
        raise ConfigError(f"{key} needs {len(args)} comma-separated values, got {value!r}")
    return origin(convert_value(a, key, p) for a, p in zip(args, parts))


def settings_of(fn, mapping: dict, keys: dict[str, str] | None = None) -> dict:
    """The arguments of ``fn`` (a dataclass or an annotated function) that ``keys`` fill, by name.

    ``keys`` maps each accepted mapping key to the field or parameter it fills
    (default: every dataclass field under its own name); when two keys fill
    one field, the later one wins.  A present key's value is converted to the
    annotated type, an absent one leaves ``fn``'s default, and other mapping
    keys are ignored.
    """
    hints, params = typing.get_type_hints(fn), inspect.signature(fn).parameters
    if keys is None:
        keys = {f.name: f.name for f in dataclasses.fields(fn)}
    settings = {name: params[name].default for name in keys.values() if params[name].default is not params[name].empty}
    for key, name in keys.items():
        if key in mapping:
            settings[name] = convert_value(hints[name], key, mapping[key])
    return settings


def config_from_mapping(cls, mapping: dict, keys: dict[str, str] | None = None, **fixed):
    """Call ``cls`` with its :func:`settings_of` ``mapping``; ``fixed`` arguments pass through unconverted."""
    return cls(**{**fixed, **settings_of(cls, mapping, keys)})


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers (mean Earth radius 6371.0 km)."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * math.asin(min(1.0, math.sqrt(h)))


def latlon_to_unit3(p: GeoPoint) -> tuple[float, float, float]:
    """Map lat/lon to a 3D unit vector (x toward 0N0E, z toward the north pole)."""
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    return (
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    )


@dataclass(frozen=True)
class Violation:
    index: int
    kind: str
    message: str


def validate_trajectory(t: Trajectory) -> list[Violation]:
    """Return every invariant violation in ``t`` (empty list means ok).

    Checked per point: ``depart >= arrive``, strictly increasing arrivals,
    and no overlap with the previous stay (``arrive >= previous depart``).
    Coordinates need no check: a :class:`GeoPoint` is valid once built.
    """
    violations = []
    prev: StayPoint | None = None
    for i, sp in enumerate(t.points):
        if sp.depart < sp.arrive:
            violations.append(Violation(i, "negative_stay", f"depart {sp.depart} < arrive {sp.arrive}"))
        if prev is not None:
            if sp.arrive <= prev.arrive:
                violations.append(
                    Violation(i, "non_monotonic", f"arrive {sp.arrive} <= previous arrive {prev.arrive}")
                )
            if sp.arrive < prev.depart:
                violations.append(
                    Violation(i, "overlap", f"arrive {sp.arrive} < previous depart {prev.depart}")
                )
        prev = sp
    return violations


# ---------------------------------------------------------------------------
# Canonical JSONL (de)serialization.
#
# Encoding is canonical so byte-level reproducibility holds: fixed key order,
# compact separators, one "\n"-terminated line per record.
# ---------------------------------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def atomic_write(path: str, text: str | typing.Iterable[str]) -> None:
    """Replace ``path`` with ``text`` (a string, or strings written in turn, so none is joined in memory).

    The text goes to a temp file beside ``path``, named with the pid and the thread so that concurrent
    writers never share one, then is renamed over ``path``: a reader sees the old file or the new one.
    Whatever stops the write, an interrupt included, removes the temp file.  There is no fsync, so this
    guards against a failed or killed process, not against a power loss.
    """
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def parse_jsonl(lines: typing.Iterable[str], record: typing.Callable[[dict], typing.Any], source: str) -> list:
    """``record(obj)`` for the JSON object on each non-blank line, in order.

    A line that is not JSON or not an object, or whose ``record`` raises
    ``LookupError``, ``TypeError``, ``ValueError`` or ``OverflowError``, is a
    :class:`CorruptInputError`; a :class:`MobanomError` from ``record`` keeps
    its type.  Either message starts with ``source:line``.
    """
    out = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptInputError(f"{source}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise CorruptInputError(f"{source}:{lineno}: not a JSON object")
        try:
            out.append(record(obj))
        except MobanomError as exc:
            exc.args = (f"{source}:{lineno}: {exc}",)
            raise exc from None
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
            raise CorruptInputError(f"{source}:{lineno}: {detail}") from None
    return out


def read_jsonl(path: str, record: typing.Callable[[dict], typing.Any]) -> list:
    """:func:`parse_jsonl` over the lines of the UTF-8 file ``path``; other text is a CorruptInputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_jsonl(fh, record, path)
    except UnicodeDecodeError:
        raise CorruptInputError(f"{path}: not UTF-8 text") from None


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


# The JSON type of each dataset, label, POI-map and score value: one ``type()`` test each, so a bool is never a number.
_STRING, _INDEX, _NUMBER = ((str,), "a string"), ((int, type(None)), "an integer or null"), ((int, float), "a number")
_JSON_TYPES = {"agent_id": _STRING, "arrive": ((int,), "an integer"), "depart": _INDEX, "place_id": _STRING,
               "place_type": _STRING, "lat": _NUMBER, "lon": _NUMBER, "radius_m": _NUMBER,
               "is_outlier": ((bool,), "true or false"), "outlier_type": _STRING, "deviate_index": _INDEX,
               "score": _NUMBER, "method": _STRING, "params_hash": _STRING}


def _check_types(obj: dict) -> None:
    """Raise InvalidInputError naming the first value of ``obj`` whose JSON type is wrong."""
    for key, value in obj.items():
        if key in _JSON_TYPES and type(value) not in _JSON_TYPES[key][0]:
            raise InvalidInputError(f"{key} must be {_JSON_TYPES[key][1]}, got {value!r}")


def _trajectory(obj: dict) -> Trajectory:
    """The trajectory of one ``dataset.jsonl`` record; building each ``GeoPoint`` checks its coordinates."""
    points = []
    for p in obj["points"]:
        arrive, depart, lat, lon = p["arrive"], p.get("depart"), p["lat"], p["lon"]
        if not (type(arrive) is int and type(depart) in _INDEX[0] and type(p["place_id"]) is str
                and type(p["place_type"]) is str and type(lat) in _NUMBER[0] and type(lon) in _NUMBER[0]):
            _check_types(p)  # the hot path tests each value once; this names the wrong one
        location = GeoPoint(float(lat), float(lon))
        # absent depart means a zero-duration stay
        points.append(StayPoint(arrive, arrive if depart is None else depart, p["place_id"], p["place_type"], location))
    _check_types(obj)
    return Trajectory(agent_id=obj["agent_id"], points=points)


def _one_line_per_agent(record: typing.Callable[[dict], typing.Any]) -> typing.Callable[[dict], typing.Any]:
    """``record`` for the lines of one file, raising InvalidInputError on an agent id an earlier line had."""
    seen: set[str] = set()

    def checked(obj: dict):
        out = record(obj)
        agent_id = obj["agent_id"]
        if agent_id in seen:
            raise InvalidInputError(f"duplicate agent_id {agent_id!r}")
        seen.add(agent_id)
        return out

    return checked


def _meta_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".meta.json"


def write_dataset(ds: Dataset, path: str) -> None:
    """Write ``dataset.jsonl`` plus its ``.meta.json`` sidecar."""
    seen = set()
    for t in ds.trajectories:
        if t.agent_id in seen:
            raise InvalidInputError(f"duplicate agent_id {t.agent_id!r}")
        seen.add(t.agent_id)
    atomic_write(path, (trajectory_to_json(t) + "\n" for t in ds.trajectories))
    atomic_write(_meta_path(path), json.dumps(ds.meta, sort_keys=True, separators=(",", ":")) + "\n")


def read_dataset(path: str) -> Dataset:
    """``dataset.jsonl``, one line per agent, and its sidecar (which, when present, holds one JSON object)."""
    mpath = _meta_path(path)
    meta = read_jsonl(mpath, dict) if os.path.exists(mpath) else [{}]
    if len(meta) != 1:
        raise CorruptInputError(f"{mpath}: holds {len(meta)} JSON objects, not one")
    return Dataset(trajectories=read_jsonl(path, _one_line_per_agent(_trajectory)), meta=meta[0])


def label_to_json(agent_id: str, e: LabelEntry) -> str:
    # the keys follow LabelEntry's fields: is_outlier, outlier_type, deviate_index
    return _dumps({"agent_id": agent_id, **dataclasses.asdict(e)})


def _check_label(agent_id: str, e: LabelEntry) -> None:
    if e.is_outlier and e.deviate_index is None:
        raise InvalidInputError(f"outlier {agent_id!r} lacks deviate_index")
    if not e.is_outlier and e.deviate_index is not None:
        raise InvalidInputError(f"non-outlier {agent_id!r} carries deviate_index")
    if e.deviate_index is not None and e.deviate_index < 0:
        raise InvalidInputError(f"deviate_index of {agent_id!r} must be >= 0, got {e.deviate_index}")
    if e.outlier_type not in OUTLIER_TYPES:
        raise InvalidInputError(f"unknown outlier_type {e.outlier_type!r}")


def _label(obj: dict) -> tuple[str, LabelEntry]:
    _check_types(obj)
    e = LabelEntry(obj["is_outlier"], obj["outlier_type"], obj.get("deviate_index"))
    _check_label(obj["agent_id"], e)
    return obj["agent_id"], e


def write_labels(labels: LabelSet, path: str) -> None:
    for agent_id, e in labels.entries.items():
        _check_label(agent_id, e)
    atomic_write(path, (label_to_json(agent_id, e) + "\n" for agent_id, e in labels.entries.items()))


def read_labels(path: str) -> LabelSet:
    """``labels.jsonl``; each entry must satisfy what :func:`write_labels` checks, and name a new agent."""
    return LabelSet(entries=dict(read_jsonl(path, _one_line_per_agent(_label))))
