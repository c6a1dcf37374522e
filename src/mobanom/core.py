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

    ``arrive``/``depart`` are integer UTC epoch seconds, and each trajectory obeys
    the trajectory rule, which a :class:`Trajectory` checks when it is built.
    Dataset-level provenance (``meta``) is stored in a sidecar
    ``<name>.meta.json`` next to the JSONL file so the per-line schema stays pure
    while round trips stay lossless.

``labels.jsonl``
    One JSON object per line::

        {"agent_id": ..., "is_outlier": ..., "outlier_type": ..., "deviate_index": ...}

Every file mobanom writes goes through :func:`atomic_write`, and every JSONL
file it reads through :func:`read_jsonl`, whose errors name ``path:line``.
Each record checks its values when built and cannot change after, so the writers only
encode; only integer coordinates become floats on read.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import threading
import typing
from dataclasses import dataclass, field
from types import MappingProxyType

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
    """WGS-ish latitude/longitude pair in decimal degrees, checked once when built: numbers, finite and in range."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (type(self.lat) is float and type(self.lon) is float):
            _check_types({"lat": self.lat, "lon": self.lon})
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidInputError(f"non-finite coordinates: ({self.lat}, {self.lon})")
        if not (-90.0 <= self.lat <= 90.0):
            raise InvalidInputError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise InvalidInputError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class StayPoint:
    """A contiguous dwell at one semantic place.

    ``arrive``/``depart`` are UTC epoch seconds with ``depart >= arrive``; checked when built: integer times,
    and ``place_id`` and ``place_type`` UTF-8 strings."""

    arrive: int
    depart: int
    place_id: str
    place_type: str
    location: GeoPoint

    def __post_init__(self) -> None:
        if not (type(self.arrive) is int and type(self.depart) is int and type(self.place_id) is str
                and type(self.place_type) is str and self.place_id.isascii() and self.place_type.isascii()):
            _check_types({"arrive": self.arrive, "depart": self.depart, "place_id": self.place_id,
                          "place_type": self.place_type}, _STAY_TYPES)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered stay points of one agent, checked when built: a string ``agent_id``, then the trajectory rule at
    each stay in turn, naming the first part that the stay breaks: ``arrive`` and ``depart`` fit in a signed 64-bit
    integer, ``depart >= arrive``, arrivals strictly increase, and no stay overlaps the previous one (``arrive >=
    previous depart``).  A :class:`GeoPoint` is valid once built.  ``points`` may be given as any iterable; it is kept
    as a tuple."""

    agent_id: str
    points: tuple[StayPoint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        _check_types({"agent_id": self.agent_id})
        prev_arrive = prev_depart = -2**63 - 1  # below every time that fits, so the first stay has nothing to break
        for i, sp in enumerate(self.points):  # inline: a function call per stay made this loop 1.4 times as slow
            arrive, depart = sp.arrive, sp.depart
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
            raise InvalidInputError(f"stay {i} of {self.agent_id!r}: {fault}")

    def __len__(self) -> int:
        return len(self.points)

    def stays_before(self, time: int) -> int:
        """How many stays arrive before ``time``: the one time search, which the trajectory rule makes a bisection."""
        return bisect.bisect_left(self.points, time, key=lambda sp: sp.arrive)


@dataclass(frozen=True)
class Dataset:
    """Trajectories, one per agent id, and the dataset's provenance ``meta``, whose values have their JSON types;
    checked when built.  The trajectories are kept as a tuple and ``meta`` as a read-only copy in key order, the
    order that its sidecar holds, so a read of a written dataset iterates as the dataset does."""

    trajectories: tuple[Trajectory, ...] = ()
    meta: typing.Mapping[str, typing.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "meta", MappingProxyType(dict(sorted(self.meta.items()))))
        checked = _one_line_per("agent_id", dict)  # each trajectory checked itself when built
        for t in self.trajectories:
            checked({"agent_id": t.agent_id})
        _check_types(self.meta)

    def agent_ids(self) -> list[str]:
        return [t.agent_id for t in self.trajectories]

    def by_agent(self) -> dict[str, Trajectory]:
        return {t.agent_id: t for t in self.trajectories}


@dataclass(frozen=True)
class LabelEntry:
    """One agent's label, checked when built: a bool flag, a type from ``OUTLIER_TYPES``, and a ``deviate_index``
    (the first deviating stay) that is an integer ``>= 0`` for an outlier and None for everyone else."""

    is_outlier: bool
    outlier_type: str = "none"
    deviate_index: int | None = None

    def __post_init__(self) -> None:
        index = self.deviate_index
        _check_types({"is_outlier": self.is_outlier, "outlier_type": self.outlier_type, "deviate_index": index})
        check_settings(self, [("outlier_type", self.outlier_type in OUTLIER_TYPES, f"one of {', '.join(OUTLIER_TYPES)}"),
                              ("deviate_index", (index is None) is not self.is_outlier, "set for outliers only"),
                              ("deviate_index", index is None or index >= 0, ">= 0")], InvalidInputError)


@dataclass(frozen=True)
class LabelSet:
    """Ground-truth outlier flags keyed by agent id, checked when built: string keys (each entry checked itself).
    ``entries`` is kept as a read-only copy."""

    entries: typing.Mapping[str, LabelEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for agent_id in self.entries:
            _check_types({"agent_id": agent_id})

    def outlier_ids(self) -> list[str]:
        return [a for a, e in self.entries.items() if e.is_outlier]

    def n_outliers(self) -> int:
        return len(self.outlier_ids())


def params_hash(params) -> str:
    """Stable short hash of a JSON-serializable parameter mapping."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def check_settings(settings, rules: typing.Iterable[tuple[str, bool, str]], error: type = ConfigError) -> None:
    """``error`` ``<field> must be <rule>, got <value>`` for the first ``(field, ok, rule)`` row that fails: a
    ConfigError for settings, an InvalidInputError for a record.  The rows are tested as the list is built, so a
    test that could itself raise must guard itself."""
    for name, ok, rule in rules:
        if not ok:
            raise error(f"{name} must be {rule}, got {getattr(settings, name)}")


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


def config_from_mapping(cls, mapping: dict, keys: dict[str, str] | None = None):
    """Call ``cls`` with its :func:`settings_of` ``mapping``."""
    return cls(**settings_of(cls, mapping, keys))


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


@contextlib.contextmanager
def naming(source: str | None):
    """A MobanomError raised inside, its message led by ``source`` (if not None) unless an inner ``naming`` named it."""
    try:
        yield
    except MobanomError as exc:
        if source is not None and not hasattr(exc, "source"):  # each fault names one source, the innermost
            exc.args, exc.source = (f"{source}: {exc}",), source
        raise


def parse_jsonl(lines: typing.Iterable[str], record: typing.Callable[[dict], typing.Any], source: str) -> list:
    """``record(obj)`` for the JSON object on each non-blank line, in order.

    A line that is not JSON or not an object, or whose ``record`` raises
    ``LookupError``, ``TypeError``, ``ValueError`` or ``OverflowError``, is a
    :class:`CorruptInputError`; a :class:`MobanomError` from ``record`` keeps
    its type.  Either is named ``source:line``.
    """
    out = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        with naming(f"{source}:{lineno}"):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorruptInputError(f"invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise CorruptInputError("not a JSON object")
            try:
                out.append(record(obj))
            except (LookupError, TypeError, ValueError, OverflowError) as exc:
                raise CorruptInputError(f"missing key {exc}" if isinstance(exc, KeyError)
                                        else f"{type(exc).__name__}: {exc}") from None
    return out


def read_jsonl(path: str, record: typing.Callable[[dict], typing.Any]) -> list:
    """:func:`parse_jsonl` over the lines of the UTF-8 file ``path``; other text is a CorruptInputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_jsonl(fh, record, path)
    except UnicodeDecodeError:
        raise CorruptInputError(f"{path}: not UTF-8 text") from None


# The JSON type of each dataset, sidecar, label, POI-map and score value: a subclass passes (``np.float64``,
# ``np.str_``), but a bool is never a number and ``np.float32`` is not a float.
_STRING, _INTEGER, _INDEX = ((str,), "a string"), ((int,), "an integer"), ((int, type(None)), "an integer or null")
_NUMBER = ((int, float), "a number")
_JSON_TYPES = {"agent_id": _STRING, "arrive": _INTEGER, "depart": _INDEX, "place_id": _STRING,
               "place_type": _STRING, "lat": _NUMBER, "lon": _NUMBER, "radius_m": _NUMBER,
               "is_outlier": ((bool,), "true or false"), "outlier_type": _STRING, "deviate_index": _INDEX,
               "score": _NUMBER, "method": _STRING, "params_hash": _STRING, "onset_time": _INTEGER,
               "switch_fraction": _NUMBER}
_STAY_TYPES = {**_JSON_TYPES, "depart": _INTEGER}  # a null depart is read as the arrive; a StayPoint holds that
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_types(obj: dict, types: dict = _JSON_TYPES) -> None:
    """InvalidInputError ``<key> must be <rule>, got <value>`` for the first value of ``obj`` whose type ``types``
    refuses, or ``<key> must be UTF-8 text`` for a string holding a surrogate, which UTF-8 cannot encode."""
    for key, value in obj.items():
        if key in types:
            kinds, rule = types[key]
            if not isinstance(value, kinds) or isinstance(value, bool) is not (bool in kinds):
                raise InvalidInputError(f"{key} must be {rule}, got {value!r}")
            if isinstance(value, str) and not value.isascii() and _SURROGATE.search(value):
                raise InvalidInputError(f"{key} must be UTF-8 text, got {value!r}")


def _trajectory(obj: dict, places: dict) -> Trajectory:
    """The trajectory of one ``dataset.jsonl`` record; it, each stay and the :class:`GeoPoint` of each ``(lat, lon)``
    pair check themselves when built, the pair's at its first stay in the file, shared after through ``places``."""
    points = []
    for p in obj["points"]:
        arrive, depart, lat, lon = p["arrive"], p.get("depart"), p["lat"], p["lon"]
        if not (type(lat) in _NUMBER[0] and type(lon) in _NUMBER[0] and type(depart) in _INDEX[0]):
            _check_types(p)  # float() would take a bool or a string; a null depart is a zero-length stay
        location = places.get((lat, lon)) or GeoPoint(float(lat), float(lon))
        if lat and lon:  # never a zero: 0.0 == -0.0, but the two write different bytes
            places[lat, lon] = location
        points.append(StayPoint(arrive, arrive if depart is None else depart, p["place_id"], p["place_type"], location))
    return Trajectory(obj["agent_id"], points)


def _one_line_per(key: str, record: typing.Callable[[dict], typing.Any]) -> typing.Callable[[dict], typing.Any]:
    """``record`` for the lines of one file, raising InvalidInputError on a ``key`` value an earlier line had."""
    seen: set[str] = set()

    def checked(obj: dict):
        out = record(obj)
        value = obj[key]
        if value in seen:
            raise InvalidInputError(f"duplicate {key} {value!r}")
        seen.add(value)
        return out

    return checked


def _meta_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".meta.json"


def write_dataset(ds: Dataset, path: str) -> None:
    """``dataset.jsonl`` and its ``.meta.json`` sidecar; ``ds`` checked itself when built, so this only encodes.

    Each place's JSON tail is encoded once, keyed by its location's ``id``: every location lives in ``ds`` for the
    whole call, so no id is reused.  ``int.__repr__`` is what ``json`` writes for an int or an int subclass."""
    tails: dict[tuple, str] = {}

    def stay(sp: StayPoint) -> str:
        key = (id(sp.location), sp.place_id, sp.place_type)
        tail = tails.get(key) or tails.setdefault(key, _dumps({"place_id": sp.place_id, "place_type": sp.place_type,
                                                                 "lat": sp.location.lat, "lon": sp.location.lon})[1:])
        return f'{{"arrive":{int.__repr__(sp.arrive)},"depart":{int.__repr__(sp.depart)},{tail}'

    atomic_write(path, (f'{{"agent_id":{_dumps(t.agent_id)},"points":[{",".join(map(stay, t.points))}]}}\n'
                        for t in ds.trajectories))
    atomic_write(_meta_path(path), json.dumps(dict(ds.meta), sort_keys=True, separators=(",", ":")) + "\n")


def read_dataset(path: str) -> Dataset:
    """``dataset.jsonl``, one line per agent, and its sidecar (which, when present, holds one JSON object).  The
    stays at one ``(lat, lon)`` pair of the file share one :class:`GeoPoint` unless the pair holds a zero."""
    mpath = _meta_path(path)
    meta = read_jsonl(mpath, lambda obj: _check_types(obj) or obj) if os.path.exists(mpath) else [{}]
    if len(meta) != 1:
        raise CorruptInputError(f"{mpath}: holds {len(meta)} JSON objects, not one")
    places: dict[tuple, GeoPoint] = {}
    return Dataset(trajectories=read_jsonl(path, _one_line_per("agent_id", lambda obj: _trajectory(obj, places))),
                   meta=meta[0])


def label_to_json(agent_id: str, e: LabelEntry) -> str:
    # the keys follow LabelEntry's fields: is_outlier, outlier_type, deviate_index
    return _dumps({"agent_id": agent_id, **dataclasses.asdict(e)})


def _label(obj: dict) -> tuple[str, LabelEntry]:
    """One ``labels.jsonl`` record: its JSON types, then the entry's rules, whose error is named with the agent here,
    as the entry does not know it (``deviate_index of 'a' must be >= 0, got -2``)."""
    _check_types(obj)
    try:
        return obj["agent_id"], LabelEntry(obj["is_outlier"], obj["outlier_type"], obj.get("deviate_index"))
    except InvalidInputError as exc:
        key, rule = str(exc).split(" ", 1)
        raise InvalidInputError(f"{key} of {obj['agent_id']!r} {rule}") from None


def write_labels(labels: LabelSet, path: str) -> None:
    atomic_write(path, (label_to_json(agent_id, e) + "\n" for agent_id, e in labels.entries.items()))


def read_labels(path: str) -> LabelSet:
    """``labels.jsonl``; each line a valid :class:`LabelEntry` for a new agent."""
    return LabelSet(entries=dict(read_jsonl(path, _one_line_per("agent_id", _label))))
