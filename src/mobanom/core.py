"""Trajectory data model, spherical geometry, validation, and JSONL (de)serialization.

Everything downstream (ingestion, simulation, injection, detectors, prompting,
evaluation) consumes the types defined here.  All operations are pure functions
over immutable values.  A :class:`Trajectory` holds its stays as columns, and is
built only from them: arrival and departure arrays and a code per stay into its
tuple of places; a :class:`StayPoint` is a view of one stay, built on demand.

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

import numpy as np

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
class Place:
    """Where stays are: an id, a type and a location, checked once when built (UTF-8 strings; a :class:`GeoPoint` is
    valid once built).  A :class:`Trajectory` holds a tuple of them, and each of its stays the index of one."""

    place_id: str
    place_type: str
    location: GeoPoint

    def __post_init__(self) -> None:
        if not (type(self.place_id) is str and type(self.place_type) is str and self.place_id.isascii()
                and self.place_type.isascii()):
            _check_types({"place_id": self.place_id, "place_type": self.place_type})


@dataclass(frozen=True)
class StayPoint:
    """A contiguous dwell at one semantic place: a view of one stay of a :class:`Trajectory`, for a caller that wants
    objects, built only by ``Trajectory.points`` from the checked columns (``depart >= arrive``, UTC epoch seconds)."""

    arrive: int
    depart: int
    place_id: str
    place_type: str
    location: GeoPoint


def _stay_fault(arrive, depart, i: int) -> str | None:
    """The first part of the trajectory rule that stay ``i`` breaks, the stays before it keeping it, or None."""
    a, d = int(arrive[i]), int(depart[i])
    prev_a, prev_d = (int(arrive[i - 1]), int(depart[i - 1])) if i else (-2**63 - 1,) * 2  # below every int64
    rules = [(-2**63 <= a < 2**63, f"arrive {a} does not fit in a signed 64-bit integer"),
             (-2**63 <= d < 2**63, f"depart {d} does not fit in a signed 64-bit integer"),
             (d >= a, f"depart {d} < arrive {a}"), (a > prev_a, f"arrive {a} <= previous arrive {prev_a}"),
             (a >= prev_d, f"arrive {a} < previous depart {prev_d}")]
    return next((fault for ok, fault in rules if not ok), None)


def _integers(agent_id: str, name: str, values) -> np.ndarray:
    """``values`` as an array of integers, refusing the first that is not one (a float, a bool, a string) with an
    InvalidInputError naming its stay.  An integer array but uint64 comes back as it is, other ints as Python ints."""
    column = np.asarray(values)  # a bool among ints comes as an int, and ints beyond every integer dtype as floats
    if column.dtype.kind in "iu" and column.dtype != np.uint64 and (
            column is values or {bool, np.bool_}.isdisjoint(map(type, values))):
        return column
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise InvalidInputError(f"stay {i} of {agent_id!r}: {name} must be an integer, got {v!r}")
    return np.array([int(v) for v in values], dtype=object)


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """One agent's stays in time order as read-only columns: ``arrive`` and ``depart`` (int64 epoch seconds) and
    ``place_code``, each stay's index into ``places``.  Checked when built: a string ``agent_id``, integer columns
    (:func:`_integers`; an int64 array is kept and made read-only, not copied), one depart and one place code in range
    per arrive, then the trajectory rule, naming the first stay that breaks it.  ``points`` builds the stays' views."""

    agent_id: str
    arrive: np.ndarray
    depart: np.ndarray
    place_code: np.ndarray
    places: tuple[Place, ...]

    def __init__(self, agent_id: str, *, arrive=(), depart=(), place_code=(), places: typing.Sequence[Place] = ()) -> None:
        _check_types({"agent_id": agent_id})
        a, d, code = (_integers(agent_id, *c) for c in (("arrive", arrive), ("depart", depart), ("place_code", place_code)))
        if not len(a) == len(d) == len(code) or (len(code) and not 0 <= code.min() <= code.max() < len(places)):
            raise InvalidInputError(f"{agent_id!r} needs one depart and one place code below {len(places)} per arrive")
        try:
            a, d = a.astype(np.int64, copy=False), d.astype(np.int64, copy=False)
            bad = d < a
            bad[1:] |= (a[1:] <= a[:-1]) | (a[1:] < d[:-1])
            first = int(np.argmax(bad)) if bad.any() else None
        except OverflowError:  # a time beyond int64: the first stay that breaks the rule, one by one
            first = next(i for i in range(len(arrive)) if _stay_fault(arrive, depart, i))
        if first is not None:
            raise InvalidInputError(f"stay {first} of {agent_id!r}: {_stay_fault(arrive, depart, first)}")
        code = code.astype(np.intp, copy=False)
        a.flags.writeable = d.flags.writeable = code.flags.writeable = False
        self.__dict__.update(agent_id=agent_id, arrive=a, depart=d, place_code=code, places=tuple(places))

    def __len__(self) -> int:
        return len(self.arrive)

    def __eq__(self, other) -> bool:  # the columns and each stay's Place: no StayPoint is built
        return (isinstance(other, Trajectory) and self.agent_id == other.agent_id
                and np.array_equal(self.arrive, other.arrive) and np.array_equal(self.depart, other.depart)
                and [self.places[c] for c in self.place_code.tolist()] == [other.places[c] for c in other.place_code.tolist()])

    @property
    def points(self) -> tuple[StayPoint, ...]:
        """The stays as :class:`StayPoint` views, built on each call."""
        places = self.places
        return tuple(StayPoint(a, d, places[c].place_id, places[c].place_type, places[c].location)
                     for a, d, c in zip(self.arrive.tolist(), self.depart.tolist(), self.place_code.tolist()))

    def stays_before(self, time: int) -> int:
        """How many stays arrive before ``time``: the one time search, which the trajectory rule makes a bisection."""
        return bisect.bisect_left(self.arrive, time)

    def hop_km(self) -> list[float]:
        """The :func:`haversine_km` length of each hop from a stay to the next, computed once per pair of places."""
        places, codes = self.places, self.place_code.tolist()
        pairs = list(zip(codes, codes[1:]))
        km = {(a, b): haversine_km(places[a].location, places[b].location) for a, b in set(pairs)}
        return [km[pair] for pair in pairs]


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
_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_types(obj: dict) -> None:
    """InvalidInputError ``<key> must be <rule>, got <value>`` for the first value of ``obj`` whose type ``_JSON_TYPES``
    refuses, or ``<key> must be UTF-8 text`` for a string holding a surrogate, which UTF-8 cannot encode."""
    for key, value in obj.items():
        if key in _JSON_TYPES:
            kinds, rule = _JSON_TYPES[key]
            if not isinstance(value, kinds) or isinstance(value, bool) is not (bool in kinds):
                raise InvalidInputError(f"{key} must be {rule}, got {value!r}")
            if isinstance(value, str) and not value.isascii() and _SURROGATE.search(value):
                raise InvalidInputError(f"{key} must be UTF-8 text, got {value!r}")


def _trajectory(obj: dict) -> Trajectory:
    """The trajectory of one ``dataset.jsonl`` record, as columns; it and each :class:`Place` check themselves when
    built.  The stays at one place (``place_id``, ``place_type``, ``lat`` and ``lon``) share the place built at the
    first of them, unless a coordinate is a zero: ``0.0 == -0.0``, but the two write different bytes."""
    stays, places, index = [], [], {}  # (arrive, depart, place code) of each stay; the code of each place
    for p in obj["points"]:
        a, d, place_id, place_type, lat, lon = (p["arrive"], p.get("depart"), p["place_id"], p["place_type"], p["lat"],
                                                p["lon"])
        if not (type(a) is int and type(d) in _INDEX[0] and type(place_id) is str and type(place_type) is str
                and type(lat) in _NUMBER[0] and type(lon) in _NUMBER[0]):
            _check_types(p)  # float() would take a bool or a string; a null depart is a zero-length stay
        key = (place_id, place_type, lat, lon)
        if not (lat and lon and key in index):
            index[key] = len(places)
            places.append(Place(place_id, place_type, GeoPoint(float(lat), float(lon))))
        stays.append((a, a if d is None else d, index[key]))
    arrive, depart, codes = zip(*stays) if stays else ((), (), ())
    return Trajectory(obj["agent_id"], arrive=arrive, depart=depart, place_code=codes, places=places)


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


def _dataset_line(t: Trajectory, encoded: dict) -> str:
    """The ``dataset.jsonl`` line of ``t``.  ``encoded`` holds the JSON tail of each place that the file has met, keyed
    by its id, type and the ``repr`` of each coordinate, which keeps ``0.0``/``-0.0`` and ``40``/``40.0`` apart."""
    tails, codes = {}, t.place_code.tolist()
    for c in set(codes):
        p = t.places[c]
        key = (p.place_id, p.place_type, repr(p.location.lat), repr(p.location.lon))
        if key not in encoded:
            encoded[key] = _dumps({"place_id": p.place_id, "place_type": p.place_type, "lat": p.location.lat,
                                   "lon": p.location.lon})[1:]
        tails[c] = encoded[key]
    stays = ",".join(f'{{"arrive":{a},"depart":{d},{tails[c]}' for a, d, c in zip(t.arrive.tolist(), t.depart.tolist(), codes))
    return f'{{"agent_id":{_dumps(t.agent_id)},"points":[{stays}]}}\n'


def write_dataset(ds: Dataset, path: str) -> None:
    """``dataset.jsonl`` and its ``.meta.json`` sidecar; ``ds`` checked itself when built, so this only encodes.
    Each place's JSON tail is encoded once per file."""
    encoded: dict = {}
    atomic_write(path, (_dataset_line(t, encoded) for t in ds.trajectories))
    atomic_write(_meta_path(path), json.dumps(dict(ds.meta), sort_keys=True, separators=(",", ":")) + "\n")


def read_dataset(path: str) -> Dataset:
    """``dataset.jsonl``, one line per agent, and its sidecar (which, when present, holds one JSON object)."""
    mpath = _meta_path(path)
    meta = read_jsonl(mpath, lambda obj: _check_types(obj) or obj) if os.path.exists(mpath) else [{}]
    if len(meta) != 1:
        raise CorruptInputError(f"{mpath}: holds {len(meta)} JSON objects, not one")
    return Dataset(trajectories=read_jsonl(path, _one_line_per("agent_id", _trajectory)), meta=meta[0])


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
