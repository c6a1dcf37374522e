"""Command-line pipeline: simulate | ingest | inject | detect | eval | dump-prompts | run.

Stage outputs are plain files in the canonical formats, every ``run`` writes a
``manifest.json`` recording input/output hashes and wall-clock per stage, and
reruns with an identical config (and a warm LLM cache) reproduce artifacts
byte-for-byte at a fixed BLAS thread count: OpenBLAS splits the nets' gradient
sums by thread, so population DAE and DSVDD scores may move in their last bits
with the count.  The manifest's ``runtime`` record names the Python, numpy and
BLAS versions, the CPU count and the thread variables that a run saw.
Under ``run``, ``detect`` and ``eval`` take the dataset and labels that ``inject``
wrote in memory while their files keep the sha256 recorded when written.
Config files are INI-style key-value text with one section per stage.  A
stage takes each setting from, highest first: its command-line flag, its own
section, then ``[global]``.
"""

from __future__ import annotations

import argparse
import configparser
import glob as globmod
import hashlib
import json
import logging
import os
import platform
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Collection, Mapping

import numpy as np

from . import __version__
from .core import ConfigError, MobanomError, _meta_path, atomic_write, config_from_mapping, convert_value, naming
from .core import params_hash, read_dataset, read_labels, settings_of, write_dataset, write_labels
from .detectors import NetHyper, SplitSpec, TraodParams, build_windows, dae_score, dsvdd_score, monav_tt_score, ompad_score, traod_score
from .detectors.features import check_split_fallbacks, check_windows, window_seconds_of
from .detectors.nets import check_scope
from .evaluation import DEFAULT_KS, ScoreTable, check_ks, make_report
from .ingest import PoiMap, StayPointParams, ingest_dataset
from .inject import InjectConfig, check_pairs, inject_imposter
from .llm import LlmEndpointConfig, dump_prompts, endpoint_from_config, run_llm_detection
from .llm.prompts import prompt_settings
from .simulator import SimConfig, simulate

log = logging.getLogger("mobanom")

DETECT_METHODS = ("ompad", "monav", "traod", "dae", "dsvdd", "llm")

#: Keys naming a stage's input and output paths.  They come from flags or,
#: under ``run``, from the stage before; a config file cannot set them.
PATH_KEYS = ("in", "out", "scores", "labels")

#: Parsed arguments that are not stage settings.
_CLI_ONLY_ARGS = ("command", "config", "out_dir", "log_json", "verbose")


class _JsonLogFormatter(logging.Formatter):
    def format(self, record):
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        return json.dumps(payload, separators=(",", ":"))


def _setup_logging(log_json: bool, verbose: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if log_json:
        handler.setFormatter(_JsonLogFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


def _sha256_path(path: str) -> str:
    """sha256 of a file, or of a directory's sorted (relative path, file sha256) pairs."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        rel_paths = sorted(os.path.relpath(os.path.join(d, n), path) for d, _, names in os.walk(path) for n in names)
        for rel in rel_paths:
            h.update(f"{rel}\0{_sha256_path(os.path.join(path, rel))}\n".encode("utf-8"))
        return h.hexdigest()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_config(path: str) -> configparser.ConfigParser:
    """INI sections, or flat ``key = value`` lines (the DEFAULT section); a ConfigError names a bad file and line."""
    if not os.path.isfile(path):
        raise ConfigError(f"cannot read config file {path!r}")
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is itself, in a flat file as in a section
    try:
        with open(path, "r", encoding="utf-8") as fh:  # the lines before the first section header are defaults
            parser.read_string("[DEFAULT]\n" + fh.read(), source=path)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except configparser.ParsingError as exc:
        raise ConfigError(f"{path}:{exc.errors[0][0] - 1}: neither a [section] header nor a key = value line") from None
    except configparser.Error as exc:  # a repeated option or section: "While reading from 'x.ini' [line  3]: <reason>"
        raise ConfigError(f"{path}:{exc.lineno - 1}: {str(exc).partition(']: ')[2]}") from None
    return parser


def _settings_source(config: str | None, flags: Collection[str]) -> str | None:
    """What a settings error names: the config file, with the command line when it sets stage values (``flags``)."""
    return f"{config} and the command line" if config and flags else config


def _file_settings(parser: configparser.ConfigParser, name: str, strict: bool) -> dict:
    """Stage ``name``'s settings from a config file: [global] < extra sections < [name].

    ``strict`` rejects a sectioned file that holds none of the stage's own
    sections (its extra sections and [name]); a flat file applies to any stage.
    A key of one of those sections is refused when no stage that merges the
    section reads it, and a key that every stage shares (of a flat file, of the
    lines before the first header or of [global]) when no stage and not ``run`` reads it.
    """
    known = {"stages", "out_dir", *(key for stage in STAGES.values() for key in stage.keys)}  # run reads the first two
    for key in parser["global"] if parser.has_section("global") else parser.defaults():  # defaults show in [global]
        if key not in known:
            raise ConfigError(f"unknown key {key!r}{'' if key in parser.defaults() else ' in [global]'}")
    if not parser.sections():
        settings = dict(parser.defaults())
    else:
        own = (*STAGES[name].sections, name)
        if strict and not any(parser.has_section(section) for section in own):
            raise ConfigError(f"config file has none of the sections {name} reads: [{'], ['.join(own)}]")
        for section in filter(parser.has_section, own):
            readers = [stage.keys for n, stage in STAGES.items() if section in (*stage.sections, n)]
            for key in parser[section]:  # the lines before the first header show in every section, and are shared
                if key not in parser.defaults() and not any(key in keys for keys in readers):
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        settings = {}
        for section in ("global", *own):
            if parser.has_section(section):
                settings.update(parser[section])
    return {k: v for k, v in settings.items() if k not in PATH_KEYS}


def read_endpoint_file(path: str) -> LlmEndpointConfig:
    """The JSON object in ``path`` as an :class:`LlmEndpointConfig`; any fault is a ConfigError.

    The error names the file, or the key whose value has the wrong type.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read endpoint file {path!r}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"endpoint file {path!r} must hold a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(LlmEndpointConfig)})
    if unknown:
        raise ConfigError(f"endpoint file {path!r} has unknown keys: {', '.join(unknown)}")
    with naming(f"endpoint file {path!r}"):
        return config_from_mapping(LlmEndpointConfig, obj)


# ---------------------------------------------------------------------------
# Stages.  Each has a settings step, which builds and checks every setting the stage
# uses and reads no stage input, and a body, which takes (those settings, declared
# input paths, output directory, a list it appends every output path to before writing it,
# the objects that `run` hands over for some input paths, each what a read of its file
# returns) and returns the objects it wrote that a later stage may take, keyed by path.
# ---------------------------------------------------------------------------


def _load(kept: Mapping[str, object], path: str, read: Callable[[str], object]):
    """The object handed over for ``path``, else ``read(path)``."""
    return kept[path] if path in kept else read(path)


def _write_data(out_dir: str, outputs: list[str], ds, labels=None) -> dict:
    """Writes ``ds`` (and ``labels``) into ``out_dir`` and returns them, keyed by path."""
    os.makedirs(out_dir, exist_ok=True)
    ds_path = os.path.join(out_dir, "dataset.jsonl")
    outputs += [ds_path, _meta_path(ds_path)]
    write_dataset(ds, ds_path)
    written = {ds_path: ds}
    if labels is not None:
        lb_path = os.path.join(out_dir, "labels.jsonl")
        outputs.append(lb_path)
        write_labels(labels, lb_path)
        written[lb_path] = labels
    return written


def stage_simulate(config: SimConfig, inputs: list[str], out_dir: str, outputs: list[str], kept) -> None:
    result = simulate(config)  # `inject` reads it from the file: perfbench's trace needs read_dataset on city_s
    _write_data(out_dir, outputs, result.dataset, result.labels)
    log.info("simulated %d agents, %d outliers", config.n_agents, result.labels.n_outliers())


_INGEST_KEYS = {"format": "format_tag", "min_records": "min_points"}
_INJECT_KEYS = {"pairs": "n_outlier_pairs", "switch_fraction": "switch_fraction", "seed": "seed"}
_SPLIT_KEYS = {"fallback_fraction": "fallback_fraction", "fallback_time": "fallback_time"}
_TRAOD_KEYS = {"traod_d": "D", "p_frac": "p_frac", "seed": "seed"}
_WINDOW_KEYS = {"window_days": "window_days", "window_len": "L", "l": "L"}
_DUMP_PROMPTS_KEYS = ("mode", "template", *_SPLIT_KEYS)
_DETECT_KEYS = ("methods", "method", *_DUMP_PROMPTS_KEYS, *(f.name for f in fields(NetHyper)), "scope", *_TRAOD_KEYS,
                *_WINDOW_KEYS, "cache_dir", "endpoint")  # every method's, each read only when its method is listed


def _ingest_settings(m: dict) -> dict:
    if not m.get("input"):
        raise ConfigError("ingest needs an input path")
    return {"params": config_from_mapping(StayPointParams, m), **settings_of(ingest_dataset, m, _INGEST_KEYS)}


def stage_ingest(s: dict, inputs: list[str], out_dir: str, outputs: list[str], kept) -> None:
    ds = ingest_dataset(inputs[0], poi=PoiMap.from_jsonl(inputs[1]) if inputs[1:] else None, **s)
    _write_data(out_dir, outputs, ds)
    log.info("ingested %d agents from %s", len(ds.trajectories), inputs[0])


def stage_inject(cfg: InjectConfig, inputs: list[str], out_dir: str, outputs: list[str], kept) -> dict:
    """Returns the dataset and labels it wrote: a read of them returns equal records, in the same order."""
    out_ds, labels = inject_imposter(read_dataset(inputs[0]), cfg)
    written = _write_data(out_dir, outputs, out_ds, labels)
    log.info("injected %d imposter pairs", cfg.n_outlier_pairs)
    return written


def _split_settings(m: dict) -> dict:
    """The train/test split fallbacks of ``detect`` and of ``dump-prompts``."""
    split = settings_of(SplitSpec.from_labels, m, _SPLIT_KEYS)
    check_split_fallbacks(**split)
    return split


def _detect_settings(m: dict) -> dict:
    methods = [x.strip() for x in str(m.get("methods", m.get("method", "ompad"))).split(",") if x.strip()]
    if not methods:
        raise ConfigError(f"detect needs at least one method of {', '.join(DETECT_METHODS)}")
    for i, method in enumerate(methods):
        if method not in DETECT_METHODS:
            raise ConfigError(f"unknown detect method {method!r}")
        if method in methods[:i]:  # a second run would score the same agents again and rewrite its score file
            raise ConfigError(f"method {method!r} is listed twice")
    if m.get("out") and len(methods) != 1:
        raise ConfigError("--out applies to a single method")
    s = {"methods": methods, "out": m.get("out"), "split": _split_settings(m)}
    # only the listed methods' settings
    if {"dae", "dsvdd"} & set(methods):
        s["hyper"], s["net"] = config_from_mapping(NetHyper, m), settings_of(dae_score, m, {"scope": "scope"})
        check_scope(**s["net"])
    if "traod" in methods:
        s["traod"] = config_from_mapping(TraodParams, m, _TRAOD_KEYS)
    if {"ompad", "dae", "dsvdd"} & set(methods):
        s["window"] = settings_of(build_windows, m, _WINDOW_KEYS)
        check_windows(**s["window"])
    if "monav" in methods:
        s["monav"] = settings_of(monav_tt_score, m, {"window_days": "window_days"})
        window_seconds_of(**s["monav"])
    if "llm" in methods:
        s["llm"] = {**prompt_settings(m), **settings_of(run_llm_detection, m, {"cache_dir": "cache_dir"})}
        if not m.get("endpoint"):
            raise ConfigError("llm detection needs an endpoint config file")
        s["endpoint"] = read_endpoint_file(m["endpoint"])
    return s


def _split_of(ds, labels, split: dict, inputs: list[str]) -> SplitSpec:
    """The split of the dataset and labels at ``inputs``; a fault names the labels and the sidecar it comes from."""
    with naming(f"{inputs[1]} with {_meta_path(inputs[0])}"):  # a deviate_index, or the sidecar's fallback
        return SplitSpec.from_labels(ds, labels, **split)


def stage_detect(s: dict, inputs: list[str], out_dir: str, outputs: list[str], kept) -> None:
    ds, labels = _load(kept, inputs[0], read_dataset), _load(kept, inputs[1], read_labels)
    split = _split_of(ds, labels, s["split"], inputs)
    feat = build_windows(ds, split, **s["window"]) if "window" in s else None
    endpoint = endpoint_from_config(s["endpoint"], labels=labels) if "endpoint" in s else None
    os.makedirs(out_dir, exist_ok=True)

    for method in s["methods"]:
        if method == "ompad":
            table = ompad_score(feat)
        elif method == "monav":
            table = monav_tt_score(ds, split, **s["monav"])
        elif method == "traod":
            table = traod_score(ds, split, s["traod"])
        elif method in ("dae", "dsvdd"):
            table = (dae_score if method == "dae" else dsvdd_score)(feat, s["hyper"], **s["net"])
        else:  # llm
            table = run_llm_detection(ds, labels, endpoint=endpoint, split=split,
                                      max_concurrent=s["endpoint"].max_concurrent_requests, **s["llm"])
        scores_path = s["out"] or os.path.join(out_dir, f"scores_{table.detector}.jsonl")
        outputs.append(scores_path)
        atomic_write(scores_path, table.to_jsonl())
        if table.omitted:
            log.info("%s omitted %d agents", table.detector, len(table.omitted))


def _eval_settings(m: dict) -> dict:
    ks = convert_value(list[int], "top_k", m.get("top_k", DEFAULT_KS))
    check_ks(ks)
    return {"ks": ks, "out": m.get("out")}


def stage_eval(s: dict, inputs: list[str], out_dir: str, outputs: list[str], kept) -> None:
    labels = _load(kept, inputs[0], read_labels)
    report = make_report([ScoreTable.read(path) for path in inputs[1:]], labels, s["ks"])
    os.makedirs(out_dir, exist_ok=True)
    csv_path = s["out"] or os.path.join(out_dir, "report.csv")
    txt_path = os.path.join(out_dir, "report.txt")
    outputs += [csv_path, txt_path]
    atomic_write(csv_path, report.to_csv())
    atomic_write(txt_path, report.to_text())
    sys.stdout.write(report.to_text())


def _dump_prompts_settings(m: dict) -> dict:
    s = prompt_settings(m)  # only hint prompts show the split, so only they need a fallback for it
    return {**s, "split": _split_settings(m) if s["mode"].endswith("_hint") else None}


def stage_dump_prompts(s: dict, inputs: list[str], out_dir: str, outputs: list[str], kept) -> None:
    ds, labels = read_dataset(inputs[0]), read_labels(inputs[1])
    split = None if s["split"] is None else _split_of(ds, labels, s["split"], inputs)
    dump_prompts(ds, labels, s["mode"], out_dir, s["template_version"], split=split, outputs=outputs)


def _with_meta(dataset_path: str, *others: str) -> list[str]:
    """A dataset, the other inputs, then the meta sidecar that ``read_dataset`` reads with it, when it exists."""
    meta = _meta_path(dataset_path)
    return [dataset_path, *others] + ([meta] if os.path.exists(meta) else [])


def _ingest_inputs(m: dict, s: dict) -> list[str]:
    return [m["input"]] + ([m["poi_map"]] if m.get("poi_map") else [])


def _data_dir_inputs(m: dict, s: dict) -> list[str]:
    """The dataset and labels, and the LLM endpoint file when the built settings hold its config."""
    endpoint = [m["endpoint"]] if "endpoint" in s else []
    return _with_meta(os.path.join(m["in"], "dataset.jsonl"), os.path.join(m["in"], "labels.jsonl")) + endpoint


def _eval_inputs(m: dict, s: dict) -> list[str]:
    """The labels, then the score files: a glob's matches, or under ``run`` the files its detect stage wrote."""
    score_files = sorted(set(m["scores"] if isinstance(m["scores"], list) else globmod.glob(m["scores"])))
    if not score_files:
        raise ConfigError(f"no score files match {m['scores']!r}")
    return [m["labels"], *score_files]


@dataclass(frozen=True)
class Stage:
    """One row of the stage table, shared by the stage's subcommand and by ``run``."""

    settings: Callable[[dict], object]  # settings mapping -> the built, checked settings; reads no stage input
    fn: Callable[[object, list, str, list, Mapping], Mapping | None]
    reads: Callable[[dict, object], list]  # (settings mapping, built settings) -> the input paths the stage declares
    subdir: str | None  # output directory under `run`'s --out-dir; None: subcommand only
    chain: Callable[[str], dict] | None = None  # data dir -> path settings under `run`
    data: bool = False  # writes the dataset that later `run` stages read
    sections: tuple[str, ...] = ()  # config sections merged between [global] and the stage's own
    keys: tuple[str, ...] = ()  # every key the stage can read from those sections, on some run
    takes: tuple[str, ...] = ()  # files of the data dir that, under `run`, it may take from the stage that wrote them


STAGES = {
    "simulate": Stage(lambda m: config_from_mapping(SimConfig, m), stage_simulate, lambda m, s: [], "sim", data=True,
                      keys=tuple(f.name for f in fields(SimConfig))),
    "ingest": Stage(_ingest_settings, stage_ingest, _ingest_inputs, "ingest", data=True,
                    keys=("input", "poi_map", *_INGEST_KEYS, *(f.name for f in fields(StayPointParams)))),
    "inject": Stage(
        lambda m: config_from_mapping(InjectConfig, m, _INJECT_KEYS),
        stage_inject,
        lambda m, s: _with_meta(m["in"]),
        "inject",
        chain=lambda data: {"in": os.path.join(data, "dataset.jsonl")},
        data=True,
        keys=tuple(_INJECT_KEYS),
    ),
    "detect": Stage(_detect_settings, stage_detect, _data_dir_inputs, "scores", chain=lambda data: {"in": data},
                    sections=("llm",), keys=_DETECT_KEYS, takes=("dataset.jsonl", "labels.jsonl")),
    "eval": Stage(_eval_settings, stage_eval, _eval_inputs, "",
                  chain=lambda data: {"labels": os.path.join(data, "labels.jsonl")}, keys=("top_k",),
                  takes=("labels.jsonl",)),
    "dump-prompts": Stage(_dump_prompts_settings, stage_dump_prompts, _data_dir_inputs, None,
                          sections=("llm", "detect"), keys=_DUMP_PROMPTS_KEYS),
}


def _run_stage(name: str, m: dict, s, out_dir: str, kept: Mapping[str, tuple] | None = None) -> tuple[dict, Mapping]:
    """Run one stage on the settings ``s`` built from ``m``; on failure rename its outputs to ``<path>.partial``.

    Returns the manifest entry and the objects that the stage wrote, keyed by path.  ``kept`` is None for a
    subcommand, which hashes nothing and reads every input.  Under ``run`` it maps a path to an object that an
    earlier stage wrote there and the sha256 of each file it was written to (a dataset's sidecar too); the entry
    then maps each input to its sha256, taken before the stage runs, and the stage takes each object whose files
    are inputs with those hashes in place of a read.
    """
    stage = STAGES[name]
    inputs = stage.reads(m, s)
    for path in inputs:
        if not os.path.exists(path):
            raise ConfigError(f"{name} input not found: {path}")
    recorded = inputs if kept is None else {path: _sha256_path(path) for path in inputs}
    taken = {path: obj for path, (obj, files) in (kept or {}).items()
             if all(recorded.get(f) == sha256 for f, sha256 in files.items())}
    outputs: list[str] = []
    started = time.monotonic()
    log.info("stage %s starting", name)
    try:
        written = stage.fn(s, inputs, out_dir, outputs, taken) or {}
    except Exception:
        for path in outputs:
            if os.path.exists(path):
                os.replace(path, path + ".partial")
        log.error("stage %s failed", name)
        raise
    wall_clock_s = round(time.monotonic() - started, 3)
    log.info("stage %s done in %.2fs", name, wall_clock_s)
    return {"name": name, "inputs": recorded, "outputs": outputs, "wall_clock_s": wall_clock_s}, written


def _runtime() -> dict:
    """The Python, numpy and BLAS that this run uses, the CPU count, and each BLAS thread variable (None if unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var)
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_pipeline(config_path: str, out_dir: str | None, seed: int | None) -> int:
    """Build every listed stage's settings, then chain the stages and write ``manifest.json``, also when one fails."""
    parser = _read_config(config_path)
    with naming(config_path):  # the stage list and every setting but --seed come from the file
        glob_cfg = dict(parser["global"]) if parser.has_section("global") else {}
        out_dir = out_dir or glob_cfg.get("out_dir", "out")
        stages = [s.strip() for s in glob_cfg.get("stages", "").split(",") if s.strip()]
        if not stages:
            raise ConfigError("config [global] must list stages")
        flags = {} if seed is None else {"seed": seed}
        plan, data_dir, labelled, data_settings = [], None, False, None
        for name in stages:
            stage, planned = STAGES.get(name), [step[0] for step in plan]
            if stage is None or stage.subdir is None:
                raise ConfigError(f"unknown stage {name!r}")
            if name in planned:  # a second run of a stage would rewrite its directory under the first one's hashes
                raise ConfigError(f"stage {name!r} is listed twice")
            m = {**_file_settings(parser, name, strict=False), **flags}
            if stage.chain is not None:
                if data_dir is None:
                    raise ConfigError(f"{name} needs a prior simulate or ingest stage")
                if not (stage.data or labelled):  # detect and eval read the labels of the last data stage
                    raise ConfigError(f"{name} needs labels, which ingest does not write: list inject after ingest")
                if name == "eval" and "detect" not in planned:
                    raise ConfigError("eval needs a prior detect stage")
                m.update(stage.chain(data_dir))
            with naming(_settings_source(config_path, flags)):
                s = stage.settings(m)
            stage_dir = os.path.join(out_dir, stage.subdir)
            if name == "inject" and isinstance(data_settings, SimConfig):  # after ingest, the data counts the agents
                check_pairs(s, data_settings.n_agents)
            takes = {os.path.join(data_dir, f) for f in stage.takes}
            plan.append((name, m, s, stage_dir, takes))
            if stage.data:
                data_dir, labelled, data_settings = stage_dir, name != "ingest", s

        manifest = {
            "version": __version__,
            "config_hash": params_hash({s: dict(parser[s]) for s in parser.sections()}),
            "seed": seed if seed is not None else convert_value(int | None, "seed", glob_cfg.get("seed")),
            "status": "ok",
            "runtime": _runtime(),
            "stages": [],
        }
    os.makedirs(out_dir, exist_ok=True)
    kept: dict[str, tuple] = {}  # path -> (what a stage wrote there, the sha256 of each file it wrote it to)
    try:
        for i, (name, m, s, stage_dir, _) in enumerate(plan):
            if name == "eval":  # the score files this run wrote, not what an earlier run left in scores/
                m["scores"] = [p for e in manifest["stages"] if e["name"] == "detect" for p in e["outputs"]]
            entry, written = _run_stage(name, m, s, stage_dir, kept)
            hashes = entry["outputs"] = {p: _sha256_path(p) for p in entry["outputs"]}
            manifest["stages"].append(entry)
            kept.update((p, (obj, {f: hashes[f] for f in (p, _meta_path(p)) if f in hashes}))
                        for p, obj in written.items())
            later = set().union(*(step[4] for step in plan[i + 1:]))
            kept = {p: held for p, held in kept.items() if p in later}  # dropped once no later stage takes it
    except BaseException as exc:  # re-raised once the manifest names it
        manifest.update(status="failed", error={"stage": name, "type": type(exc).__name__, "message": str(exc)})
        raise
    finally:
        atomic_write(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argparse wiring.  Flags default to None (unset), so every default lives in
# the library; each flag's dest is the settings key it overrides.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobanom", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--config", default=None, help="config file (INI sections per stage)")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--log-json", action="store_true", help="line-delimited JSON logs on stderr")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # SUPPRESS: a subcommand flag that is not given leaves the global one alone
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed override")

    p = sub.add_parser("simulate", parents=[seeded], help="generate a labeled synthetic dataset")
    p.add_argument("--config", default=argparse.SUPPRESS, help="key-value SimConfig file")

    p = sub.add_parser("ingest", help="raw GPS logs -> canonical dataset")
    p.add_argument("input", help="csv file or plt directory tree")
    p.add_argument("--format", choices=("plt", "csv"))
    p.add_argument("--dist-threshold-m", type=float)
    p.add_argument("--time-threshold-s", type=float)
    p.add_argument("--min-records", type=int)
    p.add_argument("--poi-map")

    p = sub.add_parser("inject", parents=[seeded], help="swap trajectory tails between agent pairs")
    p.add_argument("--in", required=True, help="input dataset.jsonl")
    p.add_argument("--pairs", type=int)
    p.add_argument("--switch-fraction", type=float)

    p = sub.add_parser("detect", parents=[seeded], help="score agents with one or more detectors")
    p.add_argument("--method", dest="methods", required=True, help=f"comma list of {'|'.join(DETECT_METHODS)}")
    p.add_argument("--in", required=True, help="directory with dataset.jsonl + labels.jsonl")
    p.add_argument("--params", dest="config", default=argparse.SUPPRESS, help="key-value parameter file")
    p.add_argument("--out", help="scores path (single method only)")
    p.add_argument("--mode", help="llm prompt mode")
    p.add_argument("--endpoint", help="llm endpoint config json")
    p.add_argument("--template")
    p.add_argument("--cache-dir")
    p.add_argument("--window-days", type=float)
    p.add_argument("--window-len", dest="l", type=int)
    p.add_argument("--scope", choices=("population", "per_agent"))
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("eval", help="rank metrics for score tables")
    p.add_argument("--scores", required=True, help="glob of scores_*.jsonl files")
    p.add_argument("--labels", required=True)
    p.add_argument("--top-k")
    p.add_argument("--out", help="CSV report path")

    p = sub.add_parser("dump-prompts", help="write rendered prompts without calling any endpoint")
    p.add_argument("--in", required=True)
    p.add_argument("--mode")
    p.add_argument("--template")

    sub.add_parser("run", help="execute the staged pipeline from --config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging(args.log_json, args.verbose)
    try:
        if args.command == "run":
            if not args.config:
                raise ConfigError("run needs --config")
            return run_pipeline(args.config, args.out_dir, args.seed)
        parser = _read_config(args.config) if args.config else None
        flags = {k: v for k, v in vars(args).items() if v is not None and k not in _CLI_ONLY_ARGS}
        with naming(args.config):
            m = {**(_file_settings(parser, args.command, strict=True) if parser else {}), **flags}
        with naming(_settings_source(args.config, set(flags) - set(PATH_KEYS))):
            s = STAGES[args.command].settings(m)
        _run_stage(args.command, m, s, args.out_dir or m.get("out_dir", "out"))
    except (MobanomError, OSError) as exc:
        log.error("%s: %s", args.command, exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
