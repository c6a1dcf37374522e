"""Spans and counts around the calls into mobanom's layers, for the traced run.

The tracer replaces public functions and methods with wrappers wherever
callers look them up: every ``mobanom`` module attribute bound to the
original function (``from ... import`` sites included), and the class
attribute for methods. The benchmark's own modules call through module
attributes, so they see the wrappers too. A wrapper records a span (name, start, end, parent
span, run id) and, for some targets, a count computed from the arguments or
the result. Spans stay in memory until the run ends.

Per-layer metrics come from the spans: ``<span>_s`` sums span durations over
calls, and ``<layer>.self_s`` sums each span's duration minus the part of it
that its child spans cover. A name that no longer exists, or a metric that
stays 0 on a workload whose run time it should move, fails the traced run
(:class:`TraceDriftError`), so a rename cannot silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

E2E = ("city_s", "nets", "traod_town", "geolife_ingest")


class TraceDriftError(RuntimeError):
    """A traced name is gone, or a metric that must fire stayed 0."""


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move, and where
    must_fire_on: tuple[str, ...]  # workloads on which it must be > 0


def _m(name, unit, moves, on, better="lower"):
    return LayerMetric(name, unit, better, moves, tuple(on))


_CITY = ("city_s",)
_GEO = ("geolife_ingest",)
_NETS = ("nets",)
_TRAOD = ("traod_town",)
_LLM = ("city_s", "geolife_ingest")

#: Every per-layer metric: what it should move, and where it must fire.
LAYER_METRICS = (
    _m("simulator.simulate_s", "s", "run_s on city_s; setup_s elsewhere", _CITY),
    _m("simulator.spawn_agents_s", "s", "run_s on city_s; setup_s elsewhere", _CITY),
    _m("simulator.agent_ticks", "count", "run_s on city_s; setup_s elsewhere", _CITY),
    _m("simulator.stay_points", "count", "run_s on city_s; setup_s elsewhere", _CITY),
    _m("simulator.self_s", "s", "run_s on city_s; setup_s elsewhere", _CITY),
    _m("core.write_dataset_s", "s", "run_s and peak_rss_mb on city_s; minor elsewhere", _CITY + _GEO),
    _m("core.read_dataset_s", "s", "run_s and peak_rss_mb on city_s; minor on nets and traod_town", E2E),
    _m("core.dataset_bytes", "bytes", "run_s and peak_rss_mb on city_s", E2E),
    _m("core.self_s", "s", "run_s and peak_rss_mb on city_s", E2E),
    _m("inject.inject_imposter_s", "s", "nothing: milliseconds on city_s and geolife_ingest", _LLM),
    _m("inject.self_s", "s", "nothing: milliseconds on city_s and geolife_ingest", _LLM),
    _m("ingest.ingest_dataset_s", "s", "run_s on geolife_ingest", _GEO),
    _m("ingest.load_plt_tree_s", "s", "run_s on geolife_ingest", _GEO),
    _m("ingest.detect_stay_points_s", "s", "run_s on geolife_ingest", _GEO),
    _m("ingest.assign_place_types_s", "s", "run_s on geolife_ingest", _GEO),
    _m("ingest.fixes", "count", "run_s on geolife_ingest", _GEO),
    _m("ingest.stay_points", "count", "run_s on geolife_ingest", _GEO),
    _m("ingest.self_s", "s", "run_s on geolife_ingest", _GEO),
    _m("detectors.build_windows_s", "s", "run_s on city_s; small on geolife_ingest", _LLM + _NETS),
    _m("detectors.bucket_windows_s", "s", "run_s on city_s; small on geolife_ingest and traod_town", _LLM + _TRAOD),
    _m("detectors.windows", "count", "run_s on city_s and nets", _LLM + _NETS),
    _m("detectors.ompad_s", "s", "run_s on city_s; small on geolife_ingest", _LLM),
    _m("detectors.monav_tt_s", "s", "run_s on city_s; small on geolife_ingest and traod_town", _LLM + _TRAOD),
    _m("detectors.traod_s", "s", "run_s on traod_town", _TRAOD),
    _m("detectors.traod_segments", "count", "run_s on traod_town", _TRAOD),
    _m("detectors.traod_kernel_calls", "count", "run_s on traod_town", _TRAOD),
    _m("detectors.dae_s", "s", "run_s on nets", _NETS),
    _m("detectors.dsvdd_s", "s", "run_s on nets", _NETS),
    _m("detectors.dae_per_agent_s", "s", "run_s on nets", _NETS),
    _m("detectors.dsvdd_per_agent_s", "s", "run_s on nets", _NETS),
    _m("detectors.train_network_s", "s", "run_s on nets", _NETS),
    _m("detectors.loss_and_grads_s", "s", "run_s on nets", _NETS),
    _m("detectors.models_trained", "count", "run_s on nets", _NETS),
    _m("detectors.epoch_rows", "count", "run_s on nets", _NETS),
    _m("detectors.self_s", "s", "run_s on nets, traod_town and city_s", _NETS + _TRAOD + _CITY),
    _m("llm.run_llm_detection_s", "s", "run_s on city_s (separate) and geolife_ingest (combine_hint)", _LLM),
    _m("llm.build_bundles_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.cache_get_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.cache_put_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.cache_hits", "count", "must stay 0: every run starts with a cold cache", (), better="higher"),
    _m("llm.cache_misses", "count", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.dispatch_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.requests", "count", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.parse_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.prompt_chars", "count", "run_s on city_s and geolife_ingest", _LLM),
    _m("llm.self_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("evaluation.make_report_s", "s", "nothing: negligible everywhere", E2E),
    _m("evaluation.self_s", "s", "nothing: negligible everywhere", E2E),
    _m("cli.main_s", "s", "run_s on city_s and geolife_ingest", _LLM),
    _m("cli.run_pipeline_s", "s", "run_s on city_s", _CITY),
    _m("cli.self_s", "s", "run_s on city_s and geolife_ingest: INI parsing, sha256 of artifacts, score/report/manifest writes", _LLM),
    _m("trace.overhead", "ratio", "nothing: traced run_s over the untraced median, minus 1", ()),
)

# ---------------------------------------------------------------------------
# Counts computed from a traced call's arguments and result.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_simulate(rec, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    rec.count("simulator.agent_ticks", config.n_agents * config.total_ticks)
    rec.count("simulator.stay_points", sum(len(t.points) for t in result.dataset.trajectories))


def _count_written(rec, args, kwargs, result):
    rec.count("core.dataset_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_read(rec, args, kwargs, result):
    rec.count("core.dataset_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_fixes(rec, args, kwargs, result):
    rec.count("ingest.fixes", sum(len(f) for f in result.values()))


def _count_ingested(rec, args, kwargs, result):
    rec.count("ingest.stay_points", sum(len(t.points) for t in result.trajectories))


def _count_windows(rec, args, kwargs, result):
    rec.count("detectors.windows", sum(len(w) for side in (result.train, result.test) for w in side.values()))


def _count_segments(rec, args, kwargs, result):
    rec.count("detectors.traod_segments", len(result))


def _count_kernel(rec, args, kwargs, result):
    rec.count("detectors.traod_kernel_calls", 1)


def _count_training(rec, args, kwargs, result):
    inputs = _arg(args, kwargs, 1, "inputs")
    hyper = _arg(args, kwargs, 3, "hyper")
    rec.count("detectors.models_trained", 1)
    rec.count("detectors.epoch_rows", len(inputs) * hyper.epochs)


def _count_bundles(rec, args, kwargs, result):
    rec.count("llm.prompt_chars", sum(len(b.text) for b in result))


def _count_cache_get(rec, args, kwargs, result):
    rec.count("llm.cache_misses" if result is None else "llm.cache_hits", 1)


def _count_request(rec, args, kwargs, result):
    rec.count("llm.requests", 1)


def _net_span(kind):
    def name(args, kwargs):
        scope = _arg(args, kwargs, 2, "scope", "population")
        return f"detectors.{kind}" if scope == "population" else f"detectors.{kind}_per_agent"
    return name


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "func" or "Class.method"
    span: object  # span name, a callable (args, kwargs) -> name, or None for count-only
    counter: object = None


#: Every wrapped name; a missing one is a TraceDriftError.
TARGETS = (
    Target("mobanom.simulator", "simulate", "simulator.simulate", _count_simulate),
    Target("mobanom.simulator", "spawn_agents", "simulator.spawn_agents"),
    Target("mobanom.core", "write_dataset", "core.write_dataset", _count_written),
    Target("mobanom.core", "read_dataset", "core.read_dataset", _count_read),
    Target("mobanom.inject", "inject_imposter", "inject.inject_imposter"),
    Target("mobanom.ingest", "ingest_dataset", "ingest.ingest_dataset", _count_ingested),
    Target("mobanom.ingest", "load_plt_tree", "ingest.load_plt_tree", _count_fixes),
    Target("mobanom.ingest", "detect_stay_points", "ingest.detect_stay_points"),
    Target("mobanom.ingest", "assign_place_types", "ingest.assign_place_types"),
    Target("mobanom.detectors.features", "build_windows", "detectors.build_windows", _count_windows),
    Target("mobanom.detectors.features", "bucket_windows", "detectors.bucket_windows"),
    Target("mobanom.detectors.classical", "ompad_score", "detectors.ompad"),
    Target("mobanom.detectors.classical", "monav_tt_score", "detectors.monav_tt"),
    Target("mobanom.detectors.classical", "traod_score", "detectors.traod"),
    Target("mobanom.detectors.classical", "_trajectory_segments", None, _count_segments),
    Target("mobanom.detectors.classical", "traod_segment_distance", None, _count_kernel),
    Target("mobanom.detectors.nets", "dae_score", _net_span("dae")),
    Target("mobanom.detectors.nets", "dsvdd_score", _net_span("dsvdd")),
    Target("mobanom.detectors.nets", "train_network", "detectors.train_network", _count_training),
    Target("mobanom.detectors.nets", "TinyNet.loss_and_grads", "detectors.loss_and_grads"),
    Target("mobanom.llm.client", "run_llm_detection", "llm.run_llm_detection"),
    Target("mobanom.llm.client", "build_bundles", "llm.build_bundles", _count_bundles),
    Target("mobanom.llm.client", "PromptCache.get", "llm.cache_get", _count_cache_get),
    Target("mobanom.llm.client", "PromptCache.put", "llm.cache_put"),
    Target("mobanom.llm.client", "MockEndpoint.complete", "llm.dispatch", _count_request),
    Target("mobanom.llm.prompts", "parse_separate_score", "llm.parse"),
    Target("mobanom.llm.prompts", "parse_combine_scores", "llm.parse"),
    Target("mobanom.evaluation", "make_report", "evaluation.make_report"),
    Target("mobanom.cli", "main", "cli.main"),
    Target("mobanom.cli", "run_pipeline", "cli.run_pipeline"),
)


class Recorder:
    """In-memory spans and counts of one run.

    A span's parent is the innermost open span of its thread. A span opened
    on a thread with none open (the LLM client's pool workers) takes the
    innermost open span of the thread that created the recorder.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._main_stack: list[tuple] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else (self._main_stack[-1][0] if self._main_stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append((index, name, parent, time.perf_counter()))

    def close(self) -> None:
        end = time.perf_counter()
        index, name, parent, start = self._stack().pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def metrics(self) -> dict[str, float]:
        """Summed span time per name, self time per layer, and the counts."""
        out = {m.name: 0.0 if m.unit == "s" else 0 for m in LAYER_METRICS if m.name != "trace.overhead"}
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + "_s"] += end - start
            layer = name.split(".", 1)[0]
            covered = _covered([(self.spans[c][1], self.spans[c][2]) for c in children[i]], start, end)
            out[layer + ".self_s"] += (end - start) - covered
        out.update(self.counts)
        return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _wrap(rec: Recorder, fn, target: Target):
    span, counter = target.span, target.counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            rec.open(span if isinstance(span, str) else span(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close()
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target wherever it is bound; raise TraceDriftError if one is missing."""
    missing = []
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            missing.append(f"{target.module}.{target.attr}")
            continue
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{target.module}.{target.attr}")
            continue
        wrapper = _wrap(rec, original, target)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mobanom" or mod_name.startswith("mobanom.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    if missing:
        raise TraceDriftError("traced names no longer exist: " + ", ".join(missing))


def check_fired(workload: str, metrics: dict[str, float]) -> list[str]:
    """Names of metrics that must be > 0 on ``workload`` but are not."""
    return [m.name for m in LAYER_METRICS if workload in m.must_fire_on and not metrics.get(m.name, 0) > 0]
