"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fingerprint
import run
import tracer
import workloads
from mobanom import evaluation, ingest, simulator
from mobanom.core import LabelEntry, LabelSet

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _render(seed: int, out: str) -> tuple[dict, str]:
    sim = simulator.SimConfig(n_agents=4, weeks=1, n_hunger=0, n_social=0, n_work=0, seed=seed)
    info = workloads.write_plt_tree(simulator.simulate(sim).dataset, seed, os.path.join(out, "Data"))
    workloads.write_poi_map(simulator.build_map(sim).places, os.path.join(out, "poi.jsonl"))
    return info, _tree_digest(out)


def test_generators_are_byte_identical_for_one_seed(tmp_path):
    info_a, digest_a = _render(3, str(tmp_path / "a"))
    info_b, digest_b = _render(3, str(tmp_path / "b"))
    _, digest_c = _render(4, str(tmp_path / "c"))
    assert info_a == info_b
    assert digest_a == digest_b
    assert digest_a != digest_c


def test_plt_tree_parses_back_and_yields_labelled_stay_points(tmp_path):
    info, _ = _render(1, str(tmp_path))
    fixes = ingest.load_plt_tree(str(tmp_path / "Data"))
    assert sum(len(f) for f in fixes.values()) == info["fixes"]
    poi = ingest.PoiMap.from_jsonl(str(tmp_path / "poi.jsonl"))
    ds = ingest.ingest_dataset(str(tmp_path / "Data"), "plt", poi=poi, min_points=1)
    types = {p.place_type for t in ds.trajectories for p in t.points}
    assert "Apartment" in types and "Workplace" in types


def test_fingerprint_metrics_match_mobanom_evaluation():
    rng = np.random.default_rng(0)
    agents = [f"a{i:02d}" for i in range(40)]
    labels = LabelSet({a: LabelEntry(i % 5 == 0, "imposter" if i % 5 == 0 else "none", 1 if i % 5 == 0 else None)
                       for i, a in enumerate(agents)})
    # coarse scores force ties
    table = evaluation.ScoreTable("x", {a: float(rng.integers(0, 4)) for a in agents})
    q = fingerprint.measure(table, labels, [5, 10])
    assert q["top_k"] == {"5": evaluation.top_k_hits(table, labels, 5), "10": evaluation.top_k_hits(table, labels, 10)}
    assert abs(q["ap"] - evaluation.average_precision(table, labels)) <= 1e-12
    assert abs(q["auc"] - evaluation.roc_auc(table, labels)) <= 1e-12
    assert not q["constant"]
    flat = evaluation.ScoreTable("y", {a: 0.0 for a in agents})
    assert fingerprint.measure(flat, labels, [5])["constant"]
    assert fingerprint.measure(flat, labels, [5])["auc"] == 0.5


def test_fingerprint_compare_reports_each_difference():
    want = {"d": {"top_k": {"5": 1}, "ap": 0.5, "auc": 0.6}}
    assert fingerprint.compare(want, want, 1e-9, "x") == []
    got = {"d": {"top_k": {"5": 2}, "ap": 0.5 + 1e-8, "auc": 0.6}}
    assert len(fingerprint.compare(got, want, 1e-9, "x")) == 2
    assert fingerprint.compare({}, want, 1e-9, "x")


def test_covered_is_the_union_clipped_to_the_parent():
    assert tracer._covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert tracer._covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3)
    assert tracer._covered([], 0, 10) == 0


def test_recorder_self_time_subtracts_children():
    rec = tracer.Recorder("t")
    rec.spans = [
        ["cli.main", 0.0, 10.0, None, "t"],
        ["core.read_dataset", 1.0, 3.0, 0, "t"],
        ["detectors.ompad", 4.0, 9.0, 0, "t"],
        ["detectors.bucket_windows", 5.0, 6.0, 2, "t"],
    ]
    m = rec.metrics()
    assert m["cli.main_s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["core.self_s"] == pytest.approx(2.0)
    assert m["detectors.self_s"] == pytest.approx(5.0)
    assert m["detectors.ompad_s"] == pytest.approx(5.0)


def test_every_traced_name_exists():
    # install in a child process: wrapping is global to the interpreter
    code = "import tracer; tracer.install(tracer.Recorder('t')); print('ok')"
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(tracer.__file__), env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_missing_traced_name_is_drift(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (tracer.Target("mobanom.core", "no_such_function", "core.x"),))
    with pytest.raises(tracer.TraceDriftError, match="no_such_function"):
        tracer.install(tracer.Recorder("t"))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracer.LAYER_METRICS
    ]
    for m in tracer.LAYER_METRICS:
        assert set(m.must_fire_on) <= set(run.WORKLOAD_NAMES), m.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "city_s", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
