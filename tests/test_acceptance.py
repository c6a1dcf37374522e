"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from conftest import read_golden
from mobanom.cli import main
from mobanom.core import Dataset, LabelSet, ScoreParseError
from mobanom.detectors import (
    NetHyper,
    SplitSpec,
    TinyNet,
    build_windows,
    dae_score,
    dsvdd_score,
    monav_tt_score,
    ompad_score,
)
from mobanom.evaluation import ScoreTable, average_precision, make_report, roc_auc, top_k_hits
from mobanom.inject import InjectConfig, inject_imposter
from mobanom.llm import OracleMockEndpoint, build_bundles, parse_separate_score, run_llm_detection
from mobanom.simulator import SimConfig, simulate

from nets_oracle import gradient_check
from test_evaluation import brute_force_ap, brute_force_auc, labels_from
from test_inject import interleaved_dataset, point_multiset


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


class TestCriterion1MetricOracles:
    def test_metrics_match_brute_force(self):
        started = time.monotonic()
        rng = np.random.default_rng(123)
        grid = np.arange(0.0, 1.05, 0.05)
        worst_ap = worst_auc = 0.0
        transform_ok = True
        for _ in range(200):
            n = int(rng.integers(2, 13))
            agents = [f"a{i}" for i in range(n)]
            scores = {a: float(rng.choice(grid)) for a in agents}
            flags = {a: int(rng.integers(2)) for a in agents}
            if sum(flags.values()) == 0:
                flags[agents[0]] = 1
            labels = labels_from(flags)
            worst_ap = max(worst_ap, abs(average_precision(scores, labels) - brute_force_ap(scores, flags)))
            if 0 < sum(flags.values()) < n:
                base = roc_auc(scores, labels)
                worst_auc = max(worst_auc, abs(base - brute_force_auc(scores, flags)))
                for f in (lambda s: 2 * s, lambda s: s**3, lambda s: s + 10):
                    if roc_auc({a: f(s) for a, s in scores.items()}, labels) != base:
                        transform_ok = False
        elapsed = time.monotonic() - started
        check(
            "criterion-1 metric-oracle-equivalence",
            worst_ap < 1e-9 and worst_auc < 1e-9 and transform_ok and elapsed < 5.0,
            f"worst AP err {worst_ap:.2e}, worst AUC err {worst_auc:.2e}, "
            f"transform invariance {transform_ok}, {elapsed:.2f}s",
        )


class TestCriterion2PromptFidelity:
    def test_prompts_byte_identical_to_golden(self, fixture_trajectory):
        split = SplitSpec({"fixture01": 16, "fixture02": 3})
        (plain,), (hinted,) = (build_bundles(Dataset([fixture_trajectory]), LabelSet(), mode, "paper-v1", split)
                               for mode in ("separate", "separate-hint"))
        golden_plain = read_golden("prompt_separate_paper-v1.txt")
        golden_hint = read_golden("prompt_separate_hint_paper-v1.txt")
        ok = (
            plain.text == golden_plain
            and hinted.text == golden_hint
            and hinted.text.count("***<deviate-point>***") == 2  # hint paragraph + marker
            and golden_hint.endswith("inside a pair of square brackets [] :")
        )
        check("criterion-2 prompt-fidelity", ok, "separate and separate-with-hint match golden bytes")


class TestCriterion3ScoreParsing:
    def test_transcripts_and_error_case(self):
        expected = {
            "transcript_01.txt": 0.85,
            "transcript_02.txt": 0.65,
            "transcript_03.txt": 0.9,
            "transcript_04.txt": 0.7,
        }
        got = {name: parse_separate_score(read_golden("transcripts", name)) for name in expected}
        parse_error_raised = False
        try:
            parse_separate_score("no bracketed score anywhere")
        except ScoreParseError:
            parse_error_raised = True
        check(
            "criterion-3 score-parsing",
            got == expected and parse_error_raised,
            f"parsed {sorted(got.values())}, no-bracket input raises",
        )


class TestCriterion4EndToEndMock:
    def test_mock_pipeline_and_warm_cache(self, tmp_path):
        started = time.monotonic()
        cfg = SimConfig(n_agents=100, weeks=2, n_hunger=3, n_social=3, n_work=3, seed=404)
        res = simulate(cfg)
        cache_dir = str(tmp_path / "cache")

        endpoint = OracleMockEndpoint(res.labels)
        table = run_llm_detection(res.dataset, res.labels, "separate", endpoint, cache_dir=cache_dir)
        auc = roc_auc(table, res.labels)
        ap = average_precision(table, res.labels)
        hits = top_k_hits(table, res.labels, 10)
        report1 = make_report([table], res.labels, ks=[10]).to_text()

        endpoint2 = OracleMockEndpoint(res.labels)
        table2 = run_llm_detection(res.dataset, res.labels, "separate", endpoint2, cache_dir=cache_dir)
        report2 = make_report([table2], res.labels, ks=[10]).to_text()
        elapsed = time.monotonic() - started
        check(
            "criterion-4 end-to-end-mock",
            auc == 1.0
            and ap == 1.0
            and hits == 9
            and endpoint2.calls == 0
            and report1 == report2
            and elapsed < 120.0,
            f"AUC {auc}, AP {ap}, top-10 {hits}, warm-cache calls {endpoint2.calls}, {elapsed:.1f}s",
        )


class TestCriterion5DetectorSanity:
    def test_ompad_and_monav_on_controlled_outliers(self):
        ompad_aucs = []
        monav_aucs = []
        per_seed_ok = True
        for seed in range(5):
            started = time.monotonic()
            work_cfg = SimConfig(n_agents=100, weeks=2, n_hunger=0, n_social=0, n_work=10, seed=seed)
            res = simulate(work_cfg)
            split = SplitSpec.from_labels(res.dataset, res.labels)
            feat = build_windows(res.dataset, split, window_days=2.0, L=64)
            ompad_aucs.append(roc_auc(ompad_score(feat), res.labels))

            hunger_cfg = SimConfig(
                n_agents=100, weeks=2, n_hunger=10, n_social=0, n_work=0,
                hunger_multiplier=3.0, seed=seed,
            )
            res = simulate(hunger_cfg)
            split = SplitSpec.from_labels(res.dataset, res.labels)
            monav_aucs.append(roc_auc(monav_tt_score(res.dataset, split, window_days=2.0), res.labels))
            per_seed_ok = per_seed_ok and (time.monotonic() - started) < 60.0
        mean_ompad = float(np.mean(ompad_aucs))
        mean_monav = float(np.mean(monav_aucs))
        check(
            "criterion-5 detector-sanity",
            mean_ompad >= 0.9 and mean_monav >= 0.8 and per_seed_ok,
            f"OMPAD mean AUC {mean_ompad:.3f} (work outliers), "
            f"MoNav-TT mean AUC {mean_monav:.3f} (hunger outliers), per-seed < 60s: {per_seed_ok}",
        )


class TestCriterion6ImposterBenchmark:
    def test_one_class_detectors_beat_random(self):
        started = time.monotonic()
        dae_aucs, dsvdd_aucs, random_aucs = [], [], []
        for seed in range(5):
            cfg = SimConfig(n_agents=60, weeks=4, n_hunger=0, n_social=0, n_work=0, seed=seed)
            res = simulate(cfg)
            ds, labels = inject_imposter(
                res.dataset, InjectConfig(n_outlier_pairs=12, switch_fraction=0.8, seed=seed)
            )
            split = SplitSpec.from_labels(ds, labels, fallback_fraction=0.8)
            feat = build_windows(ds, split, window_days=1.0, L=16)
            hyper = NetHyper(epochs=300, seed=seed)
            dae_aucs.append(roc_auc(dae_score(feat, hyper, scope="per_agent"), labels))
            dsvdd_aucs.append(roc_auc(dsvdd_score(feat, hyper, scope="per_agent"), labels))

            rng = np.random.default_rng(seed + 1000)
            random_table = ScoreTable(
                detector="random", scores={a: float(rng.random()) for a in ds.agent_ids()}
            )
            random_aucs.append(roc_auc(random_table, labels))
        mean_dae = float(np.mean(dae_aucs))
        mean_dsvdd = float(np.mean(dsvdd_aucs))
        mean_random = float(np.mean(random_aucs))
        elapsed = time.monotonic() - started
        check(
            "criterion-6 imposter-benchmark",
            mean_dae > 0.65
            and mean_dsvdd > 0.65
            and abs(mean_random - 0.5) <= 0.1
            and mean_dae > mean_random
            and mean_dsvdd > mean_random
            and elapsed < 300.0,
            f"DAE mean AUC {mean_dae:.3f}, DSVDD mean AUC {mean_dsvdd:.3f}, "
            f"random control {mean_random:.3f}, {elapsed:.1f}s",
        )


class TestCriterion7GradientCorrectness:
    def test_hundred_random_configurations(self):
        started = time.monotonic()
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(100):
            d_in = int(rng.integers(2, 6))
            hidden = int(rng.integers(1, 5))
            objective = "reconstruction" if trial % 2 == 0 else "svdd"
            d_out = d_in if objective == "reconstruction" else int(rng.integers(1, 5))
            net = TinyNet([d_in, hidden, d_out], seed=trial)
            x = rng.normal(size=(int(rng.integers(2, 7)), d_in))
            worst = max(worst, gradient_check(net, x, objective, eps=1e-5))
        elapsed = time.monotonic() - started
        check(
            "criterion-7 gradient-correctness",
            worst < 1e-4 and elapsed < 30.0,
            f"max relative error {worst:.2e} over 100 configs, {elapsed:.1f}s",
        )


class TestCriterion8InjectionInvariants:
    def test_five_hundred_random_datasets(self):
        rng = np.random.default_rng(55)
        all_ok = True
        for trial in range(500):
            n_agents = int(rng.integers(4, 9))
            n_points = int(rng.integers(6, 18))
            ds = interleaved_dataset(n_agents=n_agents, n_points=n_points, seed=trial)
            pairs = int(rng.integers(1, n_agents // 2 + 1))
            out, labels = inject_imposter(ds, InjectConfig(n_outlier_pairs=pairs, seed=trial))

            ok = labels.n_outliers() == 2 * pairs
            before = {t.agent_id: t for t in ds.trajectories}
            outliers = set(labels.outlier_ids())
            combined_before, combined_after = [], []
            for t in out.trajectories:
                arrivals = [p.arrive for p in t.points]
                ok = ok and arrivals == sorted(set(arrivals))
                if t.agent_id in outliers:
                    combined_before.extend(point_multiset(before[t.agent_id]))
                    combined_after.extend(point_multiset(t))
                else:
                    ok = ok and t.points == before[t.agent_id].points
            ok = ok and sorted(combined_before) == sorted(combined_after)
            all_ok = all_ok and ok
        check("criterion-8 injection-invariants", all_ok, "500 random datasets")


RUN_CONFIG = """
[global]
seed = 21
stages = simulate, inject, detect, eval

[simulate]
n_agents = 16
weeks = 1
n_hunger = 0
n_social = 0
n_work = 0

[inject]
pairs = 3

[detect]
methods = ompad, monav, llm
window_days = 2

[llm]
mode = separate
endpoint = {endpoint}
cache_dir = {cache}

[eval]
top_k = 3,6
"""


class TestCriterion9Determinism:
    def test_identical_reruns(self, tmp_path):
        endpoint_cfg = tmp_path / "endpoint.json"
        endpoint_cfg.write_text(json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        cfg_path = tmp_path / "pipeline.ini"
        cfg_path.write_text(RUN_CONFIG.format(endpoint=endpoint_cfg, cache=tmp_path / "cache"))
        manifests = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["--config", str(cfg_path), "--out-dir", str(out), "run"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            manifests.append(
                {
                    s["name"]: {os.path.relpath(p, out): h for p, h in s["outputs"].items()}
                    for s in manifest["stages"]
                }
            )
        check(
            "criterion-9 determinism",
            manifests[0] == manifests[1] and len(manifests[0]) == 4,
            "manifest output hashes identical across reruns",
        )
