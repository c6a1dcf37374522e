import gc
import hashlib
import json
import os
import pathlib
import platform
import shlex
import subprocess
import sys
import time
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from mobanom import cli
from mobanom.cli import STAGES, _build_parser, main, read_endpoint_file
from mobanom.core import ConfigError, InvalidInputError, StayPoint, params_hash, read_dataset, read_labels
from mobanom.detectors import SplitSpec, TraodParams, traod_score
from mobanom.evaluation import ScoreTable
from mobanom.llm import LlmEndpointConfig, MockEndpoint
from mobanom.simulator import SimConfig


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    cfg = tmp_path / "sim.cfg"
    write(str(cfg), "n_agents = 12\nweeks = 1\nn_hunger = 1\nn_social = 1\nn_work = 1\nseed = 3\n")
    assert main(["--out-dir", str(out), "simulate", "--config", str(cfg)]) == 0
    return out


class TestSimulateCommand:
    def test_writes_canonical_files(self, sim_dir):
        ds = read_dataset(str(sim_dir / "dataset.jsonl"))
        labels = read_labels(str(sim_dir / "labels.jsonl"))
        assert len(ds.trajectories) == 12
        assert labels.n_outliers() == 3


class TestIngestCommand:
    def test_csv_roundtrip(self, tmp_path):
        lines = []
        t = 1_600_000_000
        for agent in ("u1", "u2"):
            for _ in range(40):
                lines.append(f"{agent},{t},40.0,116.0")
                t += 60
            t += 7200
        csv = tmp_path / "raw.csv"
        write(str(csv), "\n".join(lines))
        out = tmp_path / "ingested"
        code = main(["--out-dir", str(out), "ingest", str(csv), "--format", "csv", "--min-records", "1"])
        assert code == 0
        ds = read_dataset(str(out / "dataset.jsonl"))
        assert sorted(t.agent_id for t in ds.trajectories) == ["u1", "u2"]


class TestInjectCommand:
    def test_inject_from_simulated(self, sim_dir, tmp_path):
        out = tmp_path / "injected"
        code = main([
            "--out-dir", str(out), "--seed", "7",
            "inject", "--in", str(sim_dir / "dataset.jsonl"), "--pairs", "2",
        ])
        assert code == 0
        labels = read_labels(str(out / "labels.jsonl"))
        assert labels.n_outliers() == 4


class TestDetectAndEval:
    def test_classical_detect_then_eval(self, sim_dir, tmp_path, capsys):
        scores_dir = tmp_path / "scores"
        code = main([
            "--out-dir", str(scores_dir),
            "detect", "--method", "ompad,monav", "--in", str(sim_dir), "--window-days", "2",
        ])
        assert code == 0
        assert (scores_dir / "scores_ompad.jsonl").exists()
        assert (scores_dir / "scores_monav_tt.jsonl").exists()

        report_dir = tmp_path / "report"
        code = main([
            "--out-dir", str(report_dir),
            "eval", "--scores", str(scores_dir / "scores_*.jsonl"),
            "--labels", str(sim_dir / "labels.jsonl"), "--top-k", "3,5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Top-3 Hits" in captured.out
        assert (report_dir / "report.csv").exists()

    def test_llm_detect_with_mock(self, sim_dir, tmp_path):
        endpoint_cfg = tmp_path / "endpoint.json"
        write(str(endpoint_cfg), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        scores_dir = tmp_path / "scores"
        code = main([
            "--out-dir", str(scores_dir),
            "detect", "--method", "llm", "--in", str(sim_dir),
            "--endpoint", str(endpoint_cfg), "--mode", "separate",
        ])
        assert code == 0
        assert (scores_dir / "scores_llm_separate.jsonl").exists()

    def test_traod_detect_reads_its_params(self, sim_dir, tmp_path):
        params = tmp_path / "traod.cfg"
        write(str(params), "[detect]\ntraod_d = 0.5\np_frac = 0.7\n")
        scores_dir = tmp_path / "scores"
        code = main([
            "--out-dir", str(scores_dir), "detect", "--method", "traod", "--in", str(sim_dir), "--params", str(params),
        ])
        assert code == 0
        with open(scores_dir / "scores_traod.jsonl", encoding="utf-8") as fh:
            table = ScoreTable.from_jsonl(fh.read())
        ds, labels = read_dataset(str(sim_dir / "dataset.jsonl")), read_labels(str(sim_dir / "labels.jsonl"))
        expected = traod_score(ds, SplitSpec.from_labels(ds, labels), TraodParams(D=0.5, p_frac=0.7))
        assert table.params_hash == expected.params_hash  # a hash of D = 0.5 and p_frac = 0.7
        assert table.scores == expected.scores and len(table.scores) == 12

    def test_missing_labels_is_config_error(self, tmp_path, sim_dir):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "dataset.jsonl").write_text(
            (sim_dir / "dataset.jsonl").read_text()
        )
        code = main(["--out-dir", str(tmp_path / "s"), "detect", "--method", "ompad", "--in", str(empty)])
        assert code == 1

    def test_unknown_method(self, sim_dir, tmp_path):
        code = main(["--out-dir", str(tmp_path / "x"), "detect", "--method", "psychic", "--in", str(sim_dir)])
        assert code == 1

    def test_explicit_out_paths(self, sim_dir, tmp_path):
        scores_path = tmp_path / "my_scores.jsonl"
        code = main([
            "--out-dir", str(tmp_path / "d"),
            "detect", "--method", "ompad", "--in", str(sim_dir),
            "--window-days", "2", "--out", str(scores_path),
        ])
        assert code == 0
        assert scores_path.exists()
        report_path = tmp_path / "my_report.csv"
        code = main([
            "--out-dir", str(tmp_path / "e"),
            "eval", "--scores", str(scores_path), "--labels", str(sim_dir / "labels.jsonl"),
            "--top-k", "3", "--out", str(report_path),
        ])
        assert code == 0
        assert report_path.exists()

    def test_a_k_listed_twice_writes_nothing(self, sim_dir, tmp_path, capsys):
        # was: exit 0, with a report.csv whose header held top_1_hits twice
        scores = tmp_path / "scores"
        assert main(["--out-dir", str(scores), "detect", "--method", "ompad", "--in", str(sim_dir)]) == 0
        out = tmp_path / "report"
        assert main(["--out-dir", str(out), "eval", "--scores", str(scores / "scores_ompad.jsonl"),
                     "--labels", str(sim_dir / "labels.jsonl"), "--top-k", "1,1"]) == 1
        err = capsys.readouterr().err
        assert "K 1 is listed twice" in err and "Traceback" not in err
        assert not out.exists()

    def test_out_with_multiple_methods_rejected(self, sim_dir, tmp_path):
        code = main([
            "--out-dir", str(tmp_path / "m"),
            "detect", "--method", "ompad,monav", "--in", str(sim_dir),
            "--out", str(tmp_path / "s.jsonl"),
        ])
        assert code == 1


class TestDumpPrompts:
    def test_dump(self, sim_dir, tmp_path):
        out = tmp_path / "prompts"
        code = main(["--out-dir", str(out), "dump-prompts", "--in", str(sim_dir), "--mode", "separate-hint"])
        assert code == 0
        files = os.listdir(out)
        assert "prompts_index.jsonl" in files
        assert sum(1 for f in files if f.startswith("prompt_")) == 12

    def test_dump_writes_the_prompts_detect_sends(self, sim_dir, tmp_path):
        # 12 agents, 2 imposter pairs: the 8 others split at the fallback, not at the injector's switch_fraction
        data = tmp_path / "inject"
        assert main(["--out-dir", str(data), "--seed", "4", "inject", "--in", str(sim_dir / "dataset.jsonl"),
                     "--pairs", "2"]) == 0
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-constant"}))
        configs = {  # subcommand sections with the mode as a flag; a `run` config, mode in [llm], no [dump-prompts]
            "split": ("[global]\nfallback_fraction = 0.3\n\n[detect]\n\n[dump-prompts]\n", ["--mode", "separate-hint"]),
            "run": ("[global]\nstages = simulate, inject, detect, eval\n\n[detect]\nmethods = ompad, llm\n"
                    "fallback_fraction = 0.3\n\n[llm]\nmode = separate-hint\n", []),
        }
        for name, (text, mode) in configs.items():
            cfg, cache, out = tmp_path / f"{name}.ini", tmp_path / f"{name}_cache", tmp_path / f"{name}_prompts"
            write(str(cfg), text)
            assert main(["--config", str(cfg), "--out-dir", str(tmp_path / f"{name}_scores"), "detect", "--method",
                         "llm", "--in", str(data), *mode, "--endpoint", str(endpoint), "--cache-dir", str(cache)]) == 0
            assert main(["--config", str(cfg), "--out-dir", str(out), "dump-prompts", "--in", str(data), *mode]) == 0
            sent = sorted(json.loads(p.read_text())["request"]["prompt"] for p in cache.iterdir())
            dumped = sorted(p.read_text() for p in out.glob("prompt_*.txt"))
            assert len(sent) == 12 and dumped == sent, name
            assert all("***<deviate-point>***" in text for text in dumped), name

    def test_a_deviate_index_past_the_last_stay_exits_1(self, sim_dir, tmp_path, capsys):
        # detect omitted the agent ("no test windows") while dump-prompts marked its last stay
        labels = [json.loads(line) for line in (sim_dir / "labels.jsonl").read_text().splitlines()]
        outlier = next(row for row in labels if row["is_outlier"])
        outlier["deviate_index"] = 1000
        (sim_dir / "labels.jsonl").write_text("".join(json.dumps(row) + "\n" for row in labels))
        for argv in (["detect", "--method", "ompad"], ["dump-prompts", "--mode", "separate-hint"]):
            assert main(["--out-dir", str(tmp_path / argv[0]), *argv, "--in", str(sim_dir)]) == 1
            err = capsys.readouterr().err
            assert f"{outlier['agent_id']!r} deviates at stay 1000" in err and "Traceback" not in err

    def test_a_bad_template_exits_1_before_any_input_is_read(self, tmp_path, capsys):
        # was: `dump-prompts input not found: …`, since only building the prompts checked the template
        out = tmp_path / "prompts"
        assert main(["--out-dir", str(out), "dump-prompts", "--in", str(tmp_path / "missing"),
                     "--template", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "unknown template_version 'bogus'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("m", [{}, {"mode": "Combine-With-Hint"}, {"mode": "separate_hint", "template": "clean-v1"},
                                   {"template": "bogus"}, {"mode": "bogus", "template": "bogus"}])
    def test_detect_and_dump_prompts_build_the_same_prompt_settings(self, tmp_path, m):
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-constant"}))
        built = []
        for name, extra in (("detect", {"methods": "llm", "endpoint": str(endpoint)}), ("dump-prompts", {})):
            try:
                s = STAGES[name].settings({**m, **extra})
            except ConfigError as exc:
                built.append(str(exc))
            else:
                s = s["llm"] if name == "detect" else s
                built.append((s["mode"], s["template_version"]))
        assert built[0] == built[1]

    def test_only_hint_modes_need_a_split_fallback(self, sim_dir, tmp_path, capsys):
        (sim_dir / "dataset.meta.json").write_text('{"source":"raw.csv"}\n')  # no onset_time, no switch_fraction
        assert main(["--out-dir", str(tmp_path / "plain"), "dump-prompts", "--in", str(sim_dir),
                     "--mode", "separate"]) == 0
        assert len(list((tmp_path / "plain").glob("prompt_*.txt"))) == 12
        assert main(["--out-dir", str(tmp_path / "hint"), "dump-prompts", "--in", str(sim_dir),
                     "--mode", "separate-hint"]) == 1
        err = capsys.readouterr().err
        assert "no split fallback" in err and "Traceback" not in err


PIPELINE_CONFIG = """
[global]
seed = 11
stages = simulate, detect, eval

[simulate]
n_agents = 10
weeks = 1
n_hunger = 1
n_social = 0
n_work = 1

[detect]
methods = ompad, llm
window_days = 2

[llm]
mode = separate
endpoint = {endpoint}
cache_dir = {cache}

[eval]
top_k = 2,5
"""


DIVERGING_CONFIG = (
    "[global]\nseed = 1\nstages = simulate, detect\n\n"
    "[simulate]\nn_agents = 8\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
    "[detect]\nmethods = ompad, dae\nwindow_days = 2\nepochs = 1\nlearning_rate = 1e30\n"
)


class TestRunPipeline:
    def build_config(self, tmp_path):
        endpoint_cfg = tmp_path / "endpoint.json"
        write(str(endpoint_cfg), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        cfg = tmp_path / "pipeline.ini"
        write(str(cfg), PIPELINE_CONFIG.format(endpoint=endpoint_cfg, cache=tmp_path / "cache"))
        return cfg

    def test_full_pipeline_and_manifest(self, tmp_path):
        cfg = self.build_config(tmp_path)
        out = tmp_path / "run1"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["simulate", "detect", "eval"]
        assert manifest["status"] == "ok" and "error" not in manifest
        assert (out / "report.csv").exists()
        assert (out / "scores" / "scores_llm_separate.jsonl").exists()

    def test_rerun_reproduces_hashes(self, tmp_path):
        cfg = self.build_config(tmp_path)
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            outs.append(
                {
                    s["name"]: {os.path.relpath(p, out): h for p, h in s["outputs"].items()}
                    for s in manifest["stages"]
                }
            )
        assert outs[0] == outs[1]

    def test_missing_labels_fails_named(self, tmp_path, capsys):
        endpoint_cfg = tmp_path / "endpoint.json"
        write(str(endpoint_cfg), json.dumps({"provider": "mock-constant"}))
        cfg = tmp_path / "broken.ini"
        write(str(cfg), "[global]\nstages = eval\n\n[eval]\ntop_k = 5\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "b"), "run"])
        assert code == 1

    def test_log_json(self, tmp_path, capsys):
        cfg = self.build_config(tmp_path)
        out = tmp_path / "runj"
        assert main(["--log-json", "--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
        parsed = [json.loads(ln) for ln in err_lines]
        assert all("msg" in obj and "level" in obj for obj in parsed)

    def test_manifest_hashes_the_endpoint_file(self, tmp_path):
        cfg = self.build_config(tmp_path)
        endpoint_cfg = tmp_path / "endpoint.json"
        hashes = []
        for name, model in (("run1", "oracle"), ("run2", "oracle-2")):
            write(str(endpoint_cfg), json.dumps({"provider": "mock-oracle", "model_name": model}))
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
            detect = json.loads((out / "manifest.json").read_text())["stages"][1]
            assert detect["name"] == "detect" and str(endpoint_cfg) in detect["inputs"]
            hashes.append(detect["inputs"])
        assert hashes[0] != hashes[1]
        assert hashes[0][str(endpoint_cfg)] != hashes[1][str(endpoint_cfg)]

    def test_manifest_records_the_inputs_before_the_stage_ran(self, tmp_path, monkeypatch):
        detect = STAGES["detect"]

        def rewriting_detect(s, inputs, out_dir, outputs, kept):
            with open(inputs[1], "a", encoding="utf-8") as fh:  # the labels; a blank line reads the same
                fh.write("\n")
            detect.fn(s, inputs, out_dir, outputs, kept)

        monkeypatch.setitem(STAGES, "detect", replace(detect, fn=rewriting_detect))
        out = tmp_path / "run"
        assert main(["--config", str(self.build_config(tmp_path)), "--out-dir", str(out), "run"]) == 0
        simulate, detected = json.loads((out / "manifest.json").read_text())["stages"][:2]
        labels = str(out / "sim" / "labels.jsonl")
        assert detected["inputs"][labels] == simulate["outputs"][labels]
        assert detected["inputs"][labels] != hashlib.sha256(pathlib.Path(labels).read_bytes()).hexdigest()

    def test_manifest_hashes_the_dataset_meta_sidecar(self, tmp_path):
        cfg = tmp_path / "inject.ini"
        write(
            str(cfg),
            "[global]\nseed = 2\nstages = simulate, inject, detect\n\n"
            "[simulate]\nn_agents = 10\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
            "[inject]\npairs = 2\n\n[detect]\nmethods = ompad\nwindow_days = 2\n",
        )
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        simulate, inject, detect = json.loads((out / "manifest.json").read_text())["stages"][:3]
        for reader, writer, data in ((inject, simulate, "sim"), (detect, inject, "inject")):
            meta = str(out / data / "dataset.meta.json")
            assert reader["inputs"][meta] == writer["outputs"][meta]
        assert "switch_fraction" in json.loads((out / "inject" / "dataset.meta.json").read_text())

    def test_failed_stage_leaves_partial_outputs(self, tmp_path):
        # dae diverges after ompad has scored: ompad's finished scores get .partial (a bad setting, such as a
        # missing llm endpoint, now fails before any detector runs and leaves nothing)
        cfg = tmp_path / "broken.ini"
        write(str(cfg), DIVERGING_CONFIG)
        out = tmp_path / "runp"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        scores = out / "scores"
        assert (scores / "scores_ompad.jsonl.partial").exists()
        assert not (scores / "scores_ompad.jsonl").exists()

    def test_a_stage_that_fails_while_it_runs_writes_a_failure_manifest(self, tmp_path):
        # was: no manifest.json when a stage failed
        cfg = tmp_path / "broken.ini"
        write(str(cfg), DIVERGING_CONFIG)
        out = tmp_path / "runf"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["stage"] == "detect" and manifest["error"]["type"] == "TrainingDivergedError"
        assert "training diverged at epoch 0" in manifest["error"]["message"]
        (simulate,) = manifest["stages"]  # the stages that finished
        assert simulate["name"] == "simulate" and str(out / "sim" / "dataset.jsonl") in simulate["outputs"]

    @pytest.mark.parametrize("finishes", [True, False], ids=["ok", "failed"])
    def test_the_manifest_names_the_runtime(self, tmp_path, monkeypatch, finishes):
        # was: no Python, numpy or BLAS version and no thread count, which the net scores' bytes depend on
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        if finishes:
            cfg = self.build_config(tmp_path)
        else:
            cfg = tmp_path / "broken.ini"
            write(str(cfg), DIVERGING_CONFIG)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == (0 if finishes else 1)
        runtime = json.loads((out / "manifest.json").read_text())["runtime"]
        assert runtime["python"] == platform.python_version() and runtime["numpy"] == np.__version__
        assert runtime["cpu_count"] == os.cpu_count() and isinstance(runtime["blas"]["name"], str)
        assert isinstance(runtime["blas"]["version"], str)
        assert runtime["threads"] == {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                                      "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}

    @pytest.mark.parametrize("stages, section, named", [
        ("simulate, inject", "[inject]\npairs = 0\n", "n_outlier_pairs must be >= 1, got 0"),
        ("simulate, detect", "[detect]\nmethods = ompad, dae\nepochs = 0\n", "epochs must be >= 1, got 0"),
        ("simulate, detect", "[detect]\nmethods = ompad, dae\nscope = bogus\n", "unknown scope 'bogus'"),
        ("simulate, detect", "[detect]\nmethods = monav, ompad\nwindow_len = 0\n", "L must be >= 1, got 0"),
        ("simulate, detect", "[detect]\nmethods = ompad, llm\nendpoint = {endpoint}\n\n[llm]\nmode = bogus\n",
         "unknown prompt mode 'bogus'"),
        ("simulate, detect", "[detect]\nmethods = ompad, llm\nendpoint = {endpoint}\ntemplate = bogus\n",
         "unknown template_version 'bogus'"),
        ("simulate, detect", "[detect]\nmethods = ompad, traod\ntraod_d = -1\n",
         "D must be None or finite and >= 0, got -1.0"),
        ("simulate, detect, eval", "[detect]\nmethods = ompad\n\n[eval]\ntop_k = 0\n", "K must be >= 1, got 0"),
        # was: exit 0, with OMPAD scored twice, or a report.csv whose header held top_2_hits twice
        ("simulate, detect", "[detect]\nmethods = ompad, monav, ompad\n", "method 'ompad' is listed twice"),
        ("simulate, detect, eval", "[detect]\nmethods = ompad\n\n[eval]\ntop_k = 2, 1, 2\n", "K 2 is listed twice"),
    ], ids=["inject_pairs", "dae_epochs", "dae_scope", "window_len", "llm_mode", "llm_template", "traod_d",
            "eval_top_k", "method_twice", "eval_top_k_twice"])
    def test_a_bad_setting_of_the_last_stage_writes_nothing(self, tmp_path, capsys, stages, section, named):
        # was: the earlier stages ran and wrote sim/ (and more) before the bad setting was found
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-constant"}))
        cfg = tmp_path / "bad.ini"
        write(str(cfg), f"[global]\nseed = 1\nstages = {stages}\n\n"
                        "[simulate]\nn_agents = 8\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
                        + section.format(endpoint=endpoint))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_reads_only_the_score_files_this_run_wrote(self, tmp_path):
        # was: the second run's report and manifest also held the first run's scores_monav_tt.jsonl
        out = tmp_path / "run"
        for methods in ("ompad, monav", "ompad"):
            cfg = tmp_path / "run.ini"
            write(str(cfg), "[global]\nseed = 1\nstages = simulate, detect, eval\n\n"
                            "[simulate]\nn_agents = 20\nweeks = 1\nn_hunger = 1\nn_social = 0\nn_work = 1\n\n"
                            f"[detect]\nmethods = {methods}\nwindow_days = 2\n\n[eval]\ntop_k = 2\n")
            assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        assert (out / "scores" / "scores_monav_tt.jsonl").exists()  # the first run's
        evaluated = json.loads((out / "manifest.json").read_text())["stages"][-1]
        assert sorted(evaluated["inputs"]) == [str(out / "scores" / "scores_ompad.jsonl"), str(out / "sim" / "labels.jsonl")]
        assert [row.split(",")[0] for row in (out / "report.csv").read_text().splitlines()] == ["detector", "ompad"]

    @pytest.mark.parametrize("stages, named", [
        ("ingest, detect, eval", "detect needs labels, which ingest does not write: list inject after ingest"),
        ("simulate, ingest, detect", "detect needs labels, which ingest does not write: list inject after ingest"),
        ("simulate, eval", "eval needs a prior detect stage"),
        ("simulate, inject, eval, detect", "eval needs a prior detect stage"),
        # was: exit 0, the second inject rewrote inject/ under the first one's hashes and mislabelled agents
        ("simulate, inject, inject, detect, eval", "stage 'inject' is listed twice"),
    ], ids=["ingest_detect", "simulate_ingest_detect", "eval_without_detect", "eval_before_detect", "inject_twice"])
    def test_a_chain_whose_stage_lacks_its_input_writes_nothing(self, tmp_path, capsys, stages, named):
        # was: the stages before ran and wrote ingest/ or sim/, then the stage failed for want of labels or scores
        rows = [f"u{a},{1_600_000_000 + 60 * k},40.0,116.0" for a in range(3) for k in range(40)]
        write(str(tmp_path / "raw.csv"), "\n".join(rows))
        cfg = tmp_path / "chain.ini"
        write(str(cfg), f"[global]\nseed = 1\nstages = {stages}\n\n"
                        "[simulate]\nn_agents = 8\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
                        f"[ingest]\ninput = {tmp_path / 'raw.csv'}\nformat = csv\nmin_records = 1\n\n"
                        "[inject]\npairs = 2\n\n[detect]\nmethods = ompad\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_too_few_simulated_agents_for_the_pairs_writes_nothing(self, tmp_path, capsys):
        # was: simulate ran and wrote sim/ and a manifest, then inject exited 1
        cfg = tmp_path / "pairs.ini"
        write(str(cfg), "[global]\nseed = 1\nstages = simulate, inject, detect\n\n"
                        "[simulate]\nn_agents = 8\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
                        "[detect]\nmethods = ompad\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert "need 24 agents for 12 pairs, have 8" in err and "Traceback" not in err
        assert not out.exists()

    def test_seed_flag_overrides_file(self, tmp_path):
        cfg = self.build_config(tmp_path)
        hashes = []
        for name, extra in (("s1", ["--seed", "99"]), ("s2", ["--seed", "99"]), ("s3", [])):
            out = tmp_path / name
            assert main(extra + ["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            sim = next(s for s in manifest["stages"] if s["name"] == "simulate")
            hashes.append(sorted(sim["outputs"].values()))
        assert hashes[0] == hashes[1]  # same explicit seed
        assert hashes[0] != hashes[2]  # flag seed 99 differs from file seed 11


HANDOFF_CONFIG = """
[global]
seed = 7
stages = simulate, inject, detect, eval

[simulate]
n_agents = 12
weeks = 1
n_hunger = 1
n_social = 1
n_work = 0

[inject]
pairs = 2

[detect]
methods = ompad, monav, llm
window_days = 2

[llm]
mode = separate
endpoint = {endpoint}
cache_dir = {cache}

[eval]
top_k = 2,5
"""


def tree_bytes(root) -> dict:
    """Each file under ``root`` but the manifest, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, n), root): pathlib.Path(d, n).read_bytes()
            for d, _, names in os.walk(root) for n in names if n != "manifest.json"}


class TestInMemoryHandoff:
    """Under `run`, detect and eval take the dataset and labels that inject wrote in memory when each file (the
    dataset's sidecar too) hashes as written, and read it otherwise; subcommands always read."""

    def config(self, tmp_path, name="pipeline"):
        """A config file whose LLM cache is its own: the oracle answers from the labels, which a prompt omits."""
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        cfg = tmp_path / f"{name}.ini"
        write(str(cfg), HANDOFF_CONFIG.format(endpoint=endpoint, cache=tmp_path / f"{name}_cache"))
        return cfg

    @pytest.fixture
    def reads(self, monkeypatch):
        """How many times the stages read a dataset and a labels file."""
        count = {"dataset": 0, "labels": 0}

        def counted(name, read):
            def reader(path):
                count[name] += 1
                return read(path)
            return reader

        monkeypatch.setattr(cli, "read_dataset", counted("dataset", cli.read_dataset))
        monkeypatch.setattr(cli, "read_labels", counted("labels", cli.read_labels))
        return count

    def subcommands(self, cfg, out, cache):
        """The chain of `run` as four subcommands, into ``out``."""
        assert main(["--config", str(cfg), "--out-dir", str(out / "sim"), "simulate"]) == 0
        assert main(["--config", str(cfg), "--out-dir", str(out / "inject"), "inject",
                     "--in", str(out / "sim" / "dataset.jsonl")]) == 0
        self.detect_and_eval(cfg, out / "inject", out, cache)

    def detect_and_eval(self, cfg, data, out, cache):
        """The detect and eval subcommands on the dataset and labels in ``data``, into ``out``."""
        assert main(["--config", str(cfg), "--out-dir", str(out / "scores"), "detect", "--method", "ompad,monav,llm",
                     "--in", str(data), "--cache-dir", str(cache)]) == 0
        assert main(["--config", str(cfg), "--out-dir", str(out), "eval", "--scores", str(out / "scores" / "*.jsonl"),
                     "--labels", str(data / "labels.jsonl")]) == 0

    def test_run_writes_the_bytes_of_the_subcommands(self, tmp_path, reads):
        cfg = self.config(tmp_path)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]) == 0
        assert reads == {"dataset": 1, "labels": 0}  # inject reads what simulate wrote; the rest is handed over
        self.subcommands(cfg, tmp_path / "sub", tmp_path / "sub_cache")
        assert reads == {"dataset": 3, "labels": 2}  # subcommands always read
        ran, chained = tree_bytes(tmp_path / "run"), tree_bytes(tmp_path / "sub")
        assert sorted(ran) == sorted(chained) and {"report.csv", "report.txt", "scores/scores_ompad.jsonl",
                                                   "scores/scores_monav_tt.jsonl",
                                                   "scores/scores_llm_separate.jsonl"} <= set(ran)
        assert all(ran[path] == chained[path] for path in ran), [path for path in ran if ran[path] != chained[path]]

    @staticmethod
    def drop_the_last_stays_of_normal_agents(inject):
        outliers = set(read_labels(str(inject / "labels.jsonl")).outlier_ids())
        lines = []
        for line in (inject / "dataset.jsonl").read_text().splitlines():
            obj = json.loads(line)
            if obj["agent_id"] not in outliers:
                obj["points"] = obj["points"][:-3]
            lines.append(json.dumps(obj) + "\n")
        write(str(inject / "dataset.jsonl"), "".join(lines))

    @staticmethod
    def move_the_onset_a_day_earlier(inject):  # the split's fallback for the agents that are not outliers
        meta = json.loads((inject / "dataset.meta.json").read_text())
        write(str(inject / "dataset.meta.json"), json.dumps({**meta, "onset_time": meta["onset_time"] - 86400}))

    @staticmethod
    def clear_the_first_outlier(inject):
        lines = (inject / "labels.jsonl").read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if json.loads(line)["is_outlier"])
        agent = json.loads(lines[first])["agent_id"]
        lines[first] = json.dumps({"agent_id": agent, "is_outlier": False, "outlier_type": "none",
                                   "deviate_index": None}) + "\n"
        write(str(inject / "labels.jsonl"), "".join(lines))

    @pytest.mark.parametrize("rewrite, read", [(drop_the_last_stays_of_normal_agents, "dataset"),
                                               (move_the_onset_a_day_earlier, "dataset"),
                                               (clear_the_first_outlier, "labels")], ids=["dataset", "sidecar", "labels"])
    def test_a_file_changed_after_inject_is_read(self, tmp_path, monkeypatch, reads, rewrite, read):
        cfg = self.config(tmp_path)
        assert main(["--config", str(self.config(tmp_path, "unchanged")), "--out-dir", str(tmp_path / "unchanged"),
                     "run"]) == 0
        detect, out = STAGES["detect"], tmp_path / "run"

        def rewriting_reads(m, s):  # before the stage hashes its inputs
            rewrite(out / "inject")
            return detect.reads(m, s)

        monkeypatch.setitem(STAGES, "detect", replace(detect, reads=rewriting_reads))
        before = dict(reads)
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        # inject reads the simulated dataset; detect reads the changed file's object, and eval reads changed labels
        assert {k: reads[k] - before[k] for k in reads} == {"dataset": 1 + (read == "dataset"),
                                                           "labels": 2 * (read == "labels")}
        # what the detect and eval subcommands, which always read, write from the changed files
        monkeypatch.setitem(STAGES, "detect", detect)
        self.detect_and_eval(cfg, out / "inject", tmp_path / "by_hand", tmp_path / "by_hand_cache")
        ran, by_hand = tree_bytes(out), tree_bytes(tmp_path / "by_hand")
        results = ["report.csv", "report.txt", *sorted(p for p in by_hand if p.startswith("scores/"))]
        assert [ran[p] for p in results] == [by_hand[p] for p in results]
        unchanged = tree_bytes(tmp_path / "unchanged")
        assert [ran[p] for p in results] != [unchanged[p] for p in results]  # the change shows in the scores

    def test_a_kept_object_is_dropped_once_its_last_reader_has_finished(self, tmp_path, monkeypatch, reads):
        inject, detect, evaluate = STAGES["inject"], STAGES["detect"], STAGES["eval"]
        refs = {}

        def keeping_inject(s, inputs, out_dir, outputs, kept):
            written = inject.fn(s, inputs, out_dir, outputs, kept)
            refs.update((os.path.basename(path), weakref.ref(obj)) for path, obj in written.items())
            return written

        def checking_detect(s, inputs, out_dir, outputs, kept):
            assert [kept.get(path) for path in inputs[:2]] == [refs["dataset.jsonl"](), refs["labels.jsonl"]()]
            detect.fn(s, inputs, out_dir, outputs, kept)

        def checking_eval(s, inputs, out_dir, outputs, kept):
            gc.collect()
            assert refs["dataset.jsonl"]() is None  # detect was its last reader
            assert kept == {inputs[0]: refs["labels.jsonl"]()}
            evaluate.fn(s, inputs, out_dir, outputs, kept)

        for name, stage, fn in (("inject", inject, keeping_inject), ("detect", detect, checking_detect),
                                ("eval", evaluate, checking_eval)):
            monkeypatch.setitem(STAGES, name, replace(stage, fn=fn))
        assert main(["--config", str(self.config(tmp_path)), "--out-dir", str(tmp_path / "run"), "run"]) == 0
        gc.collect()
        assert refs["labels.jsonl"]() is None and reads == {"dataset": 1, "labels": 0}


class TestSettingsPrecedence:
    def test_mode_flag_beats_params_file(self, sim_dir, tmp_path):
        endpoint_cfg = tmp_path / "endpoint.json"
        write(str(endpoint_cfg), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        params = tmp_path / "detect.ini"
        write(str(params), "[detect]\nmode = combine\n")
        scores_dir = tmp_path / "scores"
        code = main([
            "--out-dir", str(scores_dir),
            "detect", "--method", "llm", "--in", str(sim_dir), "--params", str(params),
            "--endpoint", str(endpoint_cfg), "--mode", "separate",
        ])
        assert code == 0
        assert sorted(os.listdir(scores_dir)) == ["scores_llm_separate.jsonl"]

    def test_stage_section_beats_global(self, tmp_path):
        cfg = tmp_path / "both.ini"
        write(
            str(cfg),
            "[global]\nn_agents = 20\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
            "[simulate]\nn_agents = 9\n",
        )
        out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--out-dir", str(out), "simulate"]) == 0
        ds = read_dataset(str(out / "dataset.jsonl"))
        assert len(ds.trajectories) == 9
        assert ds.meta["weeks"] == 1

    def test_seed_after_subcommand(self, sim_dir, tmp_path):
        runs = {}
        for name, argv in (
            ("before", ["--seed", "7", "inject", "--in", str(sim_dir / "dataset.jsonl"), "--pairs", "2"]),
            ("after", ["inject", "--in", str(sim_dir / "dataset.jsonl"), "--pairs", "2", "--seed", "7"]),
            ("other", ["inject", "--in", str(sim_dir / "dataset.jsonl"), "--pairs", "2", "--seed", "8"]),
        ):
            out = tmp_path / name
            assert main(["--out-dir", str(out)] + argv) == 0
            runs[name] = (out / "labels.jsonl").read_bytes()
        assert runs["before"] == runs["after"]
        assert runs["before"] != runs["other"]


class TestConfigErrors:
    def test_params_file_without_requested_section(self, sim_dir, tmp_path):
        params = tmp_path / "sim_only.ini"
        write(str(params), "[simulate]\nn_agents = 5\n")
        code = main([
            "--out-dir", str(tmp_path / "s"),
            "detect", "--method", "ompad", "--in", str(sim_dir), "--params", str(params),
        ])
        assert code == 1
        assert not (tmp_path / "s").exists()

    def test_flat_params_file_still_read(self, sim_dir, tmp_path):
        params = tmp_path / "flat.cfg"
        write(str(params), "window_days = 2\nwindow_len = 8\n")
        out = tmp_path / "s"
        code = main(["--out-dir", str(out), "detect", "--method", "ompad", "--in", str(sim_dir), "--params", str(params)])
        assert code == 0
        assert (out / "scores_ompad.jsonl").exists()

    @pytest.mark.parametrize("argv", [
        ["--seed", "-1", "simulate"],
        ["inject", "--in", "{sim}/dataset.jsonl", "--pairs", "2", "--seed", "-3"],
        ["detect", "--method", "traod", "--in", "{sim}", "--seed", "-2"],
        ["detect", "--method", "dae", "--in", "{sim}", "--seed", "-2"],
        ["detect", "--method", "dsvdd", "--in", "{sim}", "--seed", "-2"],
        ["detect", "--method", "dae", "--in", "{sim}", "--seed", "-2", "--scope", "per_agent"],
    ], ids=["simulate", "inject", "traod", "dae", "dsvdd", "dae_per_agent"])
    def test_negative_seed_exits_1_without_traceback(self, sim_dir, tmp_path, capsys, argv):
        # numpy raised ValueError (a traceback); per-agent nets hashed the seed and ran
        argv = [arg.format(sim=sim_dir) for arg in argv]
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_value_exits_1_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        write(str(cfg), "n_agents = abc\n")
        code = main(["--out-dir", str(tmp_path / "sim"), "simulate", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "n_agents" in err
        assert "Traceback" not in err


class TestEndpointFile:
    """Every fault in the endpoint file exits 1 naming the file or the key, without a traceback."""

    @pytest.mark.parametrize(
        "text, named",
        [
            (None, "endpoint.json"),  # no file
            ('{"provider": "mock-oracle",', "endpoint.json"),
            ('["mock-oracle"]', "endpoint.json"),
            ('{"provider": "mock-oracle", "max_retries": "x"}', "max_retries"),
            ('{"provider": "mock-oracle", "cache_dir": "cache"}', "cache_dir"),
            ('{"provider": "mock-oracle", "base_url": null}', "base_url"),
            ('{"provider": "mock-oracle", "max_retries": 2.7}', "max_retries"),
            ('{"provider": "mock-oracle", "temperature": true}', "temperature"),
            ('{"provider": "mock-oracle", "request_timeout_s": 0}', "request_timeout_s"),
            ('{"provider": "mock-oracle", "request_timeout_s": Infinity}', "request_timeout_s"),
            ('{"provider": "mock-oracle", "max_output_tokens": 0}', "max_output_tokens"),
            ('{"provider": "mock-oracle", "temperature": -0.5}', "temperature"),
            ('{"provider": "mock-oracle", "temperature": NaN}', "temperature"),
        ],
        ids=[
            "missing", "malformed", "not_an_object", "wrong_type", "unknown_key", "null_str", "float_int", "bool_float",
            "zero_timeout", "inf_timeout", "zero_tokens", "negative_temperature", "nan_temperature",
        ],
    )
    def test_bad_endpoint_file_exits_1(self, sim_dir, tmp_path, capsys, text, named):
        endpoint_cfg = tmp_path / "endpoint.json"
        if text is not None:
            write(str(endpoint_cfg), text)
        code = main([
            "--out-dir", str(tmp_path / "scores"),
            "detect", "--method", "llm", "--in", str(sim_dir), "--endpoint", str(endpoint_cfg),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err


class TestIngestInputFaults:
    """Faults in the POI map and in stay-point or TRAOD parameters exit 1 naming the fault, without a traceback."""

    @pytest.fixture
    def csv(self, tmp_path):
        rows = [f"u1,{1_600_000_000 + 60 * k},40.0,116.0" for k in range(40)]
        write(str(tmp_path / "raw.csv"), "\n".join(rows))
        return tmp_path / "raw.csv"

    GOOD = '{"lat": 40.0, "lon": 116.0, "radius_m": 100, "place_type": "Pub", "place_id": "p1"}'

    @pytest.mark.parametrize(
        "line, named",
        [
            ('{"lat": 40.0, "lon": 116.0,', "invalid JSON"),
            ('["p2"]', "not a JSON object"),
            ('{"lat": 40.0, "lon": 116.0, "place_type": "Pub", "place_id": "p2"}', "radius_m"),
            ('{"lat": "40", "lon": 116.0, "radius_m": 100, "place_type": "Pub", "place_id": "p2"}', "lat must be a number"),
            ('{"lat": 40.0, "lon": 116.0, "radius_m": 100, "place_type": 7, "place_id": "p2"}', "place_type must be a string"),
            ('{"lat": 40.0, "lon": 200.0, "radius_m": 100, "place_type": "Pub", "place_id": "p2"}', "longitude out of range"),
            ('{"lat": 40.0, "lon": 116.0, "radius_m": -5, "place_type": "Pub", "place_id": "p2"}', "radius"),
        ],
        ids=["malformed_json", "not_an_object", "missing_key", "str_number", "number_str", "centre_out_of_range",
             "negative_radius"],
    )
    def test_bad_poi_map_exits_1(self, csv, tmp_path, capsys, line, named):
        poi = tmp_path / "poi.jsonl"
        write(str(poi), self.GOOD + "\n\n" + line + "\n")
        code = main(["--out-dir", str(tmp_path / "out"), "ingest", str(csv), "--format", "csv", "--poi-map", str(poi)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{poi}:3:" in err and named in err
        assert "Traceback" not in err

    def test_a_repeated_place_id_names_its_line(self, csv, tmp_path, capsys):
        # was: `poi.jsonl: duplicate place_id in PoiMap`, naming neither the line nor the id
        poi = tmp_path / "poi.jsonl"
        write(str(poi), self.GOOD + "\n" + self.GOOD.replace("40.0", "40.1") + "\n")
        assert main(["--out-dir", str(tmp_path / "out"), "ingest", str(csv), "--poi-map", str(poi)]) == 1
        assert capsys.readouterr().err.endswith(f"ingest: {poi}:2: duplicate place_id 'p1'\n")

    def test_missing_poi_map_exits_1(self, csv, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path / "out"), "ingest", str(csv), "--poi-map", str(tmp_path / "nope.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "nope.jsonl" in err and "Traceback" not in err

    def test_good_poi_map_labels_the_stay(self, csv, tmp_path):
        poi = tmp_path / "poi.jsonl"
        write(str(poi), self.GOOD + "\n")
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "ingest", str(csv), "--min-records", "1", "--poi-map", str(poi)]) == 0
        assert [p.place_id for p in read_dataset(str(out / "dataset.jsonl")).trajectories[0].points] == ["p1"]

    @pytest.mark.parametrize("key", ["dist_threshold_m", "time_threshold_s"])
    def test_nan_stay_point_threshold_exits_1(self, csv, tmp_path, capsys, key):
        cfg = tmp_path / "ingest.cfg"
        write(str(cfg), f"[ingest]\n{key} = nan\n")
        code = main(["--out-dir", str(tmp_path / "out"), "--config", str(cfg), "ingest", str(csv)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{key} must be finite and > 0, got nan" in err and "Traceback" not in err

    def test_zero_distance_threshold_flag_exits_1(self, csv, tmp_path, capsys):
        # was `stay-point thresholds must be positive and finite`, naming neither the threshold nor its value
        assert main(["--out-dir", str(tmp_path / "out"), "ingest", str(csv), "--dist-threshold-m", "0"]) == 1
        err = capsys.readouterr().err
        assert "dist_threshold_m must be finite and > 0, got 0.0" in err and "Traceback" not in err

    @pytest.mark.parametrize("setting, named", [("traod_d = -1", "D must"), ("p_frac = 1.5", "p_frac must")])
    def test_traod_params_out_of_range_exit_1(self, sim_dir, tmp_path, capsys, setting, named):
        params = tmp_path / "traod.cfg"
        write(str(params), f"[detect]\n{setting}\n")
        code = main([
            "--out-dir", str(tmp_path / "scores"), "detect", "--method", "traod", "--in", str(sim_dir),
            "--params", str(params),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


class TestDetectSettingFaults:
    """Detect settings that window, split or train nothing exit 1 naming the setting, without a traceback."""

    def detect(self, sim_dir, tmp_path, method, *args, params=""):
        path = tmp_path / "detect.cfg"
        write(str(path), f"[detect]\n{params}\n")
        return main(["--out-dir", str(tmp_path / "scores"), "detect", "--method", method, "--in", str(sim_dir),
                     "--params", str(path), *args])

    @pytest.mark.parametrize("method", ["ompad", "monav"])
    @pytest.mark.parametrize("days", ["nan", "inf"])
    def test_window_days_without_a_finite_length_exit_1(self, sim_dir, tmp_path, capsys, method, days):
        assert self.detect(sim_dir, tmp_path, method, "--window-days", days) == 1
        err = capsys.readouterr().err
        assert "window_days" in err and "Traceback" not in err

    @pytest.mark.parametrize("args, params, named", [
        (["--epochs", "-3"], "", "epochs"),
        ([], "embed_dim = 0", "embed_dim"),
        ([], "learning_rate = nan", "learning_rate"),
    ])
    def test_net_settings_that_train_nothing_exit_1(self, sim_dir, tmp_path, capsys, args, params, named):
        assert self.detect(sim_dir, tmp_path, "dae", *args, params=params) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "scores" / "scores_dae.jsonl").exists()

    def test_a_net_setting_does_not_block_a_method_that_does_not_read_it(self, sim_dir, tmp_path):
        # was: exit 1 with `epochs must be >= 1, got 0`, because detect built the net settings for every method
        assert self.detect(sim_dir, tmp_path, "ompad", "--epochs", "0") == 0
        assert (tmp_path / "scores" / "scores_ompad.jsonl").exists()

    @pytest.mark.parametrize("methods, args, params, named", [
        ("ompad,traod", [], "traod_d = -1", "D must be None or finite and >= 0, got -1.0"),
        ("ompad,llm", ["--endpoint", "{tmp}/endpoint.json"], "", "cannot read endpoint file"),
        ("traod,dae", ["--window-len", "0"], "", "L must be >= 1, got 0"),
        ("traod,monav", ["--window-days", "0"], "", "a window must last at least 1 second"),
        ("monav,llm", ["--mode", "bogus", "--endpoint", "{tmp}/mock.json"], "", "unknown prompt mode 'bogus'"),
        # was: exit 0, with OMPAD scored twice and scores_ompad.jsonl written twice
        ("ompad,ompad,monav", [], "", "method 'ompad' is listed twice"),
    ], ids=["traod", "llm", "window_len", "window_days", "llm_mode", "method_twice"])
    def test_a_bad_setting_of_a_later_method_writes_nothing(self, sim_dir, tmp_path, capsys, methods, args, params,
                                                            named):
        # was: the first method scored, and its score file was left as scores_<method>.jsonl.partial
        write(str(tmp_path / "endpoint.json"), '{"provider": "mock-oracle",')
        write(str(tmp_path / "mock.json"), '{"provider": "mock-oracle"}')
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert self.detect(sim_dir, tmp_path, methods, *args, params=params) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "scores").exists()

    @pytest.mark.parametrize("method", ["dae", "dsvdd"])
    def test_a_net_that_diverges_in_its_last_update_exits_1(self, sim_dir, tmp_path, capsys, method):
        # was: `ValueError: non-finite score for 'agent0000': inf` and a traceback
        assert self.detect(sim_dir, tmp_path, method, params="epochs = 1\nlearning_rate = 1e30") == 1
        err = capsys.readouterr().err
        assert "training diverged at epoch 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("fraction", ["nan", "1.5"])
    def test_fallback_fraction_outside_0_1_exits_1(self, sim_dir, tmp_path, capsys, fraction):
        assert self.detect(sim_dir, tmp_path, "ompad", params=f"fallback_fraction = {fraction}") == 1
        err = capsys.readouterr().err
        assert "fallback_fraction" in err and "Traceback" not in err


def dataset_line(lat: str) -> str:
    point = f'{{"arrive":0,"depart":60,"place_id":"p","place_type":"Pub","lat":{lat},"lon":116.0}}'
    return f'{{"agent_id":"x","points":[{point}]}}'


class TestOneSourcePerFault:
    """A settings error names the config file alone only when the command line sets no stage value, and a fault
    that an inner source already named (an endpoint file) keeps that source."""

    def fails_with(self, capsys, argv, line):
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith(line + "\n")

    def test_a_bad_flag_value_names_the_command_line_too(self, sim_dir, tmp_path, capsys):
        # was: `p.ini: L must be >= 1, got 0`, blaming the file for the flag's value
        params = tmp_path / "p.ini"
        write(str(params), "[detect]\nwindow_days = 2\n")
        argv = ["--out-dir", str(tmp_path / "s"), "detect", "--method", "ompad", "--in", str(sim_dir),
                "--params", str(params), "--window-len", "0"]
        self.fails_with(capsys, argv, f"detect: {params} and the command line: L must be >= 1, got 0")

    def test_an_endpoint_file_fault_names_that_file_alone(self, sim_dir, tmp_path, capsys):
        # was: `p.ini: endpoint file 'bad.json': ...`, naming the params file in front of the endpoint file
        params, bad = tmp_path / "p.ini", tmp_path / "bad.json"
        write(str(params), "[detect]\nwindow_days = 2\n")
        write(str(bad), '{"provider": []}')
        argv = ["--out-dir", str(tmp_path / "s"), "detect", "--method", "llm", "--in", str(sim_dir),
                "--params", str(params), "--endpoint", str(bad)]
        self.fails_with(capsys, argv, f"detect: endpoint file {str(bad)!r}: provider = [] is not a valid str")

    def test_a_file_fault_names_the_file_alone(self, sim_dir, tmp_path, capsys):
        params = tmp_path / "p.ini"
        write(str(params), "[simulate]\nn_agents = 5\n")
        argv = ["--out-dir", str(tmp_path / "s"), "detect", "--method", "ompad", "--in", str(sim_dir),
                "--params", str(params), "--window-len", "4"]
        self.fails_with(capsys, argv, f"detect: {params}: config file has none of the sections detect reads: "
                                      "[llm], [detect]")

    @pytest.mark.parametrize("flag, in_file, source", [
        (["--seed", "-1"], "", "{cfg} and the command line"),
        ([], "seed = -1\n", "{cfg}"),
    ], ids=["flag", "file"])
    def test_run_names_the_command_line_for_a_seed_flag(self, tmp_path, capsys, flag, in_file, source):
        # was: `run.ini: seed must be >= 0, got -1` for the flag too
        cfg = tmp_path / "run.ini"
        write(str(cfg), f"[global]\nstages = simulate\n{in_file}[simulate]\nn_agents = 6\nweeks = 1\n")
        argv = [*flag, "--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]
        self.fails_with(capsys, argv, f"run: {source.format(cfg=cfg)}: seed must be >= 0, got -1")
        assert not (tmp_path / "run").exists()


class TestArtifactInputFaults:
    """A corrupt dataset, meta sidecar, labels or score file exits 1 naming ``path:line``, without a traceback."""

    @pytest.fixture
    def scores(self, sim_dir, tmp_path):
        assert main(["--out-dir", str(tmp_path / "scores"), "detect", "--method", "ompad", "--in", str(sim_dir)]) == 0
        return tmp_path / "scores" / "scores_ompad.jsonl"

    def run_reader(self, name, sim_dir, scores, tmp_path):
        """The CLI stage that reads ``name`` first: detect for the dataset files, eval for the others."""
        if name.startswith("dataset"):
            return main(["--out-dir", str(tmp_path / "again"), "detect", "--method", "ompad", "--in", str(sim_dir)])
        return main(["--out-dir", str(tmp_path / "report"), "eval", "--scores", str(scores),
                     "--labels", str(sim_dir / "labels.jsonl")])

    @pytest.mark.parametrize(
        "name, line, named",
        [
            ("dataset.jsonl", '{"agent_id":"x","points":[', "invalid JSON"),
            ("dataset.jsonl", '["x"]', "not a JSON object"),
            ("dataset.jsonl", '{"agent_id":"x"}', "missing key 'points'"),
            ("dataset.jsonl", dataset_line('"north"'), "lat must be a number, got 'north'"),
            ("dataset.jsonl", '{"agent_id":"x","points":7}', "TypeError"),
            ("dataset.jsonl", dataset_line("NaN"), "non-finite coordinates"),
            ("dataset.jsonl", dataset_line("91.0"), "latitude out of range"),
            ("labels.jsonl", '{"agent_id":"x","is_outlier":false', "invalid JSON"),
            ("labels.jsonl", "7", "not a JSON object"),
            ("labels.jsonl", '{"agent_id":"x","outlier_type":"none","deviate_index":null}', "missing key 'is_outlier'"),
            ("labels.jsonl", '{"agent_id":"x","is_outlier":true,"outlier_type":"work","deviate_index":"x"}',
             "deviate_index must be an integer or null, got 'x'"),
            ("labels.jsonl", '{"agent_id":"x","is_outlier":"no","outlier_type":"none","deviate_index":null}',
             "is_outlier must be true or false, got 'no'"),
            ("labels.jsonl", '{"agent_id":"x","is_outlier":true,"outlier_type":"imposter","deviate_index":-2}',
             "deviate_index of 'x' must be >= 0, got -2"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":0.5', "invalid JSON"),
            ("scores_ompad.jsonl", "null", "not a JSON object"),
            ("scores_ompad.jsonl", '{"agent_id":"x","method":"ompad"}', "missing key 'score'"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":"high"}', "score must be a number, got 'high'"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":NaN}', "non-finite score"),
            # were read as 1.0, 0.2, agent "7" and method "3"
            ("scores_ompad.jsonl", '{"agent_id":"x","score":true}', "score must be a number, got True"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":"0.2"}', "score must be a number, got '0.2'"),
            ("scores_ompad.jsonl", '{"agent_id":7,"score":0.2}', "agent_id must be a string, got 7"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":0.2,"method":3}', "method must be a string, got 3"),
            # were read as one table named after the last line's method, or with its params_hash
            ("scores_ompad.jsonl", '{"agent_id":"x","score":0.2,"method":"monav_tt"}',
             "method 'monav_tt' differs from an earlier line's 'ompad'"),
            ("scores_ompad.jsonl", '{"agent_id":"x","score":0.2,"params_hash":"0"}',
             "params_hash '0' differs from an earlier line's"),
        ],
        ids=["dataset_truncated", "dataset_not_object", "dataset_missing_key", "dataset_str_lat", "dataset_int_points",
             "dataset_nan_lat", "dataset_lat_out_of_range", "labels_truncated", "labels_not_object",
             "labels_missing_key", "labels_str_index", "labels_str_flag", "labels_negative_index", "scores_truncated",
             "scores_not_object", "scores_missing_key", "scores_str_score", "scores_nan_score", "scores_bool_score",
             "scores_str_number", "scores_int_agent", "scores_int_method", "scores_other_method",
             "scores_other_params_hash"],
    )
    def test_bad_line_exits_1(self, sim_dir, scores, tmp_path, capsys, name, line, named):
        path = scores if name.startswith("scores") else sim_dir / name
        path.write_text(path.read_text().splitlines()[0] + "\n\n" + line + "\n")
        assert self.run_reader(name, sim_dir, scores, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: " in err and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["dataset.jsonl", "labels.jsonl", "scores_ompad.jsonl"])
    def test_repeated_agent_exits_1(self, sim_dir, scores, tmp_path, capsys, name):
        path = scores if name.startswith("scores") else sim_dir / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[:1]) + "\n")
        assert self.run_reader(name, sim_dir, scores, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{path}:{len(lines) + 1}: duplicate agent_id" in err and "Traceback" not in err

    def test_converted_values_exit_1(self, sim_dir, scores, tmp_path, capsys):
        """Values that ``int()``, ``float()``, ``str()`` and ``bool()`` would convert are type errors naming the key."""
        path = sim_dir / "dataset.jsonl"
        point = '{"arrive":1.9,"depart":"100","place_id":5,"place_type":"Pub","lat":"40.5","lon":true}'
        path.write_text(f'{{"agent_id":7,"points":[{point}]}}\n')
        assert self.run_reader(path.name, sim_dir, scores, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: arrive must be an integer, got 1.9" in err and "Traceback" not in err

    @staticmethod
    def edit_stays(path, edit, lines=None):
        """Rewrite ``path`` with ``edit(points)`` applied to the stays of each line (of each line number in ``lines``)."""
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for n, record in enumerate(records, 1):
            if lines is None or n in lines:
                edit(record["points"])
        path.write_text("".join(json.dumps(record) + "\n" for record in records))

    def test_overlapping_stays_exit_1_naming_the_line(self, sim_dir, tmp_path, capsys):
        # were: inject exited 1 with "no swappable pair found after 100 attempts", naming no file, and detect exited 0
        path = sim_dir / "dataset.jsonl"
        self.edit_stays(path, lambda points: points[3].update(arrive=points[2]["depart"] - 600))
        for argv in (["inject", "--in", str(path), "--pairs", "2"],
                     ["detect", "--method", "ompad,monav,traod", "--in", str(sim_dir)]):
            assert main(["--out-dir", str(tmp_path / argv[0]), *argv]) == 1
            err = capsys.readouterr().err
            assert f"{path}:1: stay 3 of " in err and "previous" in err and "Traceback" not in err
            assert not (tmp_path / argv[0]).exists()

    @pytest.mark.parametrize("method", ["ompad", "monav"])
    def test_arrivals_beyond_64_bits_exit_1_naming_the_line(self, sim_dir, tmp_path, capsys, method):
        # were: "arrival times must fit in a signed 64-bit integer", naming no file
        path = sim_dir / "dataset.jsonl"
        self.edit_stays(path, lambda points: points[-1].update(arrive=2**70, depart=2**70), lines={2})
        assert main(["--out-dir", str(tmp_path / "scores"), "detect", "--method", method, "--in", str(sim_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: stay " in err and "arrive 1180591620717411303424 does not fit in a signed 64-bit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["dataset.jsonl", "dataset.meta.json", "labels.jsonl", "scores_ompad.jsonl"])
    def test_non_utf8_file_exits_1(self, sim_dir, scores, tmp_path, capsys, name):
        path = scores if name.startswith("scores") else sim_dir / name
        path.write_bytes(path.read_bytes() + b'{"agent_id":"\xff"}\n')
        assert self.run_reader(name, sim_dir, scores, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, named",
        [('{"seed":', ":1: invalid JSON"), ("[3]", ":1: not a JSON object"), ("", ": holds 0 JSON objects"),
         ('{"seed":1}\n{"seed":2}\n', ": holds 2 JSON objects")],
        ids=["truncated", "not_object", "empty", "two_objects"],
    )
    def test_corrupt_meta_exits_1(self, sim_dir, scores, tmp_path, capsys, text, named):
        path = sim_dir / "dataset.meta.json"
        path.write_text(text)
        assert self.run_reader(path.name, sim_dir, scores, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"{path}{named}" in err and "Traceback" not in err


class TestSidecarAndTextFaults:
    """A sidecar value of the wrong JSON type, or a string UTF-8 cannot encode, exits 1 naming ``path:line``."""

    @pytest.mark.parametrize("key, value, named", [
        ("onset_time", "null", "onset_time must be an integer, got None"),
        ("onset_time", '"x"', "onset_time must be an integer, got 'x'"),
        ("onset_time", "true", "onset_time must be an integer, got True"),
        ("switch_fraction", '"0.5"', "switch_fraction must be a number, got '0.5'"),
    ])
    def test_a_sidecar_value_of_the_wrong_type_exits_1(self, sim_dir, tmp_path, capsys, key, value, named):
        # were: a TypeError or ValueError traceback from int() in the split, and "0.5" read as 0.5
        path = sim_dir / "dataset.meta.json"
        meta = {k: v for k, v in json.loads(path.read_text()).items() if k != "onset_time"}
        path.write_text(json.dumps(meta)[:-1] + f', "{key}": {value}}}\n')
        assert main(["--out-dir", str(tmp_path / "scores"), "detect", "--method", "ompad", "--in", str(sim_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1: {named}" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["ompad", "llm"])
    def test_a_lone_surrogate_in_a_dataset_exits_1_naming_the_line(self, sim_dir, tmp_path, capsys, method):
        # were: ompad scored it and exited 0; llm ended in a UnicodeEncodeError traceback from PromptCache.key
        path = sim_dir / "dataset.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"place_type":"Apartment"', '"place_type":"\\ud800"', 1)
        path.write_text("\n".join(lines) + "\n")
        write(str(tmp_path / "mock.json"), '{"provider": "mock-oracle"}')
        argv = ["detect", "--method", method, "--in", str(sim_dir), "--endpoint", str(tmp_path / "mock.json"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(["--out-dir", str(tmp_path / "scores"), *argv]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: place_type must be UTF-8 text, got '\\ud800'" in err and "Traceback" not in err


class TestOsErrors:
    """An OSError from a stage exits 1 with its message and no traceback, as a MobanomError does."""

    def test_labels_path_is_a_directory(self, sim_dir, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path / "scores"), "detect", "--method", "ompad", "--in", str(sim_dir)]) == 0
        argv = ["--out-dir", str(tmp_path / "report"), "eval", "--scores", str(tmp_path / "scores" / "scores_ompad.jsonl"),
                "--labels", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Is a directory" in err and "Traceback" not in err

    def test_disk_full_inside_detect_keeps_the_partial_rename(self, sim_dir, tmp_path, capsys, interrupt_write):
        out = tmp_path / "scores"
        interrupt_write("scores_monav_tt.jsonl", OSError(28, "No space left on device"))
        assert main(["--out-dir", str(out), "detect", "--method", "ompad,monav", "--in", str(sim_dir)]) == 1
        err = capsys.readouterr().err
        assert "No space left on device" in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == ["scores_ompad.jsonl.partial"]

    def test_disk_full_inside_dump_prompts_keeps_the_partial_rename(self, sim_dir, tmp_path, capsys, interrupt_write):
        # were: prompt_0000.txt and prompt_0001.txt, left under their own names
        out = tmp_path / "prompts"
        interrupt_write("prompt_0002.txt", OSError(28, "No space left on device"))
        assert main(["--out-dir", str(out), "dump-prompts", "--in", str(sim_dir), "--mode", "separate"]) == 1
        err = capsys.readouterr().err
        assert "No space left on device" in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == ["prompt_0000.txt.partial", "prompt_0001.txt.partial"]


class TestInterruptedWrites:
    """A write stopped halfway leaves the previous file byte-identical and no temp file."""

    def test_score_file(self, sim_dir, tmp_path, interrupt_write):
        out = tmp_path / "scores"
        argv = ["--out-dir", str(out), "detect", "--method", "monav", "--in", str(sim_dir)]
        assert main(argv + ["--window-days", "1"]) == 0
        before = (out / "scores_monav_tt.jsonl").read_bytes()
        interrupt_write("scores_monav_tt.jsonl", KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--window-days", "2"])
        assert os.listdir(out) == ["scores_monav_tt.jsonl"]
        assert (out / "scores_monav_tt.jsonl").read_bytes() == before

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["oserror", "interrupt"])
    def test_manifest(self, tmp_path, interrupt_write, exc):
        cfg = tmp_path / "sim.ini"
        write(str(cfg), "[global]\nstages = simulate\n\n[simulate]\nn_agents = 6\nweeks = 1\nn_hunger = 0\n"
                        "n_social = 0\nn_work = 0\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "--seed", "1", "run"]) == 0
        before = (out / "manifest.json").read_bytes()
        interrupt_write("manifest.json", exc)
        argv = ["--config", str(cfg), "--out-dir", str(out), "--seed", "2", "run"]
        if isinstance(exc, OSError):
            assert main(argv) == 1  # an OSError exits 1 like a MobanomError
        else:
            with pytest.raises(type(exc)):
                main(argv)
        assert sorted(os.listdir(out)) == ["manifest.json", "sim"]
        assert (out / "manifest.json").read_bytes() == before


class TestSimulateConfigFaults:
    """A simulate config value that would crash, or silently mislabel agents, exits 1 naming the key."""

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("tick_minutes = 0", "tick_minutes"),
            ("tick_minutes = -15", "tick_minutes"),
            ("n_hunger = -2", "n_hunger"),
            ("hunger_rate_range = 0.12, 0.06", "hunger_rate_range"),
            ("pref_weight_range = 10, 0.1", "pref_weight_range"),
            ("bbox = 40.2, 40.0, 116.2, 116.5", "bbox"),
            ("hunger_threshold = nan", "hunger_threshold"),
            ("social_rate_per_hour = inf", "social_rate_per_hour"),
            ("hunger_multiplier = nan", "hunger_multiplier"),
        ],
        ids=["tick_zero", "tick_negative", "negative_count", "inverted_rates", "inverted_prefs", "inverted_bbox",
             "nan_threshold", "inf_rate", "nan_multiplier"],
    )
    def test_bad_value_exits_1(self, tmp_path, capsys, setting, named):
        settings = {"n_agents": "6", "weeks": "1", "n_hunger": "1", "n_social": "1", "n_work": "1"}
        key, value = (part.strip() for part in setting.split("=", 1))
        settings[key] = value
        cfg = tmp_path / "sim.cfg"
        write(str(cfg), "".join(f"{k} = {v}\n" for k, v in settings.items()))
        code = main(["--out-dir", str(tmp_path / "sim"), "simulate", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "sim" / "dataset.jsonl").exists()


class TestConfigFileFaults:
    """A config file that configparser refuses, or that is not UTF-8, exits 1 naming the file, and the line if known."""

    RUN = "[global]\nstages = simulate\n[simulate]\nn_agents = 6\nweeks = 1\n"
    FLAT = "n_agents = 6\nweeks = 1\n"

    @pytest.mark.parametrize("text, where, reason", [
        (RUN + "weeks\n", 6, "neither a [section] header nor a key = value line"),
        (RUN + "n_agents = 7\n", 6, "option 'n_agents' in section 'simulate' already exists"),
        (RUN.encode() + b"# \xff\n", None, "not UTF-8 text"),
        (RUN + "[simulate]\nseed = 1\n", 6, "section 'simulate' already exists"),
        (RUN + "[DEFAULT]\nseed = 1\n", 6, "section 'DEFAULT' already exists"),  # was: seed shared by every stage
    ], ids=["no_equals", "option_twice", "not_utf8", "section_twice", "default_header"])
    def test_run_config(self, tmp_path, capsys, text, where, reason):
        self.assert_refused(tmp_path, capsys, "run", text, where, reason)

    @pytest.mark.parametrize("text, where, reason", [
        (FLAT + "weeks\n", 3, "neither a [section] header nor a key = value line"),
        ("weeks\n" + FLAT, 1, "neither a [section] header nor a key = value line"),
        (FLAT + "n_agents = 7\n", 3, "option 'n_agents' in section 'DEFAULT' already exists"),
        (b"\xff" + FLAT.encode(), None, "not UTF-8 text"),
        (FLAT + "[DEFAULT]\nseed = 1\n", 3, "section 'DEFAULT' already exists"),
    ], ids=["no_equals", "no_equals_first", "option_twice", "not_utf8", "default_header"])
    def test_flat_simulate_config(self, tmp_path, capsys, text, where, reason):
        self.assert_refused(tmp_path, capsys, "simulate", text, where, reason)

    def test_a_percent_sign_is_read_as_itself(self, tmp_path):
        cfg = tmp_path / "pct.ini"
        for text, section in [(self.FLAT + "template = 5% %(weeks)s\n", "DEFAULT"),
                              (self.RUN + "[llm]\ntemplate = 5% %(weeks)s\n", "llm")]:
            cfg.write_text(text)
            assert cli._read_config(str(cfg))[section]["template"] == "5% %(weeks)s"

    @staticmethod
    def assert_refused(tmp_path, capsys, command, text, where, reason):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), command]) == 1
        err = capsys.readouterr().err
        assert f"{command}: {cfg}{'' if where is None else f':{where}'}: {reason}\n" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()


class TestUnknownSectionKeys:
    """A key of a stage's section that no stage merging that section can read is refused, naming the file, the
    section and the key: [llm] and [detect] take what `detect` reads for some method, and [dump-prompts] only what
    `dump-prompts` reads."""

    RUN = ("[global]\nseed = 1\nstages = simulate, inject, detect, eval\n\n"
           "[simulate]\nn_agents = 8\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
           "[inject]\npairs = 2\n\n[detect]\nmethods = ompad\n\n[llm]\nmode = separate\n\n[eval]\ntop_k = 2\n")

    @pytest.mark.parametrize("section, key", [("simulate", "hunger_multipler"), ("inject", "pair"),
                                              ("eval", "topk"), ("eval", "out"), ("detect", "epoch"),
                                              ("llm", "modez")])
    def test_run_refuses_it_before_any_stage_writes(self, tmp_path, capsys, section, key):
        # was: exit 0, the key ignored (`hunger_multipler = 9` simulated with the default hunger_multiplier, 3.0;
        # `epoch = 9` under `methods = dae` trained the default 300 epochs)
        cfg = tmp_path / "typo.ini"
        write(str(cfg), self.RUN.replace(f"[{section}]\n", f"[{section}]\n{key} = 9\n"))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert f"run: {cfg}: unknown key '{key}' in [{section}]\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [("simulate", "[simulate]\nn_agents = 4\n"),
                                                  ("ingest", "[ingest]\nformat = csv\n"),
                                                  ("inject", "[inject]\npairs = 1\n"),
                                                  ("eval", "[eval]\ntop_k = 1\n"),
                                                  ("detect", "[detect]\nwindow_days = 2\n"),
                                                  ("dump-prompts", "[dump-prompts]\nmode = combine\n")],
                             ids=["simulate", "ingest", "inject", "eval", "detect", "dump-prompts"])
    def test_a_subcommand_refuses_it_before_it_writes(self, sim_dir, tmp_path, capsys, command, section):
        cfg = tmp_path / "typo.ini"
        write(str(cfg), section + "seed_ = 3\n")
        args = {"simulate": [], "ingest": [str(tmp_path / "raw.csv")], "inject": ["--in", str(sim_dir / "dataset.jsonl")],
                "eval": ["--scores", str(tmp_path / "*.jsonl"), "--labels", str(sim_dir / "labels.jsonl")],
                "detect": ["--method", "ompad", "--in", str(sim_dir)], "dump-prompts": ["--in", str(sim_dir)]}[command]
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out), command, *args]) == 1
        err = capsys.readouterr().err
        assert f"{command}: {cfg}: unknown key 'seed_' in [{command}]\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_every_key_a_stage_reads_is_taken(self, tmp_path):
        small = {"n_agents": 8, "weeks": 1, "n_hunger": 0, "n_social": 0, "n_work": 0}
        sim = {f.name: small.get(f.name, f.default) for f in fields(SimConfig)}
        cfg = tmp_path / "all.ini"
        write(str(cfg), "[global]\nstages = simulate, inject, detect, eval\n\n[simulate]\n"
                        + "".join(f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n" for k, v in sim.items())
                        + "\n[inject]\npairs = 2\nswitch_fraction = 0.7\nseed = 4\n\n[detect]\nmethods = ompad\n\n"
                        "[eval]\ntop_k = 2\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]) == 0
        raw, poi = tmp_path / "raw.csv", tmp_path / "poi.jsonl"
        write(str(raw), "\n".join(f"u1,{1_600_000_000 + 60 * i},40.0,116.0" for i in range(40)))
        write(str(poi), '{"place_id":"home","place_type":"Apartment","lat":40.0,"lon":116.0,"radius_m":50}\n')
        write(str(cfg), f"[global]\nstages = ingest\n\n[ingest]\ninput = {raw}\npoi_map = {poi}\nformat = csv\n"
                        "min_records = 1\ndist_threshold_m = 150\ntime_threshold_s = 600\n")
        out = tmp_path / "ingested"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        (t,) = read_dataset(str(out / "ingest" / "dataset.jsonl")).trajectories
        assert t.points[0].place_id == "home"

    @pytest.mark.parametrize("section, key", [("dump-prompts", "methods"), ("llm", "modez"), ("detect", "epoch")])
    def test_dump_prompts_refuses_what_no_stage_merging_the_section_reads(self, sim_dir, tmp_path, capsys, section,
                                                                          key):
        # [dump-prompts] is merged by dump-prompts alone, so a detect key there is read by no stage
        cfg = tmp_path / "typo.ini"
        write(str(cfg), f"[detect]\nmethods = ompad, llm\n\n[llm]\nmode = combine\n\n[dump-prompts]\n"
                        .replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        out = tmp_path / "prompts"
        assert main(["--config", str(cfg), "--out-dir", str(out), "dump-prompts", "--in", str(sim_dir)]) == 1
        err = capsys.readouterr().err
        assert f"dump-prompts: {cfg}: unknown key '{key}' in [{section}]\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_key_of_a_method_not_listed_is_taken(self, tmp_path):
        # a key of [detect] or [llm] is read only when its method is listed, so listing ompad alone leaves it unread
        cfg = tmp_path / "unlisted.ini"
        write(str(cfg), self.RUN.replace("[detect]\n", "[detect]\nepochs = 1\ntraod_d = 0.5\nscope = per_agent\n")
                                .replace("[llm]\n", "[llm]\ntemplate = clean-v1\ncache_dir = cache\n"))
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]) == 0

    def test_every_key_detect_reads_is_taken(self, tmp_path):
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-oracle"}))
        detect = (f"methods = {', '.join(cli.DETECT_METHODS)}\nmethod = ompad\nfallback_fraction = 0.5\n"
                  "learning_rate = 0.01\nepochs = 2\nseed = 1\nembed_dim = 4\nscope = population\ntraod_d = 0.5\n"
                  f"p_frac = 0.9\nwindow_days = 2\nwindow_len = 8\nl = 8\ncache_dir = {tmp_path / 'cache'}\n"
                  f"endpoint = {endpoint}\n")
        cfg = tmp_path / "all.ini"
        write(str(cfg), self.RUN.replace("[detect]\nmethods = ompad\n", "[detect]\n" + detect)
                                .replace("[llm]\n", "[llm]\ntemplate = clean-v1\n"))
        written = {line.split(" = ")[0] for line in detect.splitlines()} | {"mode", "template"}
        assert set(cli._DETECT_KEYS) - written == {"fallback_time"}  # which cannot be set beside fallback_fraction
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]) == 0
        assert len(os.listdir(tmp_path / "run" / "scores")) == len(cli.DETECT_METHODS)

    def test_the_lines_before_the_first_header_are_shared_not_the_sections_own(self, tmp_path):
        # a section of their own, which every stage shares: a stage that does not read one is not refused for it
        cfg = tmp_path / "shared.ini"
        write(str(cfg), "top_k = 3\n[simulate]\nn_agents = 4\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n")
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "sim"), "simulate"]) == 0


class TestUnknownSharedKeys:
    """A key that every stage shares (of a flat file, of the lines before the first header or of [global]) is
    refused, naming the file, when no stage and not `run` reads it; a key that an unlisted stage reads is taken."""

    SIM = "n_agents = 4\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n"

    def test_a_flat_file_key_no_stage_reads_is_refused(self, tmp_path, capsys):
        # was: exit 0, simulating the default 1,000 agents
        cfg = tmp_path / "sim.cfg"
        write(str(cfg), self.SIM.replace("n_agents", "n_agnets"))
        out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--out-dir", str(out), "simulate"]) == 1
        err = capsys.readouterr().err
        assert f"simulate: {cfg}: unknown key 'n_agnets'\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("head, key, where", [("[global]\nsed = 3\n", "sed", " in [global]"),
                                                  ("note = x\n[global]\n", "note", "")],
                             ids=["global", "before_the_first_header"])
    def test_run_refuses_it_before_any_stage_writes(self, tmp_path, capsys, head, key, where):
        # was: exit 0, `sed = 3` ignored and the run seeded with the default
        cfg = tmp_path / "run.ini"
        write(str(cfg), head + "stages = simulate\n[simulate]\n" + self.SIM)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        err = capsys.readouterr().err
        assert f"run: {cfg}: unknown key '{key}'{where}\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_a_key_that_run_or_an_unlisted_stage_reads_is_taken(self, tmp_path):
        cfg = tmp_path / "run.ini"
        write(str(cfg), f"epochs = 2\n[global]\nstages = simulate\nout_dir = {tmp_path / 'unused'}\ntop_k = 3\n"
                        "[simulate]\n" + self.SIM)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "run"), "run"]) == 0
        write(str(cfg), "stages = simulate\nout_dir = x\nmethods = ompad\n" + self.SIM)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "sim"), "simulate"]) == 0


def stage_settings(monkeypatch, argv) -> dict:
    """The settings that each stage builds under ``main(argv)``, keyed by stage; no stage runs."""
    built = {}

    def record(name, m, s, out_dir, kept=None):
        built[name] = s
        return {"name": name, "outputs": []}, {}

    monkeypatch.setattr(cli, "_run_stage", record)
    assert main(argv) == 0
    return built


class TestSharedSections:
    """The lines before the first header (all of a flat file) are a section of their own, DEFAULT, that every stage
    merges below [global]; no section inherits another's keys, and a section that no stage reads is refused."""

    SIM = TestUnknownSharedKeys.SIM

    @pytest.mark.parametrize("command, text, mode", [
        ("detect", "mode = combine\n[llm]\nmode = separate\n[detect]\nendpoint = {endpoint}\n",
         lambda s: s["llm"]["mode"]),
        ("dump-prompts", "mode = combine\n[detect]\nmode = separate\n[dump-prompts]\n", lambda s: s["mode"]),
    ], ids=["detect", "dump-prompts"])
    def test_the_leading_lines_rank_below_every_section_a_stage_reads(self, tmp_path, monkeypatch, command, text,
                                                                      mode):
        # was: combine, the leading lines shown in [detect] and [dump-prompts] as their own keys
        endpoint = tmp_path / "endpoint.json"
        write(str(endpoint), json.dumps({"provider": "mock-oracle"}))
        cfg = tmp_path / "p.ini"
        write(str(cfg), text.format(endpoint=endpoint))
        args = ["--method", "llm"] if command == "detect" else []
        built = stage_settings(monkeypatch, ["--config", str(cfg), command, "--in", str(tmp_path), *args])
        assert mode(built[command]) == "separate"

    def test_run_takes_the_stages_before_the_first_header(self, tmp_path):
        # was: exit 1, "config [global] must list stages"
        cfg = tmp_path / "run.ini"
        write(str(cfg), "stages = simulate\n[simulate]\n" + self.SIM)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        assert len(read_dataset(str(out / "sim" / "dataset.jsonl")).trajectories) == 4

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_an_unknown_section_is_refused_before_any_stage_writes(self, tmp_path, capsys, command):
        # was, under run: exit 0, [simluate] ignored and the default 1,000 agents simulated
        cfg = tmp_path / "typo.ini"
        write(str(cfg), "[global]\nstages = simulate\n[simluate]\n" + self.SIM)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), command]) == 1
        err = capsys.readouterr().err
        assert f"{command}: {cfg}: unknown section [simluate]\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [("run", []), ("simulate", []),
                                               ("detect", ["--method", "ompad", "--in", "."])])
    def test_a_key_of_a_stage_not_run_is_checked_too(self, tmp_path, capsys, command, args):
        # was: exit 0, a section of a stage that was not listed, or not the subcommand's, never checked
        cfg = tmp_path / "typo.ini"
        write(str(cfg), "[global]\nstages = simulate\n[simulate]\n" + self.SIM + "[detect]\n[inject]\npair = 2\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out), command, *args]) == 1
        err = capsys.readouterr().err
        assert f"{command}: {cfg}: unknown key 'pair' in [inject]\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_the_config_hash_hashes_each_section_as_read(self, tmp_path):
        # was: the leading lines hashed as keys of every section; an empty DEFAULT is left out (the golden run's hash)
        cfg = tmp_path / "run.ini"
        write(str(cfg), "seed = 3\n[global]\nstages = simulate\n[simulate]\n" + self.SIM)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sim = dict(line.split(" = ") for line in self.SIM.splitlines())
        sections = {"DEFAULT": {"seed": "3"}, "global": {"stages": "simulate"}, "simulate": sim}
        assert manifest["config_hash"] == params_hash(sections) and manifest["seed"] == 3


class TestOneSharedKey:
    """One key that stages share sets the same settings of every stage wherever the file gives it: in a flat file,
    before the first header or in [global], under a stage's subcommand and under `run`."""

    BODY = "stages = simulate, inject, detect, eval\npairs = 2\nmethods = traod, dae\n" + TestUnknownSharedKeys.SIM
    PLACES = {"flat": "seed = 5\n" + BODY, "before_the_first_header": "seed = 5\n[global]\n" + BODY,
              "global": "[global]\nseed = 5\n" + BODY}
    ARGS = {"simulate": [], "ingest": ["raw.csv"], "inject": ["--in", "dataset.jsonl"],
            "detect": ["--method", "traod, dae", "--in", "data"], "eval": ["--scores", "*.jsonl", "--labels", "l.jsonl"],
            "dump-prompts": ["--in", "data"]}

    @staticmethod
    def seeds(built: dict) -> set:
        """The seeds of the built settings: simulate's, inject's, and detect's for the nets and for TRAOD."""
        detect = built.get("detect", {})
        seeded = (built.get("simulate"), built.get("inject"), detect.get("hyper"), detect.get("traod"))
        return {s.seed for s in seeded if s is not None}

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("command", ARGS)
    def test_under_a_subcommand(self, tmp_path, monkeypatch, command, place):
        built = {}
        for where in (place, "global"):  # a sectioned file holds a section of the stage
            cfg = tmp_path / f"{where}.ini"
            write(str(cfg), self.PLACES[where] + ("" if where == "flat" else f"[{command}]\n"))
            built[where] = stage_settings(monkeypatch, ["--config", str(cfg), command, *self.ARGS[command]])
        assert built[place] == built["global"] and self.seeds(built[place]) <= {5}

    @pytest.mark.parametrize("place", PLACES)
    def test_under_run(self, tmp_path, monkeypatch, place):
        # was, for a flat file: exit 1, "config [global] must list stages"
        built = {}
        for where in (place, "global"):
            cfg = tmp_path / f"{where}.ini"
            write(str(cfg), self.PLACES[where])
            built[where] = stage_settings(monkeypatch, ["--config", str(cfg), "--out-dir", str(tmp_path / where), "run"])
        assert list(built[place]) == ["simulate", "inject", "detect", "eval"]
        assert built[place] == built["global"] and self.seeds(built[place]) == {5}


class TestSubcommandOutDir:
    """A subcommand writes to --out-dir, else to the config file's out_dir, else to out/, as `run` does."""

    SIM = TestUnknownSharedKeys.SIM
    FILES = {"flat": "out_dir = res\n" + SIM, "global": "[global]\nout_dir = res\n[simulate]\n" + SIM}

    @pytest.mark.parametrize("text", FILES.values(), ids=FILES)
    def test_the_config_files_out_dir_is_taken(self, tmp_path, monkeypatch, text):
        # was: written to out/
        monkeypatch.chdir(tmp_path)
        write("sim.cfg", text)
        assert main(["--config", "sim.cfg", "simulate"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["res", "sim.cfg"] and (tmp_path / "res" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("text", FILES.values(), ids=FILES)
    def test_the_out_dir_flag_comes_first(self, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        write("sim.cfg", text)
        assert main(["--config", "sim.cfg", "--out-dir", "flag", "simulate"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["flag", "sim.cfg"]

    def test_out_comes_last(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write("sim.cfg", self.SIM)
        assert main(["--config", "sim.cfg", "simulate"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["out", "sim.cfg"]


class TestLlmCache:
    def test_truncated_cache_entry_is_a_miss(self, sim_dir, tmp_path, monkeypatch):
        endpoint_cfg = tmp_path / "endpoint.json"
        write(str(endpoint_cfg), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
        cache = tmp_path / "cache"

        def detect(out):
            return main([
                "--out-dir", str(out), "detect", "--method", "llm", "--in", str(sim_dir),
                "--endpoint", str(endpoint_cfg), "--mode", "separate", "--cache-dir", str(cache),
            ])

        assert detect(tmp_path / "first") == 0
        entries = sorted(os.listdir(cache))
        assert len(entries) == 12 and all(e.endswith(".json") for e in entries)  # no temp files left
        truncated = cache / entries[0]
        truncated.write_bytes(truncated.read_bytes()[:20])

        calls = []
        complete = MockEndpoint.complete

        def counting_complete(self, bundle):
            calls.append(bundle)
            return complete(self, bundle)

        monkeypatch.setattr(MockEndpoint, "complete", counting_complete)
        assert detect(tmp_path / "second") == 0
        assert len(calls) == 1
        first = (tmp_path / "first" / "scores_llm_separate.jsonl").read_bytes()
        assert (tmp_path / "second" / "scores_llm_separate.jsonl").read_bytes() == first
        assert json.loads(truncated.read_text())["raw_response"]  # rewritten whole


def write_plt_tree(root):
    """Two agents, each dwelling 30 minutes at three places 2 km apart."""
    header = "header\n" * 6
    for agent in ("000", "001"):
        rows = []
        t = 1_224_800_000 + int(agent) * 600
        for place in range(3):
            for _ in range(30):
                stamp = time.strftime("%Y-%m-%d,%H:%M:%S", time.gmtime(t))
                rows.append(f"{39.9 + 0.02 * place:.6f},116.400000,0,164,39745.0,{stamp}\n")
                t += 60
        path = root / agent / "Trajectory" / "20081024.plt"
        path.parent.mkdir(parents=True)
        write(str(path), header + "".join(rows))


def sha256_tree(root):
    h = hashlib.sha256()
    rel_paths = sorted(os.path.relpath(os.path.join(d, n), root) for d, _, names in os.walk(root) for n in names)
    for rel in rel_paths:
        digest = hashlib.sha256(pathlib.Path(root, rel).read_bytes()).hexdigest()
        h.update(f"{rel}\0{digest}\n".encode("utf-8"))
    return h.hexdigest()


def test_a_run_of_every_method_builds_no_stay_point(tmp_path, monkeypatch):
    """The pipeline reads and writes a trajectory's columns: a StayPoint is only a view, for callers that ask."""
    built = []
    check = StayPoint.__post_init__
    monkeypatch.setattr(StayPoint, "__post_init__", lambda sp: built.append(sp) or check(sp))
    write(str(tmp_path / "endpoint.json"), json.dumps({"provider": "mock-oracle", "model_name": "oracle"}))
    cfg = tmp_path / "all.ini"
    write(str(cfg), "[global]\nseed = 3\nstages = simulate, inject, detect, eval\n\n"
                    "[simulate]\nn_agents = 12\nweeks = 1\nn_hunger = 1\nn_social = 1\nn_work = 1\n\n"
                    "[inject]\npairs = 2\n\n[detect]\nmethods = ompad, monav, traod, dae, dsvdd, llm\n"
                    f"window_days = 1\nepochs = 3\nendpoint = {tmp_path / 'endpoint.json'}\n"
                    f"cache_dir = {tmp_path / 'cache'}\nmode = separate_hint\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "run"]) == 0
    assert len((tmp_path / "out" / "report.csv").read_text().splitlines()) == 7  # the header and six methods
    assert built == []


class TestRunStageTable:
    def test_failed_eval_keeps_earlier_outputs(self, tmp_path, monkeypatch):
        # eval fails while it runs (a bad top_k now fails before simulate and leaves nothing)
        def failing_report(*args, **kwargs):
            raise InvalidInputError("report failed")

        monkeypatch.setattr(cli, "make_report", failing_report)
        cfg = tmp_path / "bad_eval.ini"
        write(
            str(cfg),
            "[global]\nseed = 2\nstages = simulate, inject, detect, eval\n\n"
            "[simulate]\nn_agents = 10\nweeks = 1\nn_hunger = 0\nn_social = 0\nn_work = 0\n\n"
            "[inject]\npairs = 2\n\n[detect]\nmethods = ompad\nwindow_days = 2\n",
        )
        out = tmp_path / "rune"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 1
        kept = {os.path.relpath(os.path.join(d, n), out) for d, _, names in os.walk(out) for n in names}
        assert kept == {
            "sim/dataset.jsonl", "sim/dataset.meta.json", "sim/labels.jsonl",
            "inject/dataset.jsonl", "inject/dataset.meta.json", "inject/labels.jsonl",
            "scores/scores_ompad.jsonl", "manifest.json",
        }

    def test_run_hashes_directory_input(self, tmp_path):
        tree = tmp_path / "Data"
        write_plt_tree(tree)
        cfg = tmp_path / "ingest.ini"
        write(str(cfg), f"[global]\nstages = ingest\n\n[ingest]\ninput = {tree}\nformat = plt\nmin_records = 1\n")
        out = tmp_path / "runi"
        assert main(["--config", str(cfg), "--out-dir", str(out), "run"]) == 0
        (stage,) = json.loads((out / "manifest.json").read_text())["stages"]
        assert stage["inputs"] == {str(tree): sha256_tree(str(tree))}
        ds = read_dataset(str(out / "ingest" / "dataset.jsonl"))
        assert [t.agent_id for t in ds.trajectories] == ["000", "001"]
        assert all(len(t.points) == 3 for t in ds.trajectories)


def readme_cli_lines():
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("mobanom ")]


def readme_endpoint_section():
    readme = README.read_text(encoding="utf-8")
    return readme.split("## LLM endpoints", 1)[1].split("\n## ", 1)[0]


README_EXAMPLE_STDOUT = """\
Detector  Top-10 Hits  Top-25 Hits  AP score  AUC score  Agents  Outliers  Omitted
--------  -----------  -----------  --------  ---------  ------  --------  -------
ompad     8            13           0.7812    0.8933     100     15        0
monav_tt  6            7            0.5212    0.7231     100     15        0

"""


class TestReadmeDrift:
    def test_readme_python_example_prints_its_report(self, tmp_path):
        readme = README.read_text(encoding="utf-8")
        (example,) = readme.split("```python\n")[1:]  # the one Python block, as a reader would paste it
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", example.split("```", 1)[0]], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == README_EXAMPLE_STDOUT

    def test_readme_endpoint_example_loads(self, tmp_path):
        section = readme_endpoint_section()
        example = section.split("```json", 1)[1].split("```", 1)[0]
        path = tmp_path / "endpoint.json"
        write(str(path), example)
        config = read_endpoint_file(str(path))
        assert config == LlmEndpointConfig(**json.loads(example))

    def test_readme_lists_every_endpoint_key(self):
        rows = [ln for ln in readme_endpoint_section().splitlines() if ln.startswith("| `")]
        documented = {ln.split("`", 2)[1] for ln in rows}
        assert documented == {f.name for f in fields(LlmEndpointConfig)}

    def test_readme_cli_lines_parse(self):
        lines = readme_cli_lines()
        assert len(lines) >= 6
        parser = _build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command in STAGES or args.command == "run"


def test_python_dash_m_runs_the_cli():
    # was: "No module named mobanom.__main__" without an installed entry point
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-m", "mobanom", "--help"], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: mobanom ")
