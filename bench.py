"""Benchmark trajectory: write ``BENCH_<label>.json`` for the checkout this script sits in.

    python3 bench.py --label <label>

Run from the root of a checkout. The script uses the standard library only,
and it runs the checkout's own, untouched ``perfbench/run.py`` and ``src/``:

* ``perfbench/run.py`` on each of its four workloads for PERF_SECONDS each,
  at ``--trace 0`` from input seed PERF_SEED and at ``--trace 1`` from
  TRACE_SEED. From the record
  that perfbench writes, the file keeps the machine, the end-to-end medians
  with their quartiles and n, the per-layer metrics, whether every run was
  correct, and the sha256 of every score table per input seed.
* Four one-shot runs of ``mobanom run``, ONE_SHOT_REPS times each, at seed
  ONE_SHOT_SEED with one BLAS thread: ``city_m`` (perfbench's ``city_s``
  config at 1000 agents x 4 weeks), ``city_all_s`` (the ``city_s`` config
  with every method, the nets at population scope),
  ``city_all_s_per_agent`` (the same with the nets per agent) and
  ``city_all_m`` (``city_all_s`` at 1000 agents). They lie
  outside perfbench's bounds and fingerprint, and no gate reads them. The
  file keeps each run's wall clock, peak RSS, the manifest's per-stage
  ``wall_clock_s`` and the sha256 of each score table, and the manifest's
  ``runtime`` record as part of the machine.

Compare two BENCH files only when they were written on one host in one
session: the host's speed drifts between sessions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("city_s", "nets", "traod_town", "geolife_ingest")
PERF_SEED, TRACE_SEED, PERF_SECONDS = 9300, 9400, 20
ONE_SHOT_SEED, ONE_SHOT_REPS = 5, 3
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EVERY_METHOD = "ompad, monav, traod, dae, dsvdd, llm"
# name: (agents, methods, nets scope)
ONE_SHOTS = {
    "city_m": (1000, "ompad, monav, llm", "population"),
    "city_all_s": (200, EVERY_METHOD, "population"),
    "city_all_s_per_agent": (200, EVERY_METHOD, "per_agent"),
    "city_all_m": (1000, EVERY_METHOD, "population"),
}


def perfbench(workload: str, seed: int, trace: int) -> dict:
    """The record that ``perfbench/run.py`` writes for one run."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(PERF_SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    with open(os.path.join(ROOT, "perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def score_hashes(record: dict) -> dict:
    """Input seed -> detector -> the sha256 of its score table."""
    return {seed: {det: q["sha256"] for det, q in sorted(quality.items())}
            for seed, quality in record["quality"].items()}


def workload_entry(workload: str) -> tuple[dict, dict]:
    """The workload's entry of the BENCH file, and the machine that perfbench recorded."""
    untraced, traced = (perfbench(workload, seed, t) for seed, t in ((PERF_SEED, 0), (TRACE_SEED, 1)))
    return {
        "config": {"seed_trace0": PERF_SEED, "seed_trace1": TRACE_SEED, "seconds": PERF_SECONDS},
        "correct": not untraced["problems"] and not traced["problems"],
        "end_to_end": untraced["end_to_end"],
        "wall_clock": untraced["wall_clock"],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "score_sha256": {"trace0": score_hashes(untraced), "trace1": score_hashes(traced)},
    }, untraced["machine"]


def one_shot_config(work: str, agents: int, methods: str, scope: str) -> str:
    endpoint = os.path.join(work, "endpoint.json")
    with open(endpoint, "w", encoding="utf-8") as fh:
        json.dump({"provider": "mock-oracle", "model_name": "mock-oracle"}, fh)
    config = os.path.join(work, "pipeline.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"""[global]
seed = {ONE_SHOT_SEED}
stages = simulate, inject, detect, eval

[simulate]
n_agents = {agents}
weeks = 4

[inject]
pairs = 12

[detect]
methods = {methods}
window_days = 2
scope = {scope}

[llm]
mode = separate
endpoint = {endpoint}
cache_dir = {os.path.join(work, "llm_cache")}

[eval]
top_k = 10,25,100
""")
    return config


def one_shot(agents: int, methods: str, scope: str) -> dict:
    """One ``mobanom run`` in a fresh directory: wall clock, peak RSS, stage times, score hashes, runtime."""
    with tempfile.TemporaryDirectory(prefix="bench-") as work:
        config, out = one_shot_config(work, agents, methods, scope), os.path.join(work, "out")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **ONE_BLAS_THREAD)
        with open(os.path.join(work, "log.txt"), "w") as log:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, "-m", "mobanom", "--config", config, "--out-dir", out, "run"],
                                    env=env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
            wall = time.monotonic() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(os.path.join(work, "log.txt")) as fh:
                raise RuntimeError(f"one-shot run exited with {proc.returncode}:\n{fh.read()[-2000:]}")
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        (detect,) = [s for s in manifest["stages"] if s["name"] == "detect"]
        return {
            "wall_clock_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),  # Linux reports KiB
            "stage_wall_clock_s": {s["name"]: s["wall_clock_s"] for s in manifest["stages"]},
            "score_sha256": {os.path.basename(p): h for p, h in sorted(detect["outputs"].items())},
            "runtime": manifest["runtime"],
        }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    bench = {"label": args.label, "workloads": {}, "one_shots": {}}
    for workload in WORKLOADS:
        bench["workloads"][workload], machine = workload_entry(workload)
        print(f"{workload}: run_s median {bench['workloads'][workload]['end_to_end']['run_s']['median']:.4g} s, "
              f"correct {bench['workloads'][workload]['correct']}", flush=True)
    for name, (agents, methods, scope) in ONE_SHOTS.items():
        runs = [one_shot(agents, methods, scope) for _ in range(ONE_SHOT_REPS)]
        machine["runtime"] = runs[0]["runtime"]
        for run in runs:
            del run["runtime"]
        bench["one_shots"][name] = {
            "outside_perfbench_bounds": True,
            "config": {"agents": agents, "weeks": 4, "methods": methods, "scope": scope, "seed": ONE_SHOT_SEED,
                       "blas_threads": 1},
            "wall_clock_s": summary([r["wall_clock_s"] for r in runs]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in runs]),
            "runs": runs,
        }
        print(f"{name}: wall clock median {bench['one_shots'][name]['wall_clock_s']['median']:.4g} s", flush=True)
    bench["machine"] = machine
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
