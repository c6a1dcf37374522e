"""Seeded batch benchmark for mobanom: simulate / ingest -> inject -> detect -> eval.

    python3 perfbench/run.py --workload city_s --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition runs in its own process
(``worker.py``) with BLAS pinned to one thread, generates its inputs in a
fresh directory from input seed ``--seed + i`` (repetition i), runs the
workload's timed region once and checks the outputs against the quality
fingerprint (``fingerprint.py``).
Repetitions follow each other, closed-loop, until the next one would end
after ``--seconds``; at least MIN_REPS run.

With ``--trace 0`` the run reports the end-to-end metrics: medians over the
repetitions of run_s, records_per_s, setup_s and peak_rss_mb. With
``--trace 1`` untraced and traced repetitions alternate; the run reports the
per-layer metrics of ``tracer.LAYER_METRICS`` (medians over traced
repetitions) and the tracing overhead. The last line of standard output is
one JSON object; the full record, spans included, goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("city_s", "nets", "traod_town", "geolife_ingest")
MIN_REPS = 3
# A run must end within 180 s even if a repetition hangs.
RUN_DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"run_s": "s", "records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# The host's speed drifts by about +-20% over tens of seconds on shared
# machines, alike for interpreter, numpy and JSON work. Each repetition times
# a fixed calibration mix (worker.calibrate) just before and after its timed
# region, and run.py reports times scaled to the speed at which that mix
# takes CAL_REF_S; raw wall-clock times are printed and recorded alongside.
CAL_REF_S = 0.3


class RepFailed(RuntimeError):
    """A repetition's process failed or timed out: the benchmark cannot run."""


def run_rep(workload: str, seed: int, traced: bool, timeout: float = RUN_DEADLINE_S) -> dict:
    """Run one repetition in a fresh process and a fresh directory, deleted afterwards."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    result_path = os.path.join(work, "result.json")
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": SRC}
    mono = time.monotonic()
    t0 = time.time()
    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--t0", repr(t0), "--work", work, "--result", result_path]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RepFailed(f"{workload} seed {seed}: repetition exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RepFailed(f"{workload} seed {seed}: worker exited with {proc.returncode}\n{proc.stderr[-4000:]}")
        with open(result_path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rep["wall_s"] = time.monotonic() - mono
    rep["traced"] = traced
    rep["seed"] = seed
    return rep


def _scaled(rep: dict, key: str) -> float:
    return rep[key] * CAL_REF_S / statistics.fmean(rep["cal_s"])


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _problems(reps: list[dict]) -> list[str]:
    problems = []
    for i, rep in enumerate(reps):
        if rep.get("error"):
            problems.append(f"repetition {i}: {rep['error'].strip().splitlines()[-1]}")
        problems += [f"repetition {i}: {p}" for p in rep.get("problems", [])]
    digests = {}
    for rep in reps:
        for det, q in rep.get("quality", {}).items():
            digests.setdefault((rep["seed"], det), set()).add(q["sha256"])
    problems += [f"input seed {seed}: {det} score files differ between repetitions"
                 for (seed, det), d in digests.items() if len(d) > 1]
    return problems


def _layer_metrics(workload: str, untraced: list[dict], traced: list[dict], check: bool) -> dict:
    """Medians over traced repetitions; with ``check``, fail on metrics that must fire but stayed 0."""
    traced = [r for r in traced if "layer_metrics" in r]
    values = {}
    for m in tracer.LAYER_METRICS:
        if not traced:
            v = 0.0
        elif m.name == "trace.overhead":
            v = (statistics.median(_scaled(r, "run_s") for r in traced)
                 / statistics.median(_scaled(r, "run_s") for r in untraced) - 1.0)
        else:
            v = statistics.median(r["layer_metrics"][m.name] for r in traced)
        values[m.name] = {"value": v, "unit": m.unit}
    if check:
        not_fired = tracer.check_fired(workload, {k: v["value"] for k, v in values.items()})
        if not_fired:
            raise tracer.TraceDriftError(f"metrics that must fire on {workload} stayed 0: {', '.join(not_fired)}")
        if values["llm.cache_hits"]["value"] != 0:
            raise tracer.TraceDriftError("llm.cache_hits > 0: the LLM cache was not cold")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mobanom", "__init__.py")):
        print(f"error: no mobanom sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    reps: list[dict] = []
    try:
        while True:
            # Repetition i reads input seed --seed + i, so a run's medians
            # average over several seeded inputs; with --trace 1 each input
            # runs untraced, then traced, and both must score identically.
            i = len(reps) // 2 if args.trace else len(reps)
            rep = run_rep(args.workload, args.seed + i, traced=bool(args.trace) and len(reps) % 2 == 1,
                          timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - started)))
            reps.append(rep)
            if rep.get("error"):
                break
            elapsed = time.monotonic() - started
            if len(reps) >= MIN_REPS and elapsed + max(r["wall_s"] for r in reps) > args.seconds:
                break
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        problems = _problems(reps)
        e2e = {
            "run_s": _stats([_scaled(r, "run_s") for r in untraced]),
            "records_per_s": _stats([r["records"] / _scaled(r, "run_s") for r in untraced if "records" in r] or [0.0]),
            "setup_s": _stats([_scaled(r, "setup_s") for r in untraced]),
            "peak_rss_mb": _stats([r["peak_rss_mb"] for r in untraced]),
        }
        wall = {k: _stats([r[k] for r in untraced]) for k in ("run_s", "setup_s")}
        if args.trace:
            metrics = _layer_metrics(args.workload, untraced, traced, check=not problems)
        else:
            metrics = {k: {"value": v["median"], "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    except (RepFailed, tracer.TraceDriftError) as exc:  # the benchmark itself cannot measure
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # A run that fails its checks counts every scoring as failed.
    attempted = sum(r.get("attempted", 1) for r in reps)
    failed = attempted if problems else sum(r["failed"] for r in reps)
    checked = [r for r in reps if "quality" in r]
    referenced = sorted({r["seed"] for r in checked if r["referenced"]})
    unreferenced = sorted({r["seed"] for r in checked if not r["referenced"]})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": reps[0]["machine"],
        "inputs": {r["seed"]: r["inputs"] for r in checked},
        "quality": {r["seed"]: r["quality"] for r in checked},
        "fingerprint_reference_seeds": referenced,
        "problems": problems,
        "end_to_end": e2e,
        "wall_clock": wall,
        "metrics": metrics,
        "repetitions": [{k: v for k, v in r.items() if k not in ("spans", "machine", "quality")} for r in reps],
        "spans": traced[-1]["spans"] if args.trace and traced else [],
    }
    if args.trace:
        record["layer_rationale"] = {m.name: {"moves": m.moves, "must_fire_on": m.must_fire_on}
                                     for m in tracer.LAYER_METRICS}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced repetitions "
          f"on input seeds {sorted({r['seed'] for r in reps})}")
    for seed, inputs in record["inputs"].items():
        print(f"  inputs (seed {seed}): {inputs}")
    for name, s in e2e.items():
        print(f"  {name:<14} median {s['median']:.6g} {E2E_UNITS[name]}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for name, st in wall.items():
        print(f"  wall-clock {name:<8} median {st['median']:.6g} s  (q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, unscaled)")
    print(f"  failed_frac    {failed}/{attempted} = {failed / attempted:.6g}  (detector x labelled-agent scorings)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    constant = sorted({det for r in checked for det, q in r["quality"].items() if q["constant"]})
    if constant:
        print(f"  detectors with constant scores: {', '.join(constant)}")
    print(f"  fingerprint: committed reference compared for input seeds {referenced}, "
          f"none for {unreferenced}; {len(problems)} problem(s)")
    for p in problems:
        print(f"    {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
