"""One repetition of one workload, in a fresh process.

``run.py`` starts this script with BLAS pinned to one thread and ``src/`` of
the checkout on the path, in a fresh work directory that it deletes
afterwards. The script generates the inputs, runs the timed region once
(traced or not), checks the outputs and writes one JSON result file.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 \
        --t0 <epoch seconds when the process was started> --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and JSON work.

    The work never changes, so its time measures how fast the host runs
    right now; ``run.py`` uses it to scale timings to a reference speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.random((64, 200)), rng.random((200, 50))
    rows = [{"id": i, "v": [i * 0.5, "x" * 20], "m": {"k": i}} for i in range(2000)]
    start = time.perf_counter()
    acc = 0
    for i in range(1_100_000):
        acc += i * i % 7
    for _ in range(1800):
        np.tanh(x @ w)
    for _ in range(18):
        json.loads(json.dumps(rows))
    return time.perf_counter() - start


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import mobanom

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(mobanom.__file__), src]) != src:
        raise SystemExit(f"mobanom imported from {mobanom.__file__}, not from {src}")

    import fingerprint
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.work)
    rec = None
    if args.trace:
        rec = tracer.Recorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install(rec)

    cal_before = calibrate()
    result = {}
    timed_start = time.time()
    start = time.perf_counter()
    try:
        outcome = workload.timed(state)
    except Exception:
        result.update(error=traceback.format_exc(), run_s=time.perf_counter() - start)
        outcome = None
    else:
        result["run_s"] = time.perf_counter() - start
    result["cal_s"] = [cal_before, calibrate()]
    result["setup_s"] = timed_start - args.t0 - cal_before
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_info()

    if outcome is not None:
        inputs = workload.inputs(state)
        quality = {t.detector: fingerprint.measure(t, outcome.labels, workloads.TOP_K) for t in outcome.tables}
        problems, referenced = fingerprint.check(
            args.workload, args.seed, quality, outcome.report_rows, outcome.report_digits
        )
        labelled = list(outcome.labels.entries)
        result.update(
            inputs=inputs,
            records=inputs[workload.records],
            quality=quality,
            problems=problems,
            referenced=referenced,
            attempted=len(outcome.tables) * len(labelled),
            failed=sum(1 for t in outcome.tables for a in labelled if a not in t.scores),
        )
    if rec is not None:
        result["layer_metrics"] = rec.metrics()
        result["spans"] = rec.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
