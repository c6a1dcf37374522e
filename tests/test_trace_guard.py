"""Each perfbench workload once under perfbench's tracer, as its traced run does.

A traced benchmark run fails when a name the tracer wraps is gone (a
``TraceDriftError``) or when a metric that must fire on the workload stays 0.
This runs the same two checks here. Each workload runs in its own interpreter,
with BLAS on one thread, because ``tracer.install`` rewraps names for the life
of the interpreter. The test reads ``perfbench/`` and changes nothing there;
if perfbench stops providing a name it uses, the test skips and names it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# argv: perfbench dir, workload, work dir. Prints one JSON object: what is missing, the drift, or what did not fire.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
name, work = sys.argv[2], sys.argv[3]
try:
    import tracer, workloads
except ImportError as exc:
    print(json.dumps({"missing": [f"perfbench module {exc.name}"]}))
    sys.exit()
missing = [f"tracer.{n}" for n in ("Recorder", "install", "check_fired", "TraceDriftError") if not hasattr(tracer, n)]
if name not in getattr(workloads, "WORKLOADS", {}):
    missing.append(f"workloads.WORKLOADS[{name!r}]")
if missing:
    print(json.dumps({"missing": missing}))
    sys.exit()
workload = workloads.WORKLOADS[name]
state = workload.setup(0, work)
rec = tracer.Recorder(run_id=name)
try:
    tracer.install(rec)
    workload.timed(state)
except tracer.TraceDriftError as exc:
    print(json.dumps({"drift": str(exc)}))
    sys.exit()
print(json.dumps({"not_fired": tracer.check_fired(name, rec.metrics())}))
"""


@pytest.mark.parametrize("workload", ["city_s", "nets", "traod_town", "geolife_ingest"])
def test_traced_workload_keeps_every_name_and_fires_every_metric(workload, tmp_path):
    if not os.path.isdir(PERFBENCH):
        pytest.skip("no perfbench directory")
    src = os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, **PINNED, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", CHILD, PERFBENCH, workload, str(tmp_path)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    if "missing" in outcome:
        pytest.skip("perfbench no longer provides " + ", ".join(outcome["missing"]))
    assert "drift" not in outcome, outcome["drift"]
    assert outcome["not_fired"] == []
