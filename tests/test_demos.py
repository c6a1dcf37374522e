"""Demos 01, 03 and 05 run as a reader runs them, in an empty directory, and print what they always printed.

Demo 01 no longer prints ``invalid trajectories: none``: a trajectory checks the trajectory rule when it is built,
so the simulator cannot return one that breaks it.  Demo 05's training time is printed as ``<elapsed>``.  Demos 02,
04 and 06 run in ``test_ingest_columns.py``, ``test_traod.py`` and ``test_llm_client.py``.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMO_01_STDOUT = """\
agents:   50
outliers: 9 (onset at tick 672 of 1344)

agent0000 (none): 103 stay points
  place types: {'Apartment': 44, 'Workplace': 18, 'Recreation': 21, 'Restaurant': 20}
  workplace visits after onset: 10

agent0025 (work): 96 stay points
  place types: {'Apartment': 44, 'Workplace': 8, 'Restaurant': 17, 'Recreation': 27}
  workplace visits after onset: 0

wrote demo_dataset.jsonl (+ .meta.json) and demo_labels.jsonl
"""

DEMO_03_STDOUT = """\
simulated 30 normal agents
labeled imposters: 10 (5 pairs)

agent0002: deviate_index=69, 14/84 stay points now belong to the partner

agent0003: deviate_index=84, 22/109 stay points now belong to the partner

20 non-outlier trajectories are byte-identical to the input
"""

DEMO_05_STDOUT = """\
40 agents, 16 imposters
feature dim 144 (16 slots x 9)
trained 80 per-agent models in <elapsed>s
Detector         Top-8 Hits  Top-16 Hits  AP score  AUC score  Agents  Outliers  Omitted
---------------  ----------  -----------  --------  ---------  ------  --------  -------
dae_per_agent    7           10           0.7686    0.7786     40      16        0
dsvdd_per_agent  7           12           0.8448    0.8698     40      16        0

Detector  Top-8 Hits  Top-16 Hits  AP score  AUC score  Agents  Outliers  Omitted
--------  ----------  -----------  --------  ---------  ------  --------  -------
dae       2           4            0.3886    0.3776     40      16        0

"""


@pytest.mark.parametrize("demo, stdout, written", [
    ("01_simulate_population.py", DEMO_01_STDOUT, ["demo_dataset.jsonl", "demo_dataset.meta.json", "demo_labels.jsonl"]),
    ("03_imposter_injection.py", DEMO_03_STDOUT, []),
    ("05_one_class_networks.py", DEMO_05_STDOUT, []),
], ids=["01", "03", "05"])
def test_a_demo_prints_what_it_always_printed(tmp_path, demo, stdout, written):
    # one BLAS thread, so that the nets' scores do not move with the host's thread count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert re.sub(r" in \d+\.\ds$", " in <elapsed>s", result.stdout, flags=re.M) == stdout
    assert sorted(os.listdir(tmp_path)) == written
