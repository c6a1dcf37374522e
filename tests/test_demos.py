"""Demos 01 and 03 run as a reader runs them, in an empty directory, and print what they always printed.

Demo 01 no longer prints ``invalid trajectories: none``: a trajectory checks the trajectory rule when it is built,
so the simulator cannot return one that breaks it.
"""

import os
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


@pytest.mark.parametrize("demo, stdout, written", [
    ("01_simulate_population.py", DEMO_01_STDOUT, ["demo_dataset.jsonl", "demo_dataset.meta.json", "demo_labels.jsonl"]),
    ("03_imposter_injection.py", DEMO_03_STDOUT, []),
], ids=["01", "03"])
def test_a_demo_prints_what_it_always_printed(tmp_path, demo, stdout, written):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout
    assert sorted(os.listdir(tmp_path)) == written
