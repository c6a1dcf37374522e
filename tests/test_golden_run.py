"""Every artifact of one compact pipeline run keeps its bytes (``tools/golden_run.py``).

The golden file, ``tests/golden/run_digests.json``, is rewritten by ``python3 tools/golden_run.py --update``; a
change that moves bytes on purpose rewrites it and names each moved artifact.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_artifact_of_the_golden_run_keeps_its_bytes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "golden_run.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    print(done.stdout)  # which rule applied
    assert done.returncode == 0, done.stdout + done.stderr[-4000:]
