"""``tools/artifact_digest.py`` gives the same digests on two runs of one workload in one work directory."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_two_runs_give_equal_digests(tmp_path):
    if not os.path.isdir(os.path.join(ROOT, "perfbench")):
        pytest.skip("no perfbench directory")
    argv = [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py"), "--work", str(tmp_path / "work"),
            "--workload", "traod_town", "--seeds", "0"]
    outputs = []
    for _ in range(2):
        result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    rows = [json.loads(line) for line in outputs[0].splitlines()]
    assert {"data/dataset.jsonl", "<tables>/traod.jsonl", "<report_rows>.json"} <= {r["path"] for r in rows}
    assert all(r["workload"] == "traod_town" and r["seed"] == 0 and len(r["sha256"]) == 64 for r in rows)
