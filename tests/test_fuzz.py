"""Mutation fuzz of every input kind through ``cli.main`` (after Miller, Fredriksen & So, CACM 33(12), 1990).

Each case copies a tree of valid inputs, mutates one file with a seeded mutation, and runs the command
that reads it in process.  ``main`` must return 0 or 1 with no exception escaping, and a return of 1
must log one error line naming the mutated file.  Tier-1 runs ``CASES`` cases per input kind; set
``MOBANOM_FUZZ_CASES`` to run more, for example ``MOBANOM_FUZZ_CASES=300``.

``n_agents`` and ``weeks`` are kept out of every mutation: a huge value there is lawful, only slow.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
import signal

import pytest

from mobanom.cli import main

CASES = int(os.environ.get("MOBANOM_FUZZ_CASES", "60"))
CASE_TIMEOUT_S = 20

# The lines that no mutation touches, then the lines that mutations may change.
SIZE_LINES = "n_agents = 8\nweeks = 1\n"
RUN_INI = ("[global]\n" + SIZE_LINES + "stages = simulate, inject, detect, eval\nseed = 3\n"
           "[simulate]\nn_hunger = 1\nn_social = 1\nn_work = 0\n[inject]\npairs = 1\nswitch_fraction = 0.5\n"
           "[detect]\nmethods = ompad, monav\nwindow_days = 2\n[eval]\ntop_k = 1,2\n")
FLAT_CONFIG = SIZE_LINES + "n_hunger = 1\nn_social = 1\nn_work = 1\nseed = 3\n"
PROTECTED = {"run.ini": "[global]\n" + SIZE_LINES, "sim.cfg": SIZE_LINES}

BIG = "1234567890123456789012345"
TOKENS = {
    "json": ["null", "-1", "0", "1.5", "1e309", "-1e309", "NaN", '""', '"x"', "[]", "{}", "true", "false", BIG,
             '"\\ud800"', '"\\udfff\\ud800"', '{"a": 1}'],
    "ini": ["", "-1", "0", "1.5", "1e309", "nan", "inf", "x", "true", "%", "a,b", BIG],
    "csv": ["", "-1", "0", "1.5", "1e309", "nan", "inf", "x", "91", "-181", " ", BIG],
}

LLM_FLAGS = ["--in", "sim", "--endpoint", "mock.json", "--cache-dir", "cache"]
LLM = ["detect", "--method", "llm", *LLM_FLAGS]
DETECT = ["detect", "--method", "ompad,monav,llm", *LLM_FLAGS]
EVAL = ["eval", "--scores", "scores/scores_ompad.jsonl", "--labels", "sim/labels.jsonl", "--top-k", "1,2"]
INGEST = ["ingest", "raw.csv", "--format", "csv", "--min-records", "1", "--poi-map", "poi.jsonl"]
# input kind -> (the file it mutates, relative to the case directory; the command that reads it)
KINDS = {
    "dataset": ("sim/dataset.jsonl", DETECT),
    "sidecar": ("sim/dataset.meta.json", DETECT),
    "labels": ("sim/labels.jsonl", EVAL),
    "scores": ("scores/scores_ompad.jsonl", EVAL),
    "endpoint": ("mock.json", LLM),
    "poi_map": ("poi.jsonl", INGEST),
    "csv_log": ("raw.csv", INGEST),
    "run_ini": ("run.ini", ["--config", "run.ini", "run"]),
    "flat_config": ("sim.cfg", ["simulate", "--config", "sim.cfg"]),
    "cache_entry": ("cache", LLM),
}


class CaseTimeout(Exception):
    pass


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` with stdout and stderr captured; the return code and what went to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--out-dir", "out", *argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory holding a valid input of every kind, each of which its command reads with exit 0."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    (root / "sim.cfg").write_text(FLAT_CONFIG)
    (root / "run.ini").write_text(RUN_INI)
    (root / "mock.json").write_text('{"provider": "mock-oracle", "model_name": "m", "temperature": 0.0, '
                                    '"max_concurrent_requests": 1}\n')
    fixes = [f"u{a},{1_600_000_000 + 60 * i + 20_000 * a},{40 + 0.001 * (i // 30)},{116.0 + 0.01 * a}"
             for a in range(2) for i in range(90)]
    (root / "raw.csv").write_text("\n".join(fixes) + "\n")
    (root / "poi.jsonl").write_text('{"lat": 40.0, "lon": 116.0, "radius_m": 300.0, "place_type": "Pub", '
                                    '"place_id": "p1"}\n{"lat": 40.001, "lon": 116.01, "radius_m": 200.0, '
                                    '"place_type": "Workplace", "place_id": "p2"}\n')
    with contextlib.chdir(root):
        assert run_cli(["simulate", "--config", "sim.cfg"])[0] == 0
        shutil.move("out", "sim")
        assert run_cli(["detect", "--method", "ompad", "--in", "sim"])[0] == 0
        shutil.move("out", "scores")
        for kind, (path, argv) in KINDS.items():
            code, err = run_cli(argv)
            assert code == 0, (kind, err)
            shutil.rmtree("out")
    assert os.listdir(root / "cache")
    return root


def swap_one(text: str, rng: random.Random, fmt: str) -> str:
    """``text`` with one value of one line swapped for an edge value: a JSON value, an INI setting or a CSV field."""
    lines = text.splitlines(keepends=True)
    candidates = [i for i, line in enumerate(lines) if fmt != "ini" or "=" in line]
    if not candidates:
        return text
    i = rng.choice(candidates)
    token = rng.choice(TOKENS[fmt])
    if fmt == "ini":
        lines[i] = lines[i].split("=", 1)[0] + "= " + token + "\n"
    elif fmt == "csv":
        fields = lines[i].rstrip("\n").split(",")
        fields[rng.randrange(len(fields))] = token
        lines[i] = ",".join(fields) + "\n"
    else:
        try:
            obj = json.loads(lines[i])
        except ValueError:
            return text
        slots = []

        def walk(node):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, child in items:
                slots.append((node, key))
                walk(child)

        walk(obj)
        if not slots:
            return text
        node, key = rng.choice(slots)
        node[key] = "\0FUZZ\0"
        lines[i] = json.dumps(obj).replace('"\\u0000FUZZ\\u0000"', token) + "\n"
    return "".join(lines)


def mutate(data: bytes, rng: random.Random, fmt: str) -> bytes:
    """One seeded mutation of ``data``: a byte flip, a deleted span, a duplicated or dropped line, a truncation,
    or one value swapped for an edge value."""
    op = rng.randrange(6)
    if op == 0 and data:
        i = rng.randrange(len(data))
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
    if op == 1 and data:
        i = rng.randrange(len(data))
        return data[:i] + data[i + rng.randint(1, 24):]
    if op in (2, 3):
        lines = data.splitlines(keepends=True)
        if lines:
            i = rng.randrange(len(lines))
            return b"".join(lines[:i] + ([lines[i]] * 2 if op == 2 else []) + lines[i + 1:])
    if op == 4:
        return data[:rng.randrange(len(data) + 1)]
    return swap_one(data.decode("utf-8"), rng, fmt).encode("utf-8")


def run_case(inputs, case_dir, kind: str, seed: int) -> str | None:
    """Mutate ``kind``'s file in a copy of ``inputs`` with ``seed``, run its command; None, or what went wrong."""
    shutil.copytree(inputs, case_dir)
    rng = random.Random(f"{kind}-{seed}")
    rel, argv = KINDS[kind]
    target = case_dir / rel
    if target.is_dir():  # the cache: mutate one of its entries
        target = target / rng.choice(sorted(os.listdir(target)))
    data = target.read_bytes()
    protected = PROTECTED.get(target.name, "").encode()
    assert data.startswith(protected)
    fmt = "ini" if protected else "csv" if target.suffix == ".csv" else "json"
    target.write_bytes(protected + mutate(data[len(protected):], rng, fmt))

    def alarm(signum, frame):
        raise CaseTimeout(f"over {CASE_TIMEOUT_S} s")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(CASE_TIMEOUT_S)
    try:
        with contextlib.chdir(case_dir):
            code, err = run_cli(argv)
    except Exception as exc:  # any escape is the finding
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    errors = [line for line in err.splitlines() if line.startswith("ERROR")]
    if code not in (0, 1):
        return f"main returned {code}"
    named = [line for line in errors if re.search(rf"(^|[\s'/]){re.escape(target.name)}\b", line)]
    if code == 1 and len(named) != 1:
        return f"exit 1 without one error line naming {target.name}: {errors}"
    return None


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_mutated_input_loads_or_exits_1_naming_it(valid_inputs, tmp_path, kind):
    findings = {}
    for seed in range(CASES):
        problem = run_case(valid_inputs, tmp_path / f"case{seed}", kind, seed)
        if problem is not None:
            findings[seed] = problem
        shutil.rmtree(tmp_path / f"case{seed}")
    assert findings == {}
