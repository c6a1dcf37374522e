"""Run one compact pipeline and compare every artifact it writes with ``tests/golden/run_digests.json``.

    python3 tools/golden_run.py             # check; exit 1 naming each artifact that differs
    python3 tools/golden_run.py --update    # rewrite the golden file from this checkout

The run takes a few seconds, in a temporary directory, with the ``src/`` of this checkout and BLAS on one thread:

- ``run``: simulate 40 agents x 2 weeks (2 outliers of each kind), inject 3 pairs, detect with all six methods at
  population scope (1-day windows, ``L = 16``, the mock oracle in ``separate_hint`` mode), and eval;
- ``detect --scope per_agent --method dae,dsvdd`` on the inject output;
- ``dump-prompts`` in each of the 4 prompt modes with each of the 2 templates;
- ``ingest`` of the ``.plt`` tree and of the CSV log (with a POI map) under ``tests/golden/raw``.

Each artifact is hashed as :func:`canonical` gives it, without what changes from run to run: a manifest without its
stages' ``wall_clock_s`` and its ``runtime``, and an LLM cache entry without its ``timestamp``.
``tools/artifact_digest.py`` uses the same rule.  The golden file records the runtime it was written on (the
manifest's ``runtime`` record and numpy's SIMD ``found`` list).  On that runtime every artifact is compared byte for
byte.  On another one, the net score files are compared by the README's rule (equal ranks, scores within 1e-5
relative) and the manifest without their sha256, since OpenBLAS and the SIMD kernels may move a net score's last
bits; every other artifact is still compared byte for byte.  The check prints which rule applied.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "run_digests.json")
RAW = os.path.join(ROOT, "tests", "golden", "raw")
NET_SCORES = ("scores_dae", "scores_dsvdd")  # the file names of the net score files start so
REL_TOL = 1e-5

RUN_CONFIG = """[global]
seed = 11
stages = simulate, inject, detect, eval
out_dir = out

[simulate]
n_agents = 40
weeks = 2
n_hunger = 2
n_social = 2
n_work = 2

[inject]
pairs = 3

[detect]
methods = ompad, monav, traod, dae, dsvdd, llm
window_days = 1
window_len = 16
endpoint = endpoint.json
cache_dir = llm_cache

[llm]
mode = separate_hint
"""


def canonical(data: bytes, rel: str) -> bytes:
    """The bytes of the artifact at ``rel`` that a run must reproduce: all of them, except a manifest's stages'
    ``wall_clock_s`` and its ``runtime``, and an LLM cache entry's ``timestamp``."""
    if os.path.basename(rel) == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("runtime", None)
        for stage in manifest["stages"]:
            stage.pop("wall_clock_s", None)
        return json.dumps(manifest, sort_keys=True).encode()
    if "llm_cache" in rel.split(os.sep):
        entry = json.loads(data)
        entry.pop("timestamp", None)
        return json.dumps(entry, sort_keys=True).encode()
    return data


def commands() -> list[list[str]]:
    from mobanom.llm.prompts import MODES, TEMPLATE_VERSIONS

    window = ["--window-days", "1", "--window-len", "16"]
    return [["--config", "run.ini", "run"],
            ["--out-dir", "per_agent", "detect", "--in", "out/inject", "--method", "dae,dsvdd", "--scope", "per_agent",
             *window],
            *(["--out-dir", f"prompts/{mode}-{template}", "dump-prompts", "--in", "out/inject", "--mode", mode,
               "--template", template] for mode in MODES for template in TEMPLATE_VERSIONS),
            ["--out-dir", "ingest_plt", "ingest", os.path.join(RAW, "plt"), "--format", "plt", "--min-records", "1"],
            ["--out-dir", "ingest_csv", "ingest", os.path.join(RAW, "log.csv"), "--format", "csv", "--min-records",
             "1", "--poi-map", os.path.join(RAW, "poi.jsonl")]]


def runtime() -> dict:
    import numpy as np
    from mobanom import cli

    return {**cli._runtime(), "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"]}


def run(work: str) -> dict[str, bytes]:
    """Every artifact of the compact run in ``work``, as :func:`canonical` gives it, keyed by relative path."""
    from mobanom import cli

    os.chdir(work)  # every path the run records is relative to it
    with open("run.ini", "w", encoding="utf-8") as fh:
        fh.write(RUN_CONFIG)
    with open("endpoint.json", "w", encoding="utf-8") as fh:
        json.dump({"provider": "mock-oracle", "model_name": "mock-oracle"}, fh)
    with contextlib.redirect_stdout(sys.stderr):  # `eval` prints its report
        for argv in commands():
            if cli.main(argv) != 0:
                raise SystemExit(f"mobanom {' '.join(argv)} failed")
    found = {}
    for directory, _, names in os.walk("."):
        for name in names:
            rel = os.path.relpath(os.path.join(directory, name), ".")
            with open(rel, "rb") as fh:
                found[rel] = canonical(fh.read(), rel)
    return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def by_rule(rel: str) -> bool:
    """Whether the artifact at ``rel`` is compared by rule, not by its bytes, on another runtime."""
    return os.path.basename(rel).startswith(NET_SCORES) or os.path.basename(rel) == "manifest.json"


def same_by_rule(rel: str, golden: str, text: str) -> bool:
    """A net score file: equal rows but for the scores, equal ranks and scores within REL_TOL relative.  The
    manifest: equal once the sha256 of every net score file is dropped."""
    if os.path.basename(rel) == "manifest.json":
        def loose(manifest_text):
            manifest = json.loads(manifest_text)
            for stage in manifest["stages"]:
                for paths in (stage["inputs"], stage["outputs"]):
                    if isinstance(paths, dict):
                        paths.update((p, None) for p in paths if os.path.basename(p).startswith(NET_SCORES))
            return manifest
        return loose(golden) == loose(text)
    rows = [[json.loads(line) for line in t.splitlines()] for t in (golden, text)]
    if [{k: v for k, v in r.items() if k != "score"} for r in rows[0]] != [
            {k: v for k, v in r.items() if k != "score"} for r in rows[1]]:
        return False
    ranks = [sorted(range(len(r)), key=lambda i: (-r[i]["score"], r[i]["agent_id"])) for r in rows]
    return ranks[0] == ranks[1] and all(abs(a["score"] - b["score"]) <= REL_TOL * abs(a["score"])
                                        for a, b in zip(*rows))


def check(found: dict[str, bytes], golden: dict, here: dict) -> list[str]:
    """The faults of ``found`` against ``golden``, printing the rule that applied."""
    loose = golden["runtime"] != here
    if loose:
        changed = sorted(k for k in {*golden["runtime"], *here} if golden["runtime"].get(k) != here.get(k))
        print(f"another runtime ({', '.join(changed)} differ): net score files by equal ranks and scores within "
              f"{REL_TOL:g} relative, the manifest without their sha256, every other artifact byte for byte")
    else:
        print("the golden file's runtime: every artifact byte for byte")
    faults = [f"missing: {rel}" for rel in sorted(set(golden["digests"]) - set(found))]
    faults += [f"not in the golden file: {rel}" for rel in sorted(set(found) - set(golden["digests"]))]
    for rel in sorted(set(found) & set(golden["digests"])):
        if sha256(found[rel]) == golden["digests"][rel]:
            continue
        if not (loose and by_rule(rel) and same_by_rule(rel, golden["texts"][rel], found[rel].decode())):
            faults.append(f"differs: {rel}")
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite the golden file from this checkout")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as work:
        found = run(work)
        os.chdir(ROOT)
    here = runtime()
    if args.update:
        golden = {"runtime": here, "digests": {rel: sha256(data) for rel, data in sorted(found.items())},
                  "texts": {rel: data.decode() for rel, data in sorted(found.items()) if by_rule(rel)}}
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(found)} digests to {os.path.relpath(GOLDEN, ROOT)}")
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        faults = check(found, json.load(fh), here)
    print("\n".join(faults) if faults else f"all {len(found)} artifacts as in the golden file")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
