"""Digest every artifact of the perfbench workloads, so that two checkouts can be shown to write the same bytes.

    python3 tools/artifact_digest.py --work DIR [--workload W ...] [--seeds 0-9] [--prompts] > digests.jsonl

The script empties ``DIR``, then, for each workload and seed, runs ``setup`` and ``timed`` of
``perfbench/workloads.py`` in ``DIR/<workload>-seed<seed>``, with the ``src/`` of its own checkout on the path and
BLAS on one thread. It prints one JSON line per artifact: ``workload``, ``seed``, ``path`` (relative to that
directory) and ``sha256``. Every file that the workload leaves is an artifact, hashed as ``golden_run.canonical``
gives it, the rule of the tier-1 golden run too: a ``manifest.json`` without its stages' ``wall_clock_s`` and its
``runtime``, and an LLM cache entry without its ``timestamp``. Each score table that
``timed`` returns adds two artifacts, ``<tables>/<detector>.jsonl`` (its ``to_jsonl()``) and
``<tables>/<detector>.omitted.json``, and its report rows add ``<report_rows>.json``: the ``nets`` and
``traod_town`` workloads write no score files. ``--prompts`` also runs ``dump-prompts`` on each ``city_s`` seed's
inject output, for every pair of prompt mode and template version, into ``prompts/<mode>-<template>``.

Manifests hold absolute paths, so run the script from both checkouts with the same ``--work`` and compare the two
outputs, for example with ``diff``. It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import shutil
import sys

from golden_run import canonical

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    """``perfbench/workloads.py`` of this checkout, imported by its path, with mobanom from this checkout's ``src/``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: the net scores are then the same bits on every run
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def parse_seeds(text: str) -> list[int]:
    """``0-9``, ``0,3,5`` or a mix of the two, as a sorted list of seeds."""
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str, rel: str) -> str:
    """The sha256 of a file, without the fields that change from run to run."""
    with open(path, "rb") as fh:
        return sha256(canonical(fh.read(), rel))


def dump_all_prompts(work: str) -> None:
    from mobanom import cli
    from mobanom.llm.prompts import MODES, TEMPLATE_VERSIONS

    for mode in MODES:
        for template in TEMPLATE_VERSIONS:
            argv = ["--out-dir", os.path.join(work, "prompts", f"{mode}-{template}"), "dump-prompts",
                    "--in", os.path.join(work, "out", "inject"), "--mode", mode, "--template", template]
            if cli.main(argv) != 0:
                raise SystemExit(f"mobanom {' '.join(argv)} failed")


def digests(workloads, name: str, seed: int, work: str, prompts: bool):
    """(relative path, sha256) of every artifact of one workload run, in path order."""
    workload = workloads.WORKLOADS[name]
    with contextlib.redirect_stdout(sys.stderr):  # `eval` prints its report; stdout holds only the digests
        outcome = workload.timed(workload.setup(seed, work))
        if prompts:
            dump_all_prompts(work)
    found = {}
    for table in outcome.tables:
        found[f"<tables>/{table.detector}.jsonl"] = sha256(table.to_jsonl().encode())
        found[f"<tables>/{table.detector}.omitted.json"] = sha256(json.dumps(table.omitted, sort_keys=True).encode())
    found["<report_rows>.json"] = sha256(json.dumps(outcome.report_rows, sort_keys=True).encode())
    for directory, _, names in os.walk(work):
        for file_name in names:
            path = os.path.join(directory, file_name)
            rel = os.path.relpath(path, work)
            found[rel] = file_digest(path, rel)
    return sorted(found.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, help="scratch directory; emptied first")
    parser.add_argument("--workload", action="append", help="a perfbench workload (repeatable; default: all)")
    parser.add_argument("--seeds", default="0", type=parse_seeds, help="input seeds, such as 0-9 or 0,3 (default 0)")
    parser.add_argument("--prompts", action="store_true", help="also digest dump-prompts on the city_s inject output")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.prompts and "city_s" not in names:
        parser.error("--prompts digests the city_s inject output: list the city_s workload too")
    shutil.rmtree(args.work, ignore_errors=True)
    for name in names:
        for seed in args.seeds:
            work = os.path.join(os.path.abspath(args.work), f"{name}-seed{seed}")
            os.makedirs(work)
            for rel, digest in digests(workloads, name, seed, work, args.prompts and name == "city_s"):
                print(json.dumps({"workload": name, "seed": seed, "path": rel, "sha256": digest}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
