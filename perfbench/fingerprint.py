"""Quality fingerprint: the benchmark's correctness check.

For every detector a run produces, the benchmark computes Top-K hits, AP and
AUC itself from the score table and the labels (a pairwise AUC and a direct AP,
independent of ``mobanom.evaluation``), and the sha256 of the score file.
A run is correct when

* the program's own report agrees with these numbers (Top-K exactly, AP and
  AUC to the report's precision);
* every ``llm_*`` detector reaches AP = AUC = 1: the ``mock-oracle`` endpoint
  answers from the labels, so anything less is a rendering, caching or
  parsing defect;
* for seeds with a committed reference in ``fingerprint.json``, Top-K matches
  it exactly and AP and AUC are within ``TOLERANCE``.

Score sha256 values are recorded with the reference but not required to
match, so a rewrite that moves only last-digit rounding still passes.
Detectors whose scores are all equal are reported, not hidden.

Run as a script to record references::

    python3 perfbench/fingerprint.py --workload traod_town --seeds 0-9
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "fingerprint.json")
TOLERANCE = 1e-9


def _ranked(scores: dict[str, float]) -> list[str]:
    return sorted(scores, key=lambda a: (-scores[a], a))


def measure(table, labels, ks) -> dict:
    """Top-K hits, AP, AUC, score sha256 and constancy of one score table."""
    scores = {a: s for a, s in table.scores.items() if a in labels.entries}
    positive = {a for a, e in labels.entries.items() if e.is_outlier}
    ranked = _ranked(scores)
    ranked_all = _ranked(table.scores)  # Top-K ranks every scored agent, labelled or not
    top_k = {str(k): sum(1 for a in ranked_all[:k] if a in positive) for k in ks}
    hits, precisions = 0, []
    for rank, agent in enumerate(ranked, start=1):
        if agent in positive:
            hits += 1
            precisions.append(hits / rank)
    pos = [scores[a] for a in ranked if a in positive]
    neg = [scores[a] for a in ranked if a not in positive]
    auc = None
    if pos and neg:
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        auc = wins / (len(pos) * len(neg))
    return {
        "top_k": top_k,
        "ap": sum(precisions) / len(precisions) if precisions else None,
        "auc": auc,
        "sha256": hashlib.sha256(table.to_jsonl().encode("utf-8")).hexdigest(),
        "constant": len(set(table.scores.values())) <= 1,
    }


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def compare(got: dict[str, dict], want: dict[str, dict], tol: float, what: str) -> list[str]:
    """Differences between two {detector: quality} maps, one line each."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{what}: detectors {sorted(got)} != {sorted(want)}")
    for det in sorted(set(got) & set(want)):
        g, w = got[det], want[det]
        if g["top_k"] != w["top_k"]:
            problems.append(f"{what}: {det} top-k {g['top_k']} != {w['top_k']}")
        for key in ("ap", "auc"):
            if not _close(g[key], w[key], tol):
                problems.append(f"{what}: {det} {key} {g[key]!r} != {w[key]!r}")
    return problems


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, seed: int, quality: dict, report_rows: dict, report_digits: int | None) -> tuple[list[str], bool]:
    """(problems, whether a committed reference was compared)."""
    report_tol = TOLERANCE if report_digits is None else 0.5 * 10.0 ** -report_digits + TOLERANCE
    problems = compare(quality, report_rows, report_tol, "program report vs recomputed")
    for det, q in quality.items():
        if det.startswith("llm_") and (q["ap"] != 1.0 or q["auc"] != 1.0):
            problems.append(f"{det}: mock-oracle answers must rank perfectly, got AP {q['ap']} AUC {q['auc']}")
    want = load_reference().get(workload, {}).get(str(seed))
    if want is not None:
        problems += compare(quality, want, TOLERANCE, f"reference for seed {seed}")
    return problems, want is not None


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    from run import WORKLOAD_NAMES, run_rep

    parser = argparse.ArgumentParser(description="Record committed quality references.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,3,5-7")
    args = parser.parse_args(argv)
    reference = load_reference()
    for workload in args.workload:
        for seed in _seed_list(args.seeds):
            rep = run_rep(workload, seed, traced=False)
            if rep.get("error") or rep["problems"]:
                print(f"{workload} seed {seed}: not recorded: {rep.get('error') or rep['problems']}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = rep["quality"]
            print(f"{workload} seed {seed}: recorded {len(rep['quality'])} detectors")
            with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
