"""Ranking metrics (Top-K hits, average precision, ROC AUC) and report tables.

All metrics consume a :class:`ScoreTable` (higher score = more anomalous) and a
:class:`~mobanom.core.LabelSet`.  Ordering is deterministic: score descending,
ties broken by ascending agent id.  Agents present in the labels but omitted by
a detector are excluded from AP/AUC denominators (and can never be retrieved by
Top-K); the omission count is surfaced in the report rather than silently
rewarding a detector that refuses to score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ConfigError, InvalidInputError, LabelSet, UndefinedMetricError, _check_types, _dumps,
                   _one_line_per_agent, params_hash, parse_jsonl, read_jsonl)

__all__ = [
    "ScoreTable",
    "EvalReport",
    "ReportRow",
    "top_k_hits",
    "average_precision",
    "roc_auc",
    "make_report",
    "params_hash",
]


@dataclass
class ScoreTable:
    """Per-agent anomaly scores from one detector (higher = more anomalous)."""

    detector: str
    scores: dict[str, float] = field(default_factory=dict)
    params_hash: str = ""
    omitted: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for agent_id, s in self.scores.items():
            if not np.isfinite(s):
                raise InvalidInputError(f"non-finite score for {agent_id!r}: {s!r}")

    def to_jsonl(self) -> str:
        rows = ({"agent_id": a, "score": self.scores[a], "method": self.detector, "params_hash": self.params_hash}
                for a in sorted(self.scores))
        return "".join(_dumps(row) + "\n" for row in rows)

    @classmethod
    def from_jsonl(cls, text: str) -> "ScoreTable":
        """The table that :meth:`to_jsonl` wrote as ``text``; a fault or a repeated agent names ``<scores>:line``."""
        return cls._from_rows(lambda record: parse_jsonl(text.splitlines(), record, "<scores>"))

    @classmethod
    def read(cls, path: str) -> "ScoreTable":
        """The score file at ``path``; a fault or a repeated agent names ``path:line``."""
        return cls._from_rows(lambda record: read_jsonl(path, record))

    @classmethod
    def _from_rows(cls, parse) -> "ScoreTable":
        """The table of the rows ``parse(record)`` reads; rows that name a method or params_hash all name the same."""
        names: dict[str, str] = {}

        def row(obj: dict) -> tuple[str, float]:
            _check_types(obj)
            score = float(obj["score"])
            if not math.isfinite(score):
                raise ValueError(f"non-finite score {score!r}")
            for k in ("method", "params_hash"):
                if k in obj and names.setdefault(k, obj[k]) != obj[k]:
                    raise InvalidInputError(f"{k} {obj[k]!r} differs from an earlier line's {names[k]!r}")
            return obj["agent_id"], score

        rows = parse(_one_line_per_agent(row))
        return cls(names.get("method", ""), dict(rows), names.get("params_hash", ""))


def _ranked_agents(scores: dict[str, float]) -> list[str]:
    # score descending, then agent id ascending
    return sorted(scores, key=lambda a: (-scores[a], a))


def check_ks(ks: list[int]) -> None:
    """ConfigError unless ``ks`` names at least one K and every K is >= 1."""
    if not ks:
        raise ConfigError("make_report needs at least one score table and one K")
    for k in ks:
        if k < 1:
            raise ConfigError(f"K must be >= 1, got {k}")


def top_k_hits(scores: ScoreTable | dict[str, float], labels: LabelSet, k: int) -> int:
    """Number of labeled outliers among the K highest-scored agents."""
    check_ks([k])
    table = scores.scores if isinstance(scores, ScoreTable) else scores
    ranked = _ranked_agents(table)
    hits = 0
    for agent_id in ranked[:k]:
        e = labels.entries.get(agent_id)
        if e is not None and e.is_outlier:
            hits += 1
    return hits


def _binary_arrays(scores, labels: LabelSet):
    table = scores.scores if isinstance(scores, ScoreTable) else scores
    agents = [a for a in _ranked_agents(table) if a in labels.entries]
    y = np.array([1 if labels.entries[a].is_outlier else 0 for a in agents], dtype=np.int64)
    s = np.array([table[a] for a in agents], dtype=np.float64)
    return agents, y, s


def average_precision(scores: ScoreTable | dict[str, float], labels: LabelSet) -> float:
    """Mean of precision evaluated at each true outlier's rank."""
    _, y, _ = _binary_arrays(scores, labels)
    n_pos = int(y.sum())
    if len(y) == 0 or n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one scored positive")
    hits = np.cumsum(y)
    ranks = np.arange(1, len(y) + 1)
    return float(np.mean((hits / ranks)[y == 1]))


def roc_auc(scores: ScoreTable | dict[str, float], labels: LabelSet) -> float:
    """Mann-Whitney AUC: P(score(pos) > score(neg)), ties counted as 1/2.

    Computed from midranks, which makes it exactly invariant under any
    strictly increasing transform of the scores.
    """
    _, y, s = _binary_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    # tied scores (equal under ==, so NaN ties nothing) share their midrank: the mean of the tie's 1-based ranks
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts)
    ranks = (0.5 * (2 * last - counts - 1) + 1.0)[group]
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class ReportRow:
    detector: str
    top_k_hits: dict[int, int]
    ap: float | None
    auc: float | None
    n_agents: int
    n_outliers: int
    omitted_agents: int


@dataclass
class EvalReport:
    rows: list[ReportRow]
    ks: list[int]

    def _cells(self, digits: int) -> list[list[str]]:
        """Each row's cells, AP and AUC to ``digits`` decimals or ``-`` when undefined."""
        return [[r.detector, *(str(r.top_k_hits[k]) for k in self.ks),
                 *("-" if m is None else f"{m:.{digits}f}" for m in (r.ap, r.auc)),
                 str(r.n_agents), str(r.n_outliers), str(r.omitted_agents)] for r in self.rows]

    def to_text(self) -> str:
        headers = ["Detector"] + [f"Top-{k} Hits" for k in self.ks] + [
            "AP score",
            "AUC score",
            "Agents",
            "Outliers",
            "Omitted",
        ]
        body = self._cells(4)
        widths = [max(len(cell) for cell in column) for column in zip(headers, *body)]
        rows = [headers, ["-" * w for w in widths], *body]
        return "".join("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n" for row in rows)

    def to_csv(self) -> str:
        headers = ["detector"] + [f"top_{k}_hits" for k in self.ks] + [
            "ap",
            "auc",
            "n_agents",
            "n_outliers",
            "omitted_agents",
        ]
        return "".join(",".join(row) + "\n" for row in [headers, *self._cells(6)])


DEFAULT_KS = (10, 25, 100)  # the Top-K cut-offs of a report whose run sets no top_k


def make_report(
    score_tables: list[ScoreTable],
    labels: LabelSet,
    ks: list[int],
) -> EvalReport:
    """One report row per ScoreTable; undefined metrics render as ``-``."""
    if not score_tables:
        raise ConfigError("make_report needs at least one score table and one K")
    check_ks(ks)
    rows = []
    for table in score_tables:
        labeled = set(labels.entries)
        scored = set(table.scores)
        omitted = len((labeled - scored) | set(table.omitted))
        try:
            ap = average_precision(table.scores, labels)
        except UndefinedMetricError:
            ap = None
        try:
            auc = roc_auc(table.scores, labels)
        except UndefinedMetricError:
            auc = None
        rows.append(
            ReportRow(
                detector=table.detector,
                top_k_hits={k: top_k_hits(table.scores, labels, k) for k in ks},
                ap=ap,
                auc=auc,
                n_agents=len(scored),
                n_outliers=labels.n_outliers(),
                omitted_agents=omitted,
            )
        )
    return EvalReport(rows=rows, ks=list(ks))
