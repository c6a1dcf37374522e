import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobanom.core import ConfigError, InvalidInputError, LabelEntry, LabelSet, UndefinedMetricError, atomic_write
from mobanom.evaluation import ScoreTable, _binary_arrays, average_precision, check_ks, make_report, roc_auc, top_k_hits


def labels_from(flags: dict) -> LabelSet:
    return LabelSet(
        entries={
            a: LabelEntry(bool(f), "imposter" if f else "none", 0 if f else None)
            for a, f in flags.items()
        }
    )


# Brute-force reference implementations (kept deliberately dumb).


def brute_force_ap(scores: dict, flags: dict) -> float:
    ranked = sorted(scores, key=lambda a: (-scores[a], a))
    precisions = []
    for r, agent in enumerate(ranked, start=1):
        if flags[agent]:
            hits = sum(1 for x in ranked[:r] if flags[x])
            precisions.append(hits / r)
    return sum(precisions) / len(precisions)


def brute_force_auc(scores: dict, flags: dict) -> float:
    pos = [scores[a] for a in scores if flags[a]]
    neg = [scores[a] for a in scores if not flags[a]]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def midrank_loop_auc(scores: dict, labels: LabelSet) -> float:
    """``roc_auc`` as it was written before its midranks came from ``np.unique``: a loop over tie runs."""
    y, s = _binary_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


FINITE = {"allow_nan": False, "allow_infinity": False}
# few distinct values, so that ties (and -0.0 tied with 0.0) are common
tie_prone = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 1.0, -3.5, 5e-324]), st.floats(**FINITE))


@st.composite
def scored_labels(draw):
    """Scores and labels over the same agents, with at least one positive and one negative."""
    n = draw(st.integers(2, 40))
    scores = draw(st.lists(tie_prone, min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pos, neg = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    flags[pos], flags[neg] = True, False
    agents = [f"a{i:02d}" for i in range(n)]
    return dict(zip(agents, scores)), labels_from(dict(zip(agents, flags)))


class TestMetricProperties:
    @settings(max_examples=300, deadline=None)
    @given(scored_labels())
    def test_auc_is_bit_identical_to_the_loop(self, case):
        scores, labels = case
        assert struct.pack("<d", roc_auc(scores, labels)) == struct.pack("<d", midrank_loop_auc(scores, labels))

    @settings(max_examples=200, deadline=None)
    @given(scored_labels(), st.data())
    def test_auc_is_unchanged_by_a_strictly_increasing_transform(self, case, data):
        scores, labels = case
        distinct = sorted(set(scores.values()))  # -0.0 and 0.0 are one value
        image = data.draw(st.sets(st.floats(**FINITE), min_size=len(distinct), max_size=len(distinct)))
        transform = dict(zip(distinct, sorted(image)))
        assert roc_auc({a: transform[s] for a, s in scores.items()}, labels) == roc_auc(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(scored_labels())
    def test_ap_lies_in_the_half_open_unit_interval(self, case):
        assert 0.0 < average_precision(*case) <= 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.text(),
        st.text(),
        st.dictionaries(st.text(), st.floats(**FINITE), min_size=1),
    )
    def test_score_file_round_trip(self, detector, phash, scores):
        table = ScoreTable(detector=detector, scores=scores, params_hash=phash)
        with tempfile.TemporaryDirectory() as d:
            first, again = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            atomic_write(first, table.to_jsonl())
            back = ScoreTable.read(first)
            atomic_write(again, back.to_jsonl())
            with open(first, "rb") as x, open(again, "rb") as y:
                assert x.read() == y.read()
        assert (back.detector, back.scores, back.params_hash) == (detector, scores, phash)
        assert ScoreTable.from_jsonl(table.to_jsonl()) == back


class TestTopK:
    def test_exhaustive_k(self):
        scores = {"a": 0.9, "b": 0.5, "c": 0.1}
        labels = labels_from({"a": 1, "b": 0, "c": 1})
        assert top_k_hits(scores, labels, 10) == 2

    def test_k1(self):
        scores = {"a": 0.9, "b": 0.5, "c": 0.1}
        labels = labels_from({"a": 1, "b": 0, "c": 1})
        assert top_k_hits(scores, labels, 1) == 1

    def test_tie_broken_by_id(self):
        scores = {"a": 0.5, "b": 0.5}
        labels = labels_from({"a": 0, "b": 1})
        assert top_k_hits(scores, labels, 1) == 0

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(0)
        scores = {f"a{i}": float(rng.choice([0.1, 0.5, 0.9])) for i in range(12)}
        labels = labels_from({a: int(rng.integers(2)) for a in scores})
        hits = [top_k_hits(scores, labels, k) for k in range(1, 13)]
        assert hits == sorted(hits)

    def test_missing_agent_never_retrieved(self):
        scores = {"a": 0.9}
        labels = labels_from({"a": 0, "b": 1})
        assert top_k_hits(scores, labels, 5) == 0


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.2, "d": 0.1}
        labels = labels_from({"a": 1, "b": 1, "c": 0, "d": 0})
        assert average_precision(scores, labels) == 1.0

    def test_hand_example(self):
        scores = {"a": 0.9, "b": 0.7, "c": 0.5}
        labels = labels_from({"a": 1, "b": 0, "c": 1})
        assert average_precision(scores, labels) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)

    def test_all_positive(self):
        scores = {"a": 0.9, "b": 0.1}
        labels = labels_from({"a": 1, "b": 1})
        assert average_precision(scores, labels) == 1.0

    def test_zero_positives(self):
        scores = {"a": 0.9}
        labels = labels_from({"a": 0})
        with pytest.raises(UndefinedMetricError):
            average_precision(scores, labels)


class TestRocAuc:
    def test_perfect(self):
        scores = {"a": 0.9, "b": 0.8, "c": 0.2}
        labels = labels_from({"a": 1, "b": 1, "c": 0})
        assert roc_auc(scores, labels) == 1.0

    def test_inverted(self):
        scores = {"a": 0.1, "b": 0.9}
        labels = labels_from({"a": 1, "b": 0})
        assert roc_auc(scores, labels) == 0.0

    def test_tie_hand_example(self):
        scores = {"a": 0.8, "b": 0.5, "c": 0.5, "d": 0.2}
        labels = labels_from({"a": 1, "b": 1, "c": 0, "d": 0})
        assert roc_auc(scores, labels) == pytest.approx(0.875, abs=1e-12)

    def test_single_class(self):
        scores = {"a": 0.9, "b": 0.1}
        labels = labels_from({"a": 1, "b": 1})
        with pytest.raises(UndefinedMetricError):
            roc_auc(scores, labels)


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = np.random.default_rng(42)
        grid = np.arange(0.0, 1.05, 0.05)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            agents = [f"a{i}" for i in range(n)]
            scores = {a: float(rng.choice(grid)) for a in agents}
            flags = {a: int(rng.integers(2)) for a in agents}
            if sum(flags.values()) == 0:
                flags[agents[0]] = 1
            labels = labels_from(flags)
            assert average_precision(scores, labels) == pytest.approx(
                brute_force_ap(scores, flags), abs=1e-9
            )
            if 0 < sum(flags.values()) < n:
                assert roc_auc(scores, labels) == pytest.approx(
                    brute_force_auc(scores, flags), abs=1e-9
                )

    def test_auc_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        grid = np.arange(0.0, 1.05, 0.05)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            agents = [f"a{i}" for i in range(n)]
            scores = {a: float(rng.choice(grid)) for a in agents}
            flags = {a: int(rng.integers(2)) for a in agents}
            if sum(flags.values()) in (0, n):
                flags[agents[0]] = 1
                flags[agents[-1]] = 0
            labels = labels_from(flags)
            base = roc_auc(scores, labels)
            for f in (lambda s: 2 * s, lambda s: s**3, lambda s: s + 10):
                transformed = {a: f(s) for a, s in scores.items()}
                assert roc_auc(transformed, labels) == base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        agents = [f"a{i}" for i in range(10)]
        scores = {a: float(rng.random()) for a in agents}
        flags = {a: int(rng.integers(2)) for a in agents}
        flags[agents[0]] = 1
        flags[agents[1]] = 0
        labels = labels_from(flags)
        shuffled = {a: scores[a] for a in reversed(agents)}
        assert roc_auc(shuffled, labels) == roc_auc(scores, labels)
        assert average_precision(shuffled, labels) == average_precision(scores, labels)


class TestReport:
    def test_single_row(self):
        table = ScoreTable(detector="ompad", scores={"a": 0.9, "b": 0.2})
        labels = labels_from({"a": 1, "b": 0})
        report = make_report([table], labels, ks=[10])
        assert len(report.rows) == 1
        assert report.rows[0].top_k_hits[10] == 1
        assert report.rows[0].ap == 1.0

    def test_omitted_counted(self):
        table = ScoreTable(detector="x", scores={"a": 0.9}, omitted={"b": "no windows"})
        labels = labels_from({"a": 1, "b": 0, "c": 0})
        report = make_report([table], labels, ks=[1])
        # b omitted explicitly, c missing from the table
        assert report.rows[0].omitted_agents == 2

    def test_undefined_rendered_as_dash(self):
        table = ScoreTable(detector="x", scores={"a": 0.9, "b": 0.2})
        labels = labels_from({"a": 0, "b": 0})
        report = make_report([table], labels, ks=[1])
        assert report.rows[0].ap is None
        text = report.to_text()
        assert "-" in text.splitlines()[2]

    def test_rendering_golden(self):
        tables = [
            ScoreTable(detector="ompad", scores={"a": 0.9, "b": 0.5, "c": 0.1}),
            ScoreTable(detector="monav_tt", scores={"a": 0.2, "b": 3.0, "c": 0.4}),
        ]
        labels = labels_from({"a": 1, "b": 0, "c": 0})
        report = make_report(tables, labels, ks=[1, 2])
        expected = (
            "Detector  Top-1 Hits  Top-2 Hits  AP score  AUC score  Agents  Outliers  Omitted\n"
            "--------  ----------  ----------  --------  ---------  ------  --------  -------\n"
            "ompad     1           1           1.0000    1.0000     3       1         0\n"
            "monav_tt  0           0           0.3333    0.0000     3       1         0\n"
        )
        assert report.to_text() == expected
        csv = report.to_csv()
        assert csv.splitlines()[0] == "detector,top_1_hits,top_2_hits,ap,auc,n_agents,n_outliers,omitted_agents"

    def test_a_k_listed_twice_is_refused(self):
        # was: a report whose header held top_1_hits twice
        table = ScoreTable(detector="ompad", scores={"a": 0.9, "b": 0.2})
        for check in (lambda: check_ks([2, 1, 2]), lambda: make_report([table], labels_from({"a": 1, "b": 0}), [1, 1])):
            with pytest.raises(ConfigError, match=r"^K \d is listed twice$"):
                check()

    def test_scores_jsonl_round_trip(self):
        table = ScoreTable(detector="ompad", scores={"a": 0.25, "b": 1.5}, params_hash="abc")
        again = ScoreTable.from_jsonl(table.to_jsonl())
        assert again.scores == table.scores
        assert again.detector == "ompad"
        assert again.params_hash == "abc"

    @pytest.mark.parametrize("score", [float("inf"), float("nan")])
    def test_a_non_finite_score_is_invalid_input(self, score):
        # was a ValueError, which the CLI does not catch: it ended in a traceback
        with pytest.raises(InvalidInputError, match="non-finite score for 'a'"):
            ScoreTable(detector="x", scores={"a": score})

    def test_a_non_finite_score_read_from_a_file_is_the_same_invalid_input(self, tmp_path):
        # was: CorruptInputError `scores.jsonl:1: ValueError: non-finite score nan`, a second statement of the rule
        path = tmp_path / "scores.jsonl"
        path.write_text('{"agent_id":"a","score":NaN}\n')
        with pytest.raises(InvalidInputError) as info:
            ScoreTable.read(str(path))
        assert str(info.value) == f"{path}:1: non-finite score for 'a': nan"

    def test_scores_reject_a_repeated_agent_id(self, tmp_path):
        text = '{"agent_id":"a","score":0.5}\n{"agent_id":"b","score":0.1}\n{"agent_id":"a","score":0.9}\n'
        with pytest.raises(InvalidInputError, match="<scores>:3: duplicate agent_id 'a'"):
            ScoreTable.from_jsonl(text)
        path = tmp_path / "scores.jsonl"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f"{path}:3: duplicate agent_id 'a'"):
            ScoreTable.read(str(path))
