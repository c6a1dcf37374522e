import dataclasses
import json
import os

import pytest

from conftest import from_stays, read_golden
from mobanom.cli import main
from mobanom.core import ConfigError, Dataset, GeoPoint, InvalidInputError, LabelEntry, LabelSet, PartialParseError
from mobanom.core import ScoreParseError, StayPoint, write_dataset, write_labels
from mobanom.detectors import SplitSpec
from mobanom.llm import build_bundles, parse_combine_scores, parse_separate_score
from mobanom.llm.prompts import DEVIATE_MARKER, MODES, TEMPLATE_VERSIONS, _sequence, _stay_labels, normalize_mode


def mini_traj(agent_id="a1"):
    # Sat 10:36 Pub -> Sat 10:57 Apartment, 0.4 km apart along the equator
    p1 = StayPoint(1704537360, 1704537360, "pub", "Pub", GeoPoint(0.0, 0.0))
    p2 = StayPoint(1704538620, 1704538620, "apt", "Apartment", GeoPoint(0.0, 0.0035967))
    return from_stays(agent_id, [p1, p2])


def render(t, deviate_index=None):
    return _sequence(_stay_labels(t), deviate_index)


def only_prompt(mode, trajectories, template_version="paper-v1", split=None):
    """The one prompt that ``build_bundles`` composes for ``trajectories``, unlabeled, split by ``split``."""
    (bundle,) = build_bundles(Dataset(trajectories), LabelSet(), mode, template_version, split)
    return bundle


class TestRenderSequence:
    def test_two_points(self):
        assert render(mini_traj()) == "Sat 10:36, Pub, 0.4 km ->Sat 10:57, Apartment"

    def test_single_point(self):
        t = from_stays("a", [StayPoint(1705451400, 1705451400, "apt", "Apartment", GeoPoint(0, 0))])
        assert render(t) == "Wed 00:30, Apartment"

    def test_marker_placement(self):
        t = mini_traj()
        out = render(t, deviate_index=0)
        assert out == f"Sat 10:36, Pub {DEVIATE_MARKER} , 0.4 km ->Sat 10:57, Apartment"
        assert out.count(DEVIATE_MARKER) == 1

    def test_marker_on_final_point(self):
        out = render(mini_traj(), deviate_index=1)
        assert out.endswith(f"Apartment {DEVIATE_MARKER}")

    def test_separator_counts(self):
        t = mini_traj()
        out = render(t)
        assert out.count(" ->") == len(t.points) - 1
        assert out.count(" km") == len(t.points) - 1

    @pytest.mark.parametrize("deviate_index", [99, -1])
    def test_marker_out_of_range(self, deviate_index):
        with pytest.raises(InvalidInputError, match=f"^deviate_index {deviate_index} out of range$"):
            render(mini_traj(), deviate_index=deviate_index)


def dumped_prompt(tmp_path, mode, trajectories, template_version, deviate):
    """The text and agent ids of the one prompt that ``dump-prompts`` writes for ``trajectories``, each an outlier
    that deviates at its ``deviate`` index."""
    data, out = tmp_path / "data", tmp_path / "prompts"
    data.mkdir()
    # no sidecar: every agent is an outlier, so no split fallback is needed
    write_dataset(Dataset(trajectories), str(data / "dataset.jsonl"))
    write_labels(LabelSet({t.agent_id: LabelEntry(True, "imposter", deviate[t.agent_id]) for t in trajectories}),
                 str(data / "labels.jsonl"))
    argv = ["--out-dir", str(out), "dump-prompts", "--in", str(data), "--mode", mode, "--template", template_version]
    assert main(argv) == 0
    assert sorted(os.listdir(out)) == ["prompt_0000.txt", "prompts_index.jsonl"]
    with open(out / "prompt_0000.txt", "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    (line,) = (out / "prompts_index.jsonl").read_text(encoding="utf-8").splitlines()
    return text, json.loads(line)["agent_ids"]


class TestBuildBundles:
    @pytest.mark.parametrize("path", ["build_bundles", "dump-prompts"])
    @pytest.mark.parametrize("template_version", TEMPLATE_VERSIONS)
    @pytest.mark.parametrize("mode", MODES)
    def test_golden(self, fixture_trajectory, tmp_path, mode, template_version, path):
        # combine modes render the fixture and a renamed copy, so that a "user 2" line appears
        trajectories = [fixture_trajectory]
        if mode.startswith("combine"):
            trajectories.append(dataclasses.replace(fixture_trajectory, agent_id="fixture02"))
        deviate = {"fixture01": 16, "fixture02": 3}
        if path == "build_bundles":
            bundle = only_prompt(mode, trajectories, template_version, SplitSpec(deviate))
            text, agent_ids = bundle.text, bundle.agent_ids
        else:
            text, agent_ids = dumped_prompt(tmp_path, mode, trajectories, template_version, deviate)
        assert text == read_golden(f"prompt_{mode}_{template_version}.txt")
        assert agent_ids == [t.agent_id for t in trajectories]

    def test_combine_hint_block_and_marker_counts(self):
        trajectories = [mini_traj(f"a{i}") for i in range(3)]
        bundle = only_prompt("combine-hint", trajectories, split=SplitSpec({f"a{i}": 0 for i in range(3)}))
        assert bundle.text.count("Here is the sequence of user") == 3
        assert bundle.text.count(DEVIATE_MARKER) == 4  # three markers + one in the hint text
        assert "a set of 3 users'" in bundle.text

    def test_combine_numbering(self):
        bundle = only_prompt("combine", [mini_traj(f"a{i}") for i in range(2)])
        assert "Here is the sequence of user 1: " in bundle.text
        assert "Here is the sequence of user 2: " in bundle.text
        assert bundle.agent_ids == ["a0", "a1"]

    def test_byte_determinism(self, fixture_trajectory):
        a = only_prompt("separate", [fixture_trajectory]).text
        b = only_prompt("separate", [fixture_trajectory]).text
        assert a == b

    def test_clean_template_differs(self, fixture_trajectory):
        paper = only_prompt("separate", [fixture_trajectory], template_version="paper-v1")
        clean = only_prompt("separate", [fixture_trajectory], template_version="clean-v1")
        assert paper.text != clean.text
        assert "esimated" not in clean.text
        assert "trajector:" not in clean.text

    def test_unknown_template(self, fixture_trajectory):
        with pytest.raises(ConfigError):
            only_prompt("separate", [fixture_trajectory], template_version="v99")

    def test_mode_aliases(self):
        assert normalize_mode("Separate-With-Hint") == "separate_hint"
        assert normalize_mode("combine") == "combine"
        with pytest.raises(ConfigError):
            normalize_mode("both")

    def test_mode_spellings_are_the_old_alias_table(self):
        # normalize_mode once looked each spelling up in this table; it now rewrites a hint suffix and checks MODES
        table = {"separate": "separate", "separatewithhint": "separate_hint", "separate_with_hint": "separate_hint",
                 "separate_hint": "separate_hint", "combine": "combine", "combinewithhint": "combine_hint",
                 "combine_with_hint": "combine_hint", "combine_hint": "combine_hint"}
        stems = ["separate", "combine", "", "hint", "separate_"]
        suffixes = ["", "hint", "_hint", "__hint", "withhint", "_withhint", "with_hint", "_with_hint", "_with_hint_"]
        for spelling in (stem + suffix for stem in stems for suffix in suffixes):
            for written in (spelling, f" {spelling.upper().replace('_', '-')} "):
                try:
                    got = normalize_mode(written)
                except ConfigError:
                    got = None
                assert got == table.get(spelling), written


class TestParseSeparate:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("transcript_01.txt", 0.85),
            ("transcript_02.txt", 0.65),
            ("transcript_03.txt", 0.9),
            ("transcript_04.txt", 0.7),
        ],
    )
    def test_reference_transcripts(self, name, expected):
        assert parse_separate_score(read_golden("transcripts", name)) == expected

    def test_no_brackets(self):
        with pytest.raises(ScoreParseError):
            parse_separate_score("no brackets here")

    def test_non_numeric_brackets_rejected(self):
        with pytest.raises(ScoreParseError):
            parse_separate_score("score [high] maybe [unknown]")

    def test_last_match_wins(self):
        assert parse_separate_score("first guess [0.3], final answer [0.8].") == 0.8

    def test_out_of_range_ignored(self):
        assert parse_separate_score("[7] items; score [0.4]") == 0.4

    def test_round_trip_one_decimal(self):
        for i in range(11):
            s = i / 10.0
            assert parse_separate_score(f"the answer is [{s:.1f}]") == s

    def test_error_carries_raw_text(self):
        with pytest.raises(ScoreParseError) as exc_info:
            parse_separate_score("nothing")
        assert exc_info.value.raw_text == "nothing"


class TestParseCombine:
    def test_bracketed_lines(self):
        out = parse_combine_scores("user 1: [0.2]\nuser 2: [0.9]", ["a1", "a2"])
        assert out == {"a1": 0.2, "a2": 0.9}

    def test_bare_decimals(self):
        out = parse_combine_scores("user 1: 0.35\nuser 2: 0.10", ["a1", "a2"])
        assert out == {"a1": 0.35, "a2": 0.10}

    def test_case_insensitive_and_prose(self):
        out = parse_combine_scores("User 1 seems odd, I'd say [0.7]\nUSER 2: [0.1]", ["a1", "a2"])
        assert out == {"a1": 0.7, "a2": 0.1}

    def test_missing_user_raises_partial(self):
        with pytest.raises(PartialParseError) as exc_info:
            parse_combine_scores("User 2 looks fine [0.7]", ["a1", "a2"])
        assert exc_info.value.resolved == {"a2": 0.7}
        assert exc_info.value.unresolved == ["a1"]

    def test_duplicate_user_raises(self):
        with pytest.raises(PartialParseError):
            parse_combine_scores("user 1: [0.2]\nuser 1: [0.3]\nuser 2: [0.9]", ["a1", "a2"])

    def test_out_of_range_user_raises(self):
        with pytest.raises(PartialParseError):
            parse_combine_scores("user 1: [0.2]\nuser 5: [0.9]", ["a1"])
