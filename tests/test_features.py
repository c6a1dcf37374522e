import numpy as np
import pytest

from conftest import from_stays
from mobanom.core import ConfigError, Dataset, GeoPoint, InvalidInputError, LabelEntry, LabelSet, StayPoint
from mobanom.detectors import SplitSpec, build_windows, bucket_windows

DAY = 86400


def sp(arrive, place_type="Pub", lat=10.0, lon=20.0, dwell=600):
    return StayPoint(arrive=arrive, depart=arrive + dwell, place_id=place_type.lower(),
                     place_type=place_type, location=GeoPoint(lat, lon))


def traj(agent_id, arrivals, types=None):
    types = types or ["Pub"] * len(arrivals)
    return from_stays(agent_id, [sp(a, t) for a, t in zip(arrivals, types)])


class TestSplitSpec:
    def test_outlier_uses_deviate_index(self):
        ds = Dataset(trajectories=[traj("a", [0, DAY, 2 * DAY])])
        labels = LabelSet(entries={"a": LabelEntry(True, "imposter", 2)})
        split = SplitSpec.from_labels(ds, labels, fallback_fraction=0.5)
        assert split.split_index["a"] == 2

    def test_a_deviate_index_past_the_last_stay_is_rejected(self):
        # was taken as it was: the detectors found no test windows, while hint prompts marked the last stay
        ds = Dataset(trajectories=[traj("a", [0, DAY, 2 * DAY])])
        for index in (3, 1000):
            labels = LabelSet(entries={"a": LabelEntry(True, "imposter", index)})
            with pytest.raises(InvalidInputError, match=f"'a' deviates at stay {index}, but it has 3 stays"):
                SplitSpec.from_labels(ds, labels, fallback_fraction=0.5)

    def test_fallback_fraction(self):
        ds = Dataset(trajectories=[traj("a", [1000 * i for i in range(10)])])
        labels = LabelSet(entries={"a": LabelEntry(False)})
        split = SplitSpec.from_labels(ds, labels, fallback_fraction=0.8)
        assert split.split_index["a"] == 8

    def test_fallback_time(self):
        ds = Dataset(trajectories=[traj("a", [0, 1000, 2000, 3000])])
        labels = LabelSet(entries={"a": LabelEntry(False)})
        split = SplitSpec.from_labels(ds, labels, fallback_time=1500)
        assert split.split_index["a"] == 2

    def test_fallback_time_equal_to_an_arrival_puts_that_stay_on_the_test_side(self):
        ds = Dataset(trajectories=[traj("a", [0, 1000, 2000, 3000])])
        labels = LabelSet(entries={"a": LabelEntry(False)})
        for time, idx in ((-1, 0), (0, 0), (1000, 1), (1001, 2), (3000, 3), (3001, 4)):
            assert SplitSpec.from_labels(ds, labels, fallback_time=time).split_index["a"] == idx

    def test_meta_onset_time_used(self):
        ds = Dataset(trajectories=[traj("a", [0, 1000, 2000])], meta={"onset_time": 1000})
        labels = LabelSet(entries={"a": LabelEntry(False)})
        split = SplitSpec.from_labels(ds, labels)
        assert split.split_index["a"] == 1

    def test_meta_switch_fraction_used(self):
        ds = Dataset(trajectories=[traj("a", [1000 * i for i in range(10)])], meta={"switch_fraction": 0.8})
        labels = LabelSet(entries={"a": LabelEntry(False)})
        split = SplitSpec.from_labels(ds, labels)
        assert split.split_index["a"] == 8

    def test_no_fallback_available(self):
        ds = Dataset(trajectories=[traj("a", [0])])
        with pytest.raises(ConfigError):
            SplitSpec.from_labels(ds, LabelSet(entries={"a": LabelEntry(False)}))

    def test_no_fallback_is_needed_when_every_agent_is_a_labelled_outlier(self):
        # was: ConfigError("no split fallback ...") although no agent would take the fallback
        ds = Dataset(trajectories=[traj("a", [0, DAY, 2 * DAY])])
        split = SplitSpec.from_labels(ds, LabelSet(entries={"a": LabelEntry(True, "imposter", 2)}))
        assert split.split_index == {"a": 2}

    @pytest.mark.parametrize("b_label", [{}, {"b": LabelEntry(False)}])
    def test_no_fallback_is_refused_once_an_agent_needs_it(self, b_label):
        ds = Dataset(trajectories=[traj("a", [0, DAY, 2 * DAY]), traj("b", [0, DAY])])
        labels = LabelSet(entries={"a": LabelEntry(True, "imposter", 2), **b_label})
        with pytest.raises(ConfigError, match="^no split fallback: pass fallback_fraction/fallback_time or use a "
                                              "dataset whose meta carries onset_time or switch_fraction$"):
            SplitSpec.from_labels(ds, labels)

    def test_both_fallbacks_are_rejected(self):
        # was: the time split every agent that is not a labelled outlier, and the fraction was ignored
        ds = Dataset(trajectories=[traj("a", [1000 * i for i in range(10)])])
        with pytest.raises(ConfigError, match="fallback_fraction and fallback_time are both set: 0.5, 150"):
            SplitSpec.from_labels(ds, LabelSet(entries={"a": LabelEntry(False)}), fallback_fraction=0.5, fallback_time=150)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.1, 1.5])
    def test_fallback_fraction_outside_0_1_rejected(self, fraction):
        # were: nan a ValueError, 1.5 a split past the end that left every test side empty
        ds = Dataset(trajectories=[traj("a", [1000 * i for i in range(10)])])
        with pytest.raises(ConfigError, match="fallback_fraction"):
            SplitSpec.from_labels(ds, LabelSet(entries={"a": LabelEntry(False)}), fallback_fraction=fraction)

    @pytest.mark.parametrize("fraction, index", [(0.0, 0), (1.0, 10)])
    def test_fallback_fraction_bounds_accepted(self, fraction, index):
        ds = Dataset(trajectories=[traj("a", [1000 * i for i in range(10)])])
        split = SplitSpec.from_labels(ds, LabelSet(entries={"a": LabelEntry(False)}), fallback_fraction=fraction)
        assert split.split_index["a"] == index

    def test_train_count_is_every_stay_of_an_agent_the_split_does_not_name(self):
        named, unnamed = traj("a", [0, 1000, 2000]), traj("b", [0, 1000])
        split = SplitSpec(split_index={"a": 1})
        assert (split.train_count(named), split.train_count(unnamed)) == (1, 2)


class TestBuildWindows:
    def test_two_weeks_make_two_windows(self):
        arrivals = [i * DAY for i in range(14)]
        ds = Dataset(trajectories=[traj("a", arrivals)])
        split = SplitSpec(split_index={"a": 14})
        feat = build_windows(ds, split, window_days=7.0, L=64)
        assert len(feat.train["a"]) == 2
        assert "a" not in feat.test

    def test_cut_at_split_boundary(self):
        arrivals = [i * DAY for i in range(7)]
        ds = Dataset(trajectories=[traj("a", arrivals)])
        split = SplitSpec(split_index={"a": 4})  # cuts inside the single bucket
        feat = build_windows(ds, split, window_days=7.0, L=64)
        assert len(feat.train["a"]) == 1
        assert len(feat.test["a"]) == 1
        assert feat.train["a"].counts.sum() == 4
        assert feat.test["a"].counts.sum() == 3

    def test_padding_dimension(self):
        ds = Dataset(trajectories=[traj("a", [0, 3600, 7200])])
        split = SplitSpec(split_index={"a": 3})
        feat = build_windows(ds, split, window_days=7.0, L=64)
        width = len(feat.vocab) + 3
        rows = feat.train["a"].vecs[0].reshape(64, width)
        assert np.count_nonzero(rows.any(axis=1)) == 3  # 61 zero rows of padding
        assert feat.dim == 64 * width

    def test_unknown_bucket_for_unseen_test_type(self):
        arrivals = [0, 3600, 7200, 3 * 3600]
        types = ["Pub", "Apartment", "Pub", "Restaurant"]
        ds = Dataset(trajectories=[traj("a", arrivals, types)])
        split = SplitSpec(split_index={"a": 3})  # Restaurant only on the test side
        feat = build_windows(ds, split, window_days=7.0, L=8)
        assert feat.vocab == ["Apartment", "Pub", "Unknown"]
        rows = feat.test["a"].vecs[0].reshape(8, len(feat.vocab) + 3)
        assert rows[0, feat.vocab.index("Unknown")] == 1.0

    def test_empty_train_marked_ineligible(self):
        ds = Dataset(trajectories=[traj("a", [0, 3600])])
        split = SplitSpec(split_index={"a": 0})
        feat = build_windows(ds, split, window_days=7.0, L=8)
        assert "a" in feat.ineligible
        assert "a" not in feat.train

    def test_truncation_at_L(self):
        arrivals = [i * 600 for i in range(100)]
        ds = Dataset(trajectories=[traj("a", arrivals)])
        split = SplitSpec(split_index={"a": 100})
        feat = build_windows(ds, split, window_days=7.0, L=16)
        rows = feat.train["a"].vecs[0].reshape(16, len(feat.vocab) + 3)
        assert np.count_nonzero(rows.any(axis=1)) == 16

    def test_window_time_spans_disjoint(self):
        arrivals = [i * DAY // 2 for i in range(28)]
        ds = Dataset(trajectories=[traj("a", arrivals)])
        split = SplitSpec(split_index={"a": 20})
        windows = bucket_windows(ds.trajectories[0], split.split_index["a"], 7 * DAY)
        points = ds.trajectories[0].points
        spans = sorted((points[rows[0]].arrive, points[rows[-1]].depart) for _, rows in windows)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        assert sorted(np.concatenate([rows for _, rows in windows]).tolist()) == list(range(28))
