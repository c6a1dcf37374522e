from unittest import mock

import numpy as np
import pytest

from conftest import from_stays
from mobanom.core import ConfigError, Dataset, GeoPoint, StayPoint, TrainingDivergedError
from mobanom.detectors import (
    NetHyper,
    SplitSpec,
    TinyNet,
    build_windows,
    dae_score,
    dsvdd_score,
    nets,
    train_network,
)

from nets_oracle import gradient_check

DAY = 86400


class TestTinyNet:
    def test_deterministic_init(self):
        n1 = TinyNet([4, 2, 4], seed=3)
        n2 = TinyNet([4, 2, 4], seed=3)
        for w1, w2 in zip(n1.weights, n2.weights):
            assert np.array_equal(w1, w2)

    def test_init_bounds(self):
        net = TinyNet([16, 4], seed=0)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert np.all(np.abs(net.biases[0]) <= bound)

    def test_forward_shape(self):
        net = TinyNet([4, 2, 4], seed=0)
        out = net.forward(np.zeros((7, 4)))
        assert out.shape == (7, 4)


class TestGradients:
    def test_reconstruction_finite_differences(self):
        rng = np.random.default_rng(0)
        net = TinyNet([3, 2, 3], seed=1)
        x = rng.normal(size=(4, 3))
        assert gradient_check(net, x, "reconstruction") < 1e-4

    def test_svdd_finite_differences(self):
        rng = np.random.default_rng(1)
        net = TinyNet([3, 2, 2], seed=2)
        x = rng.normal(size=(4, 3))
        assert gradient_check(net, x, "svdd") < 1e-4

    def test_many_random_configs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            d_in = int(rng.integers(2, 5))
            hidden = int(rng.integers(1, 4))
            d_out = d_in if trial % 2 == 0 else int(rng.integers(1, 4))
            objective = "reconstruction" if trial % 2 == 0 else "svdd"
            net = TinyNet([d_in, hidden, d_out], seed=trial)
            x = rng.normal(size=(int(rng.integers(1, 6)), d_in))
            worst = max(worst, gradient_check(net, x, objective))
        assert worst < 1e-4

    def test_float32_net_is_refused(self):
        # central differences at eps = 1e-5 are noise in float32: the check would pass or fail by chance
        net = TinyNet([3, 2, 3], seed=1, dtype=np.float32)
        with pytest.raises(ConfigError, match="float64"):
            gradient_check(net, np.ones((4, 3)), "reconstruction")


class TestTraining:
    def test_autoencoder_converges_on_repeated_input(self):
        x = np.tile(np.array([[0.3, -0.2, 0.5, 0.1]]), (8, 1))
        net = TinyNet([4, 2, 4], seed=0)
        result = train_network(net, x, "reconstruction", NetHyper(learning_rate=0.01, epochs=500))
        recon = result.net.forward(x)
        assert float(np.mean((recon - x) ** 2)) < 1e-3

    def test_final_loss_leq_initial(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 6))
        net = TinyNet([6, 2, 6], seed=1)
        result = train_network(net, x, "reconstruction", NetHyper(epochs=300))
        assert result.losses[-1] <= result.losses[0]

    def test_svdd_degenerate_inputs(self):
        x = np.tile(np.array([[0.5, 0.5, 0.5]]), (6, 1))
        net = TinyNet([3, 2, 2], seed=0)
        result = train_network(net, x, "svdd", NetHyper(epochs=50))
        embed = result.net.forward(x)
        assert np.allclose(embed, result.center, atol=1e-10)
        assert result.losses[-1] < 1e-10

    def test_divergence_reported_with_epoch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3)) * 100
        net = TinyNet([3, 3, 3], seed=0)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_network(net, x, "reconstruction", NetHyper(learning_rate=1e9, epochs=50))
        assert exc_info.value.epoch >= 0


class TestGuards:
    """The public net API refuses what it cannot train, each with a ConfigError."""

    def test_a_net_needs_an_input_and_an_output_size(self):
        with pytest.raises(ConfigError, match="^need at least input and output layer sizes$"):
            TinyNet([4])

    def test_svdd_needs_a_center(self):
        with pytest.raises(ConfigError, match="^svdd objective needs a center$"):
            TinyNet([3, 2, 2]).loss_and_grads(np.ones((4, 3)), "svdd")

    def test_an_unknown_objective_is_refused(self):
        net = TinyNet([3, 2, 3])
        with pytest.raises(ConfigError, match="^unknown objective 'bogus'$"):
            net.loss_and_grads(np.ones((4, 3)), "bogus")
        with pytest.raises(ConfigError, match="^unknown objective 'bogus'$"):
            train_network(net, np.ones((4, 3)), "bogus", NetHyper(epochs=1))

    def test_an_empty_batch_is_refused(self):
        with pytest.raises(ConfigError, match="^empty training batch$"):
            train_network(TinyNet([3, 2, 3]), np.empty((0, 3)), "reconstruction", NetHyper())


@pytest.mark.parametrize(
    "bad, named",
    [({"epochs": 0}, "epochs"), ({"epochs": -3}, "epochs"), ({"embed_dim": 0}, "embed_dim"),
     ({"learning_rate": 0.0}, "learning_rate"), ({"learning_rate": -0.01}, "learning_rate"),
     ({"learning_rate": float("nan")}, "learning_rate"), ({"learning_rate": float("inf")}, "learning_rate")],
)
def test_settings_that_train_nothing_are_rejected(bad, named):
    # were: epochs = -3 scored with untrained nets, embed_dim = 0 scored every agent 0.0
    with pytest.raises(ConfigError, match=named):
        NetHyper(**bad)


def pattern_dataset(n_agents=20, planted="a00"):
    """Each agent repeats one of three weekly place patterns; the planted agent's
    test side runs a type pattern nobody uses."""
    patterns = [
        ["Pub", "Apartment", "Pub", "Apartment"],
        ["Workplace", "Apartment", "Workplace", "Apartment"],
        ["Restaurant", "Apartment", "Restaurant", "Apartment"],
    ]
    anomaly = ["Pub", "Pub", "Pub", "Pub"]
    trajectories = []
    for i in range(n_agents):
        agent_id = f"a{i:02d}"
        pattern = patterns[i % 3]
        points = []
        for week in range(4):
            use = anomaly if (agent_id == planted and week >= 3) else pattern
            for k, place_type in enumerate(use):
                t0 = week * 7 * DAY + k * 7200
                points.append(
                    StayPoint(t0, t0 + 3600, f"{place_type.lower()}{k}", place_type,
                              GeoPoint(10.0 + (i % 3) * 0.05, 20.0 + k * 0.01))
                )
        trajectories.append(from_stays(agent_id, points))
    return Dataset(trajectories=trajectories)


def features(ds):
    split = SplitSpec(split_index={t.agent_id: 12 for t in ds.trajectories})  # 3 weeks train
    return build_windows(ds, split, window_days=7.0, L=8)


class TestOneClassScores:
    def test_identical_agents_equal_scores(self):
        ds = pattern_dataset(planted="nobody")
        # make all agents share one pattern so everything is symmetric
        base = ds.trajectories[0]
        clones = [from_stays(f"c{i}", list(base.points)) for i in range(6)]
        feat = features(Dataset(trajectories=clones))
        for scorer in (dae_score, dsvdd_score):
            table = scorer(feat, NetHyper(epochs=100))
            values = list(table.scores.values())
            assert max(values) - min(values) < 1e-9

    def test_planted_agent_ranks_first_dae(self):
        feat = features(pattern_dataset())
        table = dae_score(feat, NetHyper(epochs=300))
        ranked = sorted(table.scores, key=lambda a: -table.scores[a])
        assert ranked[0] == "a00"

    def test_planted_agent_ranks_first_dsvdd(self):
        feat = features(pattern_dataset())
        table = dsvdd_score(feat, NetHyper(epochs=300))
        ranked = sorted(table.scores, key=lambda a: -table.scores[a])
        assert ranked[0] == "a00"

    def test_duplicate_windows_score_below_median(self):
        ds = pattern_dataset(planted="nobody")  # everyone's test repeats training
        feat = features(ds)
        table = dae_score(feat, NetHyper(epochs=300))
        # with no anomaly, the score spread collapses toward the low end
        values = np.array(list(table.scores.values()))
        assert values.std() < np.median(values) + 1e-6

    def test_agent_order_invariance(self):
        ds = pattern_dataset()
        feat1 = features(ds)
        reversed_ds = Dataset(trajectories=list(reversed(ds.trajectories)))
        feat2 = features(reversed_ds)
        for scorer in (dae_score, dsvdd_score):
            t1 = scorer(feat1, NetHyper(epochs=100))
            t2 = scorer(feat2, NetHyper(epochs=100))
            assert t1.scores == t2.scores

    def test_per_agent_scope(self):
        feat = features(pattern_dataset())
        table = dae_score(feat, NetHyper(epochs=200), scope="per_agent")
        ranked = sorted(table.scores, key=lambda a: -table.scores[a])
        assert ranked[0] == "a00"

    def test_agents_without_test_windows_omitted(self):
        ds = pattern_dataset(planted="nobody")
        split = {t.agent_id: 12 for t in ds.trajectories}
        split["a01"] = 16  # everything trains, nothing to score
        feat = build_windows(ds, SplitSpec(split_index=split), window_days=7.0, L=8)
        table = dae_score(feat, NetHyper(epochs=50))
        assert "a01" in table.omitted
        assert "a01" not in table.scores

    @pytest.mark.parametrize("scope", ["population", "per_agent"])
    def test_scorers_train_float32_nets_on_float32_inputs(self, scope):
        feat = features(pattern_dataset(n_agents=4))
        handed = []

        def recording(net, inputs, objective, hyper):
            handed.append({a.dtype for a in net.weights + net.biases + [inputs]})
            return train_network(net, inputs, objective, hyper)

        with mock.patch.object(nets, "train_network", recording):
            for scorer in (dae_score, dsvdd_score):
                scorer(feat, NetHyper(epochs=2), scope=scope)
        assert handed and all(dtypes == {np.dtype(np.float32)} for dtypes in handed)
