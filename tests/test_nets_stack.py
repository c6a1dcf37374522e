"""Stacks of reduced nets against one net at a time (``nets_oracle``).

At both scopes, each stack gives the score table of its members trained alone by ``train_network``, bit for bit.
The reduced nets themselves are held to the full-width oracle by a stated tolerance.
"""

import json
import os
import subprocess
import sys
from unittest import mock

import nets_oracle as oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mobanom.core import TrainingDivergedError
from mobanom.detectors import (
    NetHyper, SplitSpec, TinyNet, Windows, WindowedFeatures, build_windows, dae_score, dsvdd_score, nets, train_network,
)
from mobanom.evaluation import ScoreTable, average_precision, roc_auc
from mobanom.inject import InjectConfig, inject_imposter
from mobanom.simulator import SimConfig, simulate

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def windows(vecs: np.ndarray, n_types: int) -> Windows:
    return Windows(vecs=vecs, counts=np.zeros((len(vecs), n_types), dtype=np.int64))


@st.composite
def stacked_features(draw):
    """(features, cap): agents whose training-row counts form several groups, one of them larger than ``cap`` and
    with fewer rows than columns, so that it stacks.

    Some agents have a single training window (so a zero std, floored and clipped),
    some have no test windows, and agent ids do not follow the groups.
    """
    L = draw(st.integers(1, 2))
    vocab = ["Unknown"] + [f"T{i}" for i in range(draw(st.integers(0, 2)))]
    d = L * (len(vocab) + 3)
    cap = draw(st.integers(1, 3))
    big = draw(st.integers(cap + 1, cap + 3))
    train_rows = [draw(st.integers(1, min(4, d - 1)))] * big + draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    test_rows = [draw(st.integers(1, 3)) for _ in range(big)] + [draw(st.integers(0, 3)) for _ in train_rows[big:-1]] + [0]
    ids = draw(st.permutations(range(len(train_rows))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feat = WindowedFeatures(vocab=vocab, window_len=L, window_seconds=86400)
    for agent, n_train, n_test in zip(ids, train_rows, test_rows):
        rows = rng.normal(size=(n_train + n_test, d)) * (rng.random((n_train + n_test, d)) < 0.7)
        feat.train[f"a{agent:02d}"] = windows(rows[:n_train], len(vocab))
        if n_test:
            feat.test[f"a{agent:02d}"] = windows(rows[n_train:], len(vocab))
    if draw(st.booleans()):
        feat.ineligible["z"] = "empty training side"
    return feat, cap


hypers = st.builds(
    NetHyper,
    learning_rate=st.sampled_from([0.01, 0.1]),
    epochs=st.integers(1, 20),
    seed=st.integers(0, 3),
    embed_dim=st.integers(1, 4),
)


@settings(max_examples=100, deadline=None)
@given(stacked_features(), hypers, st.sampled_from(["dae", "dsvdd"]))
def test_stacks_score_as_their_members_trained_alone(feat_cap, hyper, kind):
    """Each stack against its members trained alone by ``train_network``, bit for bit at both scopes. Models with
    fewer training rows than columns stack up to ``cap``; a model with as many or more trains alone."""
    feat, cap = feat_cap
    sizes = [feat.dim, max(1, feat.dim // 4), feat.dim if kind == "dae" else hyper.embed_dim]
    net_bytes = 8 * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    stack_sizes = []

    def counting(net, inputs, objective, hyper):
        stack_sizes.append(inputs.shape[:2])
        return train_network(net, inputs, objective, hyper)

    with mock.patch.object(nets, "STACK_PARAM_BYTES", cap * net_bytes), mock.patch.object(nets, "train_network", counting):
        for scope in ("population", "per_agent"):
            oracle.assert_stacked_as_alone(kind, feat, hyper, scope)
    assert stack_sizes[0][0] == 1  # the population model is a stack of one
    members = [g for g, _ in stack_sizes[1:]]
    assert max(members) == cap and sum(members) == len(feat.eligible_agents())
    assert all(g == 1 for g, rows in stack_sizes[1:] if rows >= feat.dim)


@settings(max_examples=100, deadline=None)
@given(stacked_features(), hypers, st.sampled_from(["dae", "dsvdd"]), st.sampled_from([np.float64, np.float32]))
def test_reduced_nets_keep_to_the_full_width_oracle(feat_cap, hyper, kind, dtype):
    """Score tables at both scopes against the oracle. Stacks and single nets, and models with fewer training rows
    than input columns (the rows' basis) and with as many or more (the live columns), all occur.

    float64: every score within 1e-12 relative. float32: the same order by (-score, id), and every score within
    1e-5 relative, except DSVDD scores below 0.01, which must lie within 1e-7 (1e-5 of 0.01) instead. A DSVDD
    score is a squared distance to the center, and float32 resolves an embedding near unit scale to about one
    ulp, so a score near zero (an embedding next to the center) keeps no 1e-5 of itself: on these random rows
    the oracle's own float32 scores are up to 1.7e-3 relative from its float64 ones. On the workloads' rows the
    1e-5 bound holds alone (``test_float32_scores_keep_the_float64_ranks_auc_and_ap``).
    """
    feat, _ = feat_cap
    for scope in ("population", "per_agent"):
        with mock.patch.object(nets, "NET_DTYPE", dtype):
            got = nets._one_class_scores(kind, feat, hyper, scope).scores
        oracle.assert_within_the_tolerance(kind, got, oracle.one_class_scores(kind, feat, hyper, scope, dtype=dtype).scores,
                                           dtype)


@pytest.mark.parametrize("rows, width", [(3, 3), (7, 7), (8, 4), (11, 4)])
def test_the_reduced_net_sees_the_rows_or_the_live_columns(rows, width):
    """Fewer rows than the 8 inputs: the net sees the rows' coordinates (rows x rows). Otherwise it sees the 4
    columns live in some member. The DAE's output side adds the initial last layer's 2 + 1 vectors (zero where the
    8 inputs are spanned already)."""
    seen = []
    loss_and_grads = TinyNet.loss_and_grads

    def spy(net, x, objective, center=None, width=None):
        seen.append((x.shape, net.weights[-1].shape, width))
        return loss_and_grads(net, x, objective, center, width)

    x = np.random.default_rng(0).normal(size=(2, rows, 8))
    x[0, :, 1] = x[:, :, 3:7] = 0  # column 1 is live in member 1 alone; columns 3 to 6 are dead
    with mock.patch.object(TinyNet, "loss_and_grads", spy):
        trained = train_network(TinyNet([8, 2, 8], seed=[0, 1]), x, "reconstruction", NetHyper(epochs=3))
    assert seen == [((2, rows, width), (2, 2, width + 3), 8)] * 3
    assert [w.shape for w in trained.net.weights] == [(2, 8, 2), (2, 2, 8)]


def test_a_dead_input_column_keeps_its_first_layer_row():
    """A column that is zero in every training row gets no first-layer update: its row keeps its initial bits."""
    x = np.random.default_rng(2).normal(size=(40, 6))
    x[:, 2] = 0
    for objective, sizes in (("reconstruction", [6, 3, 6]), ("svdd", [6, 3, 2])):
        initial = TinyNet(sizes, seed=4).weights[0].copy()
        trained = train_network(TinyNet(sizes, seed=4), x, objective, NetHyper(epochs=50, learning_rate=0.1)).net
        assert np.array_equal(trained.weights[0][2], initial[2])
        assert not np.array_equal(np.delete(trained.weights[0], 2, axis=0), np.delete(initial, 2, axis=0))


@pytest.mark.parametrize("rows", [4, 40])
@pytest.mark.parametrize("kind", ["dae", "dsvdd"])
def test_a_column_live_only_in_the_test_rows_still_moves_the_score(rows, kind):
    """Training rows with a dead column (and, with 4 rows, fewer rows than columns): the trained net is lifted to
    full width, so a test row's value in that column still reaches the score, as at the full-width oracle."""
    rng = np.random.default_rng(3)
    train_x = rng.normal(size=(rows, 8))
    train_x[:, 5] = 0
    test_x = np.zeros((2, 8))
    test_x[1, 5] = 2.0
    hyper = NetHyper(epochs=40, learning_rate=0.05)
    got = oracle.score_with_model(kind, train_x, test_x, hyper, seed=7, alone=True)
    want = oracle.score_with_model(kind, train_x, test_x, hyper, seed=7)
    assert got[0] != got[1]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("rows", [3, 7])
def test_rows_that_are_zero_or_repeat_keep_to_the_full_width_oracle(rows):
    """Fewer rows than the 8 inputs, one of them zero and one a repeat, so the rows span fewer directions than there
    are rows. The zero row gets no direction, the repeat none or one of rounding size, and the DAE's output side still
    spans every direction that the descent reaches: with 7 rows it would hold 7 + 3 + 1 > 8 rows, and the ones past 8
    directions are zero."""
    x = np.random.default_rng(5).normal(size=(rows, 8))
    x[0], x[1] = 0, x[2]
    test_x = np.random.default_rng(6).normal(size=(4, 8))
    hyper = NetHyper(epochs=30, learning_rate=0.1)
    for objective, sizes in (("reconstruction", [8, 3, 8]), ("svdd", [8, 3, 2])):
        got = train_network(TinyNet(sizes, seed=2), x, objective, hyper).net.forward(test_x)
        want = oracle.train_network(oracle.TinyNet(sizes, 2, np.float64), x, objective, hyper)[0].forward(test_x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stack_members_start_as_single_nets():
    stack = TinyNet([5, 2, 3], seed=[4, 9])
    for g, seed in enumerate([4, 9]):
        single = TinyNet([5, 2, 3], seed=seed)
        for got, want in zip(stack.weights + stack.biases, single.weights + single.biases):
            assert np.array_equal(got[g], want)
    assert [w.shape for w in stack.weights] == [(2, 5, 2), (2, 2, 3)]
    assert [b.shape for b in stack.biases] == [(2, 1, 2), (2, 1, 3)]


def test_divergence_of_the_middle_member_stops_the_stack():
    """Members 0 and 2 train alone without incident; member 1 overflows at some epoch, and so does the stack."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6, 4)) * np.array([0.1, 1e100, 0.1])[:, None, None]
    hyper = NetHyper(learning_rate=3.0, epochs=300)
    seeds = [1, 2, 3]
    for g in (0, 2):
        assert np.isfinite(train_network(TinyNet([4, 3, 4], seed=seeds[g]), x[g], "reconstruction", hyper).losses).all()
    with pytest.raises(TrainingDivergedError) as alone:
        train_network(TinyNet([4, 3, 4], seed=seeds[1]), x[1], "reconstruction", hyper)
    assert alone.value.epoch > 0
    with pytest.raises(TrainingDivergedError) as stacked:
        train_network(TinyNet([4, 3, 4], seed=seeds), x, "reconstruction", hyper)
    assert (stacked.value.epoch, stacked.value.loss) == (alone.value.epoch, alone.value.loss)


def test_divergence_of_the_middle_member_stops_a_float32_stack():
    """As above in float32. Member 1's inputs are scaled by 1e10, not 1e100: 1e100 is past float32's
    largest value (3.4e38), so it would be inf on the cast and overflow at epoch 0."""
    rng = np.random.default_rng(0)
    x = (rng.normal(size=(3, 6, 4)) * np.array([0.1, 1e10, 0.1])[:, None, None]).astype(np.float32)
    hyper = NetHyper(learning_rate=3.0, epochs=300)
    seeds = [1, 2, 3]
    for g in (0, 2):
        net = TinyNet([4, 3, 4], seed=seeds[g], dtype=np.float32)
        assert np.isfinite(train_network(net, x[g], "reconstruction", hyper).losses).all()
    with pytest.raises(TrainingDivergedError) as alone:
        train_network(TinyNet([4, 3, 4], seed=seeds[1], dtype=np.float32), x[1], "reconstruction", hyper)
    assert alone.value.epoch > 0
    with pytest.raises(TrainingDivergedError) as stacked:
        train_network(TinyNet([4, 3, 4], seed=seeds, dtype=np.float32), x, "reconstruction", hyper)
    assert (stacked.value.epoch, stacked.value.loss) == (alone.value.epoch, alone.value.loss)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows, objective, out, lr", [(4, "svdd", 4, 3.0), (12, "svdd", 4, 3.0),
                                                      (4, "reconstruction", 8, 30.0), (12, "reconstruction", 8, 30.0)])
def test_divergence_of_a_reduced_net_stops_where_the_full_width_oracle_does(dtype, rows, objective, out, lr):
    """Fewer rows than inputs (the rows' basis) or more (the live columns): each member alone raises at the
    oracle's epoch and loss, and the stack at its earliest member's."""
    x = np.random.default_rng(0).normal(size=(3, rows, 8)).astype(dtype)
    x[:, :, 2] = 0
    hyper = NetHyper(learning_rate=lr, epochs=300)
    seeds = [1, 2, 3]
    alone = []
    for g, seed in enumerate(seeds):
        with pytest.raises(TrainingDivergedError) as new:
            train_network(TinyNet([8, 2, out], seed=seed, dtype=dtype), x[g], objective, hyper)
        with pytest.raises(TrainingDivergedError) as old:
            oracle.train_network(oracle.TinyNet([8, 2, out], seed, dtype), x[g], objective, hyper)
        assert (new.value.epoch, new.value.loss) == (old.value.epoch, old.value.loss)
        alone.append((new.value.epoch, new.value.loss))
    assert len({epoch for epoch, _ in alone}) > 1  # the members stop at different epochs
    with pytest.raises(TrainingDivergedError) as stacked:
        train_network(TinyNet([8, 2, out], seed=seeds, dtype=dtype), x, objective, hyper)
    assert (stacked.value.epoch, stacked.value.loss) == min(alone)


def test_losses_have_one_row_per_epoch():
    x = np.random.default_rng(1).normal(size=(3, 5, 4))
    result = train_network(TinyNet([4, 2, 4], seed=[0, 1, 2]), x, "svdd", NetHyper(epochs=7))
    assert result.losses.shape == (7, 3)
    assert result.center.shape == (3, 1, 4)


# Population GEMMs here (rows x live columns x hidden) are above OpenBLAS's single-thread threshold (m*n*k = 2^18),
# so 2 threads split them.
THREADS_SCRIPT = """
import json
import numpy as np
import nets_oracle as oracle
from mobanom.detectors import NetHyper, SplitSpec, build_windows, nets
from mobanom.inject import InjectConfig, inject_imposter
from mobanom.simulator import SimConfig, simulate
ds, labels = inject_imposter(simulate(SimConfig(n_agents=48, weeks=2, n_hunger=0, n_social=0, n_work=0, seed=5)).dataset,
                             InjectConfig(n_outlier_pairs=3, switch_fraction=0.8, seed=5))
feat = build_windows(ds, SplitSpec.from_labels(ds, labels), window_days=1.0, L=8)
hyper = NetHyper(epochs=30, seed=5)
for kind in ("dae", "dsvdd"):
    for scope in ("population", "per_agent"):
        oracle.assert_stacked_as_alone(kind, feat, hyper, scope)
        oracle.assert_within_the_tolerance(kind, nets._one_class_scores(kind, feat, hyper, scope).scores,
                                           oracle.one_class_scores(kind, feat, hyper, scope).scores, np.float32)
train = np.concatenate([w.vecs for w in feat.train.values()])
print(json.dumps({"rows": len(train), "dim": feat.dim, "live": int(np.any(train != 0, axis=0).sum())}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bit_equality_holds_at_one_and_two_blas_threads(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    shape = json.loads(done.stdout.splitlines()[-1])
    assert shape["rows"] * shape["live"] * (shape["dim"] // 4) > 2**18
    assert shape["rows"] >= shape["dim"]  # so the population model trains on the live columns


# One population DAE on the perfbench ``nets`` shape: 50 agents x 4 weeks, 3 pairs, 1-day windows, L = 16.
CROSS_THREADS_SCRIPT = """
import sys
from mobanom.detectors import NetHyper, SplitSpec, build_windows, dae_score
from mobanom.inject import InjectConfig, inject_imposter
from mobanom.simulator import SimConfig, simulate
ds, labels = inject_imposter(simulate(SimConfig(n_agents=50, weeks=4, n_hunger=0, n_social=0, n_work=0, seed=0)).dataset,
                             InjectConfig(n_outlier_pairs=3, seed=0))
feat = build_windows(ds, SplitSpec.from_labels(ds, labels), window_days=1.0, L=16)
sys.stdout.write(dae_score(feat, NetHyper(), scope="population").to_jsonl())
"""


def test_population_scores_hold_across_blas_thread_counts():
    """The rule that the README and ``cli.py`` state: a thread count repeats its own bytes, and across 1 and 2
    threads the scores keep the same agents, the same order by (-score, id), and every score within 1e-5 relative."""
    runs = []
    for threads in ("1", "2", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", CROSS_THREADS_SCRIPT], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert runs[1] == runs[2]
    one, two = (ScoreTable.from_jsonl(text).scores for text in runs[:2])
    assert sorted(one, key=lambda a: (-one[a], a)) == sorted(two, key=lambda a: (-two[a], a))
    for agent, score in one.items():
        assert two[agent] == pytest.approx(score, rel=1e-5, abs=0)


def test_float32_scores_keep_the_float64_ranks_auc_and_ap():
    """The scorers' float32 tables against the float64 oracle on criterion 6's seed-0 dataset, at both scopes.

    120 epochs, not criterion 6's 300, keep the test under 5 s; CHANGES.md gives the drift at 300 epochs.
    """
    sim = simulate(SimConfig(n_agents=60, weeks=4, n_hunger=0, n_social=0, n_work=0, seed=0))
    ds, labels = inject_imposter(sim.dataset, InjectConfig(n_outlier_pairs=12, switch_fraction=0.8, seed=0))
    feat = build_windows(ds, SplitSpec.from_labels(ds, labels, fallback_fraction=0.8), window_days=1.0, L=16)
    hyper = NetHyper(epochs=120, seed=0)
    for kind, scorer in (("dae", dae_score), ("dsvdd", dsvdd_score)):
        for scope in ("population", "per_agent"):
            got = scorer(feat, hyper, scope=scope)
            want = oracle.one_class_scores(kind, feat, hyper, scope, dtype=np.float64)
            assert got.params_hash != want.params_hash  # a float32 score file never passes for a float64 one
            assert sorted(got.scores, key=got.scores.get) == sorted(want.scores, key=want.scores.get)
            assert roc_auc(got, labels) == roc_auc(want, labels)
            assert average_precision(got, labels) == average_precision(want, labels)
            for agent, score in want.scores.items():
                assert got.scores[agent] == pytest.approx(score, rel=1e-5, abs=0)
