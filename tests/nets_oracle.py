"""One net at a time: the trainer and scorer that ``mobanom.detectors.nets`` replaced with stacks of reduced nets.

Each model here is one ``TinyNet`` with 2-D weights and 1-D biases, trained
by its own Python loop of epochs at full width; the per-agent scope trains one
such model per agent, in agent order. It lives on only as the test oracle.
``mobanom``'s ``train_network`` trains each net reduced to the subspace that its
updates reach, which is the same descent with other rounding: the tests bound
its drift from this oracle, and ``assert_stacked_as_alone`` compares each stack
bit for bit with its members trained alone by ``train_network``. Each function
takes the dtype to train and score in: float32, as the scorers do, or float64 to
measure how far float32 moves the scores.

``gradient_check`` measures the backprop of ``mobanom``'s ``TinyNet`` against
central finite differences, in float64 only.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from mobanom.core import ConfigError, TrainingDivergedError, params_hash
# bound here, so that a test patching ``nets.train_network`` does not see the oracle's calls
from mobanom.detectors.nets import STD_FLOOR, Z_CLIP, NetHyper, _agent_seed, _one_class_scores
from mobanom.detectors.nets import TinyNet as StackedNet, train_network as train_stacked
from mobanom.evaluation import ScoreTable


class TinyNet:
    def __init__(self, layer_sizes: list[int], seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out).astype(dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_full(x)[-1]

    def _forward_full(self, x: np.ndarray) -> list[np.ndarray]:
        acts = [np.atleast_2d(np.asarray(x, dtype=self.weights[0].dtype))]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(z if k == last else np.tanh(z))
        return acts

    def loss_and_grads(self, x: np.ndarray, objective: str, center: np.ndarray | None = None):
        acts = self._forward_full(x)
        y = acts[-1]
        n, _ = acts[0].shape
        if objective == "reconstruction":
            diff = y - acts[0]
            loss = float(np.mean(diff**2))
            delta = 2.0 * diff / diff.size
        else:
            diff = y - center
            loss = float(np.mean(np.sum(diff**2, axis=1)))
            delta = 2.0 * diff / n
        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = acts[k].T @ delta
            grads_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (1.0 - acts[k] ** 2)
        return loss, grads_w, grads_b


def train_network(net: TinyNet, x: np.ndarray, objective: str, hyper: NetHyper) -> tuple[TinyNet, np.ndarray | None]:
    """(trained net, svdd center); raises TrainingDivergedError at the first non-finite loss."""
    center = net.forward(x).mean(axis=0) if objective == "svdd" else None
    for epoch in range(hyper.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads_w, grads_b = net.loss_and_grads(x, objective, center)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, loss)
        for w, gw in zip(net.weights, grads_w):
            w -= hyper.learning_rate * gw
        for b, gb in zip(net.biases, grads_b):
            b -= hyper.learning_rate * gb
    return net, center


def _stacked(blocks) -> np.ndarray:
    return np.concatenate([b.vecs for b in blocks])


def _standardize_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return rows.mean(axis=0), np.maximum(rows.std(axis=0), STD_FLOOR)


def _standardize(rows: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return np.clip((rows - mean) / std, -Z_CLIP, Z_CLIP)


def score_with_model(kind: str, train_x: np.ndarray, test_x: np.ndarray, hyper: NetHyper, seed: int,
                     alone: bool = False) -> np.ndarray:
    """Per-window test scores of one model, trained by the full-width trainer here; with ``alone``, trained
    instead by ``mobanom``'s ``train_network`` on a single net."""
    d = train_x.shape[1]
    sizes = [d, max(1, d // 4), d if kind == "dae" else hyper.embed_dim]
    objective = "reconstruction" if kind == "dae" else "svdd"
    if alone:
        trained = train_stacked(StackedNet(sizes, seed, train_x.dtype), train_x, objective, hyper)
        net, center = trained.net, trained.center
    else:
        net, center = train_network(TinyNet(sizes, seed, train_x.dtype), train_x, objective, hyper)
    out = net.forward(test_x)
    return np.mean((out - test_x) ** 2, axis=1) if kind == "dae" else np.sum((out - center) ** 2, axis=1)


def one_class_scores(kind: str, feat, hyper: NetHyper, scope: str, dtype=np.float32, alone: bool = False) -> ScoreTable:
    """The score table of ``dae_score``/``dsvdd_score``, one model trained after another, in ``dtype``.

    With ``alone`` each model trains alone by ``mobanom``'s ``train_network`` (``score_with_model``).
    """
    if scope not in ("population", "per_agent"):
        raise ConfigError(f"unknown scope {scope!r}")
    omitted = dict(feat.ineligible)
    agents = feat.eligible_agents()
    for agent_id in sorted(set(feat.train) - set(feat.test)):
        omitted.setdefault(agent_id, "no test windows")
    if scope == "population":
        groups = [(sorted(feat.train), agents, hyper.seed)] if agents else []
    else:
        groups = [([a], [a], _agent_seed(hyper.seed, a)) for a in agents]
    scores: dict[str, float] = {}
    for train_agents, test_agents, seed in groups:
        raw_train = _stacked([feat.train[a] for a in train_agents])
        mean, std = _standardize_stats(raw_train)
        train_x = _standardize(raw_train, mean, std).astype(dtype)
        test_x = _standardize(_stacked([feat.test[a] for a in test_agents]), mean, std).astype(dtype)
        per_window = score_with_model(kind, train_x, test_x, hyper, seed, alone)
        ends = np.cumsum([len(feat.test[a]) for a in test_agents])
        for a, own in zip(test_agents, np.split(per_window, ends[:-1])):
            scores[a] = float(np.mean(own))
    return ScoreTable(
        detector=kind if scope == "population" else f"{kind}_per_agent",
        scores=scores,
        params_hash=params_hash({**asdict(hyper), "scope": scope, "L": feat.window_len,
                                 "window_seconds": feat.window_seconds, "dtype": np.dtype(dtype).name}),
        omitted=omitted,
    )


def assert_stacked_as_alone(kind: str, feat, hyper: NetHyper, scope: str) -> None:
    """``dae_score``/``dsvdd_score`` give the score table of each model trained alone by ``mobanom``'s
    ``train_network``, bit for bit and in the same order: stacking changes no bit."""
    new = _one_class_scores(kind, feat, hyper, scope)
    old = one_class_scores(kind, feat, hyper, scope, alone=True)
    assert (new.detector, new.params_hash, new.omitted) == (old.detector, old.params_hash, old.omitted)
    assert list(new.scores.items()) == list(old.scores.items())
    assert new.to_jsonl() == old.to_jsonl()


def assert_within_the_tolerance(kind: str, got: dict, want: dict, dtype) -> None:
    """Scores ``got`` against the oracle's ``want`` for the same agents: within 1e-12 relative in float64; in
    float32 within 1e-5 relative, DSVDD scores below 0.01 within 1e-7 instead, and in the same order by
    (-score, id). ``tests/test_nets_stack.py`` gives the reasons for the bounds."""
    assert list(got) == list(want)
    if dtype == np.float64:
        assert all(abs(got[a] - score) <= 1e-12 * score for a, score in want.items())
    else:
        assert all(abs(got[a] - score) <= 1e-5 * (max(score, 0.01) if kind == "dsvdd" else score)
                   for a, score in want.items())
        assert sorted(got, key=lambda a: (-got[a], a)) == sorted(want, key=lambda a: (-want[a], a))


def gradient_check(net, x: np.ndarray, objective: str, center: np.ndarray | None = None, eps: float = 1e-5) -> float:
    """Relative error between analytic and central finite-difference gradients of a ``mobanom`` ``TinyNet``.

    Uses the standard norm ratio ``|ga - gfd| / (|ga| + |gfd|)`` over the full
    parameter vector; a genuine backprop defect shows up orders of magnitude
    above the finite-difference noise floor.  The net must be float64: central
    differences at ``eps = 1e-5`` are noise in float32.
    """
    if net.weights[0].dtype != np.float64:
        raise ConfigError(f"gradient_check needs a float64 net, got {net.weights[0].dtype}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if objective == "svdd" and center is None:
        center = net.forward(x).mean(axis=0)
    _, grads_w, grads_b = net.loss_and_grads(x, objective, center)
    analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])
    numeric = []
    for param in net.weights + net.biases:
        for i in np.ndindex(param.shape):
            saved = param[i]
            param[i] = saved + eps
            up, _, _ = net.loss_and_grads(x, objective, center)
            param[i] = saved - eps
            down, _, _ = net.loss_and_grads(x, objective, center)
            param[i] = saved
            numeric.append((up - down) / (2.0 * eps))
    numeric = np.array(numeric)
    # relative for O(1) gradients, absolute below: an identically-zero
    # gradient (svdd already at its minimum) must not degenerate the ratio
    denom = max(1.0, float(np.linalg.norm(analytic) + np.linalg.norm(numeric)))
    return float(np.linalg.norm(analytic - numeric) / denom)
