"""Small deterministic numpy networks for one-class scoring.

``TinyNet`` is a fully-connected net with tanh hidden layers and an identity
output, trained by full-batch gradient descent.  Two objectives:

* ``reconstruction``: mean squared error of the output against the input
  (autoencoder); the per-window error is the anomaly score.
* ``svdd``: mean squared distance of the output embedding from a center
  fixed at the mean initial embedding of the training batch (one-class
  description); the center distance is the anomaly score.

Scoring runs either on one population model trained on everyone's training
windows (default) or on per-agent models trained on each agent's own history.
Inputs are standardized with training-side statistics before training.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core import ConfigError, TrainingDivergedError, params_hash
from ..evaluation import ScoreTable
from .features import WindowedFeatures

STD_FLOOR = 1e-6
# Standardized inputs are clipped: dims that were near-constant in training
# (padding slots, fixed one-hots) otherwise explode under the std floor and
# drown the informative dimensions.
Z_CLIP = 3.0


@dataclass
class NetHyper:
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0
    embed_dim: int = 16


class TinyNet:
    """Fully-connected tanh net with identity output, deterministic init."""

    def __init__(self, layer_sizes: list[int], seed: int = 0):
        if len(layer_sizes) < 2:
            raise ConfigError("need at least input and output layer sizes")
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_full(x)[-1]

    def _forward_full(self, x: np.ndarray) -> list[np.ndarray]:
        acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(z if k == last else np.tanh(z))
        return acts

    def loss_and_grads(self, x: np.ndarray, objective: str, center: np.ndarray | None = None):
        """Return (loss, weight grads, bias grads) for one full batch."""
        acts = self._forward_full(x)
        y = acts[-1]
        n, _ = acts[0].shape
        if objective == "reconstruction":
            diff = y - acts[0]
            loss = float(np.mean(diff**2))
            delta = 2.0 * diff / diff.size
        elif objective == "svdd":
            if center is None:
                raise ConfigError("svdd objective needs a center")
            diff = y - center
            loss = float(np.mean(np.sum(diff**2, axis=1)))
            delta = 2.0 * diff / n
        else:
            raise ConfigError(f"unknown objective {objective!r}")

        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = acts[k].T @ delta
            grads_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (1.0 - acts[k] ** 2)
        return loss, grads_w, grads_b

    def flat_params(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for arr in self.weights + self.biases:
            arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size


@dataclass
class TrainResult:
    net: TinyNet
    center: np.ndarray | None
    losses: list[float] = field(default_factory=list)


def train_network(net: TinyNet, inputs: np.ndarray, objective: str, hyper: NetHyper) -> TrainResult:
    """Full-batch gradient descent; raises TrainingDivergedError on non-finite loss.

    For the svdd objective the center is fixed to the mean embedding of the
    inputs at initialization and never updated.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.size == 0:
        raise ConfigError("empty training batch")
    center = None
    if objective == "svdd":
        center = net.forward(x).mean(axis=0)
    losses = []
    for epoch in range(hyper.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads_w, grads_b = net.loss_and_grads(x, objective, center)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, loss)
        losses.append(loss)
        for w, gw in zip(net.weights, grads_w):
            w -= hyper.learning_rate * gw
        for b, gb in zip(net.biases, grads_b):
            b -= hyper.learning_rate * gb
    return TrainResult(net=net, center=center, losses=losses)


def gradient_check(
    net: TinyNet,
    x: np.ndarray,
    objective: str,
    center: np.ndarray | None = None,
    eps: float = 1e-5,
) -> float:
    """Relative error between analytic and central finite-difference gradients.

    Uses the standard norm ratio ``|ga - gfd| / (|ga| + |gfd|)`` over the full
    parameter vector; a genuine backprop defect shows up orders of magnitude
    above the finite-difference noise floor.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if objective == "svdd" and center is None:
        center = net.forward(x).mean(axis=0)
    _, grads_w, grads_b = net.loss_and_grads(x, objective, center)
    analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])
    flat = net.flat_params()
    numeric = np.zeros_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        net.set_flat_params(bumped)
        up, _, _ = net.loss_and_grads(x, objective, center)
        bumped[i] = flat[i] - eps
        net.set_flat_params(bumped)
        down, _, _ = net.loss_and_grads(x, objective, center)
        numeric[i] = (up - down) / (2.0 * eps)
    net.set_flat_params(flat)
    # relative for O(1) gradients, absolute below: an identically-zero
    # gradient (svdd already at its minimum) must not degenerate the ratio
    denom = max(1.0, float(np.linalg.norm(analytic) + np.linalg.norm(numeric)))
    return float(np.linalg.norm(analytic - numeric) / denom)


# ---------------------------------------------------------------------------
# One-class scorers over windowed features.
# ---------------------------------------------------------------------------


def _agent_seed(base_seed: int, agent_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{agent_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _standardize_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), STD_FLOOR)
    return mean, std


def _standardize(rows: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return np.clip((rows - mean) / std, -Z_CLIP, Z_CLIP)


def _stacked(windows) -> np.ndarray:
    return np.stack([w.vec for w in windows])


def _score_with_model(kind: str, train_x: np.ndarray, test_x: np.ndarray, hyper: NetHyper, seed: int) -> np.ndarray:
    d = train_x.shape[1]
    hidden = max(1, d // 4)
    if kind == "dae":
        net = TinyNet([d, hidden, d], seed=seed)
        result = train_network(net, train_x, "reconstruction", hyper)
        recon = result.net.forward(test_x)
        return np.mean((recon - test_x) ** 2, axis=1)
    net = TinyNet([d, hidden, hyper.embed_dim], seed=seed)
    result = train_network(net, train_x, "svdd", hyper)
    embed = result.net.forward(test_x)
    return np.sum((embed - result.center) ** 2, axis=1)


def _one_class_scores(kind: str, feat: WindowedFeatures, hyper: NetHyper, scope: str) -> ScoreTable:
    if scope not in ("population", "per_agent"):
        raise ConfigError(f"unknown scope {scope!r}")
    omitted = dict(feat.ineligible)
    agents = feat.eligible_agents()
    for agent_id in sorted(set(feat.train) - set(feat.test)):
        omitted.setdefault(agent_id, "no test windows")
    # One model per group of agents: everyone's training windows for the
    # population model, each agent's own for the per-agent models.
    if scope == "population":
        groups = [(sorted(feat.train), agents, hyper.seed)] if agents else []
    else:
        groups = [([a], [a], _agent_seed(hyper.seed, a)) for a in agents]
    scores: dict[str, float] = {}
    for train_agents, test_agents, seed in groups:
        raw_train = _stacked([w for a in train_agents for w in feat.train[a]])
        mean, std = _standardize_stats(raw_train)
        train_x = _standardize(raw_train, mean, std)
        test_x = _standardize(_stacked([w for a in test_agents for w in feat.test[a]]), mean, std)
        per_window = _score_with_model(kind, train_x, test_x, hyper, seed)
        # test rows are in agent order, so each agent's windows are one slice
        ends = np.cumsum([len(feat.test[a]) for a in test_agents])
        for a, own in zip(test_agents, np.split(per_window, ends[:-1])):
            scores[a] = float(np.mean(own))

    return ScoreTable(
        detector=kind if scope == "population" else f"{kind}_per_agent",
        scores=scores,
        params_hash=params_hash({**asdict(hyper), "scope": scope, "L": feat.window_len,
                                 "window_seconds": feat.window_seconds}),
        omitted=omitted,
    )


def dae_score(feat: WindowedFeatures, hyper: NetHyper = NetHyper(), scope: str = "population") -> ScoreTable:
    """Autoencoder reconstruction error of test windows (higher = more anomalous)."""
    return _one_class_scores("dae", feat, hyper, scope)


def dsvdd_score(feat: WindowedFeatures, hyper: NetHyper = NetHyper(), scope: str = "population") -> ScoreTable:
    """Squared distance of test-window embeddings from the one-class center."""
    return _one_class_scores("dsvdd", feat, hyper, scope)
