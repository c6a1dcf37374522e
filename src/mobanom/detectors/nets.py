"""Small deterministic numpy networks for one-class scoring.

``TinyNet`` is a fully-connected net with tanh hidden layers and an identity
output, trained by full-batch gradient descent.  Two objectives:

* ``reconstruction``: mean squared error of the output against the input
  (autoencoder); the per-window error is the anomaly score.
* ``svdd``: mean squared distance of the output embedding from a center
  fixed at the mean initial embedding of the training batch (one-class
  description); the center distance is the anomaly score.

Scoring runs either on one population model trained on everyone's training
windows (default) or on per-agent models trained on each agent's own history,
those with equal training-row counts side by side as one stack of nets; a
stack with fewer training rows than inputs trains its first layer in the span
of its rows (``train_network``).  Inputs are standardized with training-side
statistics, and the scorers train and score in float32 (``NET_DTYPE``).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from ..core import ConfigError, TrainingDivergedError, check_settings, params_hash
from ..evaluation import ScoreTable
from .features import WindowedFeatures

STD_FLOOR = 1e-6
# Standardized inputs are clipped: dims that were near-constant in training
# (padding slots, fixed one-hots) otherwise explode under the std floor and
# drown the informative dimensions.
Z_CLIP = 3.0
# Per-agent models with equal training-row counts train as one stack of nets
# holding at most this many bytes of parameters counted at 8 bytes each,
# whatever the dtype (8 DAEs at d = 144).  Counting instead the bytes that a
# span-form epoch touches (n*h, n*n, the later layers) allows wider stacks:
# `nets` run_s fell 4.7%, but peak RSS rose 1.0 MB in every run (4 pairs).
STACK_PARAM_BYTES = 700 * 1024
# The scorers train and score in float32: half the GEMM cost of float64, with
# scores within 1e-5 relative of float64's and the same ranks (README).
NET_DTYPE = np.float32


@dataclass
class NetHyper:
    learning_rate: float = 0.01
    epochs: int = 300
    seed: int = 0
    embed_dim: int = 16

    def __post_init__(self) -> None:
        check_settings(self, [("epochs", self.epochs >= 1, ">= 1"),
                              ("embed_dim", self.embed_dim >= 1, ">= 1"),
                              ("seed", self.seed >= 0, ">= 0"),
                              ("learning_rate", 0 < self.learning_rate < np.inf, "finite and > 0")])


class TinyNet:
    """Fully-connected tanh net with identity output, deterministic init.

    An int ``seed`` makes one net: weights ``(fan_in, fan_out)``, biases
    ``(1, fan_out)``, inputs ``(n, fan_in)``.  A list of G seeds makes a stack
    of G nets that train side by side: weights ``(G, fan_in, fan_out)``, biases
    ``(G, 1, fan_out)``, inputs ``(G, n, fan_in)``, and member ``g`` starts as
    ``TinyNet(layer_sizes, seed[g])`` does.  Every method serves both shapes.
    The weights are cast once to ``dtype``, and the net computes in it.
    """

    def __init__(self, layer_sizes: list[int], seed: int | list[int] = 0, dtype=np.float64):
        if len(layer_sizes) < 2:
            raise ConfigError("need at least input and output layer sizes")
        stacked = isinstance(seed, list)
        rngs = [np.random.default_rng(s) for s in (seed if stacked else [seed])]
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            for params, shape in ((self.weights, (fan_in, fan_out)), (self.biases, (1, fan_out))):
                drawn = np.stack([rng.uniform(-bound, bound, size=shape) for rng in rngs]).astype(dtype, copy=False)
                params.append(drawn if stacked else drawn[0])

    def __getitem__(self, g: int) -> TinyNet:
        """Member ``g`` of a stack, as one net sharing its weights."""
        member = copy.copy(self)
        member.weights = [w[g] for w in self.weights]
        member.biases = [b[g] for b in self.biases]
        return member

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_full(x)[-1]

    def _forward_full(self, x: np.ndarray, xw: np.ndarray | None = None) -> list[np.ndarray]:
        acts = [np.atleast_2d(np.asarray(x, dtype=self.weights[0].dtype))]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = (acts[-1] @ w if k or xw is None else xw) + b
            acts.append(z if k == last else np.tanh(z))
        return acts

    def loss_and_grads(self, x: np.ndarray, objective: str, center: np.ndarray | None = None,
                       xw: np.ndarray | None = None):
        """Return (loss, weight grads, bias grads) for one full batch; a stack has one loss per member.

        Given ``xw`` (``x @ weights[0]``, precomputed), the forward pass starts from it, and the first
        weight grad is the first layer's delta ``(n, fan_out)``, not ``xᵀ @ delta``.
        """
        acts = self._forward_full(x, xw)
        y = acts[-1]
        n, _ = acts[0].shape[-2:]
        if objective == "reconstruction":
            diff = y - acts[0]
            loss = np.mean(diff**2, axis=(-2, -1))
            delta = 2.0 * diff / (n * diff.shape[-1])
        elif objective == "svdd":
            if center is None:
                raise ConfigError("svdd objective needs a center")
            diff = y - center
            loss = np.mean(np.sum(diff**2, axis=-1), axis=-1)
            delta = 2.0 * diff / n
        else:
            raise ConfigError(f"unknown objective {objective!r}")

        grads_w, grads_b = [None] * len(self.weights), [None] * len(self.biases)
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = delta if k == 0 and xw is not None else np.swapaxes(acts[k], -1, -2) @ delta
            grads_b[k] = delta.sum(axis=-2, keepdims=True)
            if k > 0:
                delta = (delta @ np.swapaxes(self.weights[k], -1, -2)) * (1.0 - acts[k] ** 2)
        return loss, grads_w, grads_b


@dataclass
class TrainResult:
    net: TinyNet
    center: np.ndarray | None  # svdd: the mean initial embedding, (1, embed_dim) per member
    losses: np.ndarray  # one row per epoch: the loss, or each member's loss for a stack


def train_network(net: TinyNet, inputs: np.ndarray, objective: str, hyper: NetHyper) -> TrainResult:
    """Full-batch gradient descent of one net, or of each member of a stack on its own inputs.

    Raises TrainingDivergedError at the first epoch where any member's loss is
    not finite.  For the svdd objective each member's center is fixed to the
    mean embedding of its inputs at initialization and never updated.

    With fewer rows than inputs (n < d), every first-layer update is ``-lr * xᵀ @ delta``,
    so that layer trains in the span of the rows, ``W1 = W1(0) - lr * xᵀ @ A`` with ``A``
    the summed deltas: an epoch needs ``x @ W1 = x @ W1(0) - lr * (x @ xᵀ) @ A``, O(n²h) for
    O(ndh), and ``W1`` is formed after the last epoch.  Same descent, other rounding (README).
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=net.weights[0].dtype))
    if x.size == 0:
        raise ConfigError("empty training batch")
    center = net.forward(x).mean(axis=-2, keepdims=True) if objective == "svdd" else None
    if span := x.shape[-2] < x.shape[-1]:
        xw0, gram = x @ net.weights[0], x @ np.swapaxes(x, -1, -2)
        summed = np.zeros_like(xw0)
    losses = []
    for epoch in range(hyper.epochs):
        xw = xw0 - hyper.learning_rate * (gram @ summed) if span else None
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads_w, grads_b = net.loss_and_grads(x, objective, center, xw)
        flat = np.ravel(loss)
        if not np.isfinite(flat).all():
            raise TrainingDivergedError(epoch, float(flat[~np.isfinite(flat)][0]))
        losses.append(loss)
        if span:
            summed += grads_w[0]
        for w, gw in zip(net.weights[span:], grads_w[span:]):
            w -= hyper.learning_rate * gw
        for b, gb in zip(net.biases, grads_b):
            b -= hyper.learning_rate * gb
    if span:
        net.weights[0] -= hyper.learning_rate * (np.swapaxes(x, -1, -2) @ summed)
    return TrainResult(net=net, center=center, losses=np.array(losses))


# ---------------------------------------------------------------------------
# One-class scorers over windowed features.
# ---------------------------------------------------------------------------


def _agent_seed(base_seed: int, agent_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{agent_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _standardized(feat: WindowedFeatures, train_agents: list[str], test_agents: list[str]) -> list[np.ndarray]:
    """The training and the test rows of one model, standardized with training-side statistics."""
    raw_train = np.concatenate([feat.train[a].vecs for a in train_agents])
    mean = raw_train.mean(axis=0)
    std = np.maximum(raw_train.std(axis=0), STD_FLOOR)
    raw_test = np.concatenate([feat.test[a].vecs for a in test_agents])
    return [np.clip((rows - mean) / std, -Z_CLIP, Z_CLIP).astype(NET_DTYPE) for rows in (raw_train, raw_test)]


def check_scope(scope: str) -> None:
    """ConfigError unless ``scope`` trains one population model or one model per agent."""
    if scope not in ("population", "per_agent"):
        raise ConfigError(f"unknown scope {scope!r}")


def _one_class_scores(kind: str, feat: WindowedFeatures, hyper: NetHyper, scope: str) -> ScoreTable:
    check_scope(scope)
    agents = feat.eligible_agents()
    # One model per group of agents: everyone's training windows for the
    # population model, each agent's own for the per-agent models.
    if scope == "population":
        groups = [(sorted(feat.train), agents, hyper.seed)] if agents else []
    else:
        groups = [([a], [a], _agent_seed(hyper.seed, a)) for a in agents]
    # Models with equal training-row counts train as one stack of at most `cap`
    # nets, so each member's GEMMs have the shapes they have alone: same bits.
    sizes = [feat.dim, max(1, feat.dim // 4), feat.dim if kind == "dae" else hyper.embed_dim]
    cap = max(1, STACK_PARAM_BYTES // (8 * sum((i + 1) * o for i, o in zip(sizes, sizes[1:]))))
    by_rows: dict[int, list] = {}
    for group in groups:
        by_rows.setdefault(sum(len(feat.train[a]) for a in group[0]), []).append(group)
    scores: dict[str, float] = {}
    for stack in (same[i : i + cap] for same in by_rows.values() for i in range(0, len(same), cap)):
        train_xs, test_xs = zip(*(_standardized(feat, train, test) for train, test, _ in stack))
        # a view, not a copy, for a stack of one (the population model)
        inputs = train_xs[0][None] if len(stack) == 1 else np.stack(train_xs)
        net = TinyNet(sizes, seed=[seed for _, _, seed in stack], dtype=NET_DTYPE)
        result = train_network(net, inputs, "reconstruction" if kind == "dae" else "svdd", hyper)
        for g, ((_, test_agents, _), test_x) in enumerate(zip(stack, test_xs)):
            with np.errstate(over="ignore", invalid="ignore"):  # a net that diverged in its last update raises below
                out = result.net[g].forward(test_x)
                if kind == "dae":
                    per_window = np.mean((out - test_x) ** 2, axis=1)
                else:
                    per_window = np.sum((out - result.center[g]) ** 2, axis=1)
            # test rows are in agent order, so each agent's windows are one slice
            ends = np.cumsum([len(feat.test[a]) for a in test_agents])
            for a, own in zip(test_agents, np.split(per_window, ends[:-1])):
                scores[a] = float(np.mean(own))
                if not np.isfinite(scores[a]):  # no loss is computed after the last update
                    raise TrainingDivergedError(hyper.epochs - 1, scores[a])

    return ScoreTable(
        detector=kind if scope == "population" else f"{kind}_per_agent",
        scores={a: scores[a] for a in agents},
        params_hash=params_hash({**asdict(hyper), "scope": scope, "L": feat.window_len,
                                 "window_seconds": feat.window_seconds, "dtype": np.dtype(NET_DTYPE).name}),
        omitted=feat.omitted(),
    )


def dae_score(feat: WindowedFeatures, hyper: NetHyper = NetHyper(), scope: str = "population") -> ScoreTable:
    """Autoencoder reconstruction error of test windows (higher = more anomalous)."""
    return _one_class_scores("dae", feat, hyper, scope)


def dsvdd_score(feat: WindowedFeatures, hyper: NetHyper = NetHyper(), scope: str = "population") -> ScoreTable:
    """Squared distance of test-window embeddings from the one-class center."""
    return _one_class_scores("dsvdd", feat, hyper, scope)
