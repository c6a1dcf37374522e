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
those with equal training-row counts side by side as one stack of nets.  Each
net trains reduced to the subspace that its updates reach and scores at full
width (``train_network``).  Inputs are standardized with training-side
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
# Per-agent models with equal training-row counts, fewer than the columns, train as one stack of nets holding at
# most this many bytes of parameters counted at 8 bytes each, whatever the dtype (8 DAEs at d = 144).  A cap on the
# bytes that a reduced epoch touches (n*h, n*n, h*k) is unmeasured; on the span form before them it gave `nets`
# run_s -4.7% but peak RSS +1.0 MB in every run (4 pairs).
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

    def _forward_full(self, x: np.ndarray) -> list[np.ndarray]:
        acts = [np.atleast_2d(np.asarray(x, dtype=self.weights[0].dtype))]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            acts.append(np.tanh(z, out=z) if k < len(self.weights) - 1 else z)
        return acts

    def loss_and_grads(self, x: np.ndarray, objective: str, center: np.ndarray | None = None,
                       width: int | None = None):
        """Return (loss, weight grads, bias grads) for one full batch; a stack has one loss per member.

        Reconstruction fits the input in the first output columns and zero in any others, and averages over
        ``width`` columns (default: the output's), as ``train_network``'s reduced net needs.
        """
        acts = self._forward_full(x)
        n, r = acts[0].shape[-2:]
        if objective == "reconstruction":
            diff, count = acts[-1], n * (width or acts[-1].shape[-1])  # the output is used no further
            diff[..., :r] -= acts[0]
            loss = np.sum(diff**2, axis=(-2, -1)) / count
            delta = np.multiply(diff, 2.0 / count, out=diff)
        elif objective == "svdd":
            if center is None:
                raise ConfigError("svdd objective needs a center")
            diff = acts[-1] - center
            loss = np.mean(np.sum(diff**2, axis=-1), axis=-1)
            delta = 2.0 * diff / n
        else:
            raise ConfigError(f"unknown objective {objective!r}")

        grads_w, grads_b = [None] * len(self.weights), [None] * len(self.biases)
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = np.swapaxes(acts[k], -1, -2) @ delta
            grads_b[k] = delta.sum(axis=-2, keepdims=True)
            if k > 0:  # acts[k] is used no further
                delta = np.multiply(delta @ np.swapaxes(self.weights[k], -1, -2), 1.0 - acts[k] ** 2, out=acts[k])
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

    Updates move the first layer only within the row space of the inputs (``-lr * xᵀ @ delta``), and the last
    layer of a reconstruction only within that space and its initial rows.  So the epochs train a net reduced to
    orthonormal bases of both (the live columns, or the rows if fewer), then lift it: same descent, other rounding.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=net.weights[0].dtype))
    if x.size == 0:
        raise ConfigError("empty training batch")
    center = net.forward(x).mean(axis=-2, keepdims=True) if objective == "svdd" else None
    n, d = x.shape[-2:]
    def orthonormal(rows, done):  # `done`'s orthonormal rows, then `rows` by Gram-Schmidt run twice, without LAPACK;
        out = np.concatenate([done, rows], axis=-2)  # a row whose norm the second run more than halves lies in the
        for j in range(done.shape[-2], out.shape[-2]):  # span of the rows before it and becomes zero
            row, before = out[..., j : j + 1, :], out[..., :j, :]
            norms = [np.linalg.norm(np.subtract(row, row @ np.swapaxes(before, -1, -2) @ before, out=row), axis=-1,
                                    keepdims=True) for _ in range(2)]
            row *= np.where(norms[1] > norms[0] / 2, 1 / np.maximum(norms[1], np.finfo(x.dtype).tiny), 0)
        return out
    if n < d:  # the rows
        reduced_x = x @ np.swapaxes(basis := orthonormal(x, x[..., :0, :]), -1, -2)
    else:  # the live columns
        live = np.any(x, axis=tuple(range(x.ndim - 1)))
        basis, reduced_x = np.broadcast_to(np.eye(d, dtype=x.dtype)[live], (*x.shape[:-2], live.sum(), d)), x[..., live]
    reduced, start = copy.copy(net), basis @ net.weights[0]
    reduced.weights, reduced.biases = [start.copy(), *net.weights[1:]], list(net.biases)
    if output_side := objective == "reconstruction":
        q = orthonormal(np.concatenate([net.weights[-1], net.biases[-1]], axis=-2), basis)
        reduced.weights[-1], reduced.biases[-1] = (p @ np.swapaxes(q, -1, -2) for p in (reduced.weights[-1], net.biases[-1]))
    losses = []
    for epoch in range(hyper.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads_w, grads_b = reduced.loss_and_grads(reduced_x, objective, center, d)
        flat = np.ravel(loss)
        if not np.isfinite(flat).all():
            raise TrainingDivergedError(epoch, float(flat[~np.isfinite(flat)][0]))
        losses.append(loss)
        for param, grad in zip(reduced.weights + reduced.biases, grads_w + grads_b):
            param -= hyper.learning_rate * grad
    if output_side:  # lifted into the net's own arrays, where the other layers trained already
        np.matmul(reduced.biases[-1], q, out=net.biases[-1])
        reduced.weights[-1] = np.matmul(reduced.weights[-1], q, out=net.weights[-1] if len(net.weights) > 1 else None)
    net.weights[0] += np.swapaxes(basis, -1, -2) @ (reduced.weights[0] - start)
    return TrainResult(net=net, center=center, losses=np.array(losses))


# ---------------------------------------------------------------------------
# One-class scorers over windowed features.
# ---------------------------------------------------------------------------


def _agent_seed(base_seed: int, agent_id: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{agent_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _standardized(feat: WindowedFeatures, train_agents: list[str], test_agents: list[str]) -> list[np.ndarray]:
    """The training and the test rows of one model, standardized with training-side statistics in place on their own
    concatenations: the operations of ``(rows - mean) / std`` and its clip, without a temporary of every row."""
    sides = [np.concatenate([feat.train[a].vecs for a in train_agents]), test_agents]
    mean, std = sides[0].mean(axis=0), np.maximum(sides[0].std(axis=0), STD_FLOOR)
    for k, rows in enumerate(sides):  # one side at a time: the raw training rows are freed before the test rows join
        rows = np.concatenate([feat.test[a].vecs for a in rows]) if k else rows
        sides[k] = np.clip(np.divide(np.subtract(rows, mean, out=rows), std, out=rows), -Z_CLIP, Z_CLIP, out=rows).astype(NET_DTYPE)
    return sides


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
    # Models with equal training-row counts, fewer than the columns, train as one stack of at most `cap` nets, each on
    # its rows' basis with the bits it gets alone. One with more rows trains alone: a stack would share live columns.
    sizes = [feat.dim, max(1, feat.dim // 4), feat.dim if kind == "dae" else hyper.embed_dim]
    cap = max(1, STACK_PARAM_BYTES // (8 * sum((i + 1) * o for i, o in zip(sizes, sizes[1:]))))
    by_rows: dict[object, list] = {}
    for group in groups:
        rows = sum(len(feat.train[a]) for a in group[0])
        by_rows.setdefault(rows if rows < feat.dim else (rows, *group[0]), []).append(group)
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
                per_window = (np.mean((out - test_x) ** 2, axis=1) if kind == "dae"
                              else np.sum((out - result.center[g]) ** 2, axis=1))
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
