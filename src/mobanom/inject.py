"""Imposter injection: exchange trajectory tails between agent pairs.

A pair (A, B) is cut at a single timestamp anchored to A's trajectory: the
departure of A's stay point at index ``floor(switch_fraction * len(A)) - 1``.
Every stay point arriving strictly after that timestamp changes owner, in both
directions.  Cutting both agents at one shared timestamp is the only way to
guarantee monotonic outputs when the pair's points interleave in time.

Both members of a swapped pair are labeled ``imposter`` with ``deviate_index``
pointing at the first swapped-in point.  Pairs whose swap would be a no-op or
would break timestamp monotonicity are resampled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    Dataset,
    InjectionError,
    InvalidInputError,
    LabelEntry,
    LabelSet,
    Trajectory,
    check_settings,
    params_hash,
)

MAX_PARTNER_ATTEMPTS = 100


@dataclass(frozen=True)
class InjectConfig:
    n_outlier_pairs: int = 12
    switch_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        check_settings(self, [("switch_fraction", 0.0 < self.switch_fraction < 1.0, "in (0, 1)"),
                              ("n_outlier_pairs", self.n_outlier_pairs >= 1, ">= 1"),
                              ("seed", self.seed >= 0, ">= 0")])


def _switch_time(traj: Trajectory, switch_fraction: float) -> int | None:
    idx = int(np.floor(switch_fraction * len(traj))) - 1
    if idx < 0 or idx >= len(traj):
        return None
    return int(traj.depart[idx])


def _joined(head: Trajectory, cut: int, tail: Trajectory, tail_cut: int) -> Trajectory:
    """``head``'s stays before ``cut``, then ``tail``'s from ``tail_cut`` on, as ``head``'s agent."""
    return Trajectory(head.agent_id, arrive=np.concatenate([head.arrive[:cut], tail.arrive[tail_cut:]]),
                      depart=np.concatenate([head.depart[:cut], tail.depart[tail_cut:]]),
                      place_code=np.concatenate([head.place_code[:cut], tail.place_code[tail_cut:] + len(head.places)]),
                      places=head.places + tail.places)


def _swap_pair(a: Trajectory, b: Trajectory, switch_time: int) -> tuple[Trajectory, Trajectory, int, int] | None:
    """Exchange the post-switch tails; None if the swap is degenerate or invalid."""
    a_cut, b_cut = a.stays_before(switch_time + 1), b.stays_before(switch_time + 1)  # the stays arriving by then
    if a_cut == len(a) or b_cut == len(b):
        return None
    try:  # a swap whose trajectory breaks the trajectory rule is refused when built
        return _joined(a, a_cut, b, b_cut), _joined(b, b_cut, a, a_cut), a_cut, b_cut
    except InvalidInputError:
        return None


def check_pairs(cfg: InjectConfig, n_agents: int) -> None:
    """ConfigError unless ``n_agents`` agents make ``cfg.n_outlier_pairs`` disjoint pairs."""
    if 2 * cfg.n_outlier_pairs > n_agents:
        raise ConfigError(f"need {2 * cfg.n_outlier_pairs} agents for {cfg.n_outlier_pairs} pairs, have {n_agents}")


def inject_imposter(ds: Dataset, cfg: InjectConfig) -> tuple[Dataset, LabelSet]:
    """Swap tails between ``n_outlier_pairs`` disjoint random pairs.

    Unpaired trajectories pass through untouched (labeled ``none``).  Raises
    :class:`InjectionError` when no compatible partner is found for some agent
    within the attempt budget.
    """
    check_pairs(cfg, len(ds.trajectories))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 10)))

    swapped: dict[str, tuple[Trajectory, int]] = {}  # agent -> (its trajectory after the swap, its deviate index)
    for _ in range(cfg.n_outlier_pairs):
        pool = [t for t in ds.trajectories if t.agent_id not in swapped]
        result = None
        for _attempt in range(MAX_PARTNER_ATTEMPTS):
            i, j = rng.choice(len(pool), size=2, replace=False)
            a, b = pool[int(i)], pool[int(j)]
            switch_time = _switch_time(a, cfg.switch_fraction)
            if switch_time is None:
                continue
            result = _swap_pair(a, b, switch_time)
            if result is not None:
                break
        if result is None:
            raise InjectionError(f"no swappable pair found after {MAX_PARTNER_ATTEMPTS} attempts")
        new_a, new_b, dev_a, dev_b = result
        swapped.update({new_a.agent_id: (new_a, dev_a), new_b.agent_id: (new_b, dev_b)})

    out = [swapped.get(t.agent_id, (t, None)) for t in ds.trajectories]
    entries = {t.agent_id: LabelEntry(index is not None, "none" if index is None else "imposter", index) for t, index in out}
    meta = {**ds.meta, "injected": "imposter", "switch_fraction": cfg.switch_fraction,
            "n_outlier_pairs": cfg.n_outlier_pairs, "inject_seed": cfg.seed, "inject_config_hash": params_hash(asdict(cfg))}
    return Dataset([t for t, _ in out], meta), LabelSet(entries)
