"""Packing by whole prompts: the ``build_bundles`` that ``mobanom.llm.client`` replaced with one rendering per trajectory.

Here every combine-mode trajectory is composed twice: once as a throwaway
separate prompt, only to measure it against ``COMBINE_CHAR_BUDGET``, and once
more inside its batch, by :func:`prompt`.  It lives on only as the test
oracle: ``build_bundles`` must give the same bundles, text, agent ids, mode and
template version included.
"""

from __future__ import annotations

from mobanom.core import Dataset, LabelSet, Trajectory
from mobanom.detectors.features import SplitSpec
from mobanom.llm import client
from mobanom.llm.prompts import DEFAULT_TEMPLATE, PromptBundle, _assemble, _sequence, _stay_labels, normalize_mode


def prompt(mode: str, batch: list[Trajectory], deviate_indices: dict[str, int], template_version: str) -> PromptBundle:
    """One prompt in the normalized ``mode`` for the trajectories of ``batch``, each marked at its deviate index in a
    hint mode."""
    hint = mode.endswith("_hint")
    sequences = [_sequence(_stay_labels(t), deviate_indices[t.agent_id] if hint else None) for t in batch]
    return PromptBundle(_assemble(mode, template_version, sequences), [t.agent_id for t in batch], mode,
                        template_version)


def build_bundles(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    template_version: str = DEFAULT_TEMPLATE,
    split: SplitSpec | None = None,
) -> list[PromptBundle]:
    mode = normalize_mode(mode)
    deviate_indices: dict[str, int] = {}
    if mode.endswith("_hint"):
        if split is None:
            split = SplitSpec.from_labels(ds, labels)
        deviate_indices = {t.agent_id: min(split.train_count(t), max(0, len(t.points) - 1)) for t in ds.trajectories}

    separate = mode.startswith("separate")
    batches: list[list] = []  # a separate-mode batch holds one trajectory
    batch_chars = 0
    for t in (t for t in ds.trajectories if t.points):
        cost = 0 if separate else len(prompt("separate", [t], {}, template_version).text)
        if separate or not batches or batch_chars + cost > client.COMBINE_CHAR_BUDGET:
            batches.append([])
            batch_chars = 0
        batches[-1].append(t)
        batch_chars += cost
    return [prompt(mode, batch, deviate_indices, template_version) for batch in batches]
