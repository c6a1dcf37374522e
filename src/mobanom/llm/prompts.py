"""Prompt templates, trajectory-to-text rendering, and answer-score parsing.

Four prompt modes: one trajectory per prompt (``separate``) or many
(``combine``), each with an optional hint that marks the suspected deviation
point inside the rendered sequence with ``***<deviate-point>***``.

Two template versions exist, one ``TEMPLATES`` record each.  ``paper-v1``
keeps the original benchmark wording byte-for-byte, including its spelling
quirks ("trajector", "esimated"), because the exact wording is part of the
method under test and golden files pin it.  ``clean-v1`` is the corrected
variant.  Rendering is byte-deterministic for a fixed template version.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass

from ..core import ConfigError, InvalidInputError, ScoreParseError, PartialParseError, Trajectory, haversine_km
from ..core import settings_of

DEVIATE_MARKER = "***<deviate-point>***"

MODES = ("separate", "separate_hint", "combine", "combine_hint")
DEFAULT_MODE = "separate"  # the mode of a run that sets none

_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def normalize_mode(mode: str) -> str:
    """The name in MODES that ``mode`` spells, in any case, with ``-`` for ``_`` and ``with_hint`` or ``withhint``."""
    norm = re.sub(r"(_with_hint|withhint)$", "_hint", mode.strip().lower().replace("-", "_"))
    if norm not in MODES:
        raise ConfigError(f"unknown prompt mode {mode!r}")
    return norm


@dataclass
class PromptBundle:
    text: str
    agent_ids: list[str]
    mode: str
    template_version: str


def _clock_label(ts: int) -> str:
    day = _DAY_NAMES[(ts // 86400 + 3) % 7]
    sod = ts % 86400
    return f"{day} {sod // 3600:02d}:{sod % 3600 // 60:02d}"


def render_stay_sequence(t: Trajectory, deviate_index: int | None = None) -> str:
    """Render a trajectory as ``Ddd HH:MM, Type, <dist> km ->...`` text.

    The distance to the next stay follows each point except the last; the
    deviate marker, when requested, lands right after the place type of the
    point where the deviation starts.
    """
    if not t.points:
        raise InvalidInputError("cannot render an empty trajectory")
    if deviate_index is not None and not (0 <= deviate_index < len(t.points)):
        raise InvalidInputError(f"deviate_index {deviate_index} out of range")
    parts = []
    for i, sp in enumerate(t.points):
        label = f"{_clock_label(sp.arrive)}, {sp.place_type}"
        marked = i == deviate_index
        if marked:
            label += f" {DEVIATE_MARKER}"
        if i + 1 < len(t.points):
            dist = haversine_km(sp.location, t.points[i + 1].location)
            # the marker keeps a space on both sides: "Pub ***<deviate-point>*** , 1.5 km"
            label += f" , {dist:.1f} km ->" if marked else f", {dist:.1f} km ->"
        parts.append(label)
    return "".join(parts)


# the wording of one template version; task_combine holds "{n}" for the number of users
Template = namedtuple("Template", "task_separate task_combine hint description sequence_prefix "
                                  "closing_separate closing_combine")

TEMPLATES = {
    "paper-v1": Template(
        task_separate=(
            "Task: You are a human mobility trajectory behavior anomaly detector. "
            "Given a historical human trajectory information, can you analyse the pattern "
            "behind the trajectory and give an anomaly score (from 0 to 1, where larger "
            "value indicates more abnormal) of this user's behavior?"
        ),
        task_combine=(
            "Task: You are a human mobility trajectory behavior anomaly detector. "
            "Given a set of {n} users' historical human trajectories information, can you "
            "analyse the pattern behind each user's trajectory and give an anomaly score "
            "(from 0 to 1, where larger value indicates more abnormal) of users' behavior?"
        ),
        hint=(
            "Hint: The anomaly users would suddenly change their mobility pattern starting "
            "from a time point, which means after a certain time, their mobility behavior "
            "would significantly deviate from their past behaviors. We would use "
            f'"{DEVIATE_MARKER}" inside each trajectory to denote the time point as hint.'
        ),
        description=(
            "Description of input trajectory data: A temporal sequence of visited place "
            "points, each place is consisted of the visited timestamp and its type of "
            "location. Then the traveled distance to next location is given."
        ),
        sequence_prefix="Here is the sequence of trajector: ",
        closing_separate=(
            "Give your analysis and present your esimated anomaly score (from 0 to 1, "
            "where larger value indicates more abnormal) inside a pair of square brackets [] :"
        ),
        closing_combine=(
            "Give your analysis and present your esimated anomaly scores about all users "
            "(from 0 to 1, where larger value indicates more abnormal):"
        ),
    ),
    "clean-v1": Template(
        task_separate=(
            "Task: You are a human mobility trajectory behavior anomaly detector. "
            "Given historical human trajectory information, can you analyse the pattern "
            "behind the trajectory and give an anomaly score (from 0 to 1, where a larger "
            "value indicates more abnormal behavior) for this user?"
        ),
        task_combine=(
            "Task: You are a human mobility trajectory behavior anomaly detector. "
            "Given a set of {n} users' historical trajectories, can you analyse the pattern "
            "behind each user's trajectory and give an anomaly score (from 0 to 1, where a "
            "larger value indicates more abnormal behavior) for each user?"
        ),
        hint=(
            "Hint: Anomalous users suddenly change their mobility pattern starting from a "
            "time point: after a certain time, their mobility behavior significantly "
            f'deviates from their past behavior. We use "{DEVIATE_MARKER}" inside each '
            "trajectory to denote that time point as a hint."
        ),
        description=(
            "Description of input trajectory data: A temporal sequence of visited place "
            "points; each place consists of the visited timestamp and its type of "
            "location. The traveled distance to the next location follows each point."
        ),
        sequence_prefix="Here is the trajectory sequence: ",
        closing_separate=(
            "Give your analysis and present your estimated anomaly score (from 0 to 1, "
            "where a larger value indicates more abnormal behavior) inside a pair of "
            "square brackets [] :"
        ),
        closing_combine=(
            "Give your analysis and present your estimated anomaly scores for all users "
            "(from 0 to 1, where a larger value indicates more abnormal behavior), one "
            "per line as 'user <i>: [<score>]':"
        ),
    ),
}
TEMPLATE_VERSIONS = tuple(sorted(TEMPLATES))
DEFAULT_TEMPLATE = "paper-v1"  # the template of a run that sets none


def check_template(template_version: str) -> None:
    """ConfigError unless ``template_version`` names a prompt template."""
    if template_version not in TEMPLATE_VERSIONS:
        raise ConfigError(f"unknown template_version {template_version!r}")


def prompt_settings(m: dict) -> dict:
    """The normalized ``mode`` and the checked ``template_version`` that the settings mapping ``m`` sets."""
    s = {"mode": normalize_mode(m.get("mode", DEFAULT_MODE)),
         **settings_of(build_prompt, m, {"template": "template_version"})}
    check_template(s["template_version"])
    return s


def build_prompt(
    mode: str,
    trajectories: list[Trajectory],
    deviate_indices: dict[str, int] | None = None,
    template_version: str = DEFAULT_TEMPLATE,
) -> PromptBundle:
    """Assemble the full prompt for a mode; byte-stable per template version.

    Separate modes take exactly one trajectory.  Hint modes require a deviate
    index for every rendered agent (non-outliers get their split fallback).
    """
    mode = normalize_mode(mode)
    check_template(template_version)
    if not trajectories:
        raise ConfigError("no trajectories to render")
    hint = mode.endswith("_hint")
    deviate_indices = deviate_indices or {}
    if hint:
        missing = [t.agent_id for t in trajectories if t.agent_id not in deviate_indices]
        if missing:
            raise ConfigError(f"hint mode needs deviate indices for agents: {missing}")

    tpl = TEMPLATES[template_version]
    if mode.startswith("separate"):
        if len(trajectories) != 1:
            raise ConfigError(f"separate modes render one trajectory, got {len(trajectories)}")
        t = trajectories[0]
        seq = render_stay_sequence(t, deviate_indices.get(t.agent_id) if hint else None)
        lines = [tpl.task_separate, *([tpl.hint] if hint else []), tpl.description,
                 f"{tpl.sequence_prefix}{seq}.", tpl.closing_separate]
    else:
        lines = [tpl.task_combine.format(n=len(trajectories)), *([tpl.hint] if hint else [])]
        for i, t in enumerate(trajectories, start=1):
            seq = render_stay_sequence(t, deviate_indices.get(t.agent_id) if hint else None)
            lines.append(f"Here is the sequence of user {i}: {seq}")
        lines.append(tpl.closing_combine)

    return PromptBundle(
        text="\n".join(lines),
        agent_ids=[t.agent_id for t in trajectories],
        mode=mode,
        template_version=template_version,
    )


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")
_NUMBER_RE = re.compile(r"^\d*\.?\d+$")


def _valid_score(text: str) -> float | None:
    text = text.strip()
    if not _NUMBER_RE.match(text):
        return None
    value = float(text)
    return value if 0.0 <= value <= 1.0 else None


def _last_bracketed_score(text: str) -> float | None:
    """The last ``[x]`` in ``text`` whose x is a number in [0, 1], or None."""
    scores = [v for v in map(_valid_score, _BRACKET_RE.findall(text)) if v is not None]
    return scores[-1] if scores else None


def parse_separate_score(raw_text: str) -> float:
    """Extract the last bracketed score in [0, 1]; answers restate it at the end."""
    score = _last_bracketed_score(raw_text)
    if score is None:
        raise ScoreParseError("no bracketed score in [0, 1] found", raw_text)
    return score


_USER_LINE_RE = re.compile(r"\buser\s*(\d+)\b(.*)$", re.IGNORECASE)
_BARE_SCORE_RE = re.compile(r"^\s*[:\-]?\s*(\d*\.?\d+)\b")


def parse_combine_scores(raw_text: str, agent_ids: list[str]) -> dict[str, float]:
    """Map ``user <i>`` lines back to agent ids; every agent must resolve once.

    Accepts ``user 3 ... [0.7]`` (bracketed, last bracket on the line wins)
    and ``user 3: 0.7`` (bare).  Missing, duplicate, or out-of-range user
    numbers raise :class:`PartialParseError` listing what did resolve.
    """
    resolved: dict[str, float] = {}
    problems: list[str] = []
    for line in raw_text.splitlines():
        m = _USER_LINE_RE.search(line)
        if not m:
            continue
        idx = int(m.group(1))
        rest = m.group(2)
        value = _last_bracketed_score(rest)
        if value is None:
            bare = _BARE_SCORE_RE.match(rest)
            if bare:
                value = _valid_score(bare.group(1))
        if value is None:
            continue
        if not (1 <= idx <= len(agent_ids)):
            problems.append(f"user {idx} out of range 1..{len(agent_ids)}")
            continue
        agent_id = agent_ids[idx - 1]
        if agent_id in resolved:
            problems.append(f"duplicate score for user {idx}")
            continue
        resolved[agent_id] = value
    unresolved = [a for a in agent_ids if a not in resolved]
    if unresolved or problems:
        raise PartialParseError(
            f"unresolved agents: {unresolved}; problems: {problems}",
            raw_text,
            resolved=resolved,
            unresolved=unresolved,
        )
    return resolved
