"""Every settings type checks itself through ``core.check_settings``, one rule row per check.

Each row of the six types has a case here: a bad value raises ConfigError
``<field> must be <rule>, got <value>``. An ``ast`` scan keeps any
``__post_init__`` in ``src/mobanom`` from raising ConfigError itself.
"""

import ast
import collections
import math
import pathlib
import re
import sys

import pytest

from mobanom import ingest, inject, simulator
from mobanom.core import ConfigError
from mobanom.detectors import classical, nets
from mobanom.llm import client

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mobanom"

MODULES = {
    simulator.SimConfig: simulator,
    inject.InjectConfig: inject,
    nets.NetHyper: nets,
    classical.TraodParams: classical,
    client.LlmEndpointConfig: client,
    ingest.StayPointParams: ingest,
}

NAN, INF = math.nan, math.inf

# (type, bad values, the field the message names), one per rule row, in the order of the rows
CASES = [
    (simulator.SimConfig, {"weeks": 0}, "weeks"),
    (simulator.SimConfig, {"n_agents": 0}, "n_agents"),
    (simulator.SimConfig, {"tick_minutes": 7}, "tick_minutes"),
    (simulator.SimConfig, {"seed": -1}, "seed"),
    (simulator.SimConfig, {"n_hunger": -1}, "n_hunger"),
    (simulator.SimConfig, {"n_social": -1}, "n_social"),
    (simulator.SimConfig, {"n_work": -1}, "n_work"),
    (simulator.SimConfig, {"n_agents": 89}, "n_agents"),  # 30 + 30 + 30 outliers
    (simulator.SimConfig, {"outlier_onset_fraction": 1.0}, "outlier_onset_fraction"),
    (simulator.SimConfig, {"n_apartments": 0}, "n_apartments"),
    (simulator.SimConfig, {"n_workplaces": 0}, "n_workplaces"),
    (simulator.SimConfig, {"n_restaurants": 0}, "n_restaurants"),
    (simulator.SimConfig, {"n_pubs": 0}, "n_pubs"),
    (simulator.SimConfig, {"n_recreation": 0}, "n_recreation"),
    (simulator.SimConfig, {"hunger_threshold": NAN}, "hunger_threshold"),
    (simulator.SimConfig, {"social_threshold": INF}, "social_threshold"),
    (simulator.SimConfig, {"hunger_multiplier": -1.0}, "hunger_multiplier"),
    (simulator.SimConfig, {"social_rate_per_hour": NAN}, "social_rate_per_hour"),
    (simulator.SimConfig, {"mean_friend_degree": INF}, "mean_friend_degree"),
    (simulator.SimConfig, {"hunger_rate_range": (0.12, 0.06)}, "hunger_rate_range"),
    (simulator.SimConfig, {"pref_weight_range": (0.1, INF)}, "pref_weight_range"),
    (simulator.SimConfig, {"bbox": (40.2, 40.0, 116.2, 116.5)}, "bbox"),
    (simulator.SimConfig, {"bbox": (40.0, 40.2, 116.5, 181.0)}, "bbox"),
    (simulator.SimConfig, {"pref_weight_range": (0.0, 1.0)}, "pref_weight_range"),
    (inject.InjectConfig, {"switch_fraction": 1.0}, "switch_fraction"),
    (inject.InjectConfig, {"n_outlier_pairs": 0}, "n_outlier_pairs"),
    (inject.InjectConfig, {"seed": -1}, "seed"),
    (nets.NetHyper, {"epochs": 0}, "epochs"),
    (nets.NetHyper, {"embed_dim": 0}, "embed_dim"),
    (nets.NetHyper, {"seed": -1}, "seed"),
    (nets.NetHyper, {"learning_rate": NAN}, "learning_rate"),
    (classical.TraodParams, {"D": -1.0}, "D"),
    (classical.TraodParams, {"p_frac": 1.5}, "p_frac"),
    (classical.TraodParams, {"seed": -1}, "seed"),
    (client.LlmEndpointConfig, {"provider": "carrier-pigeon"}, "provider"),
    (client.LlmEndpointConfig, {"max_retries": -1}, "max_retries"),
    (client.LlmEndpointConfig, {"max_concurrent_requests": 0}, "max_concurrent_requests"),
    (client.LlmEndpointConfig, {"max_output_tokens": 0}, "max_output_tokens"),
    (client.LlmEndpointConfig, {"request_timeout_s": INF}, "request_timeout_s"),
    (client.LlmEndpointConfig, {"temperature": NAN}, "temperature"),
    (ingest.StayPointParams, {"dist_threshold_m": 0.0}, "dist_threshold_m"),
    (ingest.StayPointParams, {"time_threshold_s": NAN}, "time_threshold_s"),
]


@pytest.mark.parametrize("cls, bad, field", CASES, ids=[f"{c.__name__}-{f}" for c, _, f in CASES])
def test_a_bad_value_names_its_field_and_itself(cls, bad, field):
    # were, among others: `weeks must be >= 1`, `outlier counts exceed n_agents`, `stay-point thresholds must be
    # positive and finite`, which did not name the bad value (or, for the thresholds, which one was bad)
    with pytest.raises(ConfigError, match=rf"^{field} must be .+, got {re.escape(str(bad[field]))}$"):
        cls(**bad)


def test_every_rule_row_has_a_case(monkeypatch):
    rows = {}
    for cls, module in MODULES.items():
        monkeypatch.setattr(module, "check_settings", lambda settings, rules: rows.update({type(settings): len(rules)}))
        cls()
    assert rows == collections.Counter(cls for cls, _, _ in CASES)


def post_init_config_raises():
    """(file, class) of each ``raise ConfigError`` inside a ``__post_init__`` under ``SRC``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for cls in (n for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"):
                for node in (n for n in ast.walk(fn) if isinstance(n, ast.Raise) and n.exc is not None):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if ast.unparse(exc).rpartition(".")[2] == "ConfigError":
                        found.append((str(path.relative_to(SRC)), cls.name))
    return found


def test_settings_types_raise_only_through_the_checker():
    assert post_init_config_raises() == []


def test_the_scan_sees_a_raise_in_a_post_init(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        "from mobanom import core\n"
        "from mobanom.core import ConfigError, InvalidInputError\n"
        "class Rogue:\n"
        "    def __post_init__(self):\n"
        "        if self.n < 1:\n"
        "            raise ConfigError('n must be >= 1')\n"
        "        raise core.ConfigError\n"
        "class Fine:\n"
        "    def __post_init__(self):\n"
        "        raise InvalidInputError('not a setting')\n"
        "def convert(value):\n"
        "    raise ConfigError(value)\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert post_init_config_raises() == [("rogue.py", "Rogue"), ("rogue.py", "Rogue")]
