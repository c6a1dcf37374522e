import inspect
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

from mobanom.core import AuthError, ConfigError, EndpointError, LabelEntry, LabelSet
from mobanom.detectors import SplitSpec
from mobanom.evaluation import roc_auc
from mobanom.llm import (
    LlmEndpointConfig,
    MockEndpoint,
    OracleMockEndpoint,
    PromptCache,
    build_prompt,
    dump_prompts,
    endpoint_from_config,
    run_llm_detection,
)
from mobanom.llm import client, prompts
from mobanom.llm.client import HttpChatEndpoint, build_bundles
from mobanom.simulator import SimConfig, simulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = SimConfig(n_agents=12, weeks=1, n_hunger=2, n_social=0, n_work=1, seed=2)


@pytest.fixture(scope="module")
def sim():
    return simulate(SMALL)


class TestMocks:
    def test_constant_mock_passthrough(self, sim):
        endpoint = MockEndpoint(lambda b: "[0.85]")
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert set(table.scores) == set(sim.dataset.agent_ids())
        assert all(s == 0.85 for s in table.scores.values())
        assert endpoint.calls == len(sim.dataset.trajectories)

    def test_oracle_mock_gives_perfect_auc(self, sim):
        endpoint = OracleMockEndpoint(sim.labels)
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert roc_auc(table.scores, sim.labels) == 1.0

    def test_oracle_mock_combine(self, sim):
        endpoint = OracleMockEndpoint(sim.labels)
        table = run_llm_detection(sim.dataset, sim.labels, "combine", endpoint)
        assert roc_auc(table.scores, sim.labels) == 1.0

    def test_hint_modes_render(self, sim):
        endpoint = OracleMockEndpoint(sim.labels)
        for mode in ("separate-hint", "combine-hint"):
            table = run_llm_detection(sim.dataset, sim.labels, mode, endpoint)
            assert roc_auc(table.scores, sim.labels) == 1.0

    def test_oracle_answers_are_read_when_it_answers(self, sim):
        outliers = {a for a, e in sim.labels.entries.items() if e.is_outlier}
        endpoint = OracleMockEndpoint(sim.labels)
        bundle = build_bundles(sim.dataset, sim.labels, "combine")[0]
        assert endpoint.complete(bundle).raw_text == "\n".join(
            f"user {i}: {'[0.9]' if a in outliers else '[0.1]'}" for i, a in enumerate(bundle.agent_ids, start=1))
        with mock.patch.object(client, "ORACLE_OUTLIER_TEXT", "[0.7]"):
            table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert outliers and table.scores == {a: 0.7 if a in outliers else 0.1 for a in sim.dataset.agent_ids()}


class TestCache:
    def test_warm_cache_issues_zero_calls(self, sim, tmp_path):
        cache_dir = str(tmp_path / "cache")
        endpoint = OracleMockEndpoint(sim.labels)
        t1 = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, cache_dir=cache_dir)
        first_calls = endpoint.calls
        assert first_calls == len(sim.dataset.trajectories)
        t2 = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, cache_dir=cache_dir)
        assert endpoint.calls == first_calls  # all served from disk
        assert t1.scores == t2.scores

    def test_cache_file_shape(self, sim, tmp_path):
        cache_dir = str(tmp_path / "cache")
        endpoint = OracleMockEndpoint(sim.labels)
        run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, cache_dir=cache_dir)
        files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
        assert len(files) == len(sim.dataset.trajectories)
        with open(os.path.join(cache_dir, files[0])) as fh:
            obj = json.load(fh)
        assert {"request", "raw_response", "timestamp"} <= set(obj)

    @pytest.mark.parametrize("raw", [5, ["[0.9]"]])
    def test_a_non_string_answer_is_a_logged_miss(self, tmp_path, caplog, raw):
        # was returned as it is, and parse_separate_score then raised TypeError
        cache = PromptCache(str(tmp_path / "cache"))
        key = PromptCache.key("m", "paper-v1", "text")
        with open(os.path.join(cache.cache_dir, key + ".json"), "w") as fh:
            json.dump({"request": {}, "raw_response": raw}, fh)
        assert cache.get(key) is None
        assert "unreadable cache entry" in caplog.text

    def test_key_depends_on_model_and_template(self):
        k1 = PromptCache.key("m1", "paper-v1", "text")
        k2 = PromptCache.key("m2", "paper-v1", "text")
        k3 = PromptCache.key("m1", "clean-v1", "text")
        assert len({k1, k2, k3}) == 3


class TestFailureHandling:
    def test_unparseable_answers_omitted(self, sim):
        endpoint = MockEndpoint(lambda b: "I cannot answer that.")
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert table.scores == {}
        assert set(table.omitted) == set(sim.dataset.agent_ids())
        assert all("parse error" in reason for reason in table.omitted.values())

    def test_endpoint_error_omits_agents(self, sim):
        def flaky(bundle):
            raise EndpointError("boom")

        class Raising(MockEndpoint):
            def complete(self, bundle):
                raise EndpointError("boom")

        table = run_llm_detection(sim.dataset, sim.labels, "separate", Raising(flaky))
        assert table.scores == {}
        assert all("endpoint error" in r for r in table.omitted.values())

    def test_auth_error_is_fatal(self, sim):
        # and stops the queued requests, which were all still sent
        def unauthorized(bundle):
            raise AuthError("bad token")

        endpoint = MockEndpoint(unauthorized)  # counts each call before it raises
        with pytest.raises(AuthError):
            run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, max_concurrent=1)
        assert endpoint.calls < len(sim.dataset.trajectories)

    def test_partial_combine_parse_keeps_resolved(self, sim):
        def drop_first(bundle):
            lines = [
                f"user {i}: [0.5]" for i in range(2, len(bundle.agent_ids) + 1)
            ]
            return "\n".join(lines)

        endpoint = MockEndpoint(drop_first)
        table = run_llm_detection(sim.dataset, sim.labels, "combine", endpoint)
        assert len(table.scores) == len(sim.dataset.trajectories) - 1
        assert len(table.omitted) == 1


class TestPerBundleOutcomes:
    def test_each_bundle_scores_or_omits_its_own_agents(self, sim, tmp_path):
        # combine mode; bundle 0's request fails, 1's answer has no user line, 2's resolves only user 2
        with mock.patch.object(client, "COMBINE_CHAR_BUDGET", 8000):
            bundles = build_bundles(sim.dataset, sim.labels, "combine")
        texts = [b.text for b in bundles]
        assert len(bundles) >= 4

        def reply(bundle):
            k = texts.index(bundle.text)
            if k == 0:
                raise EndpointError("quota")
            users = [] if k == 1 else [2] if k == 2 else range(1, len(bundle.agent_ids) + 1)
            return "\n".join(f"user {i}: [0.{i}]" for i in users) or "I cannot tell."

        scores, omitted = {}, {}
        for k, bundle in enumerate(bundles):
            for i, agent_id in enumerate(bundle.agent_ids, start=1):
                if k == 0:
                    omitted[agent_id] = "endpoint error: quota"
                elif k == 1 or (k == 2 and i != 2):
                    omitted[agent_id] = "parse error: no score resolved"
                else:
                    scores[agent_id] = i / 10
        cache_dir = tmp_path / "cache"
        endpoint = MockEndpoint(reply)
        for calls in (len(bundles), len(bundles) + 1):  # a warm rerun asks again only for the failed bundle
            with mock.patch.object(client, "COMBINE_CHAR_BUDGET", 8000):
                table = run_llm_detection(sim.dataset, sim.labels, "combine", endpoint, cache_dir=str(cache_dir),
                                          max_concurrent=3)
            assert table.scores == scores and table.omitted == omitted
            assert endpoint.calls == calls
            answered = sorted(PromptCache.key("mock", "paper-v1", text) + ".json" for text in texts[1:])
            assert sorted(os.listdir(cache_dir)) == answered


class TestBundling:
    def test_combine_char_budget_splits_batches(self, sim):
        with mock.patch.object(client, "COMBINE_CHAR_BUDGET", 4000):
            bundles = build_bundles(sim.dataset, sim.labels, "combine")
        assert len(bundles) > 1
        covered = [a for b in bundles for a in b.agent_ids]
        assert covered == sim.dataset.agent_ids()  # contiguous ranges, no overlap

    def test_concurrent_dispatch_deterministic(self, sim):
        endpoint = MockEndpoint(lambda b: "[0.4]")
        t1 = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, max_concurrent=4)
        t2 = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint, max_concurrent=1)
        assert t1.scores == t2.scores


    @pytest.mark.parametrize("mode", ["separate-hint", "combine-hint"])
    def test_hints_treat_an_agent_the_split_does_not_name_as_all_training(self, sim, mode):
        # as the detectors do: the split names only the first agent, so every other one is all history
        ds, labels = sim.dataset, sim.labels
        first = ds.trajectories[0].agent_id
        every = SplitSpec(split_index={**{t.agent_id: len(t.points) for t in ds.trajectories}, first: 1})
        texts = [b.text for b in build_bundles(ds, labels, mode, split=SplitSpec(split_index={first: 1}))]
        assert texts == [b.text for b in build_bundles(ds, labels, mode, split=every)]


class TestDumpPrompts:
    def test_dump_writes_files_without_endpoint(self, sim, tmp_path):
        out = str(tmp_path / "prompts")
        paths = dump_prompts(sim.dataset, sim.labels, "separate-hint", out)
        assert len(paths) == len(sim.dataset.trajectories) + 1
        assert paths[-1] == os.path.join(out, "prompts_index.jsonl")
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths)
        with open(paths[0]) as fh:
            text = fh.read()
        assert "***<deviate-point>***" in text


def test_each_prompt_default_lives_in_one_place():
    for fn in (build_prompt, build_bundles, run_llm_detection, dump_prompts):
        assert inspect.signature(fn).parameters["template_version"].default == prompts.DEFAULT_TEMPLATE, fn.__name__
    concurrency = inspect.signature(run_llm_detection).parameters["max_concurrent"].default
    assert concurrency == LlmEndpointConfig().max_concurrent_requests


class TestHttpEndpoint:
    def test_unknown_provider(self):
        # a provider outside PROVIDERS fails in LlmEndpointConfig (tests/test_settings.py)
        with pytest.raises(ConfigError, match="unknown provider 'mock-constant'"):
            HttpChatEndpoint(LlmEndpointConfig(provider="mock-constant"))

    def test_missing_token_raises_auth(self, sim, monkeypatch):
        monkeypatch.delenv("LLM_API_TOKEN", raising=False)
        config = LlmEndpointConfig(base_url="https://example.invalid", provider="openai",
                                   model_name="m", max_retries=0)
        endpoint = HttpChatEndpoint(config)
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        with pytest.raises(AuthError):
            endpoint.complete(bundles[0])

    def test_retry_then_success(self, sim, monkeypatch):
        monkeypatch.setenv("LLM_API_TOKEN", "token")
        config = LlmEndpointConfig(base_url="https://api.test", provider="openai",
                                   model_name="m", max_retries=2)
        endpoint = HttpChatEndpoint(config)
        attempts = {"n": 0}

        class Resp:
            def __init__(self, code, body=None):
                self.status_code = code
                self.text = "err"
                self._body = body

            def json(self):
                return self._body

        def fake_post(url, json=None, headers=None, timeout=None):
            attempts["n"] += 1
            if attempts["n"] < 3:
                return Resp(503)
            return Resp(200, {"choices": [{"message": {"content": "[0.6]"}}],
                              "usage": {"prompt_tokens": 10, "completion_tokens": 5}})

        import requests

        monkeypatch.setattr(requests, "post", fake_post)
        monkeypatch.setattr("time.sleep", lambda s: None)
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        answer = endpoint.complete(bundles[0])
        assert answer.raw_text == "[0.6]"
        assert answer.request_tokens == 10
        assert attempts["n"] == 3

    def test_retries_exhausted(self, sim, monkeypatch):
        monkeypatch.setenv("LLM_API_TOKEN", "token")
        config = LlmEndpointConfig(base_url="https://api.test", provider="anthropic",
                                   model_name="m", max_retries=1)
        endpoint = HttpChatEndpoint(config)

        class Resp:
            status_code = 500
            text = "oops"

        import requests

        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        monkeypatch.setattr("time.sleep", lambda s: None)
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        with pytest.raises(EndpointError):
            endpoint.complete(bundles[0])

    def test_auth_http_codes_fatal(self, sim, monkeypatch):
        monkeypatch.setenv("LLM_API_TOKEN", "token")
        config = LlmEndpointConfig(base_url="https://api.test", provider="openai", model_name="m")
        endpoint = HttpChatEndpoint(config)

        class Resp:
            status_code = 401
            text = "who are you"

        import requests

        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        with pytest.raises(AuthError):
            endpoint.complete(bundles[0])

    @pytest.mark.parametrize("provider", ["openai", "anthropic"])
    @pytest.mark.parametrize(
        "body",
        ["not json", {"id": "x"}, {"choices": [], "content": []}, None],
        ids=["not_json", "no_text_field", "empty_lists", "null"],
    )
    def test_malformed_200_body_omits_agents(self, sim, monkeypatch, provider, body):
        monkeypatch.setenv("LLM_API_TOKEN", "token")
        config = LlmEndpointConfig(base_url="https://api.test", provider=provider, model_name="m")
        endpoint = HttpChatEndpoint(config)

        class Resp:
            status_code = 200
            text = str(body)

            def json(self):
                if body == "not json":
                    raise ValueError("Expecting value: line 1 column 1 (char 0)")
                return body

        import requests

        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        with pytest.raises(EndpointError, match="malformed response body"):
            endpoint.complete(bundles[0])
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert table.scores == {}
        assert set(table.omitted) == set(sim.dataset.agent_ids())
        assert all(r.startswith("endpoint error: malformed response body") for r in table.omitted.values())

    def test_endpoint_from_config(self, sim):
        assert isinstance(endpoint_from_config(LlmEndpointConfig(provider="openai")), HttpChatEndpoint)
        mock = endpoint_from_config(LlmEndpointConfig(provider="mock-constant", mock_text="[0.3]"))
        assert isinstance(mock, MockEndpoint)
        oracle = endpoint_from_config(LlmEndpointConfig(provider="mock-oracle"), labels=sim.labels)
        assert isinstance(oracle, OracleMockEndpoint)
        with pytest.raises(ConfigError):
            endpoint_from_config(LlmEndpointConfig(provider="mock-oracle"))


DEMO_06_STDOUT = (
    "----- prompt head -----\n"
    "Task: You are a human mobility trajectory behavior anomaly detector. Given a historical human "
    "trajectory information, can you analyse the pattern behind the trajectory and give an anomaly score "
    "(from 0 to 1, where larger value indicates more abnormal) of this user's behavior?\n"
    "Description of input trajectory data: A temporal sequence of visited place points, each place is "
    "consisted of the visited t ...\n"
    "\n"
    "parsed score from sample answer: 0.7\n"
    "\n"
    "first run:  15 endpoint calls\n"
    "second run: 0 endpoint calls (answers served from cache)\n"
    "\n"
    "Detector           Top-3 Hits  AP score  AUC score  Agents  Outliers  Omitted\n"
    "-----------------  ----------  --------  ---------  ------  --------  -------\n"
    "llm_separate_hint  3           1.0000    1.0000     15      3         0\n"
    "\n"
    "combine mode resolved 15 agents from 1 prompt(s)\n"
)


def test_llm_demo_prints_what_it_always_printed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    demo = os.path.join(ROOT, "demos", "06_llm_prompt_harness.py")
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_06_STDOUT
