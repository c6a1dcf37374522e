import http.server
import inspect
import json
import os
import re
import socket
import subprocess
import sys
import threading
from unittest import mock

import llm_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_stays
from mobanom.core import (
    AuthError, ConfigError, Dataset, EndpointError, GeoPoint, LabelEntry, LabelSet, MobanomError, StayPoint,
)
from mobanom.detectors import SplitSpec
from mobanom.evaluation import roc_auc
from mobanom.llm import (
    LlmEndpointConfig,
    MockEndpoint,
    OracleMockEndpoint,
    PromptCache,
    dump_prompts,
    endpoint_from_config,
    run_llm_detection,
)
from mobanom import core
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


@st.composite
def packing_cases(draw):
    """A dataset of up to 6 agents with up to 5 stays each (empty and one-stay trajectories included), its labels, a
    mode, a template, a split and a combine budget.  A hint mode's split is
    None (the labels and the sidecar's fallback) or names some agents, at indices from -1 to past the last stay.  The
    budget is drawn from the sums of consecutive trajectories' costs, so that a batch lands exactly on it, from one
    under a trajectory's cost, so that it is over the budget on its own, or from 0 to 2,000."""
    mode, template_version = draw(st.sampled_from(prompts.MODES)), draw(st.sampled_from(prompts.TEMPLATE_VERSIONS))
    hint = mode.endswith("_hint")
    ids = draw(st.lists(st.sampled_from("abcdefgh"), max_size=6, unique=True))
    trajectories = []
    for agent_id in ids:
        arrive = sorted(draw(st.lists(st.integers(0, 28 * 86400), unique=True, max_size=5)))
        locations = st.builds(GeoPoint, st.floats(39.0, 41.0), st.floats(116.0, 118.0))
        trajectories.append(from_stays(agent_id, [StayPoint(a, a, f"p{i}", draw(st.sampled_from(["Home", "Pub"])),
                                                            draw(locations)) for i, a in enumerate(arrive)]))
    ds = Dataset(trajectories, {"switch_fraction": draw(st.floats(0.0, 1.0))})
    labels = LabelSet({t.agent_id: LabelEntry(True, "imposter", draw(st.integers(0, len(t.points) - 1)))
                       if t.points and draw(st.booleans()) else LabelEntry(False) for t in trajectories})
    named = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    split = SplitSpec({agent_id: draw(st.integers(-1, 6)) for agent_id in named}) if draw(st.booleans()) else None
    costs = [len(llm_oracle.prompt("separate", [t], {}, template_version).text) for t in trajectories if t.points]
    runs = [sum(costs[i:j]) for i in range(len(costs)) for j in range(i + 1, len(costs) + 1)]
    budget = draw(st.one_of(st.sampled_from(runs + [c - 1 for c in costs] or [0]), st.integers(0, 2000)))
    return ds, labels, mode, template_version, split if hint else None, budget


def bundles_or_fault(build, *args):
    try:
        return build(*args)
    except MobanomError as exc:
        return type(exc), str(exc)


class TestPackingOracle:
    @settings(max_examples=300, deadline=None)
    @given(packing_cases())
    def test_bundles_match_the_oracle(self, case):
        *args, budget = case
        with mock.patch.object(client, "COMBINE_CHAR_BUDGET", budget):
            got, want = (bundles_or_fault(build, *args) for build in (build_bundles, llm_oracle.build_bundles))
        assert got == want

    def test_an_empty_trajectory_gets_no_prompt_and_is_omitted(self):
        # render_stay_sequence refused one; build_bundles skips it, and run_llm_detection names why it has no score
        ds = Dataset([from_stays("empty", []), from_stays("a", [StayPoint(0, 0, "p", "Pub", GeoPoint(40.0, 116.0))])])
        for mode in prompts.MODES:
            assert [b.agent_ids for b in build_bundles(ds, LabelSet(), mode, split=SplitSpec({"a": 0}))] == [["a"]]
            table = run_llm_detection(ds, LabelSet(), mode, MockEndpoint(lambda b: "user 1: [0.5]"),
                                      split=SplitSpec({"a": 0}))
            assert (table.scores, table.omitted) == ({"a": 0.5}, {"empty": "empty trajectory"}), mode

    @pytest.mark.parametrize("mode", prompts.MODES)
    def test_each_pair_of_places_is_measured_once(self, sim, mode):
        pairs = sum(len(set(zip(t.place_code.tolist(), t.place_code[1:].tolist()))) for t in sim.dataset.trajectories)
        assert pairs < sum(len(t) - 1 for t in sim.dataset.trajectories)  # agents repeat their hops
        with mock.patch.object(core, "haversine_km", side_effect=core.haversine_km) as measure:
            build_bundles(sim.dataset, sim.labels, mode)
        assert measure.call_count == pairs


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
    for fn in (build_bundles, run_llm_detection, dump_prompts):
        assert inspect.signature(fn).parameters["template_version"].default == prompts.DEFAULT_TEMPLATE, fn.__name__
    concurrency = inspect.signature(run_llm_detection).parameters["max_concurrent"].default
    assert concurrency == LlmEndpointConfig().max_concurrent_requests


class LoopbackServer(http.server.ThreadingHTTPServer):
    """A chat endpoint on 127.0.0.1 that records each request and answers from a script.

    The i-th request gets ``replies[i]`` (the last reply repeats): a ``(status,
    body)`` pair, or ``(status, body, location)`` to send a ``Location`` header;
    ``HANG``, which answers nothing until the test ends; or ``SHORT``, a 200
    whose body stops short of its ``Content-Length``.
    ``server_close`` joins every handler thread.
    """

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.replies, self.requests = [(200, OPENAI_OK)], []
        self.lock, self.released = threading.Lock(), threading.Event()


class LoopbackHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests.append((self.path, self.headers, body))
            reply = self.server.replies[min(len(self.server.requests), len(self.server.replies)) - 1]
        if reply == HANG:
            self.server.released.wait(2.0)
            return
        status, answer, *location = (200, b'{"choices": [') if reply == SHORT else reply
        self.send_response(status)
        for url in location:
            self.send_header("Location", url)
        self.send_header("Content-Length", str(len(answer) + (100 if reply == SHORT else 0)))
        self.end_headers()
        self.wfile.write(answer)

    def log_message(self, *args):
        pass


HANG, SHORT = "hang", "short"
OPENAI_OK = json.dumps({"choices": [{"message": {"role": "assistant", "content": "[0.6]"}}],
                        "usage": {"prompt_tokens": 10, "completion_tokens": 5}}).encode()
ANTHROPIC_OK = json.dumps({"content": [{"type": "text", "text": "[0.6]"}],
                           "usage": {"input_tokens": 10, "output_tokens": 5}}).encode()
OK = {"openai": OPENAI_OK, "anthropic": ANTHROPIC_OK}
PROXY_VARS = [name for var in ("http_proxy", "https_proxy", "all_proxy", "no_proxy") for name in (var, var.upper())]


@pytest.fixture
def start_server(monkeypatch):
    """Starts a running ``LoopbackServer`` per call, with ``LLM_API_TOKEN`` set and no proxy in between.

    An endpoint reads the proxy variables when it is built, after this clears them.
    """
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("LLM_API_TOKEN", "token")
    threads_before = set(threading.enumerate())
    started = []

    def start():
        httpd = LoopbackServer()
        thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        started.append((httpd, thread))
        return httpd

    yield start
    for httpd, thread in started:
        httpd.released.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(5.0)
    assert not any(thread.is_alive() for _, thread in started) and set(threading.enumerate()) <= threads_before


@pytest.fixture
def server(start_server):
    return start_server()


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff delays ``complete`` asks for, in order; nothing sleeps."""
    asked = []
    monkeypatch.setattr("time.sleep", asked.append)
    return asked


def http_endpoint(url, provider="openai", **settings):
    return HttpChatEndpoint(LlmEndpointConfig(base_url=url, provider=provider, model_name="m", **settings))


def backoff(retries):
    return [min(30.0, 0.5 * 2**attempt) for attempt in range(1, retries + 1)]


class TestHttpEndpoint:
    def test_unknown_provider(self):
        # a provider outside PROVIDERS fails in LlmEndpointConfig (tests/test_settings.py)
        with pytest.raises(ConfigError, match="unknown provider 'mock-constant'"):
            HttpChatEndpoint(LlmEndpointConfig(provider="mock-constant"))

    def test_missing_token_raises_auth(self, sim, server, monkeypatch):
        monkeypatch.delenv("LLM_API_TOKEN")
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        for provider, url in [("openai", server.url), ("anthropic", server.url), ("openai", "")]:
            with pytest.raises(AuthError, match="'LLM_API_TOKEN' is empty"):
                http_endpoint(url, provider).complete(bundle)
        assert server.requests == []

    @pytest.mark.parametrize("provider, path, auth", [
        ("openai", "/api/chat/completions", {"Authorization": "Bearer token"}),
        ("anthropic", "/api/v1/messages", {"x-api-key": "token", "anthropic-version": "2023-06-01"}),
    ])
    def test_the_request_on_the_wire(self, sim, server, provider, path, auth):
        server.replies = [(200, OK[provider])]
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        answer = http_endpoint(server.url + "/api/", provider, temperature=0.25, max_output_tokens=64).complete(bundle)
        assert (answer.raw_text, answer.request_tokens, answer.response_tokens) == ("[0.6]", 10, 5)
        [(sent_path, headers, body)] = server.requests
        assert sent_path == path
        assert headers["Content-Type"] == "application/json"
        assert {name: headers[name] for name in auth} == auth
        sent = {name.lower() for name in headers}
        assert sent & {"authorization", "x-api-key", "anthropic-version"} == {name.lower() for name in auth}
        assert body == json.dumps({"model": "m", "messages": [{"role": "user", "content": bundle.text}],
                                   "temperature": 0.25, "max_tokens": 64}).encode("utf-8")

    def test_retry_then_success(self, sim, server, sleeps):
        server.replies = [(503, b"busy"), (503, b"busy"), (200, OPENAI_OK)]
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        answer = http_endpoint(server.url, max_retries=2).complete(bundle)
        assert (answer.raw_text, answer.request_tokens) == ("[0.6]", 10)
        assert len(server.requests) == 3
        assert sleeps == backoff(2)

    def test_retries_exhausted(self, sim, server, sleeps):
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        for status, retries in [(429, 1), (500, 0), (503, 6), (599, 2)]:
            server.requests.clear()
            sleeps.clear()
            server.replies = [(status, b"oops")]
            failed = rf"^request failed after {retries + 1} attempts: transient HTTP {status}$"
            with pytest.raises(EndpointError, match=failed):
                http_endpoint(server.url, "anthropic", max_retries=retries).complete(bundle)
            assert len(server.requests) == retries + 1
            assert sleeps == backoff(retries)
        assert backoff(6)[-1] == 30.0

    def test_auth_http_codes_fatal(self, sim, server, sleeps):
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        for status in (401, 403):
            server.requests.clear()
            server.replies = [(status, b"who are you")]
            with pytest.raises(AuthError, match=rf"endpoint rejected credentials \(HTTP {status}\)"):
                http_endpoint(server.url, max_retries=3).complete(bundle)
            assert len(server.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [201, 302, 400, 404])
    def test_any_other_status_is_refused_after_one_request(self, sim, server, sleeps, status):
        server.replies = [(status, b"\xe2\x9c\x97" + b"x" * 600)]
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        with pytest.raises(EndpointError) as refused:
            http_endpoint(server.url, max_retries=3).complete(bundle)
        assert str(refused.value) == f"HTTP {status}: \u2717{'x' * 499}"
        assert len(server.requests) == 1 and sleeps == []

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_no_redirect_is_followed(self, sim, start_server, sleeps, status):
        # so the token never reaches the host a Location names; urlopen would send it there, and re-send a 307 POST
        server, elsewhere = start_server(), start_server()
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        for provider in ("openai", "anthropic"):
            server.requests.clear()
            server.replies = [(status, b"moved", f"{elsewhere.url}/chat/completions"), (200, OK[provider])]
            with pytest.raises(EndpointError, match=f"^HTTP {status}: moved$"):
                http_endpoint(server.url, provider, max_retries=3).complete(bundle)
            assert len(server.requests) == 1
        assert elsewhere.requests == [] and sleeps == []

    @pytest.mark.parametrize("provider", ["openai", "anthropic"])
    @pytest.mark.parametrize(
        "body",
        ["not json", {"id": "x"}, {"choices": [], "content": []}, None],
        ids=["not_json", "no_text_field", "empty_lists", "null"],
    )
    def test_malformed_200_body_omits_agents(self, sim, server, provider, body):
        server.replies = [(200, b"not json" if body == "not json" else json.dumps(body).encode())]
        endpoint = http_endpoint(server.url, provider)
        bundles = build_bundles(sim.dataset, sim.labels, "separate")
        with pytest.raises(EndpointError, match="malformed response body"):
            endpoint.complete(bundles[0])
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert table.scores == {}
        assert set(table.omitted) == set(sim.dataset.agent_ids())
        assert all(r.startswith("endpoint error: malformed response body") for r in table.omitted.values())
        assert len(server.requests) == 1 + len(bundles)

    @pytest.mark.parametrize("fault, cause", [("timeout", "timed out"), ("closed_port", "Connection refused"),
                                              ("short_body", r"IncompleteRead\(13 bytes read, 100 more expected\)")],
                             ids=["timeout", "closed_port", "short_body"])
    def test_connection_faults_are_retried(self, sim, server, sleeps, fault, cause):
        url = server.url
        if fault == "closed_port":
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        server.replies = [HANG if fault == "timeout" else SHORT]
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        with pytest.raises(EndpointError, match=f"^request failed after 2 attempts: .*{cause}"):
            http_endpoint(url, max_retries=1, request_timeout_s=0.2).complete(bundle)
        assert len(server.requests) == (0 if fault == "closed_port" else 2)
        assert sleeps == backoff(1)

    @pytest.mark.parametrize("base_url", ["", "api.test", "ftp://127.0.0.1", "http://", "http://api.test:abc",
                                          "http://127.0.0.1:99999", "http://[::1", "http://127.0.0.1/a b"])
    def test_an_unusable_url_is_refused_before_any_request(self, sim, server, sleeps, base_url):
        endpoint = http_endpoint(base_url)
        url = re.escape(base_url.rstrip("/") + "/chat/completions")
        with pytest.raises(EndpointError, match=f"^cannot send a request to '{url}': "):
            endpoint.complete(build_bundles(sim.dataset, sim.labels, "separate")[0])
        table = run_llm_detection(sim.dataset, sim.labels, "separate", endpoint)
        assert table.scores == {} and set(table.omitted) == set(sim.dataset.agent_ids())
        assert all(r.startswith("endpoint error: cannot send a request") for r in table.omitted.values())
        assert sleeps == []

    @pytest.mark.parametrize("token", ["tok\nen", "t\u00f6ken\u20ac"], ids=["newline", "not_latin1"])
    def test_a_token_http_client_cannot_send_fails_without_retrying_or_quoting_it(self, sim, server, sleeps,
                                                                                   monkeypatch, token):
        monkeypatch.setenv("LLM_API_TOKEN", token)
        url = f"{server.url}/chat/completions"
        with pytest.raises(EndpointError, match=f"^cannot send a request to '{url}': ") as refused:
            http_endpoint(server.url).complete(build_bundles(sim.dataset, sim.labels, "separate")[0])
        assert "ken" not in str(refused.value)
        assert server.requests == [] and sleeps == []

    def test_the_endpoint_needs_no_requests_package(self, sim, server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # any import of it now fails
        bundle = build_bundles(sim.dataset, sim.labels, "separate")[0]
        assert http_endpoint(server.url).complete(bundle).raw_text == "[0.6]"
        assert len(server.requests) == 1

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
