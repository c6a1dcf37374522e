"""Chat-completion dispatch with disk caching, retries, and mock endpoints.

Real requests go over HTTPS to an OpenAI- or Anthropic-shaped chat endpoint
(selected by the ``provider`` tag); the bearer token is read from an
environment variable, never from files or flags.  Every answer is cached on
disk keyed by SHA-256 of (model name, template version, prompt text), so
reruns are free, deterministic, and auditable.  Mock endpoints make the whole
pipeline runnable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..core import (
    AuthError,
    ConfigError,
    Dataset,
    EndpointError,
    LabelSet,
    PartialParseError,
    ScoreParseError,
    _dumps,
    atomic_write,
    check_settings,
    params_hash,
)
from ..detectors.features import SplitSpec
from ..evaluation import ScoreTable
from .prompts import PromptBundle, build_prompt, normalize_mode, parse_combine_scores, parse_separate_score

log = logging.getLogger(__name__)

PROVIDERS = ("openai", "anthropic", "mock-constant", "mock-oracle")
COMBINE_CHAR_BUDGET = 60_000  # the most characters of separate-mode prompt text that one combine prompt holds
ORACLE_OUTLIER_TEXT, ORACLE_NORMAL_TEXT = "[0.9]", "[0.1]"  # mock-oracle's answer for a labeled outlier, for others


@dataclass
class LlmEndpointConfig:
    base_url: str = ""
    model_name: str = "mock"
    provider: str = "openai"  # one of PROVIDERS
    auth_token_env_var: str = "LLM_API_TOKEN"
    temperature: float = 0.0
    max_output_tokens: int = 1024
    request_timeout_s: float = 60.0
    max_retries: int = 3
    max_concurrent_requests: int = 2
    mock_text: str = "[0.5]"

    def __post_init__(self):
        check_settings(self, [("provider", self.provider in PROVIDERS, f"one of {', '.join(PROVIDERS)}"),
                              ("max_retries", self.max_retries >= 0, ">= 0"),
                              ("max_concurrent_requests", self.max_concurrent_requests >= 1, ">= 1"),
                              ("max_output_tokens", self.max_output_tokens >= 1, ">= 1"),
                              ("request_timeout_s", 0 < self.request_timeout_s < math.inf, "finite and > 0"),
                              ("temperature", 0 <= self.temperature < math.inf, "finite and >= 0")])


@dataclass
class LlmAnswer:
    raw_text: str
    request_tokens: int | None = None
    response_tokens: int | None = None
    latency_s: float = 0.0


class MockEndpoint:
    """Answers via a callable on the bundle; counts how often it is hit."""

    def __init__(self, fn, name: str = "mock"):
        self.fn = fn
        self.name = name
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, bundle: PromptBundle) -> LlmAnswer:
        with self._lock:
            self.calls += 1
        return LlmAnswer(raw_text=self.fn(bundle))


class OracleMockEndpoint(MockEndpoint):
    """Mock that knows the ground truth; useful for end-to-end plumbing tests."""

    def __init__(self, labels: LabelSet):
        def fn(bundle: PromptBundle) -> str:
            def answer(agent_id: str) -> str:
                e = labels.entries.get(agent_id)
                return ORACLE_OUTLIER_TEXT if (e is not None and e.is_outlier) else ORACLE_NORMAL_TEXT

            if bundle.mode.startswith("separate"):
                return answer(bundle.agent_ids[0])
            return "\n".join(
                f"user {i}: {answer(agent_id)}" for i, agent_id in enumerate(bundle.agent_ids, start=1)
            )

        super().__init__(fn, name="mock-oracle")


class HttpChatEndpoint:
    """JSON chat-completion over HTTPS with bounded retries."""

    def __init__(self, config: LlmEndpointConfig):
        if config.provider not in ("openai", "anthropic"):
            raise ConfigError(f"unknown provider {config.provider!r}")
        self.config = config
        self.name = config.model_name

    def _token(self) -> str:
        token = os.environ.get(self.config.auth_token_env_var, "")
        if not token:
            raise AuthError(
                f"auth token environment variable {self.config.auth_token_env_var!r} is empty"
            )
        return token

    def _request(self, prompt: str) -> tuple[dict, dict, str]:
        cfg = self.config
        if cfg.provider == "openai":
            path = "/chat/completions"
            headers = {"Authorization": f"Bearer {self._token()}"}
        else:
            path = "/v1/messages"
            headers = {"x-api-key": self._token(), "anthropic-version": "2023-06-01"}
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
        }
        return payload, headers, cfg.base_url.rstrip("/") + path

    def _extract(self, resp) -> tuple[str, int | None, int | None]:
        """Answer text and token counts of a 200 response; EndpointError if the body is malformed."""
        try:
            body = resp.json()
            if self.config.provider == "openai":
                text = body["choices"][0]["message"]["content"]
                tokens = ("prompt_tokens", "completion_tokens")
            else:
                text = body["content"][0]["text"]
                tokens = ("input_tokens", "output_tokens")
            usage = body.get("usage") or {}
            req_tokens, resp_tokens = usage.get(tokens[0]), usage.get(tokens[1])
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise EndpointError(f"malformed response body: {type(exc).__name__}: {exc}") from None
        if not isinstance(text, str):
            raise EndpointError(f"malformed response body: answer text is {type(text).__name__}")
        return text, req_tokens, resp_tokens

    def complete(self, bundle: PromptBundle) -> LlmAnswer:
        import requests

        payload, headers, url = self._request(bundle.text)
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(30.0, 0.5 * 2**attempt))
            started = time.monotonic()
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=self.config.request_timeout_s)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = EndpointError(f"transient HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise EndpointError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            text, req_tokens, resp_tokens = self._extract(resp)
            return LlmAnswer(
                raw_text=text,
                request_tokens=req_tokens,
                response_tokens=resp_tokens,
                latency_s=time.monotonic() - started,
            )
        raise EndpointError(f"request failed after {self.config.max_retries + 1} attempts: {last_error}")


class PromptCache:
    """Disk cache ``<cache_dir>/<sha256>.json`` holding request and raw answer."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    @staticmethod
    def key(model_name: str, template_version: str, prompt: str) -> str:
        blob = f"{model_name}\x00{template_version}\x00{prompt}".encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + ".json")

    def get(self, key: str) -> str | None:
        """The cached answer, or None on a miss; an entry that cannot be read is a logged miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)["raw_response"]
            if not isinstance(raw, str):
                raise TypeError(f"raw_response is {type(raw).__name__}, not a string")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, LookupError, TypeError) as exc:
            log.warning("unreadable cache entry %s treated as a miss: %s: %s", path, type(exc).__name__, exc)
            return None
        return raw

    def put(self, key: str, request: dict, raw_response: str) -> None:
        """Write the entry atomically, so no reader sees a partial entry."""
        entry = {"request": request, "raw_response": raw_response, "timestamp": time.time()}
        atomic_write(self._path(key), json.dumps(entry))


def endpoint_from_config(config: LlmEndpointConfig, labels: LabelSet | None = None):
    """Instantiate the endpoint selected by the provider tag."""
    if config.provider in ("openai", "anthropic"):
        return HttpChatEndpoint(config)
    if config.provider == "mock-constant":
        return MockEndpoint(lambda bundle: config.mock_text, name=config.model_name)
    if config.provider == "mock-oracle":
        if labels is None:
            raise ConfigError("mock-oracle provider needs labels")
        return OracleMockEndpoint(labels)


def build_bundles(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    template_version: str = "paper-v1",
    split: SplitSpec | None = None,
) -> list[PromptBundle]:
    """Render all prompts for a dataset without touching any endpoint.

    Hint modes mark labeled outliers at their deviate index and everyone else
    at the train/test split fallback, mirroring what the comparison detectors
    are given.
    """
    mode = normalize_mode(mode)
    deviate_indices: dict[str, int] = {}
    if mode.endswith("_hint"):
        if split is None:
            split = SplitSpec.from_labels(ds, labels)
        deviate_indices = {t.agent_id: min(split.train_count(t), max(0, len(t.points) - 1)) for t in ds.trajectories}

    nonempty = [t for t in ds.trajectories if t.points]
    if mode.startswith("separate"):
        return [build_prompt(mode, [t], deviate_indices, template_version) for t in nonempty]

    bundles = []
    batch = []
    batch_chars = 0
    for t in nonempty:
        probe = build_prompt("separate", [t], {}, template_version)
        cost = len(probe.text)
        if batch and batch_chars + cost > COMBINE_CHAR_BUDGET:
            bundles.append(build_prompt(mode, batch, deviate_indices, template_version))
            batch = []
            batch_chars = 0
        batch.append(t)
        batch_chars += cost
    if batch:
        bundles.append(build_prompt(mode, batch, deviate_indices, template_version))
    return bundles


def run_llm_detection(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    endpoint,
    template_version: str = "paper-v1",
    cache_dir: str | None = None,
    max_concurrent: int = 2,
    split: SplitSpec | None = None,
) -> ScoreTable:
    """Prompt, dispatch (with caching), and parse into a ScoreTable, one pool worker per bundle.

    Transient endpoint failures are retried inside the endpoint; agents whose
    request fails or whose answers cannot be parsed are omitted with a
    reason.  Auth failures abort the run.
    """
    mode = normalize_mode(mode)
    bundles = build_bundles(ds, labels, mode, template_version, split)
    cache = PromptCache(cache_dir) if cache_dir else None
    model_name = getattr(endpoint, "name", "unknown")

    def score_bundle(bundle: PromptBundle) -> tuple[dict[str, float], dict[str, str]]:
        """The bundle's scores and omitted reasons, from its cached answer or else the endpoint's."""
        key = PromptCache.key(model_name, template_version, bundle.text) if cache else ""
        raw = cache.get(key) if cache else None
        if raw is None:
            try:
                raw = endpoint.complete(bundle).raw_text
            except AuthError:
                raise
            except EndpointError as exc:
                return {}, {agent_id: f"endpoint error: {exc}" for agent_id in bundle.agent_ids}
            if cache:
                cache.put(key, {"model": model_name, "template_version": template_version, "prompt": bundle.text}, raw)
        try:
            if bundle.mode.startswith("separate"):
                return {bundle.agent_ids[0]: parse_separate_score(raw)}, {}
            return parse_combine_scores(raw, bundle.agent_ids), {}
        except PartialParseError as exc:
            return exc.resolved, {agent_id: "parse error: no score resolved" for agent_id in exc.unresolved}
        except ScoreParseError as exc:
            return {}, {bundle.agent_ids[0]: f"parse error: {exc}"}

    scores: dict[str, float] = {}
    omitted = {t.agent_id: "empty trajectory" for t in ds.trajectories if not t.points}
    with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
        for bundle_scores, bundle_omitted in pool.map(score_bundle, bundles):
            scores.update(bundle_scores)
            omitted.update(bundle_omitted)

    return ScoreTable(
        detector=f"llm_{mode}",
        scores=scores,
        params_hash=params_hash(
            {"mode": mode, "template_version": template_version, "model": model_name}
        ),
        omitted=omitted,
    )


def dump_prompts(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    out_dir: str,
    template_version: str = "paper-v1",
    split: SplitSpec | None = None,
) -> list[str]:
    """Write every PromptBundle and ``prompts_index.jsonl`` without calling any endpoint; return their paths."""
    bundles = build_bundles(ds, labels, mode, template_version, split)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    index = []
    for i, bundle in enumerate(bundles):
        name = f"prompt_{i:04d}.txt"
        path = os.path.join(out_dir, name)
        atomic_write(path, bundle.text)
        index.append(_dumps({"file": name, "mode": bundle.mode, "template_version": bundle.template_version,
                             "agent_ids": bundle.agent_ids}) + "\n")
        paths.append(path)
    index_path = os.path.join(out_dir, "prompts_index.jsonl")
    atomic_write(index_path, "".join(index))
    return paths + [index_path]
