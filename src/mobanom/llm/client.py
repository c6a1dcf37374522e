"""Chat-completion dispatch with disk caching, retries, and mock endpoints.

Real prompts go over HTTP(S) by ``urllib`` to an OpenAI- or Anthropic-shaped
chat endpoint (one ``HTTP_PROVIDERS`` record each, selected by the ``provider``
tag); the bearer token is read from an environment variable, never from files
or flags.  Every answer is cached on disk keyed by SHA-256 of (model name,
template version, prompt text), so reruns are free, deterministic, and
auditable.  Mock endpoints make the whole pipeline runnable offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
import urllib.parse
from collections import namedtuple
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
from .prompts import DEFAULT_TEMPLATE, PromptBundle, _assemble, _sequence, _stay_labels, check_template, normalize_mode
from .prompts import parse_combine_scores, parse_separate_score

log = logging.getLogger(__name__)

# The wire facts of each HTTP chat API: the path under ``base_url``, the auth headers built from the token,
# the keys from the response body down to the answer text, and the usage keys of the prompt and answer tokens.
WireFormat = namedtuple("WireFormat", "path auth text_keys usage_keys")
HTTP_PROVIDERS = {
    "openai": WireFormat("/chat/completions", lambda token: {"Authorization": f"Bearer {token}"},
                         ("choices", 0, "message", "content"), ("prompt_tokens", "completion_tokens")),
    "anthropic": WireFormat("/v1/messages", lambda token: {"x-api-key": token, "anthropic-version": "2023-06-01"},
                            ("content", 0, "text"), ("input_tokens", "output_tokens")),
}
PROVIDERS = (*HTTP_PROVIDERS, "mock-constant", "mock-oracle")
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
            answers = [ORACLE_OUTLIER_TEXT if getattr(labels.entries.get(agent_id), "is_outlier", False)
                       else ORACLE_NORMAL_TEXT for agent_id in bundle.agent_ids]
            if bundle.mode.startswith("separate"):
                return answers[0]
            return "\n".join(f"user {i}: {text}" for i, text in enumerate(answers, start=1))

        super().__init__(fn, name="mock-oracle")


class HttpChatEndpoint:
    """JSON chat-completion over HTTP(S) with bounded retries, sent by the standard library's ``urllib``."""

    def __init__(self, config: LlmEndpointConfig):
        import urllib.request  # here, so that a run with a mock endpoint never loads ssl (about 3 MB)

        if config.provider not in HTTP_PROVIDERS:
            raise ConfigError(f"unknown provider {config.provider!r}")
        self.config = config
        self.name = config.model_name
        self.wire = HTTP_PROVIDERS[config.provider]
        refuse = urllib.request.HTTPRedirectHandler()
        refuse.redirect_request = lambda *args: None  # every 3xx is an HTTPError: no header follows a Location
        self._open = urllib.request.build_opener(refuse).open  # the proxies of the *_proxy variables, read now

    def _request(self, prompt: str) -> tuple[str, bytes, dict]:
        """URL, body and headers of one prompt's POST; AuthError on an empty token, EndpointError on an unusable URL."""
        cfg = self.config
        token = os.environ.get(cfg.auth_token_env_var, "")
        if not token:
            raise AuthError(f"auth token environment variable {cfg.auth_token_env_var!r} is empty")
        payload = {"model": cfg.model_name, "messages": [{"role": "user", "content": prompt}],
                   "temperature": cfg.temperature, "max_tokens": cfg.max_output_tokens}
        url = cfg.base_url.rstrip("/") + self.wire.path
        try:
            parts = urllib.parse.urlsplit(url)
            parts.port  # raises ValueError unless the port is empty or a number from 0 to 65535
        except ValueError as exc:
            raise EndpointError(f"cannot send a request to {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise EndpointError(f"cannot send a request to {url!r}: not an http:// or https:// URL with a host")
        headers = {"Content-Type": "application/json", **self.wire.auth(token)}
        return url, json.dumps(payload).encode("utf-8"), headers

    def _extract(self, body: bytes) -> tuple[str, int | None, int | None]:
        """Answer text and token counts of a 200 response body; EndpointError if it is malformed."""
        try:
            text = answer = json.loads(body)
            for key in self.wire.text_keys:
                text = text[key]
            usage = answer.get("usage") or {}
            req_tokens, resp_tokens = (usage.get(key) for key in self.wire.usage_keys)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise EndpointError(f"malformed response body: {type(exc).__name__}: {exc}") from None
        if not isinstance(text, str):
            raise EndpointError(f"malformed response body: answer text is {type(text).__name__}")
        return text, req_tokens, resp_tokens

    def complete(self, bundle: PromptBundle) -> LlmAnswer:
        import http.client
        import urllib.request

        request = urllib.request.Request(*self._request(bundle.text), method="POST")
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(30.0, 0.5 * 2**attempt))
            started = time.monotonic()
            try:
                try:
                    resp = self._open(request, timeout=self.config.request_timeout_s)
                except urllib.request.HTTPError as exc:
                    resp = exc  # a status outside 2xx: the error holds the status and body as a response does
                with resp:
                    status, body = resp.status, resp.read()
            except (ValueError, http.client.InvalidURL) as exc:  # the URL or a header; the message may quote the token
                raise EndpointError(f"cannot send a request to {request.full_url!r}: {type(exc).__name__}") from None
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = EndpointError(f"transient HTTP {status}")
                continue
            if status != 200:
                raise EndpointError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:500]}")
            return LlmAnswer(*self._extract(body), latency_s=time.monotonic() - started)
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
    if config.provider in HTTP_PROVIDERS:
        return HttpChatEndpoint(config)
    if config.provider == "mock-constant":
        return MockEndpoint(lambda bundle: config.mock_text, name=config.model_name)
    if config.provider == "mock-oracle":
        if labels is None:
            raise ConfigError("mock-oracle provider needs labels")
        return OracleMockEndpoint(labels)


def build_bundles(ds: Dataset, labels: LabelSet, mode: str, template_version: str = DEFAULT_TEMPLATE,
                  split: SplitSpec | None = None) -> list[PromptBundle]:
    """Render all prompts for a dataset without touching any endpoint.

    Hint modes mark labeled outliers at their deviate index and everyone else
    at the train/test split fallback, mirroring what the comparison detectors
    are given.
    """
    mode = normalize_mode(mode)
    check_template(template_version)
    hint, separate = mode.endswith("_hint"), mode.startswith("separate")
    if hint and split is None:
        split = SplitSpec.from_labels(ds, labels)
    overhead = len(_assemble("separate", template_version, [""]))  # a trajectory costs its separate prompt's length
    batches, batch_chars = [], 0  # each batch a list of (agent id, sequence) pairs; a separate-mode batch holds one
    for t in (t for t in ds.trajectories if len(t)):
        stays = _stay_labels(t)
        seq = _sequence(stays, min(split.train_count(t), len(stays) - 1) if hint else None)
        cost = overhead + len(_sequence(stays) if hint else seq)  # the budget counts the unmarked sequence
        if separate or not batches or batch_chars + cost > COMBINE_CHAR_BUDGET:
            batches.append([])
            batch_chars = 0
        batches[-1].append((t.agent_id, seq))
        batch_chars += cost
    for i, batch in enumerate(batches):  # in place, so that each batch's sequences go as its prompt is assembled
        batches[i] = PromptBundle(_assemble(mode, template_version, [seq for _, seq in batch]),
                                  [agent_id for agent_id, _ in batch], mode, template_version)
    return batches


def run_llm_detection(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    endpoint,
    template_version: str = DEFAULT_TEMPLATE,
    cache_dir: str | None = None,
    max_concurrent: int = LlmEndpointConfig.max_concurrent_requests,
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
    omitted = {t.agent_id: "empty trajectory" for t in ds.trajectories if not len(t)}
    with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
        for bundle_scores, bundle_omitted in pool.map(score_bundle, bundles):
            scores.update(bundle_scores)
            omitted.update(bundle_omitted)

    run_hash = params_hash({"mode": mode, "template_version": template_version, "model": model_name})
    return ScoreTable(detector=f"llm_{mode}", scores=scores, params_hash=run_hash, omitted=omitted)


def dump_prompts(
    ds: Dataset,
    labels: LabelSet,
    mode: str,
    out_dir: str,
    template_version: str = DEFAULT_TEMPLATE,
    split: SplitSpec | None = None,
    outputs: list[str] | None = None,
) -> list[str]:
    """Write every PromptBundle and ``prompts_index.jsonl`` without calling any endpoint; return ``outputs`` (a new
    list by default), to which each path is appended before it is written."""
    bundles = build_bundles(ds, labels, mode, template_version, split)
    os.makedirs(out_dir, exist_ok=True)
    outputs = [] if outputs is None else outputs
    index = []
    for i, bundle in enumerate(bundles):
        name = f"prompt_{i:04d}.txt"
        outputs.append(os.path.join(out_dir, name))
        atomic_write(outputs[-1], bundle.text)
        index.append(_dumps({"file": name, "mode": bundle.mode, "template_version": bundle.template_version,
                             "agent_ids": bundle.agent_ids}) + "\n")
    outputs.append(os.path.join(out_dir, "prompts_index.jsonl"))
    atomic_write(outputs[-1], "".join(index))
    return outputs
