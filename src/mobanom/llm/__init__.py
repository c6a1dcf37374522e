"""Prompt rendering, score parsing, and the chat-completion client harness."""

from .prompts import (
    MODES,
    PromptBundle,
    parse_combine_scores,
    parse_separate_score,
)
from .client import (
    HttpChatEndpoint,
    LlmAnswer,
    LlmEndpointConfig,
    MockEndpoint,
    OracleMockEndpoint,
    PromptCache,
    build_bundles,
    dump_prompts,
    endpoint_from_config,
    run_llm_detection,
)

__all__ = [
    "MODES",
    "PromptBundle",
    "build_bundles",
    "parse_separate_score",
    "parse_combine_scores",
    "LlmEndpointConfig",
    "LlmAnswer",
    "HttpChatEndpoint",
    "MockEndpoint",
    "OracleMockEndpoint",
    "PromptCache",
    "endpoint_from_config",
    "run_llm_detection",
    "dump_prompts",
]
