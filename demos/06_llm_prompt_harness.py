"""
The LLM prompting harness, offline
==================================

Trajectories render into text prompts ("Sat 10:36, Pub, 0.4 km ->..."), a
chat-completion endpoint answers with an anomaly score in square brackets,
and the parser turns answers back into a score table.  Everything here runs
against mock endpoints: the harness itself (templates, caching, concurrency,
parsing) is fully testable without network access or API keys.
"""

import tempfile

from mobanom import SimConfig, make_report, simulate
from mobanom.llm import MockEndpoint, OracleMockEndpoint, build_bundles, parse_separate_score, run_llm_detection

result = simulate(SimConfig(n_agents=15, weeks=1, n_hunger=2, n_social=0, n_work=1, seed=5))

# 1. What a rendered prompt looks like (hint mode marks the deviation point):
#    separate mode gives one prompt per agent, the first agent's first.
bundle = build_bundles(result.dataset, result.labels, "separate")[0]
print("----- prompt head -----")
print(bundle.text[:400], "...")
print()

# 2. Parsing free-text answers: the last bracketed value in [0, 1] wins.
sample_answer = "The pattern looks irregular at first [0.3], but overall I'd say [0.7]."
print(f"parsed score from sample answer: {parse_separate_score(sample_answer)}")
print()

# 3. An oracle mock (answers [0.9] for true outliers, [0.1] otherwise) wired
#    through the full detection loop, with an on-disk answer cache.
with tempfile.TemporaryDirectory() as cache_dir:
    endpoint = OracleMockEndpoint(result.labels)
    table = run_llm_detection(result.dataset, result.labels, "separate-hint", endpoint, cache_dir=cache_dir)
    print(f"first run:  {endpoint.calls} endpoint calls")

    endpoint2 = OracleMockEndpoint(result.labels)
    table2 = run_llm_detection(result.dataset, result.labels, "separate-hint", endpoint2, cache_dir=cache_dir)
    print(f"second run: {endpoint2.calls} endpoint calls (answers served from cache)")
    assert table.scores == table2.scores

print()
print(make_report([table], result.labels, ks=[3]).to_text())

# 4. Combine mode: many agents in one prompt, answers as "user <i>: [score]".
combine_endpoint = MockEndpoint(
    lambda b: "\n".join(f"user {i}: [0.5]" for i in range(1, len(b.agent_ids) + 1))
)
combined = run_llm_detection(result.dataset, result.labels, "combine", combine_endpoint)
print(f"combine mode resolved {len(combined.scores)} agents from {combine_endpoint.calls} prompt(s)")
