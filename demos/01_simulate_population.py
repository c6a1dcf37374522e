"""
Simulating a labeled population of mobility agents
==================================================

Agents live on a synthetic city map and cycle between home, work, meals, and
leisure in 15-minute ticks.  A configurable share of them are outliers that
change behavior mid-simulation: hunger outliers eat far more often, social
outliers pick venues at random, work outliers stop showing up at work.
"""

import collections

from mobanom import SimConfig, simulate, write_dataset, write_labels

# A small population keeps this demo instant; defaults are 1000 agents / 4 weeks.
config = SimConfig(n_agents=50, weeks=2, n_hunger=3, n_social=3, n_work=3, seed=7)
result = simulate(config)

print(f"agents:   {len(result.dataset.trajectories)}")
print(f"outliers: {result.labels.n_outliers()} "
      f"(onset at tick {result.onset_tick} of {config.total_ticks})")

# What does a day look like?  Count visited place types for one normal agent
# and one work outlier.
by_agent = result.dataset.by_agent()
normal_id = next(a for a, e in result.labels.entries.items() if not e.is_outlier)
work_id = next(a for a, e in result.labels.entries.items() if e.outlier_type == "work")

for agent_id in (normal_id, work_id):
    t = by_agent[agent_id]
    label = result.labels.entries[agent_id]
    counts = collections.Counter(p.place_type for p in t.points)
    post_onset_work = sum(
        1 for p in t.points if p.arrive >= result.onset_time and p.place_type == "Workplace"
    )
    print(f"\n{agent_id} ({label.outlier_type}): {len(t.points)} stay points")
    print(f"  place types: {dict(counts)}")
    print(f"  workplace visits after onset: {post_onset_work}")

# Persist in the canonical JSONL formats consumed by every other stage.
write_dataset(result.dataset, "demo_dataset.jsonl")
write_labels(result.labels, "demo_labels.jsonl")
print("\nwrote demo_dataset.jsonl (+ .meta.json) and demo_labels.jsonl")
