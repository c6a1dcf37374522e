"""
Imposter outliers: swapping trajectory tails
============================================

Real datasets rarely come with labeled anomalies, so we manufacture them: pick
disjoint agent pairs, cut both at one timestamp (anchored at 80% of the first
agent's stay points), and exchange everything after the cut.  Both agents
become "imposters" whose later behavior belongs to someone else -- with exact
ground-truth deviate indices for free.
"""

from mobanom import InjectConfig, SimConfig, inject_imposter, simulate

base = simulate(SimConfig(n_agents=30, weeks=2, n_hunger=0, n_social=0, n_work=0, seed=3))
print(f"simulated {len(base.dataset.trajectories)} normal agents")

injected, labels = inject_imposter(base.dataset, InjectConfig(n_outlier_pairs=5, switch_fraction=0.8, seed=3))
outliers = labels.outlier_ids()
print(f"labeled imposters: {len(outliers)} (5 pairs)")

# The swap only changes ownership: together, a pair keeps the same multiset of
# stay points, and every output trajectory is still monotone in time (each
# Trajectory checks that when it is built).
before = base.dataset.by_agent()
after = injected.by_agent()
for agent_id in outliers[:2]:
    e = labels.entries[agent_id]
    t = after[agent_id]
    own = {p.place_id for p in before[agent_id].points}
    swapped_in = sum(1 for p in t.points if p.place_id not in own)
    print(f"\n{agent_id}: deviate_index={e.deviate_index}, "
          f"{swapped_in}/{len(t.points)} stay points now belong to the partner")
    assert all(p.place_id in own for p in t.points[: e.deviate_index])

untouched = [a for a in after if not labels.entries[a].is_outlier]
assert all(after[a].points == before[a].points for a in untouched)
print(f"\n{len(untouched)} non-outlier trajectories are byte-identical to the input")
