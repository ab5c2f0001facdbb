"""Bipartite goods division: solvers, welfare measures, and the fair prior.

Draws a random 6-agent, 6-item instance with unit demand, compares the
greedy and exact max-weight assignments, and estimates the item marginals
of the randomized round-robin prior.
"""

import numpy as np

from fairmix.assignment import (
    RoundRobinSampler,
    agent_utilities,
    greedy_matching,
    max_matching,
    nash_welfare,
    solution_value,
    synthetic_instance,
    utilitarian_value,
)


def main() -> None:
    rng = np.random.default_rng(3)
    instance = synthetic_instance(6, 6, rng)
    print(f"agents x items : {instance.n_left} x {instance.n_right}")
    print(f"demand / cap   : {instance.demand} / {instance.load_cap}")

    best = max_matching(instance)
    greedy = greedy_matching(instance)
    print("\nsolvers (edge lists are (agent, item) pairs):")
    print(f"  max-weight : value {solution_value(instance, best):.3f}  {sorted(best.edges)}")
    print(f"  greedy     : value {solution_value(instance, greedy):.3f}  {sorted(greedy.edges)}")
    print(f"  max-weight per-agent utilities: {np.round(agent_utilities(instance, best), 3).tolist()}")
    print(f"  nash welfare (geometric mean) : {nash_welfare(agent_utilities(instance, best)):.3f}")

    # One batch draw: the unit round robin returns an AssignmentBatch of
    # agent/item arrays, valued in one vectorized edge sum.
    n_runs = 5_000
    batch = RoundRobinSampler(instance).sample_many(rng, n_runs)
    values = utilitarian_value(instance).many(batch)
    first_item_agent = np.bincount(batch.agents[batch.items == 0], minlength=instance.n_left)

    print(f"\nround-robin prior ({n_runs} draws):")
    print(f"  mean value      : {values.mean():.3f} (max-weight is {solution_value(instance, best):.3f})")
    print(f"  item-0 marginals: {np.round(first_item_agent / n_runs, 3).tolist()}")
    print("  each agent wins item 0 when it comes early in the random order")


if __name__ == "__main__":
    main()
