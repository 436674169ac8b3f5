"""Distributional effects when researchers differ in ability.

With bans in place, a researcher who expects better ideas tomorrow has more
to lose from sitting out a period, so the stronger type self-selects harder:
its entry cutoff is strictly higher even though the review process itself is
type-blind.  The type block is the quality `Mixture`, whose (share, Normal)
parts are the types, and it composes with every exclusion policy.
"""

from contest_eq import (Normal, RejectionExclusion, SignalExclusion,
                        normal_model, solve, solve_benchmark)

strong, weak = Normal(0.5, 2.0), Normal(0.0, 2.0)   # the types' qualities
params = normal_model(var_signal=5.0, reject_cost=1.0, win_value=50.0,
                      budget=0.1, discount=0.97,
                      types=((0.5, strong), (0.5, weak)))

out = solve(params, RejectionExclusion(1))
print("two types under one-period rejection bans")
print(f"  strong type: cutoff {out.cutoffs[0]:+.4f}, eligible share "
      f"{out.eligibility[0]:.4f} of 0.5")
print(f"  weak type:   cutoff {out.cutoffs[1]:+.4f}, eligible share "
      f"{out.eligibility[1]:.4f} of 0.5")
print(f"  lifetime payoffs: {out.payoff_x[0]:.2f} vs {out.payoff_x[1]:.2f}")
print(f"  indifference residual {out.residual:.1e}, flow-balance residual "
      f"{out.eligibility_residual:.1e}")

# without bans both types would use the same entry rule
pooled = solve_benchmark(params)
print(f"\nwithout bans both types share the cutoff {pooled.cutoff:+.4f}:"
      "\nthe ban is what makes ability show up in entry behavior.")

gap_with = out.cutoffs[0] - out.cutoffs[1]
gap_means = strong.mean - weak.mean
print(f"cutoff gap {gap_with:.4f} vs ability gap {gap_means:.4f}: the "
      "stronger type enters\nmore selectively, by part of its ability edge.")

# the same population under a longer ban and under a review-signal bar
print(f"\n{'policy':>24} {'strong':>8} {'weak':>8} {'gap':>7} "
      f"{'eligible':>9}")
for policy in (RejectionExclusion(1), RejectionExclusion(5),
               SignalExclusion(0.0)):
    o = solve(params, policy)
    print(f"{o.regime:>24} {o.cutoffs[0]:+8.4f} {o.cutoffs[1]:+8.4f} "
          f"{o.cutoffs[0] - o.cutoffs[1]:7.4f} {sum(o.eligibility):9.4f}")
print("a five-period ban widens the gap further; a signal bar at 0 bans "
      "fewer\nresearchers and separates the types less.")
