"""One-period bans after rejection: self-selection vs. softer competition.

Sitting out a period after a rejection makes applying with a mediocre idea
expensive, so entry cutoffs rise; but the bench of banned researchers also
thins the field, which pulls in marginal ideas.  At a high prize the first
force wins: fewer, better submissions, and higher researcher welfare.
"""

import numpy as np

from contest_eq import (NoExclusion, RejectionExclusion, compare_winners,
                        normal_model, solve_benchmark, solve_exclusion,
                        steady_state_profile, winner_density)

params = normal_model(mean_quality=0.0, var_quality=2.0, var_signal=5.0,
                      reject_cost=1.0, win_value=50.0, budget=0.1,
                      discount=0.97)

bench = solve_benchmark(params)
excl = solve_exclusion(params)

print("free entry vs one-period rejection bans (V = 50)")
print(f"  cutoff:    {bench.cutoff:+.4f}  ->  {excl.cutoff:+.4f}")
print(f"  volume:    {bench.submission_volume:.4f}  ->  "
      f"{excl.submission_volume:.4f}")
print(f"  eligible:  1.0000  ->  {excl.eligibility[0]:.4f}")
print(f"  welfare:   {bench.welfare:.4f}  ->  {excl.welfare:.4f}")
print(f"  lifetime payoff of an eligible researcher: "
      f"{bench.payoff_x[0]:.2f}  ->  {excl.payoff_x[0]:.2f}")

h0 = winner_density(steady_state_profile(params, bench.cutoff,
                                         NoExclusion()), params)
h1 = winner_density(steady_state_profile(params, excl.cutoff,
                                         RejectionExclusion(1)), params)
report = compare_winners(h1, h0)
print(f"\nwinner quality comparison: {report.verdict}")
print(f"  bans eliminate funding below {excl.cutoff:+.4f}, concentrate it on"
      f" [{excl.cutoff:+.4f}, {report.qbar:+.4f}],")
print("  and give up part of the share above the crossing -- budget moves"
      " from the extremes to the middle.")

mean0 = np.trapezoid(h0.grid * h0.values, h0.grid) / h0.total_mass
mean1 = np.trapezoid(h1.grid * h1.values, h1.grid) / h1.total_mass
print(f"  mean funded quality: {mean0:.4f} -> {mean1:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    qs = np.linspace(-5, 6, 500)
    plt.figure(figsize=(6, 3.5))
    plt.plot(qs, h0.density(qs), label="winners, free entry")
    plt.plot(qs, h1.density(qs), "--", label="winners, one-period bans")
    plt.axvline(report.qbar, color="gray", lw=0.8)
    plt.legend(); plt.xlabel("quality"); plt.tight_layout()
    plt.savefig("one_period_bans.png", dpi=120)
    print("wrote one_period_bans.png")
except ImportError:
    pass
