"""Equilibria of repeated contests under temporary-exclusion policies."""

from .distributions import (Mixture, NonFiniteIntegrand, Normal, OutOfRange,
                            RejectedValue, integrate)
from .core import (ALWAYS_SUBMIT, NEVER_SUBMIT, BracketFailure, ModelParams,
                   NoExclusion, ProfileComponent, RejectionExclusion,
                   SignalExclusion, SubmissionProfile, SuccessEvaluation,
                   ban_mass, evaluate_success, lifetime_payoff, normal_model,
                   signal_cutoff, truncated_profile, welfare, win_mass)
from .equilibria import (EquilibriumOutcome, NoConvergence, NoRoot,
                         best_response, equilibrium_curves, solve,
                         solve_benchmark, solve_exclusion, solve_multi_period,
                         solve_signal_cutoff, solve_typed,
                         steady_state_profile)
from .analysis import (DominanceReport, SweepEntry, WinnerDensity,
                       compare_winners, first_best, sweep, winner_density)
from .simulation import (SimConfig, SimResult, empirical_best_response,
                         run_simulation, trend_statistic)

__version__ = "0.1.0"
