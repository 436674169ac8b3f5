"""Equilibria of repeated contests under temporary-exclusion policies."""

from .distributions import (BudgetExceeded, Custom, Mixture, NonFiniteIntegrand,
                            Normal, OutOfRange, Quadrature, ScalarDistribution,
                            DEFAULT_QUADRATURE, FAST_QUADRATURE, integrate)
from .core import (ALWAYS_SUBMIT, NEVER_SUBMIT, BracketFailure, ModelParams,
                   NoExclusion, ProfileComponent, RejectionExclusion,
                   SignalExclusion, SubmissionProfile, SuccessEvaluation,
                   TypeMix, ban_mass, evaluate_success, lifetime_payoff,
                   normal_model, signal_cutoff, truncated_profile, welfare,
                   win_mass)
from .equilibria import (EquilibriumOutcome, NoConvergence, NoRoot,
                         best_response, equilibrium_curves, solve_benchmark,
                         solve_exclusion, solve_multi_period,
                         solve_signal_cutoff, solve_two_type,
                         steady_state_eligibility, steady_state_profile,
                         type_eligibility_shares)
from .analysis import (DominanceReport, HypothesisUnmet, SweepEntry,
                       WinnerDensity, compare_winners, first_best, sweep,
                       winner_density)
from .simulation import (SimConfig, SimResult, empirical_best_response,
                         run_simulation, trend_statistic)

__version__ = "0.1.0"
