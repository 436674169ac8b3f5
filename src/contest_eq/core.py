"""Model primitives: parameters, submission profiles, the noisy-review
success function, and per-researcher lifetime payoffs.

A submission profile is a weighted mixture of truncated base densities: the
population share `weight` times the eligible fraction `eligibility` of that
component applies whenever their idea quality clears `cutoff`.  Review draws
a signal s = q + noise; in an over-subscribed contest the agency funds the
mass-k of submissions whose signal clears the market-clearing threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (DEFAULT_QUADRATURE, FAST_QUADRATURE, Mixture,
                            Normal, ScalarDistribution, integrate)

# Entry cutoffs are extended reals: comparisons and cdf evaluation are the
# only operations ever applied to the infinite values.
ALWAYS_SUBMIT = -math.inf
NEVER_SUBMIT = math.inf

# Volume within this epsilon of the budget counts as under-subscribed
# (everyone funded); keeps the boundary profile f^{Q*} exactly trivial.
_BUDGET_EPS = 1e-12


class BracketFailure(RuntimeError):
    """No sign change found for the clearing threshold: malformed profile."""


@dataclass(frozen=True)
class TypeMix:
    """One researcher type: its population share and quality distribution."""

    share: float
    quality: ScalarDistribution

    def __post_init__(self):
        if not 0.0 < self.share <= 1.0:
            raise ValueError("type share must lie in (0, 1]")


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the repeated contest.

    win_value    benefit of a funded submission (V > 0)
    reject_cost  loss suffered on rejection (C > 0)
    budget       volume of proposals the agency can fund per period, in (0,1)
    discount     per-period discount factor, in (0,1)
    quality      per-period idea quality distribution (the population mixture
                 when `types` is given)
    noise        review noise; the signal is s = q + e with e ~ noise
    types        optional tuple of TypeMix for a heterogeneous population
    """

    win_value: float
    reject_cost: float
    budget: float
    discount: float
    quality: ScalarDistribution | None
    noise: ScalarDistribution
    types: tuple[TypeMix, ...] | None = None

    def __post_init__(self):
        if not (0.0 < self.win_value < math.inf
                and 0.0 < self.reject_cost < math.inf):
            raise ValueError("win_value and reject_cost must be positive "
                             "and finite")
        if not 0.0 < self.budget < 1.0:
            raise ValueError("budget must lie in (0, 1)")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.types is not None:
            types = tuple(self.types)
            total = sum(t.share for t in types)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"type shares must sum to 1, got {total}")
            object.__setattr__(self, "types", types)
            # the population quality density is always the type mixture
            object.__setattr__(
                self, "quality", Mixture([(t.share, t.quality) for t in types]))
        elif self.quality is None:
            raise ValueError("quality distribution required without types")

    @property
    def first_best_cutoff(self):
        """Top-budget-percentile entry rule: funds exactly the best ideas."""
        return self.quality.quantile(1.0 - self.budget)

    @property
    def loss_share(self):
        """Static participation threshold C / (C + V)."""
        return self.reject_cost / (self.reject_cost + self.win_value)


def normal_model(mean_quality=0.0, var_quality=1.0, var_signal=2.0,
                 reject_cost=1.0, win_value=30.0, budget=0.1, discount=0.97,
                 types=None):
    """Normal-normal model; defaults follow the benchmark illustration."""
    quality = None if types is not None else Normal(mean_quality, var_quality)
    return ModelParams(win_value=win_value, reject_cost=reject_cost,
                       budget=budget, discount=discount, quality=quality,
                       noise=Normal(0.0, var_signal), types=types)


@dataclass(frozen=True)
class ProfileComponent:
    base: ScalarDistribution
    cutoff: float
    eligibility: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eligibility <= 1.0:
            raise ValueError("eligibility must lie in (0, 1]")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("weight must lie in (0, 1]")


@dataclass(frozen=True)
class SubmissionProfile:
    """Quality density of submitted ideas: sum of truncated components.

    pdf(q) = sum_i weight_i * eligibility_i * base_i.pdf(q) * 1{q >= cutoff_i};
    bounded above by the population density whenever the components mirror
    the population mixture.
    """

    components: tuple[ProfileComponent, ...]

    def pdf(self, q):
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q)
        for c in self.components:
            out += (c.weight * c.eligibility) * c.base.pdf(q) * (q >= c.cutoff)
        return out if out.ndim else float(out)

    def volume(self):
        """Total mass of submissions."""
        return sum(c.weight * c.eligibility * (1.0 - c.base.cdf(c.cutoff))
                   for c in self.components)

    def support(self):
        """Truncated support covering every component."""
        los, his = [], []
        for c in self.components:
            lo, hi = c.base.support_hint
            los.append(max(lo, c.cutoff))
            his.append(hi)
        return min(los), max(his)

    def scaled(self, factor):
        """Pointwise scaling (eligibility shrunk by `factor`)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("scaling factor must lie in (0, 1]")
        return SubmissionProfile(tuple(
            ProfileComponent(c.base, c.cutoff, c.eligibility * factor, c.weight)
            for c in self.components))

    def integral(self, g, quad=DEFAULT_QUADRATURE):
        """integral phi(q) g(q) dq, split at each component cutoff."""
        total = 0.0
        for c in self.components:
            lo, hi = c.base.support_hint
            lo = max(lo, c.cutoff)
            if lo >= hi:
                continue
            total += c.weight * c.eligibility * integrate(
                lambda q, b=c.base: b.pdf(q) * g(q), lo, hi, quad)
        return total


def truncated_profile(base, cutoff, eligibility=1.0, weight=1.0):
    """Single-component profile: share `eligibility` submits above `cutoff`."""
    return SubmissionProfile(
        (ProfileComponent(base, cutoff, eligibility, weight),))


@dataclass(frozen=True)
class SuccessEvaluation:
    """Review outcome for a fixed submission profile.

    `sbar` is the market-clearing funding threshold (-inf when the contest is
    under-subscribed and everything is funded); win_prob(q) is the chance a
    quality-q submission clears it.
    """

    sbar: float
    profile: SubmissionProfile
    noise: ScalarDistribution

    def win_prob(self, q):
        if self.sbar == -math.inf:
            q = np.asarray(q, dtype=float)
            out = np.ones_like(q)
            return out if out.ndim else 1.0
        q = np.asarray(q, dtype=float)
        out = 1.0 - np.asarray(self.noise.cdf(self.sbar - q), dtype=float)
        return out if out.ndim else float(out)


def signal_cutoff(profile, params, quad=DEFAULT_QUADRATURE, hint=None):
    """Market-clearing funding threshold for a submission profile.

    Returns -inf when the volume of submissions does not exceed the budget
    (everything is funded).  Otherwise bisects the strictly decreasing
    clearing residual to |residual| < 1e-10, expanding the bracket
    geometrically up to +-50 combined sigmas before giving up.
    """
    vol = profile.volume()
    if vol <= params.budget + _BUDGET_EPS:
        return -math.inf

    noise = params.noise

    def clearing(s):
        return profile.integral(
            lambda q: 1.0 - np.asarray(noise.cdf(s - q), dtype=float),
            quad) - params.budget

    lo_s, hi_s = profile.support()
    center = 0.5 * (lo_s + hi_s) if hint is None else hint
    sigma = max((hi_s - lo_s) / (2.0 * quad.truncation_sigmas), noise.stddev)
    span = max(hi_s - lo_s, noise.stddev) * 0.25
    cap = 50.0 * (sigma + noise.stddev)
    lo, hi = center - span, center + span
    flo, fhi = clearing(lo), clearing(hi)
    while flo < 0.0:
        lo -= span
        span *= 2.0
        if center - lo > cap:
            raise BracketFailure("clearing residual never positive")
        flo = clearing(lo)
    while fhi > 0.0:
        hi += span
        span *= 2.0
        if hi - center > cap:
            raise BracketFailure("clearing residual never negative")
        fhi = clearing(hi)

    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fmid = clearing(mid)
        if abs(fmid) < 1e-10:
            return mid
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def evaluate_success(profile, params, quad=DEFAULT_QUADRATURE, hint=None):
    """Solve market clearing and package the success function."""
    sbar = signal_cutoff(profile, params, quad, hint)
    return SuccessEvaluation(sbar=sbar, profile=profile, noise=params.noise)


def win_mass(cutoff, evaluation, base, quad=DEFAULT_QUADRATURE):
    """Ex-ante per-period winning probability of a cutoff-`cutoff` researcher
    whose quality is drawn from `base`."""
    if cutoff == NEVER_SUBMIT:
        return 0.0
    if evaluation.sbar == -math.inf:
        return 1.0 - base.cdf(cutoff)
    lo, hi = base.support_hint
    lo = max(lo, cutoff)
    return integrate(lambda q: base.pdf(q) * evaluation.win_prob(q),
                     lo, hi, quad)


def ban_mass(cutoff, sbar_ban, base, noise, quad=DEFAULT_QUADRATURE):
    """Ex-ante per-period probability that an eligible researcher triggers
    exclusion: submits (q >= cutoff) and draws a signal below sbar_ban."""
    if sbar_ban == -math.inf or cutoff == NEVER_SUBMIT:
        return 0.0
    if sbar_ban == math.inf:
        return 1.0 - base.cdf(cutoff)
    lo, hi = base.support_hint
    lo = max(lo, cutoff)
    return integrate(
        lambda q: base.pdf(q) * np.asarray(noise.cdf(sbar_ban - q), dtype=float),
        lo, hi, quad)


# ---------------------------------------------------------------------------
# exclusion policies
#
# Every formula that depends on the ban rule lives on the policy object: the
# regime label and ban length, the regime's public solver, the per-period
# mass of submitters banned by their review signal, steady-state
# eligibility, the indifference level of the marginal win probability (in
# closed form for the steady state, or given the lifetime payoff x of
# eligibility), the ban weight in the payoff's denominator, and the
# simulator's ban trigger.  Steady-state methods take F = F(cutoff) and the
# ban mass as scalars or as arrays over a cutoff grid.


@dataclass(frozen=True)
class RejectionExclusion:
    """A rejected applicant sits out the next `periods` periods."""

    periods: int = 1

    def __post_init__(self):
        if self.periods < 1 or self.periods != int(self.periods):
            raise ValueError("ban length must be a positive integer")

    @property
    def regime(self):
        return "exclusion" if self.periods == 1 else \
            f"multi_period(t={self.periods})"

    @property
    def ban_periods(self):
        return self.periods

    def solve(self, params, quad=FAST_QUADRATURE):
        from . import equilibria
        return equilibria.solve_multi_period(params, self.periods, quad)

    def ban(self, F, below):
        """No signal-triggered bans: the ban follows the funding outcome."""
        return 0.0 * F

    def eligibility(self, F, ban, budget):
        t = self.periods
        return np.minimum((1.0 + t * budget) / (1.0 + t * (1.0 - F)), 1.0)

    def steady_indifference(self, cutoff, F, ban, params):
        v, c, k, d = (params.win_value, params.reject_cost, params.budget,
                      params.discount)
        t, geom = self.periods, self._geom(d)
        num = (1.0 + t * k) * c + k * d * geom * (1.0 + t * (1.0 - F)) * v
        den = (1.0 + t * k) * c + \
            (1.0 + t * k) * (1.0 + d * geom * (1.0 - F)) * v
        return num / den

    def indifference(self, cutoff, x, params):
        d = params.discount
        cost = params.reject_cost + d * (1.0 - d ** self.periods) * x
        return cost / (cost + params.win_value)

    def payoff_ban(self, cutoff, reject, base, params, quad):
        return reject * self._geom(params.discount)

    def banned(self, submit, signal, rejected):
        return rejected

    def _geom(self, d):
        return (1.0 - d ** self.periods) / (1.0 - d)


@dataclass(frozen=True)
class SignalExclusion:
    """An applicant whose review signal falls below `sbar` sits out the next
    period, independently of whether the proposal was funded."""

    sbar: float
    ban_periods = 1

    def __post_init__(self):
        if math.isnan(self.sbar):
            raise ValueError("sbar_ban must be a number or +-inf")

    @property
    def regime(self):
        return f"signal_cutoff(sbar={self.sbar:g})"

    def solve(self, params, quad=FAST_QUADRATURE):
        from . import equilibria
        return equilibria.solve_signal_cutoff(params, self.sbar, quad)

    def ban(self, F, below):
        """`below(s)` integrates the chance of a signal under s over the
        submitted qualities."""
        if self.sbar == math.inf:
            return 1.0 - F
        if self.sbar == -math.inf:
            return 0.0 * F
        return below(self.sbar)

    def eligibility(self, F, ban, budget):
        return 1.0 / (1.0 + ban)

    def steady_indifference(self, cutoff, F, ban, params):
        v, c, k, d = (params.win_value, params.reject_cost, params.budget,
                      params.discount)
        g = self._trigger(cutoff, params.noise)
        num = c * (1.0 + d * ban) + d * g * (
            k * (1.0 + ban) * v - (1.0 - F - k * (1.0 + ban)) * c)
        den = (c + v) * (1.0 + d * ban)
        return num / den

    def indifference(self, cutoff, x, params):
        c, v, d = params.reject_cost, params.win_value, params.discount
        g = self._trigger(cutoff, params.noise)
        return (c + d * (1.0 - d) * g * x) / (c + v)

    def payoff_ban(self, cutoff, reject, base, params, quad):
        return ban_mass(cutoff, self.sbar, base, params.noise, quad)

    def banned(self, submit, signal, rejected):
        return submit & (signal < self.sbar)

    def _trigger(self, cutoff, noise):
        """Chance that the marginal quality's signal falls below the bar."""
        if not math.isfinite(self.sbar):
            return 1.0 if self.sbar > 0 else 0.0
        return np.clip(noise.cdf(self.sbar - cutoff), 0.0, 1.0)


@dataclass(frozen=True)
class NoExclusion(SignalExclusion):
    """Free entry every period regardless of history: a signal bar at -inf,
    which bans no one."""

    sbar: float = field(default=-math.inf, init=False, repr=False)
    regime = "benchmark"
    ban_periods = 0

    def solve(self, params, quad=FAST_QUADRATURE):
        from . import equilibria
        return equilibria.solve_benchmark(params, quad)


def lifetime_payoff(cutoff, evaluation, params, quad=DEFAULT_QUADRATURE,
                    policy=RejectionExclusion(1), base=None):
    """Discounted lifetime payoff of an eligible researcher who submits at
    or above `cutoff`, facing the same competition every period.

    `policy` sets the ban rule (one-period rejection bans by default) and
    `base` the researcher's own quality distribution (the population's by
    default).
    """
    if cutoff == NEVER_SUBMIT:
        return 0.0
    if base is None:
        base = params.quality
    win = win_mass(cutoff, evaluation, base, quad)
    reject = (1.0 - base.cdf(cutoff)) - win
    ban = policy.payoff_ban(cutoff, reject, base, params, quad)
    v, c, d = params.win_value, params.reject_cost, params.discount
    return (win * v - reject * c) / ((1.0 - d) * (1.0 + d * ban))


def welfare(profile, params, quad=DEFAULT_QUADRATURE):
    """Aggregate per-period researcher welfare under a submission profile.

    Over-subscribed contests fund exactly the budget, so welfare is
    budget * V minus the rejection volume times C; under-subscribed ones
    fund everything.
    """
    vol = profile.volume()
    k = params.budget
    if vol <= k:
        return vol * params.win_value
    return k * params.win_value - (vol - k) * params.reject_cost
