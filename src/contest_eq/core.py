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
from scipy.special import ndtr

from .distributions import (INTEGRATE_PANELS, TRUNCATION_SIGMAS, Mixture,
                            Normal, ScalarDistribution, _check_finite,
                            _gl_rule, integrate)

# Entry cutoffs are extended reals: comparisons and cdf evaluation are the
# only operations ever applied to the infinite values.
ALWAYS_SUBMIT = -math.inf
NEVER_SUBMIT = math.inf

# Volume within this epsilon of the budget counts as under-subscribed
# (everyone funded); keeps the boundary profile f^{Q*} exactly trivial.
_BUDGET_EPS = 1e-12


class BracketFailure(RuntimeError):
    """The submitted mass does not exceed the budget on the quadrature
    nodes, so no threshold clears it: malformed profile."""


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

    def integral(self, g):
        """integral phi(q) g(q) dq on the nodes of `_nodes`."""
        x, mass = self._nodes()
        return float(np.dot(mass[0], _check_finite(g(x[0]))))

    def _nodes(self):
        """(qualities, masses): the quadrature nodes of every component,
        split at its cutoff, and the submitted mass each carries, as one row
        each."""
        xs, masses = [np.empty(0)], [np.empty(0)]
        for c in self.components:
            lo, hi = c.base.support_hint
            lo = max(lo, c.cutoff)
            if lo >= hi:
                continue
            x, w = _gl_rule(lo, hi, INTEGRATE_PANELS)
            xs.append(x[0])
            masses.append(c.weight * c.eligibility *
                          np.asarray(c.base.pdf(x[0]), dtype=float) * w[0])
        return np.concatenate(xs)[None, :], np.concatenate(masses)[None, :]


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


def _clearing_thresholds(x, mass, params, lo, hi, tol):
    """Market-clearing signal threshold of every row of quality nodes `x`
    carrying submitted mass `mass`: the signal at which the mass whose
    signal clears it equals the budget.

    Bisects every row at once on the bracket [lo + mean - 10 sd,
    hi + mean + 10 sd] of the noise-standardized signal, for
    ceil(log2(span / tol)) steps, so each bracket ends narrower than `tol`.
    Stopping on the bracket rather than on the clearing mass keeps the
    threshold exact when eligibility, and with it the clearing slope, is
    small.  Raises BracketFailure when a row's node mass does not exceed
    the budget.
    """
    noise, k = params.noise, params.budget
    if np.any(np.sum(mass, axis=1) <= k):
        raise BracketFailure("submitted mass does not exceed the budget")
    sd = noise.stddev
    b_lo = (lo + noise.mean - TRUNCATION_SIGMAS * sd) / sd
    b_hi = (hi + noise.mean + TRUNCATION_SIGMAS * sd) / sd
    steps = max(math.ceil(math.log2((b_hi - b_lo) * sd / tol)), 1)
    if isinstance(noise, Normal):
        xn = (x + noise.mean) / sd  # noise cdf(s - q) = ndtr(s/sd - xn)
        buf = np.empty_like(xn)

        def survival(b):
            # in place: fresh node-matrix temporaries every step cost a
            # tenth of a 2000-point scan
            ndtr(np.subtract(b[:, None], xn, out=buf), out=buf)
            return np.subtract(1.0, buf, out=buf)
    else:
        survival = lambda b: 1.0 - np.asarray(noise.cdf(b[:, None] * sd - x),
                                              dtype=float)
    lo_b, hi_b = np.full(len(x), b_lo), np.full(len(x), b_hi)
    for _ in range(steps):
        mid = 0.5 * (lo_b + hi_b)
        right = np.einsum("ij,ij->i", mass, survival(mid)) - k > 0.0
        lo_b = np.where(right, mid, lo_b)
        hi_b = np.where(right, hi_b, mid)
    return 0.5 * (lo_b + hi_b) * sd


def signal_cutoff(profile, params):
    """Market-clearing funding threshold for a submission profile.

    Returns -inf when the volume of submissions does not exceed the budget
    (everything is funded).  Otherwise bisects the clearing integral on the
    profile's quadrature nodes until the bracket is narrower than 1e-14,
    smooth enough for the two-type solver's finite-difference Jacobian.
    """
    if profile.volume() <= params.budget + _BUDGET_EPS:
        return -math.inf
    lo, hi = profile.support()
    x, mass = profile._nodes()
    return float(_clearing_thresholds(x, mass, params, lo, hi, 1e-14)[0])


def evaluate_success(profile, params):
    """Solve market clearing and package the success function."""
    sbar = signal_cutoff(profile, params)
    return SuccessEvaluation(sbar=sbar, profile=profile, noise=params.noise)


def win_mass(cutoff, evaluation, base):
    """Ex-ante per-period winning probability of a cutoff-`cutoff` researcher
    whose quality is drawn from `base`."""
    if cutoff == NEVER_SUBMIT:
        return 0.0
    if evaluation.sbar == -math.inf:
        return 1.0 - base.cdf(cutoff)
    lo, hi = base.support_hint
    lo = max(lo, cutoff)
    return integrate(lambda q: base.pdf(q) * evaluation.win_prob(q), lo, hi)


def ban_mass(cutoff, sbar_ban, base, noise):
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
        lo, hi)


# ---------------------------------------------------------------------------
# exclusion policies
#
# Every formula that depends on the ban rule lives on the policy object: the
# regime label and ban length, the regime's public solver, the per-period
# mass of submitters banned by their review signal, steady-state
# eligibility, the indifference level of the marginal win probability given
# the lifetime payoff x of eligibility, the ban weight in the payoff's
# denominator, and the simulator's ban trigger.  Every method takes scalars
# or arrays over a cutoff grid.


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

    def solve(self, params):
        from . import equilibria
        return equilibria.solve_multi_period(params, self.periods)

    def ban(self, F, below):
        """No signal-triggered bans: the ban follows the funding outcome."""
        return 0.0 * F

    def eligibility(self, F, ban, budget):
        t = self.periods
        return np.minimum((1.0 + t * budget) / (1.0 + t * (1.0 - F)), 1.0)

    def indifference(self, cutoff, x, params):
        d = params.discount
        cost = params.reject_cost + d * (1.0 - d ** self.periods) * x
        return cost / (cost + params.win_value)

    def payoff_ban(self, reject, ban, params):
        """Rejections weighted by the discounted periods they bar."""
        d = params.discount
        return reject * ((1.0 - d ** self.periods) / (1.0 - d))

    def banned(self, submit, signal, rejected):
        return rejected


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

    def solve(self, params):
        from . import equilibria
        return equilibria.solve_signal_cutoff(params, self.sbar)

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

    def indifference(self, cutoff, x, params):
        c, v, d = params.reject_cost, params.win_value, params.discount
        g = self._trigger(cutoff, params.noise)
        return (c + d * (1.0 - d) * g * x) / (c + v)

    def payoff_ban(self, reject, ban, params):
        return ban

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

    def solve(self, params):
        from . import equilibria
        return equilibria.solve_benchmark(params)


def _payoff(win, reject, ban_weight, params):
    """Lifetime payoff of eligibility that wins `win` and is rejected
    `reject` per period, `ban_weight` being the policy's `payoff_ban`."""
    v, c, d = params.win_value, params.reject_cost, params.discount
    return (win * v - reject * c) / ((1.0 - d) * (1.0 + d * ban_weight))


def lifetime_payoff(cutoff, evaluation, params, policy=RejectionExclusion(1),
                    base=None):
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
    F = base.cdf(cutoff)
    win = win_mass(cutoff, evaluation, base)
    reject = (1.0 - F) - win
    ban = policy.ban(F, lambda s: ban_mass(cutoff, s, base, params.noise))
    return _payoff(win, reject, policy.payoff_ban(reject, ban, params), params)


def welfare(profile, params):
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
