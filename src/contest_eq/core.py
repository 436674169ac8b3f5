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
from scipy.special import ndtr, ndtri, owens_t

from .distributions import TRUNCATION_SIGMAS, Mixture, Normal, RejectedValue

# Entry cutoffs are extended reals: comparisons and cdf evaluation are the
# only operations ever applied to the infinite values.
ALWAYS_SUBMIT = -math.inf
NEVER_SUBMIT = math.inf

# Volume within this epsilon of the budget counts as under-subscribed
# (everyone funded); keeps the boundary profile f^{Q*} exactly trivial.
_BUDGET_EPS = 1e-12


class BracketFailure(RuntimeError):
    """The submitted mass does not exceed the budget, so no threshold
    clears it: malformed profile."""


def _require_normal(name, dist):
    if not isinstance(dist, Normal):
        raise TypeError(f"{name} must be Normal, got {type(dist).__name__}")


@dataclass(frozen=True)
class TypeMix:
    """One researcher type: its population share and normal quality
    distribution."""

    share: float
    quality: Normal

    def __post_init__(self):
        if not 0.0 < self.share <= 1.0:
            raise RejectedValue("type share must lie in (0, 1]")
        _require_normal("type quality", self.quality)


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the repeated contest.

    win_value    benefit of a funded submission (V > 0)
    reject_cost  loss suffered on rejection (C > 0)
    budget       volume of proposals the agency can fund per period, in (0,1)
    discount     per-period discount factor, in (0,1)
    quality      per-period idea quality distribution: Normal, or the
                 population mixture built from `types` when they are given
                 (a passed quality is then ignored)
    noise        Normal review noise; the signal is s = q + e with e ~ noise
    types        optional tuple of TypeMix for a heterogeneous population
    """

    win_value: float
    reject_cost: float
    budget: float
    discount: float
    quality: Normal | Mixture | None
    noise: Normal
    types: tuple[TypeMix, ...] | None = None

    def __post_init__(self):
        if not (0.0 < self.win_value < math.inf
                and 0.0 < self.reject_cost < math.inf):
            raise RejectedValue("win_value and reject_cost must be positive "
                                "and finite")
        if not 0.0 < self.budget < 1.0:
            raise RejectedValue("budget k must lie in (0, 1)")
        if not 0.0 < self.discount < 1.0:
            raise RejectedValue("discount delta must lie in (0, 1)")
        _require_normal("noise", self.noise)
        if self.types is not None:
            types = tuple(self.types)
            total = sum(t.share for t in types)
            if abs(total - 1.0) > 1e-12:
                raise RejectedValue(f"type shares must sum to 1, got {total}")
            object.__setattr__(self, "types", types)
            # the population quality density is always the type mixture
            object.__setattr__(
                self, "quality", Mixture([(t.share, t.quality) for t in types]))
        elif self.quality is None:
            raise RejectedValue("quality distribution required without types")
        else:
            _require_normal("quality", self.quality)

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
    base: Normal | Mixture
    cutoff: float
    eligibility: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        # every mass of a profile is a normal orthant
        for _, d in getattr(self.base, "parts", [(1.0, self.base)]):
            _require_normal("profile base", d)
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


def truncated_profile(base, cutoff, eligibility=1.0):
    """Single-component profile: share `eligibility` submits above `cutoff`."""
    return SubmissionProfile((ProfileComponent(base, cutoff, eligibility),))


@dataclass(frozen=True)
class SuccessEvaluation:
    """Review outcome of a submission profile.

    `sbar` is the market-clearing funding threshold (-inf when the contest is
    under-subscribed and everything is funded), or an array of finite ones;
    win_prob(q) is the chance a quality-q submission clears it.
    """

    sbar: float
    noise: Normal

    def win_prob(self, q):
        q = np.asarray(q, dtype=float)
        if np.ndim(self.sbar) == 0 and self.sbar == -math.inf:
            out = np.ones_like(q)
            return out if out.ndim else 1.0
        out = 1.0 - np.asarray(self.noise.cdf(self.sbar - q), dtype=float)
        return out if out.ndim else float(out)


def _normal_orthant(h, k, rho, r):
    """P(X >= h, Y >= k) for standard normals X, Y of correlation rho in
    (0, 1), r = sqrt(1 - rho^2), by Owen's T on the lower orthant at
    (-h, -k) (Owen 1956).  Vectorized; h and k may be +-inf.  Accurate to
    about 2e-16 absolute, not relative in the far tails."""
    # + 0.0 clears signed zeros: at x = -0.0 the T argument below becomes
    # -inf for y > 0, and T(0, -inf) = -1/4 carries the wrong sign.  The
    # arguments divide before they subtract, which keeps them exact for
    # subnormal limits.
    x, y = np.negative(h) + 0.0, np.negative(k) + 0.0
    with np.errstate(all="ignore"):
        lower = (0.5 * (ndtr(x) + ndtr(y))
                 - owens_t(x, (y / x - rho) / r)
                 - owens_t(y, (x / y - rho) / r)
                 - 0.5 * ((x < 0.0) != (y < 0.0)))
    # the formula is 0/0 at the origin, and an infinite limit leaves an
    # exact one-dimensional probability
    origin = (x == 0.0) & (y == 0.0)
    edge = origin | ~np.isfinite(x) | ~np.isfinite(y)
    if np.any(edge):
        lower = np.where(edge, np.where(
            origin, 0.25 + math.atan2(rho, r) / (2.0 * math.pi),
            ndtr(x) * ndtr(y)), lower)
    return lower


def _standardize(base, noise, cutoff, b):
    """(h, z, rho, r, sd_s): the cutoff standardized by the quality, the
    signal standardized by its own law, the quality-signal correlation, its
    complement sqrt(1 - rho^2) and the signal sd."""
    sd_s = math.sqrt(base.variance + noise.variance)
    h = (np.asarray(cutoff, dtype=float) - base.mean) / base.stddev
    z = (np.asarray(b, dtype=float) - base.mean - noise.mean) / sd_s
    return h, z, base.stddev / sd_s, noise.stddev / sd_s, sd_s


def _upper_mass(base, cutoff, noise, b):
    """P(q >= cutoff, q + e >= b) for q ~ base and e ~ noise, vectorized
    over `cutoff` and `b` (either may be +-inf).

    Normal quality and noise make it a bivariate-normal orthant, computed
    in closed form; a mixture base sums its weighted parts.
    """
    if isinstance(base, Mixture):
        return sum(w * _upper_mass(d, cutoff, noise, b) for w, d in base.parts)
    h, z, rho, r, _ = _standardize(base, noise, cutoff, b)
    return _normal_orthant(h, z, rho, r)


def _upper_mass_bounds(base, cutoff, noise, b):
    """(lower, upper) bounds of `_upper_mass` from its two tails alone:
    quality and signal correlate positively, so the orthant lies between
    the product and the minimum of P(q >= cutoff) and P(q + e >= b)
    (Slepian 1962).  Two `ndtr` calls per part, no Owen's T; a mixture base
    sums its weighted parts."""
    if isinstance(base, Mixture):
        parts = [(w, _upper_mass_bounds(d, cutoff, noise, b))
                 for w, d in base.parts]
        return (sum(w * lower for w, (lower, _) in parts),
                sum(w * upper for w, (_, upper) in parts))
    h, z, *_ = _standardize(base, noise, cutoff, b)
    tail_q, tail_s = ndtr(-h), ndtr(-z)
    return tail_q * tail_s, np.minimum(tail_q, tail_s)


def _signal_density(base, cutoff, noise, b):
    """-d/db of `_upper_mass`: the density of the signal at b jointly with
    q >= cutoff."""
    if isinstance(base, Mixture):
        return sum(w * _signal_density(d, cutoff, noise, b)
                   for w, d in base.parts)
    h, z, rho, r, sd_s = _standardize(base, noise, cutoff, b)
    return np.exp(-0.5 * z * z) / (sd_s * math.sqrt(2.0 * math.pi)) \
        * ndtr((rho * z - h) / r)


def _clearing_thresholds(parts, params, lo, hi, tol):
    """Market-clearing signal threshold of every row of a batch of
    submission profiles: the signal at which the mass whose signal clears
    it equals the budget.

    `parts` lists the components as (base, cutoffs, masses) with one array
    entry per row, a mass being weight x eligibility.  Every row starts on
    the bracket [lo + mean - 10 sd, hi + mean + 10 sd] ([lo, hi] the quality
    support, mean and sd the noise's).  Each step evaluates the clearing
    mass at two points per row in one pass: the bracket midpoint, so every
    step at least halves the bracket and no row takes more steps than
    bisection's ceil(log2(width / tol)); and a Newton point from the
    bracket end with the smaller clearing gap, pushed tol/4 further so that
    it can close the bracket (the midpoint of that end's half when the
    Newton point leaves the bracket).  Newton runs on the probit of the
    cleared share of the submitted mass, whose slope comes from the
    submitted-signal density; the probit is linear in the threshold for
    one untruncated normal component, so a few steps end most rows.  A row
    stops once its bracket is narrower than `tol` (or holds no float
    between its ends) or its gap is exactly zero, and returns the midpoint.
    Stopping on the bracket rather than on the clearing mass keeps the
    threshold exact when eligibility, and with it the clearing slope, is
    small.  Raises BracketFailure when a row's submitted mass does not
    exceed the budget.
    """
    noise, k = params.noise, params.budget
    s_lo = lo + noise.mean - TRUNCATION_SIGMAS * noise.stddev
    s_hi = hi + noise.mean + TRUNCATION_SIGMAS * noise.stddev
    steps = max(math.ceil(math.log2((s_hi - s_lo) / tol)), 1)

    def gap(s, rows):
        """Funded mass less the budget, and its slope, at thresholds s."""
        mass, slope = -k, 0.0
        for base, cutoffs, masses in parts:
            c, m = cutoffs[rows], masses[rows]
            mass = mass + m * _upper_mass(base, c, noise, s)
            slope = slope - m * _signal_density(base, c, noise, s)
        return mass, slope

    rows = np.arange(len(parts[0][1]))
    out = np.empty(rows.size)
    volume = sum(m * _upper_mass(base, c, noise, -math.inf)
                 for base, c, m in parts)
    if np.any(volume <= k):
        raise BracketFailure("submitted mass does not exceed the budget")
    share = ndtri(k / volume)
    # each bracket end as (threshold, gap, slope); the ends' gaps hold to
    # within the ~1e-23 mass beyond 10 sd, and a zero slope keeps Newton
    # off them
    zero = np.zeros(rows.size)
    lo_end = np.array([zero + s_lo, volume - k, zero])
    hi_end = np.array([zero + s_hi, zero - k, zero])
    for _ in range(steps):
        a, b = lo_end[0], hi_end[0]
        mid = 0.5 * (a + b)
        done = ~((b - a > tol) & (a < mid) & (mid < b))
        if np.any(done):
            out[rows[done]] = mid[done]
            keep = ~done
            rows, mid, volume, share = (v[keep]
                                        for v in (rows, mid, volume, share))
            lo_end, hi_end = lo_end[:, keep], hi_end[:, keep]
        if rows.size == 0:
            break
        from_hi = np.abs(hi_end[1]) < np.abs(lo_end[1])
        x, fx, dx = np.where(from_hi, hi_end, lo_end)
        with np.errstate(all="ignore"):
            z = ndtri((fx + k) / volume)
            newton = x - (z - share) * volume * np.exp(-0.5 * z * z) \
                / (math.sqrt(2.0 * math.pi) * dx) \
                + np.where(from_hi, -0.25 * tol, 0.25 * tol)
        inside = (lo_end[0] < newton) & (newton < hi_end[0])
        s = np.concatenate([mid, np.where(inside, newton, 0.5 * (mid + x))])
        points = np.array([s, *gap(s, np.concatenate([rows, rows]))])
        for point in (points[:, :rows.size], points[:, rows.size:]):
            # an exact zero clears the budget to the last bit: it closes
            # the row
            lo_end = np.where((point[1] >= 0.0) & (point[0] > lo_end[0]),
                              point, lo_end)
            hi_end = np.where((point[1] <= 0.0) & (point[0] < hi_end[0]),
                              point, hi_end)
    else:
        out[rows] = 0.5 * (lo_end[0] + hi_end[0])
    return out


def signal_cutoff(profile, params):
    """Market-clearing funding threshold for a submission profile.

    Returns -inf when the volume of submissions does not exceed the budget
    (everything is funded).  Otherwise solves the clearing mass of all the
    profile's components until the bracket is narrower than 1e-14, the
    stop that the winner densities `compare` and `figures` write were
    computed with.
    """
    if profile.volume() <= params.budget + _BUDGET_EPS:
        return -math.inf
    lo, hi = profile.support()
    parts = [(c.base, np.array([c.cutoff]),
              np.array([c.weight * c.eligibility]))
             for c in profile.components]
    return float(_clearing_thresholds(parts, params, lo, hi, 1e-14)[0])


def evaluate_success(profile, params):
    """Solve market clearing and package the success function."""
    sbar = signal_cutoff(profile, params)
    return SuccessEvaluation(sbar=sbar, noise=params.noise)


def win_mass(cutoff, evaluation, base):
    """Ex-ante per-period winning probability of a cutoff-`cutoff` researcher
    whose quality is drawn from `base`."""
    return float(_upper_mass(base, cutoff, evaluation.noise, evaluation.sbar))


def ban_mass(cutoff, sbar_ban, base, noise):
    """Ex-ante per-period probability that an eligible researcher triggers
    exclusion: submits (q >= cutoff) and draws a signal below sbar_ban.
    Vectorized over `cutoff`."""
    if sbar_ban == -math.inf:
        return 0.0
    if sbar_ban == math.inf:
        return 1.0 - base.cdf(cutoff)
    # the two masses agree to rounding when almost no signal falls below
    out = np.maximum((1.0 - np.asarray(base.cdf(cutoff), dtype=float))
                     - _upper_mass(base, cutoff, noise, sbar_ban), 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# exclusion policies
#
# Every formula that depends on the ban rule lives on the policy object: the
# regime label and ban length, the steady state's existence condition, the
# per-period mass of submitters banned by their review signal, steady-state
# eligibility and banned load, the indifference level of the marginal win
# probability given the lifetime payoff x of eligibility, the ban weight in
# the payoff's denominator, and the simulator's ban trigger.  Every method
# takes scalars or arrays over a cutoff grid.


@dataclass(frozen=True)
class RejectionExclusion:
    """A rejected applicant sits out the next `periods` periods."""

    periods: int = 1

    def __post_init__(self):
        if not (self.periods >= 1 and float(self.periods).is_integer()):
            raise RejectedValue("ban length must be a positive integer")
        object.__setattr__(self, "periods", int(self.periods))  # 2.0: t=2

    @property
    def regime(self):
        return "exclusion" if self.periods == 1 else \
            f"multi_period(t={self.periods})"

    @property
    def ban_periods(self):
        return self.periods

    def hypothesis_met(self, params):
        """Whether V/C reaches the bound (1 - k)/((t + 1) k) that guarantees
        a steady state exists."""
        bound = (1.0 - params.budget) / ((self.periods + 1) * params.budget)
        return params.win_value / params.reject_cost >= bound

    def ban(self, F, below):
        """No signal-triggered bans: the ban follows the funding outcome."""
        return 0.0 * F

    def eligibility(self, F, ban, budget):
        t = self.periods
        return np.minimum((1.0 + t * budget) / (1.0 + t * (1.0 - F)), 1.0)

    def load(self, reject, ban):
        """Banned mass per unit of eligible mass in steady state."""
        return self.periods * reject

    def indifference(self, cutoff, x, params):
        d = params.discount
        cost = params.reject_cost + d * (1.0 - d ** self.periods) * x
        return cost / (cost + params.win_value)

    def payoff_ban(self, reject, ban, params):
        """Rejections weighted by the discounted periods they bar."""
        d = params.discount
        return reject * ((1.0 - d ** self.periods) / (1.0 - d))

    def banned(self, signal, rejected):
        """Which submissions, given their signals and whether each was
        rejected, start a ban."""
        return rejected


@dataclass(frozen=True)
class SignalExclusion:
    """An applicant whose review signal falls below `sbar` sits out the next
    period, independently of whether the proposal was funded."""

    sbar: float
    ban_periods = 1

    def __post_init__(self):
        if math.isnan(self.sbar):
            raise RejectedValue("sbar_ban must be a number or +-inf")

    @property
    def regime(self):
        return f"signal_cutoff(sbar={self.sbar:g})"

    def hypothesis_met(self, params):
        """Signal bans and free entry state no existence bound."""
        return True

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

    def load(self, reject, ban):
        return ban

    def indifference(self, cutoff, x, params):
        c, v, d = params.reject_cost, params.win_value, params.discount
        g = self._trigger(cutoff, params.noise)
        return (c + d * (1.0 - d) * g * x) / (c + v)

    def payoff_ban(self, reject, ban, params):
        return ban

    def banned(self, signal, rejected):
        return signal < self.sbar

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
    default).  Vectorized over `cutoff`; NEVER_SUBMIT gives 0.
    """
    if base is None:
        base = params.quality
    F = base.cdf(cutoff)
    win = _upper_mass(base, cutoff, evaluation.noise, evaluation.sbar)
    reject = (1.0 - F) - win
    ban = policy.ban(F, lambda s: ban_mass(cutoff, s, base, params.noise))
    out = _payoff(win, reject, policy.payoff_ban(reject, ban, params), params)
    return out if np.ndim(out) else float(out)


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
