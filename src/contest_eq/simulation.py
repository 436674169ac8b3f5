"""Finite-population Monte Carlo oracle for the period dynamics.

Simulates the literal per-period mechanics — quality draws, entry decisions,
signal draws, top-k funding, eligibility bookkeeping — and measures whether
the analytic steady states are attractors.  Randomness comes from a
counter-based Philox generator with one substream per period, so agent i's
draw in period p is a fixed function of (seed, p, i) regardless of who else
is eligible or how the arrays are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .core import RejectionExclusion
from .distributions import Mixture, RejectedValue

# bins of the post-burn-in winner-quality histogram over the quality support
HIST_BINS = 200


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    cutoffs holds one number or +-inf per type (one without types), and
    initial_eligibility the starting eligible share of each type, in (0, its
    share], at an analytic steady state; by default everyone starts eligible
    and the burn-in absorbs the transient.  A run needs a seed in [0, 2**128).
    """

    seed: int | None
    policy: object = field(default_factory=lambda: RejectionExclusion(1))
    cutoffs: tuple[float, ...] = (0.0,)
    n_agents: int = 200_000
    n_periods: int = 1000
    burn_in: int = 200
    initial_eligibility: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.seed is not None and not 0 <= self.seed < 2**128:
            raise RejectedValue("seed must lie in [0, 2**128)")
        if self.n_agents < 1000:
            raise RejectedValue("need at least 1000 agents")
        if not 0 <= self.burn_in < self.n_periods:
            raise RejectedValue("burn_in must be smaller than n_periods")
        if any(map(math.isnan, self.cutoffs)):
            raise RejectedValue("cutoffs must be numbers or +-inf")


@dataclass(frozen=True)
class SimResult:
    """Post-burn-in statistics plus full trajectories.

    eligibility_by_type rows are population shares (they sum to the overall
    eligible fraction); the winner histogram is a density whose integral is
    the mean funded volume per period.
    """

    mean_eligibility: tuple[float, ...]
    mean_volume: float
    mean_funded_volume: float
    mean_welfare_per_period: float
    winner_hist_edges: np.ndarray
    winner_hist_density: np.ndarray
    eligibility_trajectory: np.ndarray
    eligibility_by_type: np.ndarray
    funding_thresholds: np.ndarray
    volume_trajectory: np.ndarray
    funded_trajectory: np.ndarray


def _period_rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def _counter_dtype(low, high):
    """Smallest signed integer dtype that holds both `low` and `high`."""
    return np.result_type(np.min_scalar_type(low), np.min_scalar_type(high))


def _type_layout(params, n_agents):
    """Contiguous blocks of agents as slices, one per type (a Normal quality
    is one type), and each type's (share, Normal)."""
    types = params.quality.parts if isinstance(params.quality, Mixture) \
        else ((1.0, params.quality),)
    counts = [int(round(share * n_agents)) for share, _ in types]
    counts[-1] = n_agents - sum(counts[:-1])
    ends = np.cumsum(counts).tolist()
    return [slice(end - c, end) for c, end in zip(counts, ends)], types


def run_simulation(config, params):
    """Run the period dynamics and collect steady-state statistics.

    Each period every eligible agent draws a quality from their type's
    distribution and submits iff it reaches their cutoff (ties submit); each
    submission draws signal = quality + noise; the top floor(k * n_agents)
    signals are funded (all funded when under-subscribed).  Rejected
    applicants (or, under a signal policy, applicants whose signal fell below
    the policy bar) sit out the policy's ban length.  Deterministic given
    the seed.

    Every agent's two normals are drawn each period, so the draw stream is
    fixed by (seed, period, agent); everything after the entry decision
    works on the index array of that period's submitters.
    """
    if config.seed is None:
        raise RejectedValue("a simulation needs an explicit seed")
    n = config.n_agents
    budget_slots = int(math.floor(params.budget * n))
    if budget_slots < 1:
        raise RejectedValue(f"a budget of {params.budget:g} funds no one of "
                            f"{n} agents")
    t_ban = config.policy.ban_periods
    blocks, types = _type_layout(params, n)
    n_types = len(blocks)
    if len(config.cutoffs) != n_types:
        raise RejectedValue("one cutoff per type required")
    init = config.initial_eligibility
    if init is not None and not (len(init) == n_types and all(
            0.0 < a <= share for a, (share, _) in zip(init, types))):
        raise RejectedValue("one initial eligible share per type required, "
                            "each in (0, the type's share]")

    cut = np.empty(n)
    for c, block in zip(config.cutoffs, blocks):
        cut[block] = c

    # periods left to serve, counted down every period: eligible at <= 0
    ban_left = np.zeros(n, dtype=_counter_dtype(-config.n_periods, t_ban))
    if init is not None and t_ban > 0:
        for a, (share, _), block in zip(init, types, blocks):
            size = block.stop - block.start
            n_banned = int(round((1.0 - a / share) * size))
            if n_banned > 0:
                sel = block.start + np.round(
                    np.linspace(0, size - 1, n_banned)).astype(int)
                ban_left[sel] = 1 + (np.arange(n_banned) % t_ban)

    hist_edges = np.linspace(*params.quality.support_hint, HIST_BINS + 1)
    hist_counts = np.zeros(HIST_BINS, dtype=np.int64)

    elig_traj = np.zeros(config.n_periods)
    elig_by_type = np.zeros((config.n_periods, n_types))
    thresholds = np.full(config.n_periods, -math.inf)
    volumes = np.zeros(config.n_periods)
    funded_vols = np.zeros(config.n_periods)
    welfare_flow = np.zeros(config.n_periods)

    sigma_noise = params.noise.stddev
    noise_mean = params.noise.mean

    z = np.empty(n)
    quality = np.empty(n)
    eligible = np.empty(n, dtype=bool)
    submit = np.empty(n, dtype=bool)
    for p in range(config.n_periods):
        rng = _period_rng(config.seed, p)
        # per-agent-per-period substreams: draw for everyone, select later;
        # the draw order (quality z, then noise) is fixed
        rng.standard_normal(out=z)
        for (_, dist), block in zip(types, blocks):
            np.multiply(z[block], dist.stddev, out=quality[block])
            quality[block] += dist.mean
        rng.standard_normal(out=z)  # the noise draws

        np.less_equal(ban_left, 0, out=eligible)
        elig_traj[p] = np.count_nonzero(eligible) / n
        for i, block in enumerate(blocks):
            elig_by_type[p, i] = np.count_nonzero(eligible[block]) / n

        np.greater_equal(quality, cut, out=submit)
        submit &= eligible
        sub = np.flatnonzero(submit)
        n_sub = sub.size
        volumes[p] = n_sub / n
        sub_quality = quality[sub]
        signals = sub_quality + (noise_mean + sigma_noise * z[sub])

        if n_sub > budget_slots:
            # the same order statistic as over all n agents with -inf
            # standing in for the n - n_sub who did not submit
            kth = np.partition(signals, n_sub - budget_slots)[
                n_sub - budget_slots]
            rejected = signals < kth
            thresholds[p] = kth
        else:
            rejected = np.zeros(n_sub, dtype=bool)
        n_rejected = np.count_nonzero(rejected)
        n_funded = n_sub - n_rejected
        funded_vols[p] = n_funded / n
        welfare_flow[p] = (n_funded * params.win_value
                           - n_rejected * params.reject_cost) / n

        if p >= config.burn_in:
            hist_counts += np.histogram(sub_quality[~rejected],
                                        bins=hist_edges)[0]

        ban_left -= 1
        if t_ban > 0:
            ban_left[sub[config.policy.banned(signals, rejected)]] = t_ban

    tail = slice(config.burn_in, None)
    periods_counted = config.n_periods - config.burn_in
    bin_width = hist_edges[1] - hist_edges[0]
    density = hist_counts / (n * periods_counted * bin_width)
    return SimResult(
        mean_eligibility=tuple(float(m) for m in
                               elig_by_type[tail].mean(axis=0)),
        mean_volume=float(volumes[tail].mean()),
        mean_funded_volume=float(funded_vols[tail].mean()),
        mean_welfare_per_period=float(welfare_flow[tail].mean()),
        winner_hist_edges=hist_edges,
        winner_hist_density=density,
        eligibility_trajectory=elig_traj,
        eligibility_by_type=elig_by_type,
        funding_thresholds=thresholds,
        volume_trajectory=volumes,
        funded_trajectory=funded_vols,
    )


def empirical_best_response(config, params, candidate_grid, result=None,
                            replications=10_000, horizon=None):
    """Estimate the best entry cutoff of a single deviating agent.

    Replays the recorded post-burn-in funding thresholds of a population run
    (one deviator cannot move the market) and estimates the discounted
    lifetime payoff of each candidate cutoff by Monte Carlo over
    `replications` agent lifetimes, with common random numbers across
    candidates.  Returns the argmax candidate and the payoff estimates.

    Each step an eligible lifetime whose quality draw q reaches a candidate
    cutoff submits.  It is credited the expected flow of that submission
    given q, disc * ((V + C) * Phi((q + mu_e - sbar_t) / sd_e) - C), with
    the review noise integrated out, instead of the realized win or loss.
    The ban that the submission triggers is still sampled from the step's
    noise draw.  Eligibility at step t does not depend on step t's noise,
    so by the tower property the estimate stays unbiased, and it has less
    variance (Rao-Blackwell over the review noise).

    The state is laid out candidates x replications: a ban counter that
    counts down every step (eligible at <= 0) and a boolean submit matrix,
    whose product with the flow vector adds one step to every candidate's
    payoff sum.
    """
    if config.seed is None:
        raise RejectedValue("a simulation needs an explicit seed")
    if result is None:
        result = run_simulation(config, params)
    thresholds = result.funding_thresholds[config.burn_in:]
    n_thresh = thresholds.size
    if horizon is None:
        horizon = min(int(math.ceil(math.log(1e-9)
                                    / math.log(params.discount))), 2000)
    t_ban = config.policy.ban_periods
    grid = np.asarray(candidate_grid, dtype=float)
    n_cand = grid.size

    dist, noise = params.quality, params.noise
    gain = params.win_value + params.reject_cost
    total = np.zeros(n_cand)
    ban = np.zeros((n_cand, replications),
                   dtype=_counter_dtype(-horizon, t_ban))
    ban_len = ban.dtype.type(t_ban)
    # per-step buffers: fresh candidates x replications temporaries would
    # map new pages on every step
    submit, above = (np.empty((n_cand, replications), dtype=bool)
                     for _ in range(2))
    new_ban = np.empty_like(ban) if t_ban > 0 else None
    disc = 1.0
    for step in range(horizon):
        rng = _period_rng(config.seed ^ 0x9E3779B97F4A7C15, step)
        q = dist.sample(rng, replications)
        sbar = thresholds[step % n_thresh]
        flow = disc * (gain * ndtr((q + noise.mean - sbar) / noise.stddev)
                       - params.reject_cost)
        np.less_equal(ban, 0, out=submit)
        np.greater_equal(q, grid[:, None], out=above)
        submit &= above
        total += submit @ flow
        ban -= 1
        if t_ban > 0:
            s = q + noise.mean + noise.stddev * rng.standard_normal(
                replications)
            trigger = config.policy.banned(s, s < sbar)
            np.multiply(submit, trigger * ban_len, out=new_ban)
            np.maximum(ban, new_ban, out=ban)
        disc *= params.discount

    mean_payoff = total / replications
    return float(grid[int(np.argmax(mean_payoff))]), mean_payoff


def trend_statistic(series):
    """Normalized Mann-Kendall trend score of a time series.

    Returns the z-statistic; |z| below the 1% two-sided critical value
    (2.576) is consistent with stationarity.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    s = 0.0
    for i in range(n - 1):
        s += np.sign(x[i + 1:] - x[i]).sum()
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        return float((s - 1) / math.sqrt(var))
    if s < 0:
        return float((s + 1) / math.sqrt(var))
    return 0.0
