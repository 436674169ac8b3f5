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

from .core import RejectionExclusion

# bins of the post-burn-in winner-quality histogram over the quality support
HIST_BINS = 200


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    cutoffs holds one entry per type (a single entry without types) and may
    be +-inf.  initial_eligibility seeds the starting eligible share(s) at an
    analytic steady state; by default everyone starts eligible and the
    burn-in absorbs the transient.  A run needs a seed in [0, 2**128).
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
            raise ValueError("seed must lie in [0, 2**128)")
        if self.n_agents < 1000:
            raise ValueError("need at least 1000 agents")
        if not 0 <= self.burn_in < self.n_periods:
            raise ValueError("burn_in must be smaller than n_periods")


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


def _type_layout(params, n_agents):
    """Deterministic assignment of agents to types (contiguous blocks)."""
    if params.types is None:
        return [np.arange(n_agents)], (1.0,)
    counts = [int(round(t.share * n_agents)) for t in params.types]
    counts[-1] = n_agents - sum(counts[:-1])
    idx, start = [], 0
    for c in counts:
        idx.append(np.arange(start, start + c))
        start += c
    return idx, tuple(t.share for t in params.types)


def run_simulation(config, params):
    """Run the period dynamics and collect steady-state statistics.

    Each period every eligible agent draws a quality from their type's
    distribution and submits iff it reaches their cutoff (ties submit); each
    submission draws signal = quality + noise; the top floor(k * n_agents)
    signals are funded (all funded when under-subscribed).  Rejected
    applicants (or, under a signal policy, applicants whose signal fell below
    the policy bar) sit out the policy's ban length.  Deterministic given
    the seed.
    """
    if config.seed is None:
        raise ValueError("a simulation needs an explicit seed")
    n = config.n_agents
    budget_slots = int(math.floor(params.budget * n))
    t_ban = config.policy.ban_periods
    type_idx, type_shares = _type_layout(params, n)
    n_types = len(type_idx)
    if len(config.cutoffs) != n_types:
        raise ValueError("one cutoff per type required")

    type_of = np.empty(n, dtype=np.int64)
    for i, idx in enumerate(type_idx):
        type_of[idx] = i
    cut = np.array([config.cutoffs[i] for i in range(n_types)])[type_of]

    ban_left = np.zeros(n, dtype=np.int32)
    if config.initial_eligibility is not None and t_ban > 0:
        for i, idx in enumerate(type_idx):
            frac = config.initial_eligibility[i] / type_shares[i]
            n_banned = int(round((1.0 - min(frac, 1.0)) * idx.size))
            if n_banned > 0:
                sel = idx[np.round(np.linspace(0, idx.size - 1,
                                               n_banned)).astype(int)]
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

    type_dists = [params.types[i].quality if params.types else params.quality
                  for i in range(n_types)]

    for p in range(config.n_periods):
        rng = _period_rng(config.seed, p)
        # per-agent-per-period substreams: draw for everyone, mask later;
        # the draw order (quality z, then noise) is fixed
        quality = np.empty(n)
        z = rng.standard_normal(n)
        for dist, idx in zip(type_dists, type_idx):
            quality[idx] = dist.mean + dist.stddev * z[idx]
        noise = noise_mean + sigma_noise * rng.standard_normal(n)

        eligible = ban_left == 0
        elig_traj[p] = eligible.mean()
        for i, idx in enumerate(type_idx):
            elig_by_type[p, i] = eligible[idx].sum() / n

        submit = eligible & (quality >= cut)
        n_sub = int(submit.sum())
        volumes[p] = n_sub / n
        signals = np.where(submit, quality + noise, -math.inf)

        if n_sub > budget_slots:
            kth = np.partition(signals, n - budget_slots)[n - budget_slots]
            funded = submit & (signals >= kth)
            thresholds[p] = kth
        else:
            funded = submit
        n_funded = int(funded.sum())
        funded_vols[p] = n_funded / n
        rejected = submit & ~funded
        welfare_flow[p] = (n_funded * params.win_value
                           - int(rejected.sum()) * params.reject_cost) / n

        if p >= config.burn_in:
            hist_counts += np.histogram(quality[funded], bins=hist_edges)[0]

        ban_left = np.maximum(ban_left - 1, 0)
        if t_ban > 0:
            ban_left[config.policy.banned(submit, signals, rejected)] = t_ban

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
    `replications` agent lifetimes with common random numbers across
    candidates.  Returns the argmax candidate.
    """
    if config.seed is None:
        raise ValueError("a simulation needs an explicit seed")
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

    dist = params.quality
    payoff = np.zeros((replications, n_cand))
    ban = np.zeros((replications, n_cand), dtype=np.int32)
    # the per-step masks reuse three buffers: fresh replications x
    # candidates temporaries would map new pages on every step
    submit, win, lose = (np.empty((replications, n_cand), dtype=bool)
                         for _ in range(3))
    disc = 1.0
    for step in range(horizon):
        rng = _period_rng(config.seed ^ 0x9E3779B97F4A7C15, step)
        q = dist.sample(rng, replications)[:, None]
        s = q + params.noise.mean \
            + params.noise.stddev * rng.standard_normal(replications)[:, None]
        sbar = thresholds[step % n_thresh]
        np.equal(ban, 0, out=win)  # eligible
        np.greater_equal(q, grid[None, :], out=submit)
        np.logical_and(submit, win, out=submit)
        np.logical_and(submit, s >= sbar, out=win)
        np.logical_xor(submit, win, out=lose)
        np.add(payoff, disc * params.win_value, out=payoff, where=win)
        np.subtract(payoff, disc * params.reject_cost, out=payoff, where=lose)
        np.greater(ban, 0, out=win)  # serving periods; win is spent
        np.subtract(ban, 1, out=ban, where=win)
        if t_ban > 0:
            np.copyto(ban, t_ban,
                      where=config.policy.banned(submit, s, lose))
        disc *= params.discount

    mean_payoff = payoff.mean(axis=0)
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
