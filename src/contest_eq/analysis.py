"""Derived quantities and policy comparisons.

Winner-quality densities, first-order dominance verdicts with the single
crossing point between an exclusion equilibrium and the free-entry
benchmark, first-best references, and parameter sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import (BracketFailure, RejectionExclusion, SignalExclusion,
                   _upper_mass, evaluate_success, truncated_profile)
from .distributions import RejectedValue, _bisect_root
from .equilibria import NoConvergence, NoRoot, solve, solve_benchmark

# what a sweep records inline; anything else is a programming error
_SOLVER_ERRORS = (NoRoot, NoConvergence, BracketFailure, RejectedValue)

# every sweep axis: the model field its value sets, or the policy it builds
_SWEEP_AXES = {"V": "win_value", "C": "reject_cost", "k": "budget",
               "delta": "discount", "t": RejectionExclusion,
               "sbar_ban": lambda v: SignalExclusion(float(v))}

# cumulative and pointwise differences within this slack count as ties
_SLACK = 1e-9


@dataclass(frozen=True)
class WinnerDensity:
    """Quality density of funded ideas h(q) = phi(q) W(q) on a grid.

    `density` evaluates h between grid points, which lets the crossing
    search refine by bisection instead of interpolating; `cumulative(q)` is
    the funded mass of qualities below q, in closed form.
    """

    grid: np.ndarray
    values: np.ndarray
    total_mass: float
    density: object
    cumulative: object

    def __call__(self, q):
        return self.density(q)


@dataclass(frozen=True)
class DominanceReport:
    """Ordering of two winner densities of equal mass.

    verdict is one of "first_order_dominates" (first argument dominates),
    "dominated_by", "single_crossing" (with the crossing quality qbar), or
    "incomparable" (which also covers the identical-inputs degenerate case,
    where dominance holds both ways within the slack).
    """

    verdict: str
    qbar: float | None
    grid: np.ndarray
    cdf_diff: np.ndarray


def winner_density(profile, params, grid_size=1000):
    """Winner-quality density induced by a submission profile."""
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    ev = evaluate_success(profile, params)
    lo, hi = profile.support()
    lo = min(lo, params.quality.support_hint[0])
    hi = max(hi, params.quality.support_hint[1])
    grid = np.linspace(lo, hi, grid_size)

    def density(q):
        q = np.asarray(q, dtype=float)
        return profile.pdf(q) * ev.win_prob(q)

    # per component: mass times the winners above its cutoff, less those
    # above max(cutoff, q)
    above = lambda c, q: _upper_mass(c.base, q, params.noise, ev.sbar)
    tops = [(c, c.weight * c.eligibility * above(c, c.cutoff))
            for c in profile.components]

    def cumulative(q):
        q = np.asarray(q, dtype=float)
        return sum(top - c.weight * c.eligibility
                   * above(c, np.maximum(c.cutoff, q)) for c, top in tops)

    return WinnerDensity(grid=grid, values=density(grid),
                         total_mass=float(sum(top for _, top in tops)),
                         density=density, cumulative=cumulative)


def first_best(params, grid_size=1000):
    """Socially optimal entry: the top-budget quantile submits, everything
    is funded, welfare is budget * V."""
    qstar = params.first_best_cutoff
    profile = truncated_profile(params.quality, qstar)
    return {
        "cutoff": qstar,
        "welfare": params.budget * params.win_value,
        "winner_density": winner_density(profile, params, grid_size),
    }


def compare_winners(h, h0):
    """Order two winner densities of equal funded mass.

    The ordering result needs review noise with an increasing hazard rate,
    which normal noise always has.  Cumulative comparison on the common
    grid decides dominance; otherwise a sign scan of h - h0 looks for the
    single-crossing pattern (h above on [entry cutoff, qbar], below
    outside) and locates qbar by bisection.
    """
    if h.grid.shape != h0.grid.shape or not np.allclose(h.grid, h0.grid):
        raise ValueError("winner densities must share a grid")

    grid = h.grid
    diff = h.values - h0.values
    cdf_diff = h.cumulative(grid) - h0.cumulative(grid)

    h_dominates = bool(np.all(cdf_diff <= _SLACK))
    h0_dominates = bool(np.all(cdf_diff >= -_SLACK))
    if h_dominates and h0_dominates:
        return DominanceReport("incomparable", None, grid, cdf_diff)
    if h_dominates:
        return DominanceReport("first_order_dominates", None, grid, cdf_diff)
    if h0_dominates:
        return DominanceReport("dominated_by", None, grid, cdf_diff)

    qbar = _single_crossing_point(h, h0, grid, diff)
    if qbar is not None:
        return DominanceReport("single_crossing", qbar, grid, cdf_diff)
    return DominanceReport("incomparable", None, grid, cdf_diff)


def _single_crossing_point(h, h0, grid, diff):
    """Largest down-crossing of h - h0, validated against the sign pattern:
    non-negative from the entry cutoff up to the crossing, non-positive
    after.  Ties break toward larger quality."""
    pos = np.nonzero(diff > _SLACK)[0]
    if pos.size == 0:
        return None
    last_pos = pos[-1]
    after = np.nonzero(diff[last_pos:] < -_SLACK)[0]
    if after.size == 0:
        return None
    i_hi = last_pos + after[0]
    lo_q, hi_q = grid[i_hi - 1], grid[i_hi]

    fn = lambda q: h(q) - h0(q)
    qbar = _bisect_root(fn, lo_q, hi_q, fn(lo_q),
                        1e-12 * max(1.0, abs(0.5 * (lo_q + hi_q))))

    # validate: between the first positive point and qbar the difference
    # stays non-negative; beyond qbar it stays non-positive
    inside = (grid >= grid[pos[0]]) & (grid <= qbar)
    outside_hi = grid > qbar
    if np.any(diff[inside] < -_SLACK) or np.any(diff[outside_hi] > _SLACK):
        return None
    return float(qbar)


@dataclass(frozen=True)
class SweepEntry:
    value: float
    outcome: object = None
    error: str | None = None


def sweep(params, axis, values, policy=None):
    """Solve one equilibrium per value of a model or policy knob.

    axis is one of "V", "C", "k", "delta" (model scalars, each solved by
    `solve` under `policy`, or by `solve_benchmark` when it is None), "t"
    (ban length, rejection-exclusion regime) or "sbar_ban" (signal regime),
    both solved by `solve`; with a policy a type block solves the typed
    steady state.  Solver failures and invalid values, a fractional ban
    length among them, are recorded inline instead of aborting the sweep.
    """
    knob = _SWEEP_AXES.get(axis)
    if knob is None:
        raise ValueError(f"unknown sweep axis: {axis!r}")
    entries = []
    for v in values:
        try:
            if isinstance(knob, str):
                p = dataclasses.replace(params, **{knob: float(v)})
                out = solve_benchmark(p) if policy is None \
                    else solve(p, policy)
            else:
                out = solve(params, knob(v))
            entries.append(SweepEntry(value=float(v), outcome=out))
        except _SOLVER_ERRORS as exc:
            entries.append(SweepEntry(value=float(v), error=str(exc)))
    return entries
