"""Derived quantities and policy comparisons.

Winner-quality densities, first-order dominance verdicts with the single
crossing point between an exclusion equilibrium and the free-entry
benchmark, first-best references, and parameter sweeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (BracketFailure, RejectionExclusion, SignalExclusion,
                   evaluate_success, truncated_profile)
from .distributions import BudgetExceeded, FAST_QUADRATURE, NonFiniteIntegrand
from .equilibria import NoConvergence, NoRoot, solve_benchmark

# what a sweep records inline; anything else is a programming error
_SOLVER_ERRORS = (NoRoot, NoConvergence, BracketFailure, BudgetExceeded,
                  NonFiniteIntegrand, ValueError)


class HypothesisUnmet(RuntimeError):
    """The noise distribution fails the increasing-hazard-rate requirement."""


@dataclass(frozen=True)
class WinnerDensity:
    """Quality density of funded ideas h(q) = phi(q) W(q) on a grid.

    `density` evaluates h between grid points, which lets the crossing
    search refine by bisection instead of interpolating; `kinks` lists the
    entry cutoffs where h jumps, so cumulative comparisons can split panels
    there.
    """

    grid: np.ndarray
    values: np.ndarray
    total_mass: float
    density: object = None
    kinks: tuple = ()

    def __call__(self, q):
        if self.density is not None:
            return self.density(q)
        return np.interp(q, self.grid, self.values)


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


def winner_density(profile, params, grid_size=1000, quad=FAST_QUADRATURE):
    """Winner-quality density induced by a submission profile."""
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    ev = evaluate_success(profile, params, quad)
    lo, hi = profile.support()
    lo = min(lo, params.quality.support_hint[0])
    hi = max(hi, params.quality.support_hint[1])
    grid = np.linspace(lo, hi, grid_size)

    def density(q):
        q = np.asarray(q, dtype=float)
        return profile.pdf(q) * ev.win_prob(q)

    mass = profile.integral(lambda q: np.asarray(ev.win_prob(q), dtype=float),
                            quad)
    kinks = tuple(c.cutoff for c in profile.components
                  if math.isfinite(c.cutoff))
    return WinnerDensity(grid=grid, values=density(grid),
                         total_mass=float(mass), density=density, kinks=kinks)


def first_best(params, grid_size=1000, quad=FAST_QUADRATURE):
    """Socially optimal entry: the top-budget quantile submits, everything
    is funded, welfare is budget * V."""
    qstar = params.first_best_cutoff
    profile = truncated_profile(params.quality, qstar)
    return {
        "cutoff": qstar,
        "welfare": params.budget * params.win_value,
        "winner_density": winner_density(profile, params, grid_size, quad),
    }


def _increasing_hazard(noise, n=512):
    # the far upper tail is numerically untestable (survival underflows),
    # so the check covers the grid where survival is representable
    lo, hi = noise.support_hint
    s = np.linspace(lo, hi, n)
    surv = 1.0 - np.asarray(noise.cdf(s), dtype=float)
    keep = surv > 1e-12
    hazard = np.asarray(noise.pdf(s[keep]), dtype=float) / surv[keep]
    return bool(np.all(np.diff(hazard) >= -1e-9 * np.maximum(hazard[:-1], 1.0)))


def compare_winners(h, h0, params=None, hazard_check=True, slack=1e-9):
    """Order two winner densities of equal funded mass.

    Cumulative comparison on the common grid decides dominance; otherwise a
    sign scan of h - h0 looks for the single-crossing pattern (h above on
    [entry cutoff, qbar], below outside) and locates qbar by bisection.
    """
    if hazard_check:
        if params is None:
            raise ValueError("hazard_check requires params")
        if not _increasing_hazard(params.noise):
            raise HypothesisUnmet("noise distribution lacks an increasing "
                                  "hazard rate")
    if h.grid.shape != h0.grid.shape or not np.allclose(h.grid, h0.grid):
        raise ValueError("winner densities must share a grid")

    grid = h.grid
    diff = h.values - h0.values
    cdf_diff = _cumulative_difference(h, h0, grid)

    h_dominates = bool(np.all(cdf_diff <= slack))
    h0_dominates = bool(np.all(cdf_diff >= -slack))
    if h_dominates and h0_dominates:
        return DominanceReport("incomparable", None, grid, cdf_diff)
    if h_dominates:
        return DominanceReport("first_order_dominates", None, grid, cdf_diff)
    if h0_dominates:
        return DominanceReport("dominated_by", None, grid, cdf_diff)

    qbar = _single_crossing_point(h, h0, grid, diff, slack)
    if qbar is not None:
        return DominanceReport("single_crossing", qbar, grid, cdf_diff)
    return DominanceReport("incomparable", None, grid, cdf_diff)


def _cumulative_difference(h, h0, grid):
    """cdf_h - cdf_h0 at every grid point, by per-interval Gauss-Legendre
    quadrature with panels split at the density kinks (entry cutoffs), so the
    cumulative comparison is accurate to quadrature precision rather than to
    the grid resolution."""
    kinks = sorted(set(h.kinks) | set(h0.kinks))
    edges = np.asarray(grid, dtype=float)
    extra = [k for k in kinks if edges[0] < k < edges[-1]]
    all_edges = np.unique(np.concatenate([edges, np.asarray(extra)]))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid = 0.5 * (all_edges[:-1] + all_edges[1:])
    half = 0.5 * (all_edges[1:] - all_edges[:-1])
    x = mid[:, None] + half[:, None] * nodes
    w = half[:, None] * weights
    vals = (np.asarray(h(x.ravel()), dtype=float)
            - np.asarray(h0(x.ravel()), dtype=float)).reshape(x.shape)
    panel = np.sum(vals * w, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    pos = np.searchsorted(all_edges, edges)
    return cum[pos]


def _single_crossing_point(h, h0, grid, diff, slack):
    """Largest down-crossing of h - h0, validated against the sign pattern:
    non-negative from the entry cutoff up to the crossing, non-positive
    after.  Ties break toward larger quality."""
    pos = np.nonzero(diff > slack)[0]
    if pos.size == 0:
        return None
    last_pos = pos[-1]
    after = np.nonzero(diff[last_pos:] < -slack)[0]
    if after.size == 0:
        return None
    i_hi = last_pos + after[0]
    lo_q, hi_q = grid[i_hi - 1], grid[i_hi]

    def fn(q):
        return float(h(q) - h0(q))

    flo = fn(lo_q)
    for _ in range(100):
        mid = 0.5 * (lo_q + hi_q)
        if hi_q - lo_q < 1e-12 * max(1.0, abs(mid)):
            break
        fmid = fn(mid)
        if fmid == 0.0:
            lo_q = hi_q = mid
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo_q, flo = mid, fmid
        else:
            hi_q = mid
    qbar = 0.5 * (lo_q + hi_q)

    # validate: between the first positive point and qbar the difference
    # stays non-negative; beyond qbar it stays non-positive
    inside = (grid >= grid[pos[0]]) & (grid <= qbar)
    outside_hi = grid > qbar
    if np.any(diff[inside] < -slack) or np.any(diff[outside_hi] > slack):
        return None
    return float(qbar)


@dataclass(frozen=True)
class SweepEntry:
    value: float
    outcome: object = None
    error: str | None = None


def sweep(params, axis, values, regime=None, quad=FAST_QUADRATURE):
    """Solve one equilibrium per value of a model or policy knob.

    axis is one of "V", "C", "k", "delta" (model scalars, solved under the
    policy `regime`, free entry by default), "t" (ban length,
    rejection-exclusion regime) or "sbar_ban" (signal regime).  Solver
    failures and invalid values are recorded inline instead of aborting the
    sweep.
    """
    field = {"V": "win_value", "C": "reject_cost", "k": "budget",
             "delta": "discount"}.get(axis)
    if field is None and axis not in ("t", "sbar_ban"):
        raise ValueError(f"unknown sweep axis: {axis!r}")
    entries = []
    for v in values:
        try:
            if field is not None:
                p = dataclasses.replace(params, **{field: float(v)})
                out = solve_benchmark(p, quad) if regime is None \
                    else regime.solve(p, quad)
            elif axis == "t":
                out = RejectionExclusion(int(v)).solve(params, quad)
            else:
                out = SignalExclusion(float(v)).solve(params, quad)
            entries.append(SweepEntry(value=float(v), outcome=out))
        except _SOLVER_ERRORS as exc:
            entries.append(SweepEntry(value=float(v), error=str(exc)))
    return entries
