"""Steady-state equilibrium solvers for the five policy regimes.

Each regime reduces to a one-dimensional root problem in the entry cutoff
(two coupled ones for the heterogeneous population): the marginal quality
must be indifferent between submitting and staying out, given the
competition that the cutoff itself regenerates every period.  Solvers scan a
uniform grid for sign changes of the defining residual, bisect every bracket,
report all roots, and return the smallest as the canonical outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import (ALWAYS_SUBMIT, NoExclusion, ProfileComponent,
                   RejectionExclusion, SignalExclusion, SubmissionProfile,
                   SuccessEvaluation, ban_mass, evaluate_success,
                   lifetime_payoff, truncated_profile, welfare, win_mass)
from .distributions import (_GL_NODES, _GL_WEIGHTS, FAST_QUADRATURE, Normal,
                            Quadrature)

# Scan grid per the solver design: uniform points on [F^-1(1e-6), Q*),
# extended leftward geometrically whenever the residual at the left edge
# shows the smallest root lies below.
GRID_POINTS = 2000
_GRID_FLOOR_P = 1e-6
_ROOT_TOL = 1e-10


class NoRoot(RuntimeError):
    """The equilibrium residual never changes sign on the scan grid."""


class NoConvergence(RuntimeError):
    """The two-type outer iteration failed even after the grid fallback."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class EquilibriumOutcome:
    """A solved steady state with its self-verification data.

    cutoffs/eligibility hold one entry per population type (two for the
    heterogeneous regime).  all_roots lists every sign-change root found by
    the scan, smallest first; the canonical outcome is the smallest.
    residual re-evaluates the defining equation at the returned cutoff(s).
    """

    regime: str
    cutoffs: tuple[float, ...]
    eligibility: tuple[float, ...]
    sbar: float
    submission_volume: float
    residual: float
    all_roots: tuple
    welfare: float
    payoff_x: tuple[float, ...]
    eligibility_residual: float = 0.0
    hypothesis_met: bool = True
    corner: bool = False

    @property
    def cutoff(self):
        return self.cutoffs[0]


def steady_state_eligibility(params, cutoff, policy, quad=FAST_QUADRATURE):
    """Time-invariant eligible share consistent with a common cutoff."""
    F = params.quality.cdf(cutoff)
    ban = policy.ban(F, lambda s: ban_mass(cutoff, s, params.quality,
                                           params.noise, quad))
    return float(policy.eligibility(F, ban, params.budget))


def steady_state_profile(params, cutoff, policy, quad=FAST_QUADRATURE):
    """Recurrent submission profile induced by a common cutoff."""
    elig = steady_state_eligibility(params, cutoff, policy, quad)
    return truncated_profile(params.quality, cutoff, elig)


def _bisect_root(residual, lo, hi, flo, tol=_ROOT_TOL):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = residual(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
            flo = fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _batch_residuals(params, policy, grid, quad):
    """Equilibrium residual on a cutoff grid in one vectorized pass; a single
    cutoff is a size-1 grid.

    Builds the Gauss-Legendre node matrix for every truncated integral at
    once and bisects all clearing thresholds simultaneously until each
    bracket has collapsed below 1e-10.  Stopping on the bracket rather than
    on the clearing mass keeps the threshold exact when eligibility, and
    with it the clearing slope, is small.  Returns (residual, rhs, interior,
    sbar, eligibility) arrays, rhs being the policy's indifference level.
    """
    if quad.method != "gauss_legendre":
        raise ValueError("equilibrium solvers need a Gauss-Legendre "
                         "quadrature")
    f, noise = params.quality, params.noise
    k = params.budget
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    n = grid.size
    lo_s, hi_s = f.support_hint
    panels = max(quad.panels // 2, 4)

    lows = np.maximum(grid, lo_s)
    edges = lows[:, None] + (hi_s - lows)[:, None] * \
        np.linspace(0.0, 1.0, panels + 1)[None, :]
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    x = (mid[:, :, None] + half[:, :, None] * _GL_NODES).reshape(n, -1)
    w = (half[:, :, None] * _GL_WEIGHTS).reshape(n, -1)
    fw = np.asarray(f.pdf(x.ravel()), dtype=float).reshape(n, -1) * w

    noise_cdf = lambda v: np.asarray(noise.cdf(v), dtype=float)
    F = np.asarray(f.cdf(grid), dtype=float)
    ban = policy.ban(F, lambda s: np.sum(fw * noise_cdf(s - x), axis=1))
    elig = policy.eligibility(F, ban, k)
    rhs = policy.steady_indifference(grid, F, ban, params)

    vol = elig * (1.0 - F)
    interior = vol > k + 1e-12

    # bisect every clearing threshold at once; under-subscribed points get W=1
    sd = noise.stddev
    rows = np.nonzero(interior)[0]
    xn = (x[rows] + noise.mean) / sd  # signal cdf(s - q) = ndtr(s/sd - xn)
    scale = elig[rows, None] * fw[rows]
    lo_b = np.full(rows.size, (lo_s - quad.truncation_sigmas * sd) / sd)
    hi_b = np.full(rows.size, (hi_s + quad.truncation_sigmas * sd) / sd)
    span = float(hi_b[0] - lo_b[0]) * sd if rows.size else 0.0
    iters = max(int(math.ceil(math.log2(max(span, 1e-12) / 1e-10))), 1)
    generic = not isinstance(noise, Normal)
    for _ in range(iters):
        mid_b = 0.5 * (lo_b + hi_b)
        if generic:
            surv = 1.0 - noise_cdf(mid_b[:, None] * sd - x[rows])
        else:
            surv = 1.0 - ndtr(mid_b[:, None] - xn)
        clearing = np.einsum("ij,ij->i", scale, surv)
        go_right = clearing - k > 0.0
        lo_b = np.where(go_right, mid_b, lo_b)
        hi_b = np.where(go_right, hi_b, mid_b)
    sbar = np.full(n, -math.inf)
    sbar[rows] = 0.5 * (lo_b + hi_b) * sd
    with np.errstate(invalid="ignore"):
        w_at = np.where(interior, 1.0 - noise_cdf(sbar - grid), 1.0)
    return w_at - rhs, rhs, interior, sbar, elig


def _scan_roots(params, policy, quad, grid_points):
    """Global sign-change scan below the first-best cutoff, extending left
    when the left edge indicates the smallest root lies below the grid;
    every bracket is bisected on the same residual."""
    qstar = params.first_best_cutoff
    lo = params.quality.quantile(_GRID_FLOOR_P)
    hi = qstar - 1e-9 * (1.0 + abs(qstar))
    floor = params.quality.mean - 60.0 * params.quality.stddev

    values = lambda g: _batch_residuals(params, policy, g, quad)[0]
    grid = np.linspace(lo, hi, grid_points)
    vals = values(grid)
    while vals[0] > 0.0 and grid[0] > floor:
        ext_lo = max(grid[0] - (hi - grid[0]), floor)
        ext = np.linspace(ext_lo, grid[0], max(grid_points // 4, 64))
        ext_vals = values(ext)
        grid = np.concatenate([ext[:-1], grid])
        vals = np.concatenate([ext_vals[:-1], vals])

    roots = []
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    for i in sign_change:
        roots.append(float(_bisect_root(lambda q: values(q)[0],
                                        grid[i], grid[i + 1], vals[i])))
    return sorted(roots)


def _describe(params, policy, cutoff, quad, all_roots, hypothesis_met=True):
    """Assemble the full outcome record for a solved cutoff."""
    resid, _, _, sbar, elig = _batch_residuals(params, policy, cutoff, quad)
    return _outcome(params, policy, cutoff, float(elig[0]), float(sbar[0]),
                    quad, residual=float(abs(resid[0])),
                    all_roots=tuple(all_roots), hypothesis_met=hypothesis_met)


def _outcome(params, policy, cutoff, elig, sbar, quad, **fields):
    profile = truncated_profile(params.quality, cutoff, elig)
    ev = SuccessEvaluation(sbar=sbar, profile=profile, noise=params.noise)
    return EquilibriumOutcome(
        regime=policy.regime, cutoffs=(cutoff,), eligibility=(elig,),
        sbar=sbar, submission_volume=profile.volume(),
        welfare=welfare(profile, params, quad),
        payoff_x=(lifetime_payoff(cutoff, ev, params, quad, policy),),
        **fields)


def _solve_common(params, policy, quad, grid_points, hypothesis_met=True):
    roots = _scan_roots(params, policy, quad, grid_points)
    if roots:
        interior = _batch_residuals(params, policy, roots, quad)[2]
        roots = [r for r, keep in zip(roots, interior) if keep]
    if not roots:
        raise NoRoot(f"no equilibrium cutoff found for {policy}")
    return _describe(params, policy, roots[0], quad, roots, hypothesis_met)


def solve_benchmark(params, quad=FAST_QUADRATURE, grid_points=GRID_POINTS):
    """Unique free-entry equilibrium cutoff: the marginal quality wins with
    probability C / (C + V)."""
    if not 0.0 < params.loss_share < 1.0:
        raise NoRoot("loss share outside (0, 1)")
    return _solve_common(params, NoExclusion(), quad, grid_points)


def solve_exclusion(params, quad=FAST_QUADRATURE, grid_points=GRID_POINTS):
    """Steady state with one-period rejection bans.

    Existence is guaranteed for V/C >= (1-k)/(2k); below that bound the scan
    still runs and the outcome is flagged hypothesis_met=False.  Multiple
    steady states are possible; all sign-change roots are reported and the
    smallest is returned.
    """
    return solve_multi_period(params, 1, quad, grid_points)


def solve_multi_period(params, periods, quad=FAST_QUADRATURE,
                       grid_points=GRID_POINTS):
    """Steady state when rejection triggers a ban of `periods` periods."""
    policy = RejectionExclusion(int(periods))
    bound = (1.0 - params.budget) / ((policy.periods + 1) * params.budget)
    met = params.win_value / params.reject_cost >= bound
    return _solve_common(params, policy, quad, grid_points, hypothesis_met=met)


def solve_signal_cutoff(params, sbar_ban, quad=FAST_QUADRATURE,
                        grid_points=GRID_POINTS):
    """Steady state when exclusion triggers on a review signal below
    `sbar_ban` (funding still clears the market every period).

    When the budget covers every eligible applicant even at full entry
    (k >= 1/(1 + Ban(-inf, sbar_ban))) the equilibrium is the corner where
    everyone applies and wins; the outcome is returned with corner=True.
    """
    policy = SignalExclusion(float(sbar_ban))
    elig = steady_state_eligibility(params, ALWAYS_SUBMIT, policy, quad)
    if params.budget >= elig:  # under-subscribed: everyone is funded
        return _outcome(params, policy, ALWAYS_SUBMIT, elig, -math.inf, quad,
                        residual=0.0, all_roots=(ALWAYS_SUBMIT,), corner=True)
    return _solve_common(params, policy, quad, grid_points)


# ---------------------------------------------------------------------------
# best responses


def _unique_root_right(residual, start, hi_cap):
    """Root of a best-response residual that is negative at `start` and
    positive for large cutoffs; uniqueness holds by the one-shot-deviation
    characterization, so the first bracket is the root."""
    f0 = residual(start)
    if f0 > -1e-13:
        # a root at `start`, or the intertemporal cost term vanishes there
        return start
    grid = np.linspace(start, hi_cap, 400)
    prev_q, prev_f = start, f0
    for q in grid[1:]:
        fq = residual(q)
        if (fq > 0.0) != (prev_f > 0.0):
            return _bisect_root(residual, prev_q, q, prev_f, tol=1e-12)
        prev_q, prev_f = q, fq
    raise NoRoot("best-response residual never crossed zero")


def best_response(profile, params, policy, quad=FAST_QUADRATURE,
                  base_dist=None):
    """Optimal stationary entry cutoff against a fixed recurrent profile.

    Returns -inf (always submit) when the profile leaves the contest
    under-subscribed.  `base_dist` selects the researcher's own quality
    distribution (defaults to the population's).
    """
    if base_dist is None:
        base_dist = params.quality
    if profile.volume() <= params.budget + 1e-12:
        return ALWAYS_SUBMIT
    ev = evaluate_success(profile, params, quad)
    # the quality whose win probability is C / (C + V): the free-entry best
    # response, and the lower end of the search with bans
    start = ev.sbar - params.noise.quantile(1.0 - params.loss_share)
    if not policy.ban_periods:
        return start

    def residual(cutoff):
        x = lifetime_payoff(cutoff, ev, params, quad, policy, base_dist)
        return float(ev.win_prob(cutoff)) - \
            policy.indifference(cutoff, x, params)

    hi_cap = max(base_dist.support_hint[1],
                 ev.sbar + 12.0 * params.noise.stddev) + 1.0
    return _unique_root_right(residual, start, hi_cap)


# ---------------------------------------------------------------------------
# heterogeneous population


def _type_profile(params, cutoffs, shares):
    comps = []
    for t, q, a in zip(params.types, cutoffs, shares):
        within = min(a / t.share, 1.0)
        if within > 0.0:
            comps.append(ProfileComponent(t.quality, q, within, t.share))
    return SubmissionProfile(tuple(comps))


def type_eligibility_shares(params, cutoffs, quad=FAST_QUADRATURE,
                            start=None, damping=0.5, tol=1e-10,
                            max_iter=10_000):
    """Steady-state eligible population share per type for fixed cutoffs.

    Damped iteration of the per-type flow balance: next period's eligible
    share is the type share minus this period's rejections.  Returns
    (shares, residual).
    """
    lam = np.array([t.share for t in params.types])
    surv = np.array([1.0 - t.quality.cdf(q)
                     for t, q in zip(params.types, cutoffs)])
    if float(lam @ surv) <= params.budget:
        return tuple(lam), 0.0

    shares = np.array(start if start is not None else lam, dtype=float)
    hint = None

    def step(a):
        nonlocal hint
        profile = _type_profile(params, cutoffs, a)
        vol = profile.volume()
        if vol <= params.budget + 1e-12:
            funded = a * surv
        else:
            ev = evaluate_success(profile, params, quad, hint=hint)
            hint = ev.sbar
            funded = np.array([
                a[i] * win_mass(cutoffs[i], ev, params.types[i].quality, quad)
                for i in range(len(a))])
        return lam - a * surv + funded

    for _ in range(max_iter):
        target = step(shares)
        new = (1.0 - damping) * shares + damping * target
        if float(np.max(np.abs(new - shares))) < tol:
            shares = new
            break
        shares = new
    resid = float(np.max(np.abs(shares - step(shares))))
    return tuple(float(a) for a in shares), resid


def _fosd_on_grid(d_hi, d_lo, n=400):
    lo = min(d_hi.support_hint[0], d_lo.support_hint[0])
    hi = max(d_hi.support_hint[1], d_lo.support_hint[1])
    qs = np.linspace(lo, hi, n)
    return bool(np.all(np.asarray(d_hi.cdf(qs)) <= np.asarray(d_lo.cdf(qs)) + 1e-12))


def solve_two_type(params, quad=FAST_QUADRATURE, damping=0.5, tol=1e-9,
                   max_outer=500):
    """Steady state with one-period rejection bans and two researcher types.

    Alternating damped best responses over the pair of cutoffs, with the
    per-type eligibility fixed point re-solved at every step.  If the
    iteration oscillates, a coarse joint residual grid restarts it from the
    best cell; failing that NoConvergence reports the best residual seen.
    """
    if not params.types or len(params.types) != 2:
        raise ValueError("two-type solver needs exactly two configured types")
    policy = RejectionExclusion(1)
    pooled = solve_exclusion(params, quad)
    cutoffs = [pooled.cutoff, pooled.cutoff]
    shares, _ = type_eligibility_shares(params, cutoffs, quad)

    def one_pass(cutoffs, shares):
        # gap measures optimality directly: distance of each cutoff from its
        # best response, independent of the damping factor
        gap = 0.0
        for i in (0, 1):
            shares, _ = type_eligibility_shares(params, cutoffs, quad,
                                                start=shares)
            profile = _type_profile(params, cutoffs, shares)
            br = best_response(profile, params, policy, quad,
                               base_dist=params.types[i].quality)
            if br == ALWAYS_SUBMIT:
                br = params.types[i].quality.quantile(_GRID_FLOOR_P)
            gap = max(gap, abs(br - cutoffs[i]))
            cutoffs[i] = (1.0 - damping) * cutoffs[i] + damping * br
        return cutoffs, shares, gap

    gap_tol = tol
    converged = False
    history = []
    for it in range(max_outer):
        cutoffs, shares, gap = one_pass(cutoffs, shares)
        history.append(gap)
        if gap < gap_tol:
            converged = True
            break
        if len(history) > 60 and history[-1] > 0.9 * max(history[-40:-1]):
            break  # oscillating, try the grid fallback

    if not converged:
        cutoffs, shares = _two_type_grid_fallback(params, quad)
        for it in range(max_outer):
            cutoffs, shares, gap = one_pass(cutoffs, shares)
            if gap < gap_tol:
                converged = True
                break

    shares, elig_resid = type_eligibility_shares(params, cutoffs, quad,
                                                 start=shares)
    profile = _type_profile(params, cutoffs, shares)
    ev = evaluate_success(profile, params, quad)
    payoffs, residual = _type_indifference(params, policy, ev, cutoffs, quad)
    if not converged and residual > 1e-8:
        raise NoConvergence(
            f"two-type iteration stalled (best residual {residual:.3e})",
            best_residual=residual)

    if _fosd_on_grid(params.types[0].quality, params.types[1].quality):
        assert cutoffs[0] >= cutoffs[1] - 1e-9, \
            "dominant type must use the weakly higher cutoff"

    return EquilibriumOutcome(
        regime="two_type",
        cutoffs=tuple(cutoffs),
        eligibility=tuple(shares),
        sbar=ev.sbar,
        submission_volume=profile.volume(),
        residual=residual,
        all_roots=(tuple(cutoffs),),
        welfare=welfare(profile, params, quad),
        payoff_x=tuple(payoffs),
        eligibility_residual=elig_resid,
    )


def _type_indifference(params, policy, ev, cutoffs, quad):
    """Each type's lifetime payoff at its cutoff, and the largest gap between
    a type's marginal win probability and its indifference level."""
    payoffs = [lifetime_payoff(q, ev, params, quad, policy, t.quality)
               for q, t in zip(cutoffs, params.types)]
    gap = max(abs(float(ev.win_prob(q)) - policy.indifference(q, x, params))
              for q, x in zip(cutoffs, payoffs))
    return payoffs, gap


def _two_type_grid_fallback(params, quad, n=50):
    """Coarse joint scan of the two best-response residuals; returns the
    best cell as a restart point for the damped iteration.  A 50x50 lattice
    with a loosened inner tolerance keeps the scan to tens of seconds; it
    only needs to land in the right basin, not at solver precision."""
    policy = RejectionExclusion(1)
    lo0 = params.types[0].quality.quantile(1e-4)
    lo1 = params.types[1].quality.quantile(1e-4)
    hi = params.first_best_cutoff
    g0 = np.linspace(lo0, hi, n)
    g1 = np.linspace(lo1, hi, n)
    best, best_val = (g0[0], g1[0]), math.inf
    coarse = Quadrature(method="gauss_legendre", panels=4)
    shares = None
    for q0 in g0:
        row_shares = shares
        for q1 in g1:
            row_shares, _ = type_eligibility_shares(
                params, (q0, q1), coarse, start=row_shares, tol=1e-6,
                max_iter=2000)
            profile = _type_profile(params, (q0, q1), row_shares)
            if profile.volume() <= params.budget:
                continue
            ev = evaluate_success(profile, params, coarse)
            val = _type_indifference(params, policy, ev, (q0, q1), coarse)[1]
            if val < best_val:
                best, best_val = (q0, q1), val
        shares = row_shares
    shares, _ = type_eligibility_shares(params, best, quad)
    return list(best), shares


# ---------------------------------------------------------------------------
# diagnostics used by figure output and the uniqueness checks


def equilibrium_curves(params, policy, grid, quad=FAST_QUADRATURE):
    """Both sides of the defining equation on a cutoff grid.

    Returns (lhs, rhs) arrays: lhs is the win probability of the marginal
    quality under the steady-state competition it induces, rhs the
    indifference level of the policy's equilibrium equation.
    """
    resid, rhs = _batch_residuals(params, policy, grid, quad)[:2]
    return resid + rhs, rhs
