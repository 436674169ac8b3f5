"""Steady-state equilibrium solvers for the exclusion policies.

Each policy reduces to a one-dimensional root problem in the entry cutoff:
the marginal quality must be indifferent between submitting and staying
out, given the competition that the cutoff itself regenerates every period.
Solvers scan a uniform grid for sign changes of the defining residual,
polish every bracket, report all roots, and return the smallest as the
canonical outcome.  The scan and the polish read only the residual's
sign, which two normal tails decide at most cutoffs and one orthant at
the rest, without solving market clearing.  The polish shrinks each
bracket with checked secant windows, and the bisection tree finishes
where they stop.  One root pass then clears the market at all polished
roots, each by one checked Newton step from the threshold the sign
residual formed, and so checks the residual contract and describes every
root's outcome.  A population of researcher types (a type block) solves
by the same scan and polish in the funding threshold, given which every
type best-responds, all types' best responses at all of a call's
thresholds in one batch of Chandrupatla brackets (`solve_typed`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .core import (ALWAYS_SUBMIT, NoExclusion, ProfileComponent,
                   RejectionExclusion, SignalExclusion, SubmissionProfile,
                   SuccessEvaluation, _BUDGET_EPS, _clearing_thresholds,
                   _payoff, _signal_density, _upper_mass, _upper_mass_bounds,
                   ban_mass, lifetime_payoff, signal_cutoff,
                   truncated_profile, welfare, win_mass)
from .distributions import (TREE_LEVELS, Mixture, _bisect_root,
                            _bracket_root)

# Scan grid per the solver design: uniform points on [F^-1(1e-6), Q*),
# extended leftward geometrically whenever the residual at the left edge
# shows the smallest root lies below.
GRID_POINTS = 2000
_GRID_FLOOR_P = 1e-6
# every root's final bracket width, a pooled cutoff or a typed threshold
_ROOT_TOL = 1e-10
# a root's one-step clearing threshold stands when the funded mass at this
# half width on either side of it differs from the budget by more than
# _MASS_ERROR, five times the orthant's 2e-16 accuracy
_CLEARING_CHECK = 5e-11
_MASS_ERROR = 1e-15
# the root polish's nested secant windows grow by this factor
_WINDOW_RATIO = 4.0
# a sign-residual row takes its sign from a two-tail bound of the clearing
# mass when the bound clears the budget by more than this, about 500 times
# the orthant's 2e-16 accuracy
_SCREEN_MARGIN = 1e-13
# every returned steady state meets its equilibrium residual to this level
_RESIDUAL_CONTRACT = 1e-8
# the typed scan's points (each a bisection per type)
_TYPED_GRID_POINTS = 32


class NoRoot(RuntimeError):
    """The equilibrium residual never changes sign on the scan grid."""


class NoConvergence(RuntimeError):
    """A solved root misses its residual contract (pooled or typed), or a
    typed root gives a dominant type the lower cutoff; best_residual is the
    residual it reached."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class EquilibriumOutcome:
    """A solved steady state with its self-verification data.

    cutoffs/eligibility hold one entry per population type (one without a
    type block).  all_roots lists every sign-change root found by the scan,
    smallest first (a typed root as its cutoffs); the canonical outcome is
    the smallest.  residual re-evaluates the defining equation at the
    returned cutoff(s), and profile is the recurrent submission profile
    they induce.  A pooled solve also keeps root_clearing: the
    (eligibility, sbar, residual) of each of all_roots from the one
    clearing pass at the roots (empty for typed and corner outcomes).
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
    profile: SubmissionProfile | None = field(default=None, repr=False)
    root_clearing: tuple = field(default=(), repr=False)

    @property
    def cutoff(self):
        return self.cutoffs[0]


def steady_state_profile(params, cutoff, policy):
    """Recurrent submission profile induced by a common cutoff: the
    time-invariant eligible share (`_steady_state`) submits above it."""
    elig = float(_steady_state(params, policy, np.array([cutoff]))[1][0])
    return truncated_profile(params.quality, cutoff, elig)


def _steady_state(params, policy, grid):
    """(rhs, eligibility, interior, s*) arrays of the steady state at every
    cutoff of a grid array, every mass in closed form and no clearing
    solve.

    The indifference level rhs is the best-response one at the
    steady-state payoff: every eligible researcher wins k / eligibility per
    period and is rejected 1 - F - k / eligibility.  A row is interior when
    its submitted volume exceeds the budget by more than _BUDGET_EPS.  s*
    is the threshold that each cutoff c clears with probability rhs,
    s* = c + mean_e - sd_e Phi^-1(rhs) (+inf for rhs <= 0 and -inf for
    rhs >= 1); the clearing mass there is
    M(s*) = eligibility x P(q >= c, q + e >= s*), one orthant per row.
    """
    f, noise, k = params.quality, params.noise, params.budget
    F = np.asarray(f.cdf(grid), dtype=float)
    ban = policy.ban(F, lambda s: ban_mass(grid, s, f, noise))
    elig = policy.eligibility(F, ban, k)
    win = k / elig
    reject = 1.0 - F - win
    payoff = _payoff(win, reject, policy.payoff_ban(reject, ban, params),
                     params)
    rhs = policy.indifference(grid, payoff, params)
    s_star = grid + noise.mean - noise.stddev * ndtri(np.clip(rhs, 0.0, 1.0))
    return rhs, elig, elig * (1.0 - F) > k + _BUDGET_EPS, s_star


def _batch_residuals(params, policy, grid):
    """Equilibrium residual on a cutoff grid in one vectorized pass; a single
    cutoff is a size-1 grid.

    The residual is the marginal quality's win probability at the clearing
    threshold less the indifference level (`_steady_state`).  All clearing
    thresholds are solved together, each to a bracket below 1e-10 in the
    signal.  Returns (residual, rhs, interior, sbar, eligibility) arrays,
    rhs being that indifference level.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    rhs, elig, interior, _ = _steady_state(params, policy, grid)
    resid, sbar = _residuals_at(params, grid, rhs, elig, interior,
                                np.full(grid.size, math.nan))
    return resid, rhs, interior, sbar, elig


def _residuals_at(params, grid, rhs, elig, interior, sbar):
    """(residual, sbar) at the clearing thresholds `sbar`, after the
    bracketed kernel has solved every interior row that holds nan (to a
    bracket below 1e-10); under-subscribed rows fund everyone: sbar = -inf
    and W = 1."""
    f = params.quality
    rows = np.nonzero(interior & np.isnan(sbar))[0]
    if rows.size:
        sbar[rows] = _clearing_thresholds([(f, grid[rows], elig[rows])],
                                          params, *f.support_hint, 1e-10)
    sbar[~interior] = -math.inf
    with np.errstate(invalid="ignore"):
        w_at = np.where(interior, 1.0 - np.asarray(
            params.noise.cdf(sbar - grid), dtype=float), 1.0)
    return w_at - rhs, sbar


def _sign_residuals(params, policy, grid):
    """A residual with the sign of `_batch_residuals`' on a cutoff grid,
    without solving market clearing; each entry equals a size-1 call bit
    for bit.

    The clearing mass M(s) falls strictly in s, so quality c wins with
    probability above rhs exactly when M is below the budget at s*, the
    threshold that c clears with probability rhs (`_steady_state`).
    Interior rows return k - M(s*); under-subscribed rows fund everyone and
    return the residual 1 - rhs itself.  Two tails bound M(s*) first
    (`_upper_mass_bounds`): a row whose lower bound exceeds the budget, or
    whose upper bound falls below it, by more than _SCREEN_MARGIN returns k
    less that bound, whose sign is k - M's, and only the remaining interior
    rows pay for an orthant.
    """
    f, noise, k = params.quality, params.noise, params.budget
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    rhs, elig, interior, s_star = _steady_state(params, policy, grid)
    lower, upper = _upper_mass_bounds(f, grid, noise, s_star)
    # k - M(s*) lies in [least, most]
    least, most = k - elig * upper, k - elig * lower
    negative, positive = most < -_SCREEN_MARGIN, least > _SCREEN_MARGIN
    out = np.where(interior, np.where(negative, most, least), 1.0 - rhs)
    rows = np.nonzero(interior & ~negative & ~positive)[0]
    if rows.size:
        out[rows] = k - elig[rows] * _upper_mass(f, grid[rows], noise,
                                                 s_star[rows])
    return out


def _root_pass(params, policy, roots):
    """(residual, interior, sbar, eligibility) arrays at polished roots,
    the clearing ones as in `_batch_residuals`; each entry equals a size-1
    call bit for bit.

    At a root polished to 1e-10 the threshold s* (`_steady_state`)
    lies within about 1e-11 of the clearing one, so one Newton step of the
    clearing mass from s* solves clearing: sbar = s* + (M(s*) - k) / -M'(s*).
    A step is kept when the funded mass straddles the budget at
    sbar -+ _CLEARING_CHECK, each side by more than the mass's rounding:
    the true threshold then lies within half the bracketed kernel's 1e-10
    tolerance, as the kernel's does.  The kernel solves the interior rows
    that fail the check (`_residuals_at`): a non-finite s*, a zero slope,
    or a slope so small (budgets far in a tail) that rounding hides the
    straddle.
    """
    f, noise, k = params.quality, params.noise, params.budget
    roots = np.atleast_1d(np.asarray(roots, dtype=float))
    rhs, elig, interior, s_star = _steady_state(params, policy, roots)
    mass = elig * _upper_mass(f, roots, noise, s_star)
    with np.errstate(all="ignore"):
        sbar = s_star + (mass - k) / (elig * _signal_density(f, roots, noise,
                                                             s_star))
        below, above = elig * _upper_mass(
            f, roots, noise, sbar + [[-_CLEARING_CHECK], [_CLEARING_CHECK]])
    sbar[~((below - k > _MASS_ERROR) & (k - above > _MASS_ERROR))] = math.nan
    resid, sbar = _residuals_at(params, roots, rhs, elig, interior, sbar)
    return resid, interior, sbar, elig


def _tree_calls(lo, hi, tol):
    """Residual calls `_bisect_root` makes on [lo, hi]: its step count over
    TREE_LEVELS steps per call."""
    steps = math.ceil(math.log2(max(hi - lo, tol) / tol))
    return math.ceil(steps / TREE_LEVELS)


def _secant_polish(residual, lo, hi, flo, fhi, tol):
    """Root of a sign change of `residual` on [lo, hi], whose values at the
    ends are flo and fhi: the midpoint of a final bracket narrower than
    `tol` whose ends differ in sign, as `_bisect_root` returns it.

    Checked secant windows shrink the bracket first.  One residual call
    evaluates the ends of nested windows centred on the secant root of the
    bracket in hand, of half widths tol/5 x 4^i, those inside it.  Of
    these points and the bracket's ends, the first adjacent pair whose
    signs differ, as the tree walk reads a sign, becomes the bracket, and
    the next secant starts from its ends.  The innermost window (0.4 tol
    wide) and the pairs beside it (0.6 tol) end the search.  No width is a
    power of two times `tol`, where the rounding of the tree walk's step
    count could leave a final bracket a rounding wider than `tol`.

    Once a window call leaves as many tree calls (`_tree_calls`) as the
    bracket before it, the tree walk (`_bisect_root`) finishes on the
    bracket in hand.  Every other window call saves at least one tree
    call, so the polish takes at most one residual call more than the
    tree walk on [lo, hi].
    """
    calls = _tree_calls(lo, hi, tol)
    while calls:
        x = lo + (hi - lo) * (flo / (flo - fhi))
        half = [0.2 * tol * _WINDOW_RATIO ** i for i in range(math.ceil(
            math.log(5.0 * (hi - lo) / tol, _WINDOW_RATIO)))]
        # the window ends inside the bracket, each float once
        inside = sorted({e for w in half for e in (x - w, x + w)
                         if lo < e < hi})
        if not inside:
            break
        ends = [lo, *inside, hi]
        vals = [flo, *residual(np.array(inside)).tolist(), fhi]
        j = next(i for i in range(len(ends) - 1)
                 if (vals[i] > 0.0) != (vals[i + 1] > 0.0))
        lo, hi, flo, fhi = ends[j], ends[j + 1], vals[j], vals[j + 1]
        narrowed = _tree_calls(lo, hi, tol)
        if narrowed == calls:
            break
        calls = narrowed
    return _bisect_root(residual, lo, hi, flo, tol)


def _cutoff_interval(params, floor_p=_GRID_FLOOR_P):
    """(lo, hi, floor) array of the pooled scan: from the quality's floor_p
    quantile (the (1 - k) / 2 one if lower) to below the first-best cutoff,
    and 60 sd below the mean."""
    qstar = params.first_best_cutoff
    p = min(floor_p, 0.5 * (1.0 - params.budget))
    return np.array([params.quality.quantile(p),
                     qstar - 1e-9 * (1.0 + abs(qstar)),
                     params.quality.mean - 60.0 * params.quality.stddev])


def _scan_roots(values, lo, hi, floor, points, tol):
    """Every root of `values` (a residual taking an array) on a grid of
    `points` over [lo, hi], extended toward `floor` while its left edge
    shows a smaller root: the first point of each run of exact zeros, and
    each sign change polished by `_secant_polish` below `tol`.  An empty
    interval raises NoRoot."""
    if not hi > lo:
        raise NoRoot("the scan interval is empty")
    grid = np.linspace(lo, hi, points)
    vals = values(grid)
    while vals[0] > 0.0 and grid[0] > floor:
        ext_lo = max(grid[0] - (hi - grid[0]), floor)
        ext = np.linspace(ext_lo, grid[0], points // 4)
        ext_vals = values(ext)
        grid = np.concatenate([ext[:-1], grid])
        vals = np.concatenate([ext_vals[:-1], vals])

    # a residual that only touches zero at a grid point has its root there,
    # a run of exact zeros (flat at a corner) one root at its smallest point,
    # and no bracket opens at a zero
    zero = vals == 0.0
    sign = np.sign(vals)
    brackets = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    return sorted(grid[zero & ~np.append(False, zero[:-1])].tolist()
                  + [float(_secant_polish(values, grid[i], grid[i + 1],
                                          vals[i], vals[i + 1], tol))
                     for i in brackets])


def _outcome(params, policy, cutoff, elig, sbar, **fields):
    profile = truncated_profile(params.quality, cutoff, elig)
    ev = SuccessEvaluation(sbar=sbar, noise=params.noise)
    return EquilibriumOutcome(
        regime=policy.regime, cutoffs=(cutoff,), eligibility=(elig,),
        sbar=sbar, submission_volume=profile.volume(),
        welfare=welfare(profile, params),
        payoff_x=(lifetime_payoff(cutoff, ev, params, policy),),
        profile=profile, **fields)


def solve(params, policy):
    """Steady state of `params` under `policy`: the typed one
    (`solve_typed`) when the model has a type block, else the pooled one
    (`_solve_common`).  The one place that picks the solver."""
    if isinstance(params.quality, Mixture):
        return solve_typed(params, policy)
    return _solve_common(params, policy)


def _solve_common(params, policy):
    """Pooled steady state under `policy`, flagged with its existence
    condition (hypothesis_met).  A loss share outside (0, 1) raises NoRoot.
    When the budget covers every eligible applicant even at full entry the
    equilibrium is the corner where everyone applies and wins (corner=True).
    Otherwise scan and polish the roots on the sign residual
    (`_sign_residuals`, which solves no clearing), then solve clearing once
    at all of them in one root pass (`_root_pass`): keep the interior ones
    and describe the smallest, recording every kept root's eligibility,
    threshold and residual from that pass; a smallest root that misses the
    residual contract raises NoConvergence."""
    if not 0.0 < params.loss_share < 1.0:
        raise NoRoot("loss share outside (0, 1)")
    f, k = params.quality, params.budget
    # full-entry eligibility, as `steady_state_profile` at ALWAYS_SUBMIT
    elig = float(policy.eligibility(0.0, policy.ban(
        0.0, lambda s: ban_mass(ALWAYS_SUBMIT, s, f, params.noise)), k))
    if k >= elig:  # under-subscribed: everyone is funded
        return _outcome(params, policy, ALWAYS_SUBMIT, elig, -math.inf,
                        residual=0.0, all_roots=(ALWAYS_SUBMIT,), corner=True)
    roots = _scan_roots(lambda g: _sign_residuals(params, policy, g),
                        *_cutoff_interval(params), GRID_POINTS, _ROOT_TOL)
    resid, interior, sbar, elig = _root_pass(params, policy, roots)
    keep = np.nonzero(interior)[0]
    if not keep.size:
        raise NoRoot(f"no equilibrium cutoff found for {policy}")
    first = keep[0]
    residual = float(abs(resid[first]))
    if not residual < _RESIDUAL_CONTRACT:
        raise NoConvergence(f"{policy.regime} root residual {residual:.3e}"
                            " misses its contract", best_residual=residual)
    return _outcome(params, policy, roots[first], float(elig[first]),
                    float(sbar[first]), residual=residual,
                    all_roots=tuple(roots[i] for i in keep),
                    root_clearing=tuple(
                        (float(elig[i]), float(sbar[i]), float(abs(resid[i])))
                        for i in keep),
                    hypothesis_met=policy.hypothesis_met(params))


def solve_benchmark(params):
    """Unique free-entry equilibrium cutoff: the marginal quality wins with
    probability C / (C + V)."""
    return _solve_common(params, NoExclusion())


def solve_exclusion(params):
    """Steady state with one-period rejection bans.

    Existence is guaranteed for V/C >= (1-k)/(2k); below that bound the scan
    still runs and the outcome is flagged hypothesis_met=False.  Multiple
    steady states are possible; all sign-change roots are reported and the
    smallest is returned.
    """
    return _solve_common(params, RejectionExclusion(1))


def solve_multi_period(params, periods):
    """Steady state when rejection triggers a ban of `periods` periods."""
    return _solve_common(params, RejectionExclusion(periods))


def solve_signal_cutoff(params, sbar_ban):
    """Steady state when exclusion triggers on a review signal below
    `sbar_ban` (funding still clears the market every period): the corner
    (corner=True) when k >= 1/(1 + Ban(-inf, sbar_ban)) covers full entry.
    """
    return _solve_common(params, SignalExclusion(float(sbar_ban)))


# ---------------------------------------------------------------------------
# best responses


def _best_responses(params, policy, base, sbar, near=(-math.inf, math.inf)):
    """Optimal stationary entry cutoff of a researcher of quality law
    `base` (a `Normal`, a `Mixture` or a `_TypeStack`, a row per type)
    against the funding threshold(s) `sbar`, an array, in one batch of
    brackets.  The quality that wins with probability C / (C + V) is the
    free-entry best response and with bans the lower end of a search up
    past the quality support and the noise, solved to 1e-12 by the
    bracketed finder (`_bracket_root`).  The root is unique (one-shot
    deviations), so `near`, cutoffs (below, above), replaces each bracket
    whose ends its signs confirm, all read in one residual call."""
    s = np.asarray(sbar, dtype=float)
    start, hi = np.broadcast_arrays(
        s - params.noise.quantile(1.0 - params.loss_share),
        np.maximum(base.support_hint[1], s + 12.0 * params.noise.stddev)
        + 1.0)
    if not policy.ban_periods:
        return start
    ev = SuccessEvaluation(sbar=s, noise=params.noise)

    def residual(cutoff):
        x = lifetime_payoff(cutoff, ev, params, policy, base)
        return ev.win_prob(cutoff) - policy.indifference(cutoff, x, params)

    a, b = near[0] - 1e-12, near[1] + 1e-12
    f0, fhi, fa, fb = residual(np.array(np.broadcast_arrays(start, hi, a, b)))
    # a root at `start`, or the intertemporal cost term vanishes there
    done = f0 > -1e-13
    if np.all(done):
        return start
    if not np.all(done | (fhi > 0.0)):
        raise NoRoot("best-response residual never crossed zero")
    ok = (a > start) & (fa < 0.0) & (fb > 0.0)
    lo, hi, flo, fhi = (np.where(ok, *v) for v in
                        ((a, start), (b, hi), (fa, f0), (fb, fhi)))
    # a row done at its start takes no step
    hi = np.where(done, lo, hi)
    return np.where(done, start, _bracket_root(residual, lo, hi, flo, fhi,
                                               1e-12))


def best_response(profile, params, policy):
    """Optimal stationary entry cutoff against a fixed recurrent profile,
    the best response to its clearing threshold (`_best_responses`): -inf
    (always submit) when that is -inf and everyone wins."""
    sbar = signal_cutoff(profile, params)
    return float(_best_responses(params, policy, params.quality, sbar))


# ---------------------------------------------------------------------------
# researcher types


class _TypeStack:
    """A type block's normal quality laws as one law whose share, mean,
    variance, stddev and support ends are columns, a row per type: it
    reads as a `Normal` does, so one batch of best responses and one pass
    of `_type_state` serve every type, each row's floats its law's own."""

    def __init__(self, mixture):
        (self.share, self.mean, self.variance, self.stddev,
         *self.support_hint) = np.array(
            [(w, d.mean, d.variance, d.stddev, *d.support_hint)
             for w, d in mixture.parts]).T[:, :, None]

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.stddev)


def _type_state(params, policy, laws, cutoffs, sbar):
    """(gaps, flows, shares, payoffs), a row per type and a column per
    threshold, of the type stack `laws` at the types' cutoffs (a row per
    type) and funding threshold(s) `sbar`: indifference gaps, the eligible
    shares share / (1 + load), their flow balance, and a last flow row
    unless all are funded (sbar = -inf): the funded mass less the budget."""
    noise = params.noise
    q = np.asarray(cutoffs, dtype=float).reshape(len(laws.share), -1)
    F = laws.cdf(q)
    win = _upper_mass(laws, q, noise, sbar)
    ban = policy.ban(F, lambda b: ban_mass(q, b, laws, noise))
    reject = 1.0 - F - win
    load = policy.load(reject, ban)
    shares = laws.share / (1.0 + load)
    payoffs = _payoff(win, reject, policy.payoff_ban(reject, ban, params),
                      params)
    ev = SuccessEvaluation(sbar=sbar, noise=noise)
    gaps = ev.win_prob(q) - policy.indifference(q, payoffs, params)
    flows = laws.share - shares * load - shares
    if np.all(np.asarray(sbar) > -math.inf):
        # the types' funded masses summed in order
        funded = -params.budget
        for row in shares * win:
            funded = funded + row
        flows = np.concatenate([flows, [funded]])
    return gaps, flows, shares, payoffs


def _dominates(d_hi, d_lo):
    """Whether normal `d_hi` first-order dominates normal `d_lo`: with equal
    variances when its mean is weakly higher; normals of unequal variances
    cross and never dominate each other."""
    return d_hi.variance == d_lo.variance and d_hi.mean >= d_lo.mean


def solve_typed(params, policy):
    """Steady state of the configured researcher types under `policy`.

    At a funding threshold s each type's cutoff is its best response and
    its eligible share is closed form (`_type_state`), which leaves one
    clearing residual, k less the funded mass, for the pooled scan and
    polish (`_scan_roots`) on the free-entry image of the pooled cutoff
    interval, s = cutoff + G^-1(1 - C / (C + V)).  The types stack into
    one law of a row per type (`_TypeStack`), so each residual call solves
    every type's best response at every threshold in one bracketed batch
    (`_best_responses`), and one pass gives their shares.  all_roots holds
    every root's cutoffs, smallest s first; the outcome is the first,
    checked at its s (indifference 1e-8, flow balance and clearing 1e-9, a
    dominant type's cutoff weakly higher) or NoConvergence.  If the budget
    covers all eligible at full entry, they apply and win (corner=True).
    """
    if not isinstance(params.quality, Mixture):
        raise ValueError("the typed solver needs a type block")
    types = params.quality.parts
    cutoffs, sbar = (ALWAYS_SUBMIT,) * len(types), -math.inf
    all_roots = (cutoffs,)
    laws = _TypeStack(params.quality)
    state = _type_state(params, policy, laws, cutoffs, sbar)
    corner = sum(state[2][:, 0]) <= params.budget
    if not corner:
        # a cutoff rises with the threshold: those solved on either side
        # bracket it, ever narrower as the polish's windows nest
        solved = [np.array([-math.inf, math.inf]),
                  np.tile([-math.inf, math.inf], (len(cutoffs), 1))]

        def cutoffs_at(s):
            j = np.searchsorted(solved[0], s)
            q = _best_responses(params, policy, laws, s,
                                (solved[1][:, j - 1], solved[1][:, j]))
            s, q_all = np.append(solved[0], s), np.hstack([solved[1], q])
            order = np.argsort(s)
            solved[:] = s[order], q_all[:, order]
            return q

        offset = params.noise.quantile(1.0 - params.loss_share)
        # the 1e-6 quantile of the unfunded share: open for every k < 1
        lo, hi, floor = _cutoff_interval(
            params, _GRID_FLOOR_P * (1.0 - params.budget)) + offset
        roots = np.array(_scan_roots(
            lambda s: -_type_state(params, policy, laws, cutoffs_at(s),
                                   s)[1][-1],
            lo, hi, floor - 60.0 * params.noise.stddev, _TYPED_GRID_POINTS,
            _ROOT_TOL))
        if not roots.size:
            raise NoRoot(f"no typed steady state found for {policy}")
        q = cutoffs_at(roots)
        all_roots = tuple(tuple(map(float, row)) for row in q.T)
        cutoffs, sbar = all_roots[0], float(roots[0])
        state = _type_state(params, policy, laws, q, roots)
    gaps, flows, shares, payoffs = (v[:, 0] for v in state)
    shares = tuple(map(float, shares))
    profile = SubmissionProfile(tuple(
        ProfileComponent(law, q, min(a / share, 1.0), share)
        for (share, law), q, a in zip(types, cutoffs, shares)))
    # at the corner everyone strictly prefers to apply: no gap closes
    residual = 0.0 if corner else float(np.max(np.abs(gaps)))
    elig_resid = float(np.max(np.abs(flows)))
    if not (residual < _RESIDUAL_CONTRACT and elig_resid < 1e-9):
        raise NoConvergence(
            f"typed root missed its contract (indifference {residual:.3e},"
            f" flow balance {elig_resid:.3e})",
            best_residual=max(residual, elig_resid))
    for (qa, (_, da)), (qb, (_, db)) in itertools.permutations(
            zip(cutoffs, types), 2):
        if qa < qb - 1e-9 and _dominates(da, db):
            raise NoConvergence("a dominant type uses the lower cutoff",
                                best_residual=residual)

    return EquilibriumOutcome(
        regime=policy.regime, cutoffs=cutoffs, eligibility=shares,
        sbar=sbar, submission_volume=profile.volume(), residual=residual,
        all_roots=all_roots, welfare=welfare(profile, params),
        payoff_x=tuple(map(float, payoffs)), eligibility_residual=elig_resid,
        corner=corner, profile=profile)


# ---------------------------------------------------------------------------
# diagnostics used by figure output and the uniqueness checks


def equilibrium_curves(params, policy, grid):
    """Both sides of the defining equation on a cutoff grid.

    Returns (lhs, rhs) arrays: lhs is the win probability of the marginal
    quality under the steady-state competition it induces, rhs the
    indifference level of the policy's equilibrium equation.
    """
    resid, rhs = _batch_residuals(params, policy, grid)[:2]
    return resid + rhs, rhs
