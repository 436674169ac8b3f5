"""Brute-force reference computations used to freeze expected test values.

Everything here deliberately avoids the package's own quadrature and root
finding: integrals are dense fixed grids (trapezoid where a coarse check
suffices, composite Simpson where 1e-8 agreement is asserted), roots come
from scipy.optimize.brentq, and lifetime payoffs from literal value
iteration of their recursions.
"""

import math

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import ndtr

TRAPZ_N = 20_000          # coarse brute-force grid
SIMPSON_N = 200_001       # fine grid for 1e-8-level identities


def norm_pdf(x, mu=0.0, sd=1.0):
    z = (np.asarray(x, dtype=float) - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))


def norm_cdf(x, mu=0.0, sd=1.0):
    return ndtr((np.asarray(x, dtype=float) - mu) / sd)


def quantile_bisect(cdf, p, lo, hi, tol=1e-13):
    """Invert a cdf by plain interval bisection."""
    flo, fhi = cdf(lo) - p, cdf(hi) - p
    assert flo < 0 < fhi, "quantile bracket does not straddle p"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) - p <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_bracket(residual, lo, hi, flo, tol):
    """The package's bisection one step per call: ceil(log2(width / tol))
    steps on a sign change of `residual` (a float function) whose value at
    `lo` is `flo`, returning the last bracket."""
    steps = math.ceil(math.log2(max(hi - lo, tol) / tol))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = residual(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


def bisect_steps(residual, lo, hi, flo, tol):
    """The midpoint of `bisect_bracket`'s last bracket: the reference the
    tree walk of `distributions._bisect_root` must match."""
    lo, hi = bisect_bracket(residual, lo, hi, flo, tol)
    return 0.5 * (lo + hi)


def quality_grid(mu_q, sd_q, cutoff=-np.inf, n=TRAPZ_N, sigmas=12.0):
    lo = max(cutoff, mu_q - sigmas * sd_q)
    hi = mu_q + sigmas * sd_q
    return np.linspace(lo, hi, n)


def upper_mass(cutoff, b, mu_q, sd_q, mu_e, sd_e, n=100_001):
    """P(q >= cutoff, q + e >= b) for normal q and e: the integral of
    f(q) (1 - G(b - q)) over q >= cutoff, by composite Simpson on pieces
    split where the noise cdf turns (b - mu_e +- 12 sd_e), n points each.
    Quality mass beyond 12 sd_q is dropped (~1e-33)."""
    lo, hi = max(cutoff, mu_q - 12 * sd_q), mu_q + 12 * sd_q
    if lo >= hi:
        return 0.0
    turn = b - mu_e
    edges = [lo] + [x for x in (turn - 12 * sd_e, turn + 12 * sd_e)
                    if lo < x < hi] + [hi]
    total = 0.0
    for a, c in zip(edges[:-1], edges[1:]):
        qs = np.linspace(a, c, n)
        total += simpson(norm_pdf(qs, mu_q, sd_q)
                         * (1.0 - norm_cdf(b - qs, mu_e, sd_e)), x=qs)
    return float(total)


def funded_mass(profile, b, noise):
    """Mass of a submission profile whose signal clears b (its volume at
    b = -inf): the components' weight x eligibility times `upper_mass`."""
    return sum(c.weight * c.eligibility
               * upper_mass(c.cutoff, b, c.base.mean, c.base.stddev,
                            noise.mean, noise.stddev)
               for c in profile.components)


def clearing_sbar(mu_q, var_q, var_s, k, cutoff=-np.inf, elig=1.0,
                  n=SIMPSON_N):
    """Funding signal threshold for elig * f^cutoff under normal noise.

    Solves  elig * integral_cutoff^inf f(q) (1 - G(sbar - q)) dq = k
    with a dense Simpson grid inside brentq.
    """
    sd_q, sd_s = np.sqrt(var_q), np.sqrt(var_s)
    qs = quality_grid(mu_q, sd_q, cutoff, n)
    fq = norm_pdf(qs, mu_q, sd_q)

    def resid(s):
        return elig * simpson(fq * (1.0 - norm_cdf(s - qs, 0.0, sd_s)), x=qs) - k

    sd_c = sd_q + sd_s
    return brentq(resid, mu_q - 60 * sd_c, mu_q + 60 * sd_c, xtol=1e-13)


def win_integral(Q, sbar, mu_q, sd_q, sd_s, n=SIMPSON_N):
    """integral_Q^inf f(q) (1 - G(sbar - q)) dq, dense Simpson."""
    if Q == np.inf:
        return 0.0
    qs = quality_grid(mu_q, sd_q, Q, n)
    w = np.ones_like(qs) if sbar == -np.inf else 1.0 - norm_cdf(sbar - qs, 0.0, sd_s)
    return float(simpson(norm_pdf(qs, mu_q, sd_q) * w, x=qs))


def ban_integral(Q, sbar_ban, mu_q, sd_q, sd_s, n=TRAPZ_N):
    """integral_Q^inf f(q) G(sbar_ban - q) dq, brute-force trapezoid."""
    if sbar_ban == -np.inf:
        return 0.0
    if Q == np.inf:
        return 0.0
    qs = quality_grid(mu_q, sd_q, Q, n)
    g = np.ones_like(qs) if sbar_ban == np.inf else norm_cdf(sbar_ban - qs, 0.0, sd_s)
    return float(np.trapezoid(norm_pdf(qs, mu_q, sd_q) * g, qs))


def value_iter_payoff(Q, sbar, mu_q, sd_q, sd_s, V, C, delta,
                      ban_periods=1, sbar_ban=None, tol=1e-13, max_iter=200_000):
    """Fixed point of the lifetime-payoff recursion by literal iteration.

    One period: quality below Q pays 0 and keeps eligibility; a submission
    wins with prob W(q) = 1 - G(sbar - q) paying V, and triggers a ban
    (rejection ban of `ban_periods`, or signal ban when `sbar_ban` is set)
    that delays re-entry.  The recursion is affine in x, so iteration
    converges geometrically; the integral coefficients use a dense Simpson
    grid computed once.
    """
    if sbar_ban is None:
        return value_iter_payoffs(Q, sbar, mu_q, sd_q, sd_s, V, C, delta,
                                  (ban_periods,), tol, max_iter)[0]
    if Q == np.inf:
        return 0.0
    FQ, qs, fq, w, flow = _payoff_grid(Q, sbar, mu_q, sd_q, sd_s, V, C)
    # signal below sbar_ban triggers a one-period ban, win or lose
    if sbar_ban == np.inf:
        gban = np.ones_like(qs)
    elif sbar_ban == -np.inf:
        gban = np.zeros_like(qs)
    else:
        gban = norm_cdf(sbar_ban - qs, 0.0, sd_s)
    keep = float(simpson(fq * (1.0 - gban), x=qs))
    banned = float(simpson(fq * gban, x=qs))
    cont = delta * FQ + delta * keep + delta ** 2 * banned
    return _iterate(flow, cont, tol, max_iter)


def value_iter_payoffs(Q, sbar, mu_q, sd_q, sd_s, V, C, delta, ban_periods,
                       tol=1e-13, max_iter=200_000):
    """`value_iter_payoff` under a rejection ban of each length in
    `ban_periods`, a list, all from one Simpson grid and its integrals."""
    if Q == np.inf:
        return [0.0] * len(ban_periods)
    FQ, qs, fq, w, flow = _payoff_grid(Q, sbar, mu_q, sd_q, sd_s, V, C)
    # rejection triggers the ban: continuation delta*x if win else delta^(t+1)*x
    win_mass = float(simpson(fq * w, x=qs))
    rej_mass = (1.0 - FQ) - win_mass
    return [_iterate(flow, delta * FQ + delta * win_mass
                     + delta ** (t + 1) * rej_mass, tol, max_iter)
            for t in ban_periods]


def _payoff_grid(Q, sbar, mu_q, sd_q, sd_s, V, C):
    """(F(Q), grid, density, win probability, flow payoff) of the payoff
    recursions on the dense Simpson grid above Q."""
    FQ = 0.0 if Q == -np.inf else norm_cdf(Q, mu_q, sd_q)
    qs = quality_grid(mu_q, sd_q, Q, SIMPSON_N)
    fq = norm_pdf(qs, mu_q, sd_q)
    w = np.ones_like(qs) if sbar == -np.inf else 1.0 - norm_cdf(sbar - qs, 0.0, sd_s)
    flow = float(simpson(fq * (w * V - (1.0 - w) * C), x=qs))
    return FQ, qs, fq, w, flow


def _iterate(flow, cont, tol, max_iter):
    """Fixed point of x = flow + cont * x by literal iteration from 0."""
    x = 0.0
    for _ in range(max_iter):
        x_new = flow + cont * x
        if abs(x_new - x) < tol:
            return x_new
        x = x_new
    raise RuntimeError("value iteration did not converge")


def benchmark_root(mu_q, var_q, var_s, V, C, k):
    """Entry cutoff solving W(Q, f^Q) = C / (C + V) by brentq."""
    sd_q, sd_s = np.sqrt(var_q), np.sqrt(var_s)
    target = C / (C + V)

    def resid(Q):
        sbar = clearing_sbar(mu_q, var_q, var_s, k, cutoff=Q)
        return (1.0 - norm_cdf(sbar - Q, 0.0, sd_s)) - target

    qstar = quantile_bisect(lambda x: norm_cdf(x, mu_q, sd_q), 1.0 - k,
                            mu_q - 15 * sd_q, mu_q + 15 * sd_q)
    lo = mu_q - 10 * sd_q
    while resid(lo) > 0:
        lo -= 5 * sd_q
    return brentq(resid, lo, qstar - 1e-9, xtol=1e-12)


def exclusion_rhs(FQ, V, C, k, delta, t=1):
    geom = (1.0 - delta ** t) / (1.0 - delta)
    num = (1.0 + t * k) * C + k * delta * geom * (1.0 + t * (1.0 - FQ)) * V
    den = (1.0 + t * k) * C + (1.0 + t * k) * (1.0 + delta * geom * (1.0 - FQ)) * V
    return num / den


def exclusion_root(mu_q, var_q, var_s, V, C, k, delta, t=1, lo=None):
    """Steady-state cutoff with t-period rejection bans, by brentq."""
    sd_q, sd_s = np.sqrt(var_q), np.sqrt(var_s)

    def resid(Q):
        FQ = norm_cdf(Q, mu_q, sd_q)
        elig = (1.0 + t * k) / (1.0 + t * (1.0 - FQ))
        sbar = clearing_sbar(mu_q, var_q, var_s, k, cutoff=Q, elig=elig)
        W = 1.0 - norm_cdf(sbar - Q, 0.0, sd_s)
        return W - exclusion_rhs(FQ, V, C, k, delta, t)

    qstar = quantile_bisect(lambda x: norm_cdf(x, mu_q, sd_q), 1.0 - k,
                            mu_q - 15 * sd_q, mu_q + 15 * sd_q)
    if lo is None:
        lo = mu_q - 6 * sd_q
    while resid(lo) > 0:
        lo -= 2 * sd_q
    return brentq(resid, lo, qstar - 1e-9, xtol=1e-12)


def mixture_clearing_sbar(components, k, var_s, n=SIMPSON_N):
    """Funding threshold for a mixture of truncated normal components.

    components: iterable of (mass, cutoff, mu, sd) where mass multiplies the
    truncated density (population share x eligibility).
    """
    sd_s = np.sqrt(var_s)
    grids = []
    for mass, cutoff, mu, sd in components:
        qs = quality_grid(mu, sd, cutoff, n)
        grids.append((mass, qs, norm_pdf(qs, mu, sd)))

    def resid(s):
        tot = 0.0
        for mass, qs, fq in grids:
            tot += mass * simpson(fq * (1.0 - norm_cdf(s - qs, 0.0, sd_s)), x=qs)
        return tot - k

    mu0 = max(abs(m) + 12 * (sd + sd_s) for _, _, m, sd in components)
    return brentq(resid, -5 * mu0 - 1, 5 * mu0 + 1, xtol=1e-13)


def two_type_oracle(mu_H, var_H, mu_L, var_L, lam_H, var_s, V, C, k, delta,
                    start=(1.0, 0.0), damping=0.5, n=SIMPSON_N // 4):
    """Steady-state two-type equilibrium by damped alternating best response.

    Independent of the package: dense-Simpson integrals, brentq roots.
    Returns (Q_H, Q_L, alpha_H, alpha_L).
    """
    lam = {"H": lam_H, "L": 1.0 - lam_H}
    mus = {"H": mu_H, "L": mu_L}
    sds = {"H": np.sqrt(var_H), "L": np.sqrt(var_L)}
    sd_s = np.sqrt(var_s)
    QH, QL = start
    aH, aL = lam["H"], lam["L"]

    def shares(QH, QL, aH, aL):
        vol_full = lam["H"] * (1 - norm_cdf(QH, mus["H"], sds["H"])) + \
                   lam["L"] * (1 - norm_cdf(QL, mus["L"], sds["L"]))
        if vol_full <= k:
            return lam["H"], lam["L"]
        for _ in range(20000):
            comps = [(aH, QH, mus["H"], sds["H"]), (aL, QL, mus["L"], sds["L"])]
            vol = aH * (1 - norm_cdf(QH, mus["H"], sds["H"])) + \
                  aL * (1 - norm_cdf(QL, mus["L"], sds["L"]))
            if vol <= k:
                kH = aH * (1 - norm_cdf(QH, mus["H"], sds["H"]))
                kL = aL * (1 - norm_cdf(QL, mus["L"], sds["L"]))
            else:
                sbar = mixture_clearing_sbar(comps, k, var_s, n)
                qs = quality_grid(mus["H"], sds["H"], QH, n)
                kH = aH * simpson(norm_pdf(qs, mus["H"], sds["H"]) *
                                  (1 - norm_cdf(sbar - qs, 0, sd_s)), x=qs)
                qs = quality_grid(mus["L"], sds["L"], QL, n)
                kL = aL * simpson(norm_pdf(qs, mus["L"], sds["L"]) *
                                  (1 - norm_cdf(sbar - qs, 0, sd_s)), x=qs)
            tH = lam["H"] - aH * (1 - norm_cdf(QH, mus["H"], sds["H"])) + kH
            tL = lam["L"] - aL * (1 - norm_cdf(QL, mus["L"], sds["L"])) + kL
            nH, nL = 0.5 * aH + 0.5 * tH, 0.5 * aL + 0.5 * tL
            if max(abs(nH - aH), abs(nL - aL)) < 1e-12:
                return nH, nL
            aH, aL = nH, nL
        raise RuntimeError("share fixed point stalled")

    def best_response(i, QH, QL, aH, aL):
        comps = [(aH, QH, mus["H"], sds["H"]), (aL, QL, mus["L"], sds["L"])]
        sbar = mixture_clearing_sbar(comps, k, var_s, n)
        mu_i, sd_i = mus[i], sds[i]

        def x_i(Q):
            qs = quality_grid(mu_i, sd_i, Q, n)
            fq = norm_pdf(qs, mu_i, sd_i)
            w = 1 - norm_cdf(sbar - qs, 0, sd_s)
            Win = simpson(fq * w, x=qs)
            rej = (1 - norm_cdf(Q, mu_i, sd_i)) - Win
            return (Win * V - rej * C) / ((1 - delta) * (1 + delta * rej))

        def resid(Q):
            W = 1 - norm_cdf(sbar - Q, 0, sd_s)
            xi = x_i(Q)
            lhs_cost = C + delta * (1 - delta) * xi
            return W - lhs_cost / (lhs_cost + V)

        from scipy.special import ndtri
        q_base = sbar - sd_s * ndtri(1 - C / (C + V))
        hi = q_base + 1.0
        while resid(hi) < 0:
            hi += 1.0
            if hi > q_base + 60:
                raise RuntimeError("typed BR bracket failed")
        return brentq(resid, q_base, hi, xtol=1e-12)

    for _ in range(600):
        aH, aL = shares(QH, QL, aH, aL)
        brH = best_response("H", QH, QL, aH, aL)
        QH_new = damping * QH + (1 - damping) * brH
        aH, aL = shares(QH_new, QL, aH, aL)
        brL = best_response("L", QH_new, QL, aH, aL)
        QL_new = damping * QL + (1 - damping) * brL
        if max(abs(QH_new - QH), abs(QL_new - QL)) < 1e-11:
            QH, QL = QH_new, QL_new
            break
        QH, QL = QH_new, QL_new
    aH, aL = shares(QH, QL, aH, aL)
    return QH, QL, aH, aL
