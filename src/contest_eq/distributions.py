"""Scalar distributions and the numerical integration kernel.

Quality and review-noise inputs are continuous distributions with strictly
positive densities.  Every integral in the package funnels through
`integrate`, so tolerance and determinism live here.  Infinite limits are
truncated at mean +- truncation_sigmas standard deviations of the governing
distribution; for normal tails the mass beyond 10 sigma is ~1e-23, far
below every tolerance used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class OutOfRange(ValueError):
    """Probability argument outside the open unit interval."""


class NonFiniteIntegrand(ValueError):
    """Integrand returned nan or inf inside the integration domain."""


class BudgetExceeded(RuntimeError):
    """Adaptive subdivision hit its evaluation budget before converging."""


@dataclass(frozen=True)
class Quadrature:
    """Integration settings shared across the package.

    method is "adaptive_simpson" (default, error-controlled) or
    "gauss_legendre" (composite 64-node panels; effectively exact for the
    smooth integrands here and much faster inside solver scans and sweeps).
    """

    method: str = "adaptive_simpson"
    abs_tol: float = 1e-10
    truncation_sigmas: float = 10.0
    max_evals: int = 500_000
    panels: int = 8

    def __post_init__(self):
        if self.method not in ("adaptive_simpson", "gauss_legendre"):
            raise ValueError(f"unknown quadrature method: {self.method!r}")
        if self.abs_tol <= 0 or self.truncation_sigmas <= 0:
            raise ValueError("abs_tol and truncation_sigmas must be positive")


DEFAULT_QUADRATURE = Quadrature()
FAST_QUADRATURE = Quadrature(method="gauss_legendre")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def integrate(f, lo, hi, quad=DEFAULT_QUADRATURE, support=None):
    """Definite integral of a smooth vectorized integrand.

    `f` takes a float ndarray and returns one.  Infinite endpoints are
    clamped to `support` (the truncated support of the governing
    distribution); passing an infinite endpoint without a support is an
    error.  Returns 0.0 for an empty clamped domain.

    Raises NonFiniteIntegrand if `f` produces nan/inf, BudgetExceeded if
    adaptive subdivision exhausts `quad.max_evals`.
    """
    lo, hi = float(lo), float(hi)
    if math.isinf(lo) or math.isinf(hi):
        if support is None:
            raise ValueError("infinite endpoint requires a truncation support")
        if math.isinf(lo):
            lo = max(lo, support[0])
        if math.isinf(hi):
            hi = min(hi, support[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration endpoints must be finite after clamping")
    if hi <= lo:
        return 0.0
    if quad.method == "gauss_legendre":
        return _gauss_legendre(f, lo, hi, quad.panels)
    return _adaptive_simpson(f, lo, hi, quad.abs_tol, quad.max_evals)


def _check_finite(values):
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand("integrand returned non-finite values")
    return values


def _gauss_legendre(f, lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    y = _check_finite(np.asarray(f(x), dtype=float))
    return float(np.dot(w, y))


def _adaptive_simpson(f, lo, hi, abs_tol, max_evals):
    # Batched adaptive Simpson: every refinement level evaluates the
    # integrand once on all pending midpoints, so f sees arrays.
    seed = 8
    xs = np.linspace(lo, hi, 2 * seed + 1)
    ys = _check_finite(np.asarray(f(xs), dtype=float))
    n_evals = xs.size

    a, m, b = xs[0:-2:2], xs[1:-1:2], xs[2::2]
    fa, fm, fb = ys[0:-2:2], ys[1:-1:2], ys[2::2]
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    width = hi - lo
    while a.size:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        new_x = np.concatenate([lm, rm])
        new_y = _check_finite(np.asarray(f(new_x), dtype=float))
        n_evals += new_x.size
        if n_evals > max_evals:
            raise BudgetExceeded(
                f"adaptive Simpson exceeded {max_evals} evaluations")
        flm, frm = new_y[: a.size], new_y[a.size:]
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = sl + sr - s
        # richardson-corrected error is ~err/15, so accepting at 2x the
        # per-interval budget keeps the corrected total well under abs_tol
        done = np.abs(err) <= 2.0 * abs_tol * np.maximum((b - a) / width, 1e-12)
        total += float(np.sum(sl[done] + sr[done] + err[done] / 15.0))
        keep = ~done
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        m = np.concatenate([lm[keep], rm[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        s = np.concatenate([sl[keep], sr[keep]])
    return total


class ScalarDistribution:
    """Continuous scalar distribution: pdf, cdf, quantile, sampler.

    Subclasses must set `support_hint` (the truncation interval for
    numerical integrals), `mean` and `stddev`.  cdf must be exact at +-inf.
    """

    support_hint: tuple[float, float]
    mean: float
    stddev: float

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, p):
        """Inverse cdf; synthesized by bisection unless overridden."""
        _check_prob(p)
        lo, hi = self.support_hint
        flo, fhi = self.cdf(lo), self.cdf(hi)
        if not flo < p < fhi:
            # support hint too tight for an extreme p; widen geometrically
            span = hi - lo
            while self.cdf(lo) >= p:
                lo -= span
            while self.cdf(hi) <= p:
                hi += span
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            c = self.cdf(mid)
            if abs(c - p) < 1e-13:
                return mid
            if c < p:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14 * max(1.0, abs(mid)):
                break
        return 0.5 * (lo + hi)

    def sample(self, rng, size):
        """Draw by inverse-cdf; overridden where a direct sampler exists."""
        u = rng.random(size)
        return np.vectorize(self.quantile)(u)


def _check_prob(p):
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"probability must lie in (0, 1), got {p}")


class Normal(ScalarDistribution):
    """Normal distribution parameterized by mean and variance."""

    def __init__(self, mean, variance, truncation_sigmas=10.0):
        if not 0.0 < variance < math.inf:
            raise ValueError("variance must be positive and finite")
        if not math.isfinite(mean):
            raise ValueError("mean must be finite")
        self.mean = float(mean)
        self.variance = float(variance)
        self.stddev = math.sqrt(self.variance)
        half = truncation_sigmas * self.stddev
        self.support_hint = (self.mean - half, self.mean + half)

    def __repr__(self):
        return f"Normal(mean={self.mean}, variance={self.variance})"

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        out = np.exp(-0.5 * z * z) / (self.stddev * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.stddev
        out = ndtr(z)
        return out if out.ndim else float(out)

    def quantile(self, p):
        _check_prob(p)
        return self.mean + self.stddev * float(ndtri(p))

    def sample(self, rng, size):
        return rng.normal(self.mean, self.stddev, size)


class Custom(ScalarDistribution):
    """Distribution defined by user-supplied pdf/cdf handles.

    `support` bounds the numerical truncation.  A quantile handle is
    optional; absent one, the base-class bisection on the cdf is used.
    Moments default to numerical estimates over the support.
    """

    def __init__(self, pdf, cdf, support, quantile=None, mean=None, stddev=None):
        self._pdf = pdf
        self._cdf = cdf
        self._quantile = quantile
        self.support_hint = (float(support[0]), float(support[1]))
        if mean is None:
            mean = integrate(lambda q: q * np.asarray(pdf(q), dtype=float),
                             *self.support_hint, FAST_QUADRATURE)
        if stddev is None:
            m2 = integrate(lambda q: q * q * np.asarray(pdf(q), dtype=float),
                           *self.support_hint, FAST_QUADRATURE)
            stddev = math.sqrt(max(m2 - mean * mean, 1e-300))
        self.mean = float(mean)
        self.stddev = float(stddev)

    def pdf(self, x):
        out = np.asarray(self._pdf(np.asarray(x, dtype=float)), dtype=float)
        return out if out.ndim else float(out)

    def cdf(self, x):
        if np.isscalar(x) or np.ndim(x) == 0:
            x = float(x)
            if x == math.inf:
                return 1.0
            if x == -math.inf:
                return 0.0
            return float(self._cdf(x))
        out = np.asarray(self._cdf(np.asarray(x, dtype=float)), dtype=float)
        return out

    def quantile(self, p):
        if self._quantile is not None:
            _check_prob(p)
            return float(self._quantile(p))
        return super().quantile(p)


class Mixture(ScalarDistribution):
    """Finite mixture of scalar distributions (population of types)."""

    def __init__(self, parts):
        parts = tuple((float(w), d) for w, d in parts)
        total = sum(w for w, _ in parts)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total}")
        if any(w <= 0 for w, _ in parts):
            raise ValueError("mixture weights must be positive")
        self.parts = parts
        self.mean = sum(w * d.mean for w, d in parts)
        m2 = sum(w * (d.stddev ** 2 + d.mean ** 2) for w, d in parts)
        self.stddev = math.sqrt(max(m2 - self.mean ** 2, 1e-300))
        self.support_hint = (min(d.support_hint[0] for _, d in parts),
                             max(d.support_hint[1] for _, d in parts))

    def pdf(self, x):
        out = sum(w * np.asarray(d.pdf(x), dtype=float) for w, d in self.parts)
        return out if np.ndim(out) else float(out)

    def cdf(self, x):
        out = sum(w * np.asarray(d.cdf(x), dtype=float) for w, d in self.parts)
        return out if np.ndim(out) else float(out)

    def sample(self, rng, size):
        u = rng.random(size)
        draws = np.stack([d.sample(rng, size) for _, d in self.parts])
        edges = np.cumsum([w for w, _ in self.parts])
        idx = np.searchsorted(edges, u, side="right")
        idx = np.minimum(idx, len(self.parts) - 1)
        return draws[idx, np.arange(np.prod(size) if np.ndim(size) else size)]
