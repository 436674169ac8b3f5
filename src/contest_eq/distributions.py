"""The two laws, the quadrature kernel and the two bracketed root finders.

Quality and review noise are `Normal`, and a heterogeneous population's
quality is a `Mixture` of normal types; each law has a mean, a stddev and
a `support_hint`, the truncation interval for numerical integrals.  Every
mass the package needs is then a bivariate-normal orthant probability in
closed form (`core._upper_mass`); mixtures sum their parts.  `integrate`
remains the public quadrature: one composite Gauss-Legendre rule whose
infinite limits are truncated at mean +- TRUNCATION_SIGMAS standard
deviations of the governing distribution; for normal tails the mass beyond
10 sigma is ~1e-23, far below every tolerance used downstream.

Both root finders return the midpoint of a final bracket narrower than
their tolerance whose ends differ in sign.  The bisection (`_bisect_root`)
walks a tree of midpoints and finishes the scans' root polish, mixture
quantiles and the winner-density crossing; Chandrupatla's method
(`_bracket_root`) takes a handful of points per row where the residual is
smooth and solves the best responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class RejectedValue(ValueError):
    """A value outside the model's domain: a model, type or distribution
    parameter, a ban length or signal bar, a simulation setting, or a
    probability.  Solver failures and these are what a sweep records and
    the command line reports; any other ValueError is a programming
    error."""


class OutOfRange(RejectedValue):
    """Probability argument outside the open unit interval."""


class NonFiniteIntegrand(ValueError):
    """Integrand returned nan or inf inside the integration domain."""


# Infinite limits are truncated this many standard deviations out; composite
# Gauss-Legendre panels per integral.
TRUNCATION_SIGMAS = 10.0
INTEGRATE_PANELS = 8
# bisection-tree levels per residual call of `_bisect_root` (63 points): the
# solvers' 26-step root polish takes 5 calls.  Walked by index, 6 and 7
# levels polish within 5 % of each other (7 ahead on the polish alone,
# inside the spread on whole solves) and 4, 8 and 9 are slower; 6 evaluates
# the fewer points
TREE_LEVELS = 6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _bisect_root(residual, lo, hi, flo, tol):
    """Bisect a sign change of `residual` on [lo, hi], whose value at `lo`
    is `flo`, for ceil(log2((hi - lo) / tol)) steps and return the midpoint
    of the last bracket.  The step count is the only stop, so the call
    count is known in advance.

    `residual` takes an array.  Every TREE_LEVELS steps one call evaluates
    all midpoints the next d = min(TREE_LEVELS, steps left) steps can reach:
    the 2^d - 1 interior points of the bisection tree below the current
    bracket, built level by level as the edges of 2^d equal parts, each
    formed as 0.5 * (a + b) of its parent bracket's ends, as a step forms
    it.  The steps then walk the tree by index: a bracket is a pair of edge
    indices and its midpoint the index halfway between.  So they, and the
    result, are bit for bit those of one step per call whenever a batch
    entry equals a single-point call; the calls drop to
    ceil(steps / TREE_LEVELS).

    A batch of brackets (`lo`, `hi` and `flo` arrays of one shape, the
    tree's points along a new first axis) walks its trees within about
    4 x 2^TREE_LEVELS points per call, where cost follows points rather
    than calls.  Each bracket takes its own steps, and a shallower tree is
    the top of a deeper one, so each root is its one-bracket call's.
    """
    shape = np.shape(lo)
    lo, hi = np.ravel(lo).tolist(), np.ravel(hi).tolist()
    # a step keeps the sign of the residual at its lower end
    positive = (np.ravel(flo) > 0.0).tolist()
    steps = [math.ceil(math.log2(max(b - a, tol) / tol))
             for a, b in zip(lo, hi)]
    levels = max(1, TREE_LEVELS + 2 - max(2, (len(lo) - 1).bit_length()))
    for done in range(0, max(steps, default=0), levels):
        depth = min(levels, max(steps) - done)
        top = 2 ** depth
        edges = np.empty((top + 1, len(lo)))
        edges[0], edges[top] = lo, hi
        # each level fills the midpoints of the brackets the one above left
        width = top
        while width > 1:
            edges[width // 2::width] = 0.5 * (edges[:-1:width]
                                              + edges[width::width])
            width //= 2
        above = (residual(edges[1:-1].reshape((top - 1,) + shape))
                 > 0.0).reshape(top - 1, -1).T.tolist()
        # each row walks its tree by edge index until its steps run out, in
        # Python ints: ten times numpy's speed on one row, even on 32
        brackets = []
        for up, row, n, pos in zip(above, edges.T.tolist(), steps, positive):
            a, width = 0, top
            for _ in range(min(max(n - done, 0), depth)):
                width //= 2
                if up[a + width - 1] == pos:
                    a += width
            brackets.append((row[a], row[a + width]))
        lo, hi = zip(*brackets)
    root = 0.5 * (np.array(lo) + np.array(hi))
    return root.reshape(shape) if shape else float(root[0])


def _bracket_root(residual, lo, hi, flo, fhi, tol):
    """Root of a sign change of `residual` on every row of a batch of
    brackets [lo, hi], whose values at the ends are `flo` and `fhi`: the
    midpoint of a final bracket narrower than `tol` whose ends differ in
    sign, as `_bisect_root` returns it (a sign read as > 0, as it reads one).

    Chandrupatla's method (1997, Adv. Eng. Software 28:145-149), one point
    per row per residual call: inverse quadratic interpolation through the
    bracket's ends and the point it last dropped when those three allow it
    (its interpolant is then monotone on the bracket), bisection otherwise;
    the first step, with two points in hand, is the secant's.  A point
    stays tol/4 inside the bracket, so a converged estimate closes it.  A
    row bisects whenever its last three steps each failed to halve its
    bracket, so every four steps at least halve it, and no row takes more
    than about four times bisection's ceil(log2(width / tol)) steps.  A
    row stops once its bracket is narrower than `tol` or its bisection
    point is no float strictly inside it; no other stop exists.

    `residual` takes an array of the brackets' shape.  Every call evaluates
    all rows, a finished row at its own end so that its bracket stays
    frozen, and each row's arithmetic is its own: each row is its one-row
    call bit for bit whenever a batch entry equals a one-point call.
    """
    shape = np.shape(lo)
    x1, x2, f1, f2 = (np.array(v, dtype=float).ravel() for v in
                      np.broadcast_arrays(lo, hi, flo, fhi))
    x3, f3 = x2, f2
    slow = np.zeros(x1.shape)
    with np.errstate(all="ignore"):
        secant = f1 / (f1 - f2)
    # the bracket's two points allow a secant step first
    t = np.where(np.isfinite(secant), secant, 0.5)
    while True:
        d = x2 - x1
        width = np.abs(d)
        half = x1 + 0.5 * d
        active = (width > tol) & (half != x1) & (half != x2)
        if not active.any():
            break
        edge = 0.25 * tol / np.maximum(width, tol)
        x = np.where(active, x1 + np.minimum(np.maximum(t, edge), 1.0 - edge)
                     * d, x1)
        fx = np.asarray(residual(x.reshape(shape)), dtype=float).ravel()
        # the point replaces the bracket end of its own sign, which becomes
        # the point dropped
        same = (fx > 0.0) == (f1 > 0.0)
        x2, x3 = np.where(same, x2, x1), np.where(same, x1, x2)
        f2, f3 = np.where(same, f2, f1), np.where(same, f1, f2)
        x1, f1 = x, fx
        slow = np.where(np.abs(x2 - x1) <= 0.5 * width, 0.0, slow + 1.0)
        with np.errstate(all="ignore"):
            a, b, c = f1 - f2, f3 - f2, x3 - x2
            xi, phi = (x1 - x2) / c, a / b
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) \
                & (slow < 3.0)
            t = np.where(iqi, f1 / b * (f3 / a + (1.0 - c / (x1 - x2)) * f2
                                        / (b - a)), 0.5)
    root = 0.5 * (x1 + x2)
    return root.reshape(shape) if shape else float(root[0])


def integrate(f, lo, hi, support=None):
    """Definite integral of a smooth vectorized integrand.

    `f` takes a float ndarray and returns one.  Infinite endpoints are
    clamped to `support` (the truncated support of the governing
    distribution); passing an infinite endpoint without a support is an
    error.  Returns 0.0 for an empty clamped domain.  The rule is the
    composite 64-node Gauss-Legendre one, effectively exact for the smooth
    integrands here.

    Raises NonFiniteIntegrand if `f` produces nan/inf.
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
    edges = lo + (hi - lo) * np.linspace(0.0, 1.0, INTEGRATE_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    values = np.asarray(f((mid[:, None] + half[:, None] * _GL_NODES).ravel()),
                        dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrand("integrand returned non-finite values")
    return float(np.dot((half[:, None] * _GL_WEIGHTS).ravel(), values))


def _check_prob(p):
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"probability must lie in (0, 1), got {p}")


@dataclass(frozen=True)
class Normal:
    """Normal distribution parameterized by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not 0.0 < self.variance < math.inf:
            raise RejectedValue("variance must be positive and finite")
        if not math.isfinite(self.mean):
            raise RejectedValue("mean must be finite")
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "stddev", math.sqrt(self.variance))
        half = TRUNCATION_SIGMAS * self.stddev
        object.__setattr__(self, "support_hint",
                           (self.mean - half, self.mean + half))

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


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of (weight, Normal) parts: a population of types."""

    parts: tuple[tuple[float, Normal], ...]

    def __post_init__(self):
        parts = tuple((float(w), d) for w, d in self.parts)
        if not all(isinstance(d, Normal) for _, d in parts):
            raise TypeError("every mixture part must be Normal")
        total = sum(w for w, _ in parts)
        if abs(total - 1.0) > 1e-12:
            raise RejectedValue(f"mixture weights must sum to 1, got {total}")
        if any(w <= 0 for w, _ in parts):
            raise RejectedValue("mixture weights must be positive")
        mean = sum(w * d.mean for w, d in parts)
        m2 = sum(w * (d.stddev ** 2 + d.mean ** 2) for w, d in parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stddev",
                           math.sqrt(max(m2 - mean ** 2, 1e-300)))
        object.__setattr__(self, "support_hint", (
            min(d.support_hint[0] for _, d in parts),
            max(d.support_hint[1] for _, d in parts)))

    def pdf(self, x):
        out = sum(w * np.asarray(d.pdf(x), dtype=float) for w, d in self.parts)
        return out if np.ndim(out) else float(out)

    def cdf(self, x):
        out = sum(w * np.asarray(d.cdf(x), dtype=float) for w, d in self.parts)
        return out if np.ndim(out) else float(out)

    def quantile(self, p):
        """Inverse cdf by bisection."""
        _check_prob(p)
        lo, hi = self.support_hint
        span = hi - lo
        # widen a support hint too tight for an extreme p
        while self.cdf(lo) >= p:
            lo -= span
        while self.cdf(hi) <= p:
            hi += span
        return _bisect_root(lambda q: self.cdf(q) - p, lo, hi,
                            self.cdf(lo) - p,
                            1e-14 * max(1.0, abs(lo), abs(hi)))

    def sample(self, rng, size):
        u = rng.random(size)
        draws = np.stack([d.sample(rng, size) for _, d in self.parts])
        edges = np.cumsum([w for w, _ in self.parts])
        idx = np.searchsorted(edges, u, side="right")
        idx = np.minimum(idx, len(self.parts) - 1)
        # each draw from the part its uniform picked, for any size
        return np.take_along_axis(draws, idx[None], axis=0)[0]
