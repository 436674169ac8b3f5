import math

import numpy as np
import pytest

from contest_eq import Mixture, NonFiniteIntegrand, Normal, OutOfRange, integrate

import oracles
from reference import STD_NORMAL_Q90

INF = math.inf


def test_normal_pdf_normalizes():
    n = Normal(0.0, 1.0)
    total = integrate(n.pdf, -INF, INF, support=n.support_hint)
    assert abs(total - 1.0) < 1e-8


def test_tail_mass_above_quantile():
    n = Normal(0.0, 1.0)
    qs = n.quantile(0.9)
    mass = integrate(n.pdf, qs, INF, support=n.support_hint)
    assert abs(mass - 0.1) < 1e-8


def test_mean_integral_is_zero_by_symmetry():
    n = Normal(0.0, 1.0)
    m = integrate(lambda q: q * n.pdf(q), -INF, INF, support=n.support_hint)
    assert abs(m) < 1e-8


def test_quantile_against_published_value_and_bisection():
    n = Normal(0.0, 1.0)
    assert abs(n.quantile(0.9) - STD_NORMAL_Q90) < 1e-10
    bisected = oracles.quantile_bisect(lambda x: oracles.norm_cdf(x), 0.9,
                                       -15.0, 15.0)
    assert abs(n.quantile(0.9) - bisected) < 1e-10
    assert abs(n.cdf(n.quantile(0.9)) - 0.9) < 1e-10


def test_quantile_scales_with_stddev():
    wide = Normal(0.0, 2.0)
    assert abs(wide.quantile(0.9) - math.sqrt(2.0) * STD_NORMAL_Q90) < 1e-10


def test_quantile_cdf_roundtrip_on_grid():
    for dist in (Normal(0.0, 1.0), Normal(-2.0, 4.0)):
        xs = np.linspace(dist.mean - 4 * dist.stddev,
                         dist.mean + 4 * dist.stddev, 1000)
        back = np.array([dist.quantile(p) for p in dist.cdf(xs)])
        assert np.max(np.abs(back - xs)) < 1e-9


def test_quantile_rejects_out_of_range():
    n = Normal(0.0, 1.0)
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(OutOfRange):
            n.quantile(p)


def test_cdf_exact_at_infinities():
    n = Normal(0.3, 2.0)
    assert n.cdf(INF) == 1.0
    assert n.cdf(-INF) == 0.0


def test_normal_moments_match_quadrature():
    n = Normal(0.7, 2.3)
    mean = integrate(lambda q: q * n.pdf(q), -INF, INF, support=n.support_hint)
    second = integrate(lambda q: q * q * n.pdf(q), -INF, INF,
                       support=n.support_hint)
    assert abs(mean - 0.7) < 1e-8
    assert abs(second - (2.3 + 0.7 ** 2)) < 1e-8


def test_integrate_is_deterministic():
    n = Normal(0.0, 1.0)
    f = lambda q: np.sin(3 * q) ** 2 * n.pdf(q)
    a = integrate(f, -5.0, 5.0)
    b = integrate(f, -5.0, 5.0)
    assert a == b


def test_integrate_empty_domain():
    n = Normal(0.0, 1.0)
    assert integrate(n.pdf, 12.0, INF, support=n.support_hint) == 0.0


def test_integrate_requires_support_for_infinite_limits():
    with pytest.raises(ValueError):
        integrate(lambda q: np.exp(-q * q), -INF, INF)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_integrand_raises():
    # nan on the half of the domain below 0.5, which the nodes sample
    with pytest.raises(NonFiniteIntegrand):
        integrate(lambda q: np.sqrt(q - 0.5), 0.0, 1.0)


def test_mixture_density_and_weights():
    mix = Mixture([(0.5, Normal(0.5, 2.0)), (0.5, Normal(0.0, 2.0))])
    xs = np.linspace(-5, 5, 101)
    manual = 0.5 * Normal(0.5, 2.0).pdf(xs) + 0.5 * Normal(0.0, 2.0).pdf(xs)
    assert np.allclose(mix.pdf(xs), manual, atol=1e-14)
    total = integrate(mix.pdf, -INF, INF, support=mix.support_hint)
    assert abs(total - 1.0) < 1e-8
    for p in (0.2, 0.8):
        assert abs(mix.cdf(mix.quantile(p)) - p) < 1e-10
    # the tails too: the bisection runs to its bracket, not to a cdf gap
    for p in (1e-9, 1e-6, 1e-3):
        assert abs(mix.cdf(mix.quantile(p)) - p) < 1e-12 * p
    with pytest.raises(ValueError):
        Mixture([(0.6, Normal(0, 1)), (0.6, Normal(1, 1))])
