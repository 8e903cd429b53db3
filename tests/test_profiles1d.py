"""Transition profiles: closed form, tails, and the sloped variant."""

import math

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase.errors import DomainError, NumericError


def rk4_profile(epsilon: float, s_max: float, n_steps: int) -> tuple:
    """Independent integration of v' = sqrt(w(v / sqrt(eps)) / eps), v(0) = 0.

    Classic fixed-step fourth-order Runge-Kutta, no package code beyond
    the potential itself.
    """
    root = math.sqrt(epsilon)

    def rhs(v):
        t = min(max(v / root, -1.0), 1.0)
        return math.sqrt(max((1.0 - t * t) ** 2, 0.0) / epsilon)

    ds = s_max / n_steps
    s = np.zeros(n_steps + 1)
    v = np.zeros(n_steps + 1)
    for i in range(n_steps):
        vi = v[i]
        k1 = rhs(vi)
        k2 = rhs(vi + 0.5 * ds * k1)
        k3 = rhs(vi + 0.5 * ds * k2)
        k4 = rhs(vi + ds * k3)
        v[i + 1] = vi + ds * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        s[i + 1] = s[i] + ds
    return s, v


@pytest.mark.parametrize("epsilon", [1.0, 0.1, 0.01])
def test_profile_matches_ode_oracle(epsilon):
    s, oracle = rk4_profile(epsilon, 5.0 * epsilon, 1280)
    closed = pp.transition_profile(epsilon, s)
    assert np.max(np.abs(closed - oracle)) <= 1e-8


def test_profile_scaling_identity():
    s = np.linspace(-5e-2, 5e-2, 501)
    for epsilon in (0.3, 1e-2, 1e-3):
        lhs = pp.transition_profile(epsilon, s)
        rhs = math.sqrt(epsilon) * pp.transition_profile(1.0, s / epsilon)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_profile_shape():
    eps = 1e-2
    # stay below s/eps ~ 19 where float tanh saturates to 1.0 exactly
    s = np.linspace(-0.1, 0.1, 2001)
    v = pp.transition_profile(eps, s)
    root = math.sqrt(eps)
    assert np.all(np.diff(v) > 0.0)
    assert np.all(np.abs(v) < root)
    assert pp.transition_profile(eps, 0.0) == 0.0
    # odd
    assert np.allclose(v, -pp.transition_profile(eps, -s)[::], rtol=0, atol=1e-16)
    # saturation at the halfwidth under the closeness branch
    kappa = 0.25
    t = pp.transition_halfwidth(eps, kappa)
    assert pp.transition_profile(eps, t) >= root * (1.0 - kappa)


def test_profile_derivative_consistency():
    eps = 0.05
    s = np.linspace(-0.4, 0.4, 8001)
    d = pp.transition_profile_derivative(eps, s)
    fd = np.gradient(pp.transition_profile(eps, s), s)
    # central-difference truncation is (ds^2 / 3) * sup|v'''| ~ 6e-6 here
    assert np.max(np.abs(d - fd)) <= 2e-5
    # even, positive, peak at zero
    assert np.all(d > 0.0)
    assert np.argmax(d) == len(s) // 2
    # equipartition along the optimal profile: (v')^2 == w(v/sqrt(eps))/eps
    v = pp.transition_profile(eps, s)
    assert np.allclose(d * d, pp.w(v / math.sqrt(eps)) / eps, rtol=1e-12, atol=1e-12)


def test_halfwidth_formula():
    # max of the closeness width and the polynomial floor
    assert pp.transition_halfwidth(1e-2, 0.5) == pytest.approx(
        max(1e-2 * math.atanh(0.5), 1e-2 ** 0.75), rel=1e-14
    )
    assert pp.transition_halfwidth(0.5, 0.01) == pytest.approx(
        0.5 * math.atanh(0.99), rel=1e-14
    )
    # decreasing in epsilon
    widths = [pp.transition_halfwidth(e, 0.1) for e in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_tail_well_sup_frozen_value():
    t_lo = pp.transition_halfwidth(1e-2, 0.5)
    assert pp.tail_well_sup(1e-2, t_lo, 1.0) == pytest.approx(
        5.100012080074426e-3, rel=1e-12
    )


def test_tail_well_sup_is_a_true_sup():
    eps = 1e-2
    t_lo = pp.transition_halfwidth(eps, 0.5)
    bound = pp.tail_well_sup(eps, t_lo, 1.0)
    s = np.linspace(t_lo, 1.0, 20000)
    density = pp.w(pp.transition_profile(eps, s) / math.sqrt(eps)) / eps
    assert np.max(density) <= bound * (1.0 + 1e-12)
    assert density[0] == pytest.approx(bound, rel=1e-12)


def test_tail_well_sup_requires_room():
    with pytest.raises(DomainError):
        pp.tail_well_sup(1e-2, 1.0, 1.0)
    with pytest.raises(DomainError):
        pp.tail_well_sup(1e-2, 2.0, 1.0)


def test_sloped_profile_crossing_and_tail():
    eps, theta = 1e-2, 5.0
    prof = pp.sloped_profile(eps, theta)
    t_star = prof.crossing_time
    root = math.sqrt(eps)
    assert t_star > 0.0
    assert prof.value(t_star) == pytest.approx(root, rel=0, abs=1e-15)
    # default convention: linear tail with slope exactly theta
    assert prof.tail_slope == pytest.approx(theta, rel=1e-12)
    for ds in (1e-3, 1e-2, 0.1):
        assert prof.value(t_star + ds) == pytest.approx(
            root + theta * ds, rel=1e-12
        )
    # crossing relocated by bisection on the returned values
    lo, hi = 0.0, t_star * 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if prof.value(mid) < root:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(t_star, abs=1e-8)


def test_sloped_profile_sqrt_convention():
    eps, theta = 1e-2, 5.0
    prof = pp.sloped_profile(eps, theta, pp.TAIL_SLOPE_SQRT_THETA)
    assert prof.tail_slope == pytest.approx(math.sqrt(theta), rel=1e-12)
    assert prof.crossing_time != pp.sloped_profile(eps, theta).crossing_time


def test_sloped_profile_ode_residual():
    # first integral: (v')^2 = w(v / sqrt(eps)) / eps + theta^2 on the core
    eps, theta = 5e-2, 3.0
    prof = pp.sloped_profile(eps, theta)
    s = np.linspace(0.0, prof.crossing_time * 0.98, 400)
    lhs = prof.derivative(s) ** 2
    rhs = pp.w(prof.value(s) / math.sqrt(eps)) / eps + theta**2
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-5


def test_sloped_profile_odd_and_monotone():
    eps, theta = 1e-2, 8.0
    prof = pp.sloped_profile(eps, theta)
    s = np.linspace(-0.5, 0.5, 2001)
    v = prof.value(s)
    assert np.allclose(v, -prof.value(-s), rtol=0, atol=1e-15)
    assert np.all(np.diff(v) > 0.0)
    d = prof.derivative(s)
    assert np.allclose(d, prof.derivative(-s), rtol=0, atol=1e-12)
    assert np.all(d > 0.0)


def test_sloped_profile_cached():
    assert pp.sloped_profile(1e-2, 4.0) is pp.sloped_profile(1e-2, 4.0)
    assert pp.sloped_crossing_time(1e-2, 4.0) == pp.sloped_profile(1e-2, 4.0).crossing_time
    s = np.array([0.0, 0.01, 0.5])
    assert np.allclose(
        pp.sloped_profile_value(1e-2, 4.0, s), pp.sloped_profile(1e-2, 4.0).value(s)
    )


@pytest.mark.parametrize("convention", [pp.TAIL_SLOPE_THETA, pp.TAIL_SLOPE_SQRT_THETA])
@pytest.mark.parametrize("epsilon, theta", [(1e-2, 80.0), (1e-2, 160.0), (1e-3, 4.0)])
def test_sloped_profile_matches_scipy_hermite_bitwise(epsilon, theta, convention):
    # The core is scipy's CubicHermiteSpline of the integrated knots,
    # evaluated without importing scipy.interpolate into the package.
    from scipy.interpolate import CubicHermiteSpline

    from perimeter_phase.profiles1d import _integrate_sloped

    knots, values, slopes, t_star = _integrate_sloped(epsilon, theta, convention)
    spline = CubicHermiteSpline(knots, values, slopes)
    prof = pp.sloped_profile(epsilon, theta, convention)
    assert prof.crossing_time == t_star
    s = np.concatenate(
        [knots, [0.0, t_star], np.linspace(0.0, t_star, 300_001),
         np.random.default_rng(0).uniform(0.0, t_star, 10_000)]
    )
    assert np.array_equal(prof.value(s), spline(s))
    assert np.array_equal(prof.value(-s), -spline(s))
    assert np.array_equal(prof.derivative(s), spline.derivative()(s))
    assert np.array_equal(prof.derivative(-s), spline.derivative()(s))
    assert prof.value(t_star) == spline(t_star)
    assert prof.derivative(0.0) == spline.derivative()(0.0)


def test_sloped_profile_rejects_bad_parameters():
    with pytest.raises(DomainError):
        pp.sloped_profile(-1.0, 2.0)
    with pytest.raises(DomainError):
        pp.sloped_profile(1e-2, 0.0)
    with pytest.raises(DomainError):
        pp.sloped_profile(1e-2, 2.0, "no_such_convention")


def test_profile_facade_dispatch():
    s = np.linspace(-0.3, 0.3, 101)
    standard = pp.Profile(epsilon=1e-2)
    assert np.allclose(standard.value(s), pp.transition_profile(1e-2, s))
    assert np.allclose(
        standard.derivative(s), pp.transition_profile_derivative(1e-2, s)
    )
    assert standard.halfwidth == pp.transition_halfwidth(1e-2, 0.1)
    sloped = pp.Profile(epsilon=1e-2, kind="linear_tail", theta=6.0)
    assert np.allclose(sloped.value(s), pp.sloped_profile(1e-2, 6.0).value(s))
    dens = sloped.well_density(s)
    assert np.all(dens >= 0.0)
    with pytest.raises(DomainError):
        pp.Profile(epsilon=1e-2, kind="nope")
