"""Transition profiles: closed form, tails, and the sloped variant."""

import math

import numpy as np
import pytest

import perimeter_phase as pp
from perimeter_phase.errors import DomainError


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
    # linear tail with slope theta
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


THETA, SQRT_THETA = "tail_slope_theta", "tail_slope_sqrt_theta"
# (epsilon, x, form): the tail slope theta is x (THETA) or sqrt(x)
# (SQRT_THETA), with k = theta^2 * eps between 1e-3 and 1e4.
SLOPED_CASES = [
    (1e-2, 80.0, THETA), (1e-2, 160.0, THETA), (1e-3, 4.0, THETA),
    (1e-1, 0.1, THETA), (1e-4, 1e4, THETA),
    (1e-2, 80.0, SQRT_THETA), (1e-2, 160.0, SQRT_THETA), (1e-3, 4.0, SQRT_THETA),
    (1e-2, 0.1, SQRT_THETA), (1e-4, 1e4, SQRT_THETA),
]


def tail_slope(x, form):
    return x if form == THETA else math.sqrt(x)


def sloped_k(prof):
    """k = theta^2 * eps, the one parameter of the reduced equation."""
    return prof.theta * prof.theta * prof.epsilon


def x_for_k(k, epsilon, form):
    return math.sqrt(k / epsilon) if form == THETA else k / epsilon


@pytest.mark.parametrize("epsilon, x, form", SLOPED_CASES)
def test_sloped_profile_matches_scipy_special(epsilon, x, form):
    # s(t) = eps / (2a) F(2 arctan(t / a) | m) with a = (1 + k)^(1/4) and
    # m = (1 + 1 / sqrt(1 + k)) / 2, so value = sqrt(eps) a tan(am / 2).
    # The bounds are twice scipy's own drift against 40-digit mpmath at
    # k = 1e-3 (ellipj 1.7e-15 * sqrt(eps), ellipkinc 1.9e-14 relative);
    # the profile itself was within 2.6e-16 of mpmath at every k here.
    from scipy.special import ellipj, ellipkinc

    prof = pp.sloped_profile(epsilon, tail_slope(x, form))
    k = sloped_k(prof)
    assert k >= 1e-3
    r = math.sqrt(1.0 + k)
    a, m = math.sqrt(r), 0.5 * (1.0 + 1.0 / r)
    crossing = epsilon / (2.0 * a) * ellipkinc(2.0 * math.atan(1.0 / a), m)
    assert prof.crossing_time == pytest.approx(crossing, rel=4e-14, abs=0.0)
    s = np.linspace(0.0, prof.crossing_time, 100_001)
    ref = math.sqrt(epsilon) * a * np.tan(0.5 * ellipj(2.0 * a * s / epsilon, m)[3])
    assert np.max(np.abs(prof.value(s) - ref)) <= 4e-15 * math.sqrt(epsilon)
    assert np.max(np.abs(prof.value(-s) + ref)) <= 4e-15 * math.sqrt(epsilon)


@pytest.mark.parametrize("form", [THETA, SQRT_THETA])
@pytest.mark.parametrize("k", [1e-4, 1e-8, 1e-14, 1e-302])
def test_sloped_profile_matches_quadrature_for_small_k(k, form):
    # scipy's ellipkinc drifts as m -> 1 (6e-4 relative at k = 1e-14), so
    # the references are quadratures of s(t) = eps * int_0^t dt / sqrt((1 -
    # t^2)^2 + k).  Up to t = 1 the substitution t = 1 - (sqrt(k)/2) sinh(y)
    # makes the integrand smooth (it tends to 1/2 where 1 - t << 1); short
    # of t = 1 the plain integrand is bounded.  Measured: crossing times
    # within 5.3e-16 relative, values within 4.2e-16 * sqrt(eps).  Both
    # forms give theta = sqrt(k / eps), so their cases coincide.
    from scipy.integrate import quad

    epsilon = 1e-2
    prof = pp.sloped_profile(epsilon, tail_slope(x_for_k(k, epsilon, form), form))
    k = sloped_k(prof)
    half = math.sqrt(k) / 2.0

    def smooth(y):
        x = half * math.sinh(y)
        return half * math.cosh(y) / math.sqrt((x * (2.0 - x)) ** 2 + k)

    crossing = epsilon * quad(smooth, 0.0, math.asinh(1.0 / half), epsabs=0.0, epsrel=1e-13)[0]
    assert prof.crossing_time == pytest.approx(crossing, rel=2e-15, abs=0.0)
    t = np.linspace(0.0, 1.0, 41)[:-1]
    s = np.array([
        epsilon * quad(lambda x: 1.0 / math.sqrt((1.0 - x * x) ** 2 + k), 0.0, ti,
                       epsabs=0.0, epsrel=1e-13)[0]
        for ti in t
    ])
    assert np.max(np.abs(prof.value(s) - math.sqrt(epsilon) * t)) <= 1e-15 * math.sqrt(epsilon)
    assert np.max(np.abs(prof.value(-s) + math.sqrt(epsilon) * t)) <= 1e-15 * math.sqrt(epsilon)


@pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-4])
def test_tiny_theta_sloped_profile_is_the_standard_profile(epsilon):
    # theta = 1e-150: k = 1e-300 * eps, so the equation is the standard one
    # to double precision, the crossing time is eps * ln(8 / sqrt(k)) / 2 up
    # to O(k ln k), and the tail slope is 1e-150.  Measured: 5.6e-16 *
    # sqrt(eps) from tanh, 4.6e-16 from the asymptote.
    prof = pp.sloped_profile(epsilon, 1e-150)
    k = 1e-300 * epsilon
    assert prof.crossing_time == pytest.approx(
        0.5 * epsilon * math.log(8.0 / math.sqrt(k)), rel=1e-15, abs=0.0
    )
    s = np.linspace(-prof.crossing_time, prof.crossing_time, 20_001)
    v = prof.value(s)
    root = math.sqrt(epsilon)
    assert np.max(np.abs(v - pp.transition_profile(epsilon, s))) <= 1.2e-15 * root
    assert np.all(np.diff(v) >= 0.0)
    assert np.max(np.abs(v)) == root
    d = prof.derivative(s)
    assert np.all(d >= prof.tail_slope)
    assert np.max(np.abs(d - pp.transition_profile_derivative(epsilon, s))) <= 2e-15 / root


@pytest.mark.parametrize("epsilon, x, form", SLOPED_CASES)
def test_sloped_derivative_matches_central_difference(epsilon, x, form):
    # The derivative is the first integral sqrt(w / eps + theta^2); checking
    # it against the value's central difference keeps the two tied.  With h =
    # 1e-5 * crossing_time the measured relative gap is at most 7.1e-10.
    prof = pp.sloped_profile(epsilon, tail_slope(x, form))
    h = 1e-5 * prof.crossing_time
    s = np.linspace(-prof.crossing_time + 2 * h, prof.crossing_time - 2 * h, 2001)
    diff = (prof.value(s + h) - prof.value(s - h)) / (2.0 * h)
    d = prof.derivative(s)
    assert np.max(np.abs(diff - d) / d) <= 3e-9
    outside = np.array([1.0, 1.5, 4.0]) * prof.crossing_time
    assert np.all(prof.derivative(outside) == prof.tail_slope)
    assert np.all(prof.derivative(-outside) == prof.tail_slope)


@pytest.mark.parametrize("form", [THETA, SQRT_THETA])
def test_sloped_profile_scalar_and_shaped_inputs(form):
    prof = pp.sloped_profile(1e-2, tail_slope(8.0, form))
    for s in (0.0, 0.3 * prof.crossing_time, prof.crossing_time, -2.0 * prof.crossing_time):
        for x in (s, np.float64(s), np.asarray(s)):
            assert type(prof.value(x)) is float
            assert type(prof.derivative(x)) is float
    assert prof.value(prof.crossing_time) == math.sqrt(1e-2)
    grid = np.linspace(-0.1, 0.1, 12).reshape(3, 4)
    assert prof.value(grid).shape == (3, 4)
    assert np.array_equal(prof.value(grid).ravel(), prof.value(grid.ravel()))
    assert np.array_equal(prof.derivative(grid).ravel(), prof.derivative(grid.ravel()))


def test_sloped_profile_core_never_exceeds_the_band_edge():
    # Just inside the crossing time rounding put the core up to 3 ulps
    # above sqrt(eps) for about one profile in seven; capped, the value
    # never steps down onto the tail.
    rng = np.random.default_rng(7)
    for _ in range(300):
        epsilon, x = 10.0 ** rng.uniform(-5, 0), 10.0 ** rng.uniform(-3, 5)
        prof = pp.sloped_profile(epsilon, tail_slope(x, (THETA, SQRT_THETA)[rng.integers(2)]))
        below = np.nextafter(prof.crossing_time, 0.0) * (1.0 - 2.0**-52 * np.arange(20))
        assert np.max(prof.value(below)) <= prof.value(prof.crossing_time) == math.sqrt(epsilon)


@pytest.mark.parametrize(
    "x, form",
    [
        (math.inf, THETA), (math.inf, SQRT_THETA), (math.nan, THETA),
        (-1.0, THETA),
        (1e-200, THETA),  # theta^2 underflows to 0
        (1e200, THETA),  # theta^2 overflows
        (1e-323, SQRT_THETA),  # theta^2 * eps underflows to 0
    ],
)
def test_sloped_profile_rejects_theta_without_a_profile(x, form):
    with pytest.raises(DomainError):
        pp.sloped_profile(1e-2, tail_slope(x, form))


def test_sloped_profile_rejects_bad_parameters():
    with pytest.raises(DomainError):
        pp.sloped_profile(-1.0, 2.0)
    with pytest.raises(DomainError):
        pp.sloped_profile(1e-2, 0.0)
