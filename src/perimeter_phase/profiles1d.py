"""One-dimensional transition profiles.

Two profile families are provided:

* the standard transition ``sqrt(eps) * tanh(s / eps)``, which connects the
  two wells across an O(eps) layer and satisfies the first-order reduction
  ``slope = sqrt(w(value / sqrt(eps)) / eps)`` exactly;
* sloped profiles that leave the well band at a finite time and continue
  linearly, obtained by integrating the augmented first-order equation
  ``slope = sqrt(w(value / sqrt(eps)) / eps + c)`` with a constant ``c``
  controlled by the requested tail slope.

Sloped profiles are integrated once per parameter set with a fixed-step
RK4 scheme plus bisection event detection at the band edge, then cached;
evaluation uses the cubic Hermite interpolant of the integrated values
and slopes inside the transition and the exact linear tail outside.  The
interpolant is plain numpy, built and evaluated the way scipy's
``CubicHermiteSpline`` and ``PPoly`` do (same coefficients, intervals and
power sums), so values and derivatives match scipy bit for bit without
importing ``scipy.interpolate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import potential
from .errors import DomainError, NumericError

# Conventions for the constant added under the square root of the
# first-order equation.  "tail_slope_theta" adds theta**2, so the profile
# leaves the band with slope exactly theta.  "tail_slope_sqrt_theta" adds
# theta, giving tail slope sqrt(theta).
TAIL_SLOPE_THETA = "tail_slope_theta"
TAIL_SLOPE_SQRT_THETA = "tail_slope_sqrt_theta"
_CONVENTIONS = (TAIL_SLOPE_THETA, TAIL_SLOPE_SQRT_THETA)

_RK4_STEPS_PER_WIDTH = 64
_EVENT_BISECTIONS = 60


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not (epsilon > 0) or not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def _stable_sech(x):
    """sech(x) without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def transition_profile(epsilon, s):
    """Standard transition profile sqrt(eps) * tanh(s / eps).

    Odd, strictly increasing, saturating at +/- sqrt(eps).  Solves the
    first-order reduction slope = sqrt(w(value / sqrt(eps)) / eps).
    """
    epsilon = _check_epsilon(epsilon)
    s = np.asarray(s, dtype=float)
    out = np.sqrt(epsilon) * np.tanh(s / epsilon)
    return float(out) if out.ndim == 0 else out


def splice_profile(s, prof, upper, lower) -> np.ndarray:
    """The transition profile inside its band, the shifted values outside.

    max(prof, max(upper, 0)) where s >= 0 and min(prof, min(lower, 0))
    where s < 0, for prof = transition_profile(epsilon, s): with upper <= 0
    on the positive half of the band and lower >= 0 on its negative half,
    the band carries the profile alone.
    """
    return np.where(
        s >= 0.0,
        np.maximum(prof, np.maximum(upper, 0.0)),
        np.minimum(prof, np.minimum(lower, 0.0)),
    )


def transition_profile_derivative(epsilon, s):
    """Derivative of the standard profile: sech(s/eps)^2 / sqrt(eps)."""
    epsilon = _check_epsilon(epsilon)
    s = np.asarray(s, dtype=float)
    out = _stable_sech(s / epsilon) ** 2 / np.sqrt(epsilon)
    return float(out) if out.ndim == 0 else out


def transition_halfwidth(epsilon: float, kappa: float = 0.1) -> float:
    """Half-width of the band outside which the profile is nearly saturated.

    Returns max(eps * artanh(1 - kappa), eps**(3/4)).  Beyond this distance
    |transition_profile| >= sqrt(eps) * (1 - kappa), and the floor eps**(3/4)
    makes the residual well density in the tail vanish as eps -> 0 (the
    literal crossing time alone would leave it of order kappa**2 / eps).
    """
    epsilon = _check_epsilon(epsilon)
    kappa = float(kappa)
    if not (0.0 < kappa < 1.0):
        raise DomainError(f"kappa must lie in (0, 1), got {kappa}")
    return max(epsilon * math.atanh(1.0 - kappa), epsilon**0.75)


def tail_well_sup(epsilon: float, t_lo: float, big_l: float) -> float:
    """Sup of (1/eps) * w(profile / sqrt(eps)) over t_lo <= |s| <= big_l.

    The well density along the profile decays monotonically away from 0,
    so the sup is attained at t_lo and equals sech(t_lo / eps)**4 / eps.
    """
    epsilon = _check_epsilon(epsilon)
    t_lo = float(t_lo)
    big_l = float(big_l)
    if t_lo < 0:
        raise DomainError(f"t_lo must be nonnegative, got {t_lo}")
    if t_lo >= big_l:
        raise DomainError(f"need t_lo < big_l, got t_lo={t_lo}, big_l={big_l}")
    return float(_stable_sech(t_lo / epsilon) ** 4 / epsilon)


def _added_constant(theta: float, convention: str) -> float:
    if convention == TAIL_SLOPE_THETA:
        return theta * theta
    if convention == TAIL_SLOPE_SQRT_THETA:
        return theta
    raise DomainError(
        f"unknown slope convention {convention!r}, expected one of {_CONVENTIONS}"
    )


@functools.lru_cache(maxsize=256)
def _integrate_sloped(epsilon: float, theta: float, convention: str):
    """Integrate the augmented first-order equation up to the band edge.

    Returns (nodes, values, slopes, crossing_time).  The final node sits
    exactly at value sqrt(eps) with the exact tail slope.  Arrays are
    cached per parameter set; callers must not mutate them.
    """
    c = _added_constant(theta, convention)
    root_eps = math.sqrt(epsilon)
    tail_slope = math.sqrt(c)

    def rhs(value: float) -> float:
        return math.sqrt(potential.w(value / root_eps) / epsilon + c)

    def rk4_step(value: float, ds: float) -> float:
        k1 = rhs(value)
        k2 = rhs(value + 0.5 * ds * k1)
        k3 = rhs(value + 0.5 * ds * k2)
        k4 = rhs(value + ds * k3)
        return value + ds * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    ds = epsilon / _RK4_STEPS_PER_WIDTH
    # The slope never drops below sqrt(c), so the crossing happens by
    # sqrt(eps) / sqrt(c); pad the step budget a little beyond that.
    max_steps = int(math.ceil(root_eps / tail_slope / ds)) + 8

    nodes = [0.0]
    values = [0.0]
    slopes = [rhs(0.0)]
    t = 0.0
    val = 0.0
    crossed = False
    for _ in range(max_steps):
        nxt = rk4_step(val, ds)
        if nxt >= root_eps:
            crossed = True
            break
        t += ds
        val = nxt
        nodes.append(t)
        values.append(val)
        slopes.append(rhs(val))
    if not crossed:
        raise NumericError(
            "sloped profile failed to reach the band edge within "
            f"{max_steps} RK4 steps (epsilon={epsilon}, theta={theta})"
        )

    # Bisection on the fractional last step to land exactly on sqrt(eps).
    lo, hi = 0.0, ds
    for _ in range(_EVENT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if rk4_step(val, mid) < root_eps:
            lo = mid
        else:
            hi = mid
    crossing_time = t + hi

    nodes.append(crossing_time)
    values.append(root_eps)
    slopes.append(tail_slope)

    nodes = np.array(nodes)
    values = np.array(values)
    slopes = np.array(slopes)
    if not np.all(np.diff(values) > 0.0) or not np.all(np.diff(nodes) > 0.0):
        raise NumericError(
            "sloped profile integration lost monotonicity "
            f"(epsilon={epsilon}, theta={theta}, convention={convention})"
        )
    return nodes, values, slopes, float(crossing_time)


def _hermite_coefficients(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> np.ndarray:
    """Power coefficients of the cubic Hermite interpolant, highest first.

    Row k of the (4, intervals) result multiplies (s - x[i])**(3 - k) on
    interval i, computed in the order scipy's CubicHermiteSpline uses.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))


def _evaluate_piecewise(x: np.ndarray, coeffs: np.ndarray, points: np.ndarray):
    """Evaluate a piecewise polynomial at points the way scipy's PPoly does.

    Interval i holds x[i] <= point < x[i + 1]; the last interval is
    closed and points outside [x[0], x[-1]] extrapolate the end pieces.
    The power sum runs from the constant term up, with s**k built by
    repeated multiplication.
    """
    i = np.clip(np.searchsorted(x, points, side="right") - 1, 0, len(x) - 2)
    s = points - x[i]
    out = coeffs[-1][i]
    power = 1.0
    for c in coeffs[-2::-1]:
        power = power * s
        out = out + c[i] * power
    return out


@dataclass(frozen=True)
class SlopedProfile:
    """Odd increasing profile with an exact linear tail.

    Inside |s| <= crossing_time the value follows the integrated
    transition; outside it continues as sign(s) * (sqrt(eps) +
    tail_slope * (|s| - crossing_time)).
    """

    epsilon: float
    theta: float
    convention: str

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not (self.theta > 0):
            raise DomainError(f"theta must be positive, got {self.theta}")
        nodes, values, slopes, t_star = _integrate_sloped(
            self.epsilon, self.theta, self.convention
        )
        coeffs = _hermite_coefficients(nodes, values, slopes)
        object.__setattr__(self, "_knots", nodes)
        object.__setattr__(self, "_coeffs", coeffs)
        # The derivative's coefficients, formed as scipy's PPoly.derivative does.
        slope_coeffs = coeffs[:-1] * np.array([[3.0], [2.0], [1.0]])
        object.__setattr__(self, "_slope_coeffs", slope_coeffs)
        object.__setattr__(self, "crossing_time", t_star)
        object.__setattr__(self, "tail_slope", math.sqrt(_added_constant(self.theta, self.convention)))

    def value(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        inner = _evaluate_piecewise(
            self._knots, self._coeffs, np.minimum(a, self.crossing_time)
        )
        tail = math.sqrt(self.epsilon) + self.tail_slope * (a - self.crossing_time)
        out = np.sign(s) * np.where(a <= self.crossing_time, inner, tail)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        inner = _evaluate_piecewise(
            self._knots, self._slope_coeffs, np.minimum(a, self.crossing_time)
        )
        out = np.where(a <= self.crossing_time, inner, self.tail_slope)
        # Odd profile, even derivative.
        return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=256)
def sloped_profile(
    epsilon: float, theta: float, convention: str = TAIL_SLOPE_THETA
) -> SlopedProfile:
    """Cached constructor for :class:`SlopedProfile`."""
    return SlopedProfile(float(epsilon), float(theta), convention)


def sloped_profile_value(epsilon, theta, s, convention: str = TAIL_SLOPE_THETA):
    return sloped_profile(epsilon, theta, convention).value(s)


def sloped_crossing_time(
    epsilon: float, theta: float, convention: str = TAIL_SLOPE_THETA
) -> float:
    """Time at which the sloped profile reaches sqrt(eps) exactly."""
    return sloped_profile(epsilon, theta, convention).crossing_time


@dataclass(frozen=True)
class Profile:
    """Uniform handle over both profile kinds.

    kind "standard" evaluates the closed-form transition profile; kind
    "linear_tail" evaluates a sloped profile with the given theta and
    convention.  halfwidth reports the transition half-width: the
    kappa-band width for the standard kind, the exact band-edge crossing
    time for the linear-tail kind.  well_density(s) is the well term
    w(value / sqrt(eps)) / eps of the energy density along the profile.
    """

    epsilon: float
    kind: str = "standard"
    theta: float = 0.0
    convention: str = TAIL_SLOPE_THETA
    kappa: float = 0.1

    def __post_init__(self):
        if self.kind not in ("standard", "linear_tail"):
            raise DomainError(f"unknown profile kind {self.kind!r}")
        _check_epsilon(self.epsilon)
        if self.kind == "linear_tail" and not (self.theta > 0):
            raise DomainError("linear_tail profiles need theta > 0")

    @property
    def halfwidth(self) -> float:
        if self.kind == "standard":
            return transition_halfwidth(self.epsilon, self.kappa)
        return sloped_crossing_time(self.epsilon, self.theta, self.convention)

    def value(self, s):
        if self.kind == "standard":
            return transition_profile(self.epsilon, s)
        return sloped_profile(self.epsilon, self.theta, self.convention).value(s)

    def derivative(self, s):
        if self.kind == "standard":
            return transition_profile_derivative(self.epsilon, s)
        return sloped_profile(self.epsilon, self.theta, self.convention).derivative(s)

    def well_density(self, s):
        val = np.asarray(self.value(s), dtype=float)
        out = potential.w(val / math.sqrt(self.epsilon)) / self.epsilon
        return float(out) if np.ndim(out) == 0 else out
