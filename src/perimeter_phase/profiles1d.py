"""One-dimensional transition profiles, both in closed form.

* The standard transition ``sqrt(eps) * tanh(s / eps)`` connects the two
  wells across an O(eps) layer and solves the first-order reduction
  ``slope = sqrt(w(value / sqrt(eps)) / eps)``.
* Sloped profiles with tail slope theta solve ``slope = sqrt(w(value /
  sqrt(eps)) / eps + theta**2)``: their slope is at least theta everywhere,
  they reach the band edge sqrt(eps) at a finite crossing time and continue
  exactly linearly with slope theta.  The equation separates into an
  elliptic integral of the first kind, so the profile is a Jacobi amplitude
  and its crossing time a Carlson R_F; see :class:`SlopedProfile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potential
from .errors import DomainError


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
    out = np.divide(s, epsilon, out=np.empty(s.shape))
    out = np.multiply(np.tanh(out, out=out), np.sqrt(epsilon), out=out)
    return float(out) if out.ndim == 0 else out


def splice_profile(pos, prof, base, upper_shift, lower_shift) -> np.ndarray:
    """The transition profile inside its band, the shifted values outside.

    Writes into prof, for prof = transition_profile(epsilon, s) and pos =
    (s >= 0), max(prof, max(base - upper_shift, 0)) where pos holds and
    min(prof, min(base - lower_shift, 0)) elsewhere: with the first shifted
    value <= 0 on the positive half of the band and the second >= 0 on its
    negative half, the band carries the profile alone.
    """
    side = np.subtract(base, upper_shift)
    np.maximum(prof, np.maximum(side, 0.0, out=side), out=prof, where=pos)
    np.subtract(base, lower_shift, out=side)
    return np.minimum(prof, np.minimum(side, 0.0, out=side), out=prof, where=~pos)


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


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) with at most one argument zero.

    Duplication, then the fifth-order series (Carlson 1995, Numer.
    Algorithms 10:13-26), stopped for a relative error of 2^-53.
    """
    mean = (x + y + z) / 3.0
    dx, dy = mean - x, mean - y
    limit = (3.0 * 2.0**-53) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(mean - z))
    while limit >= abs(mean):
        rx, ry, rz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = rx * ry + ry * rz + rz * rx
        x, y, z, mean = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (mean + lam) / 4.0
        limit, dx, dy = limit / 4.0, dx / 4.0, dy / 4.0
    dx, dy = dx / mean, dy / mean
    e2 = dx * dy - (dx + dy) ** 2
    e3 = -dx * dy * (dx + dy)
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / math.sqrt(mean)


@dataclass(frozen=True)
class SlopedProfile:
    """Odd increasing profile with tail slope theta, in closed form.

    With t = value / sqrt(eps) and k = theta^2 * eps the equation reads
    eps dt/ds = sqrt((1 - t^2)^2 + k), a quartic with complex roots, so
    s(t) = eps / (2a) F(2 arctan(t / a) | m) with r = sqrt(1 + k), a = sqrt(r)
    and m = (1 + 1/r) / 2 (Byrd & Friedman 1971).  Inside |s| < crossing_time
    = s(1) = eps R_F(q^2, q, 1) / (1 + r), q = k / (1 + r)^2 (Carlson 1995),
    the value is sign(s) sqrt(eps) a tan(am(2a |s| / eps | m) / 2); outside it
    is sign(s) (sqrt(eps) + tail_slope (|s| - crossing_time)), tail_slope =
    sqrt(theta^2).  The amplitude is the AGM backward recurrence (Abramowitz
    & Stegun 16.4.3) from a_0 = 1 and b_0 = sqrt(1 - m), 1 - m = k / (2r (1 +
    r)) formed from k (as a difference it would lose a small k), with its
    arcsine written atan2(c_n sin phi, hypot(b_n, c_n cos phi)) by a_n^2 =
    b_n^2 + c_n^2, which stays accurate as m -> 1.  The derivative is the
    first integral sqrt(w(value / sqrt(eps)) / eps + theta^2) inside, never
    below tail_slope, and tail_slope outside.
    """

    epsilon: float
    theta: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        added = self.theta * self.theta
        k = added * self.epsilon if self.theta > 0 else 0.0
        r = math.sqrt(1.0 + k)
        q = k / (1.0 + r) ** 2
        # q > 0 keeps R_F finite and the mean below convergent: with
        # 1 - m = 0 the chain never closes.
        if not (q > 0.0 and math.isfinite(k)):
            raise DomainError(
                "sloped profiles need theta > 0 with 0 < theta^2 * eps < inf, got theta="
                f"{self.theta}, theta^2 * eps = {added * self.epsilon}"
            )
        # The AGM chain as (b_n, c_n); its last a_N scales the top phase.
        mean, b, levels = 1.0, math.sqrt(k / r / (2.0 * (1.0 + r))), []
        while True:
            mean, b, c_n = 0.5 * (mean + b), math.sqrt(mean * b), 0.5 * (mean - b)
            levels.append((b, c_n))
            if c_n <= 2.0**-53 * mean:
                break
        scale = math.sqrt(r)
        phase = 2.0 ** len(levels) * mean * 2.0 * scale / self.epsilon
        crossing_time = self.epsilon * _carlson_rf(q * q, q, 1.0) / (1.0 + r)
        object.__setattr__(self, "crossing_time", crossing_time)
        object.__setattr__(self, "tail_slope", math.sqrt(added))
        object.__setattr__(self, "_added", added)
        object.__setattr__(self, "_levels", tuple(reversed(levels)))
        object.__setattr__(self, "_phase", phase)
        object.__setattr__(self, "_scale", scale)

    def _reduced(self, dist: np.ndarray) -> np.ndarray:
        """value / sqrt(eps) at 0 <= dist < crossing_time, capped at the 1 that
        rounding can overshoot there, so the core never exceeds the tail."""
        phi = self._phase * dist
        for b, c_n in self._levels:
            arcsin = np.arctan2(c_n * np.sin(phi), np.hypot(b, c_n * np.cos(phi)))
            phi = 0.5 * (phi + arcsin)
        return np.minimum(self._scale * np.tan(0.5 * phi), 1.0)

    def value(self, s):
        s = np.asarray(s, dtype=float)
        dist = np.abs(s).reshape(-1)
        out = math.sqrt(self.epsilon) + self.tail_slope * (dist - self.crossing_time)
        core = dist < self.crossing_time
        out[core] = math.sqrt(self.epsilon) * self._reduced(dist[core])
        out = np.sign(s) * out.reshape(s.shape)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        dist = np.abs(s).reshape(-1)
        out = np.full(dist.shape, self.tail_slope)
        core = dist < self.crossing_time
        well = potential.w(self._reduced(dist[core]))
        out[core] = np.sqrt(well / self.epsilon + self._added)
        # Odd profile, even derivative.
        out = out.reshape(s.shape)
        return float(out) if out.ndim == 0 else out


def sloped_profile(epsilon: float, theta: float) -> SlopedProfile:
    """A new :class:`SlopedProfile`; its closed form builds in microseconds."""
    return SlopedProfile(float(epsilon), float(theta))
