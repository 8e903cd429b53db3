"""Double-well potential and the phase functions built from it.

The well is ``w(t) = (1 - t^2)^2`` inside [-1, 1] and zero outside, so it
vanishes exactly once the argument saturates.  ``w`` can write into a
given buffer, and with ``prime=`` it also writes ``w'`` from the same
``1 - t^2``: the descent reads the well and its slope at an iterate from
one pass.  ``w_prime`` shares that slope formula.  Two antiderivative-style
maps come with it:

* ``h``: the signed area ``2 * integral_0^t sqrt(w)``, clamped at the
  saturation value +/- 4/3.  Its total rise ``2 * h(1)`` is the cost of one
  unit of interface, exposed as ``c0()``.
* ``h_tilde``: ``h`` rescaled to land on [-1, 1]; the discrete total
  variation of ``h_tilde`` composed with a state counts interfaces in
  multiples of 2 (one full swing from -1 to +1).

``h_tilde_inverse`` inverts the monotone cubic ``t * (3 - t^2) / 2`` on
[-1, 1] in closed form (the trigonometric solution of the cubic); it is
used when converting a target phase value back into the amplitude
variable.
"""

from __future__ import annotations

import numpy as np

# Total rise of h across the well: 2 * h(1) = 2 * (2 - 2/3) ... see c0().
C0 = 8.0 / 3.0


def _as_array(t):
    return np.asarray(t, dtype=float)


def _scalar_or_array(out: np.ndarray, like) -> float | np.ndarray:
    if np.ndim(like) == 0:
        return float(out)
    return out


def _slope(s: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write w'(t) into out from s = 1 - t^2; out may be s itself.

    -4 * (t * s) is (-4 t) * s bit for bit; s >= 0 is |t| <= 1, not nan.
    """
    outside = ~(s >= 0.0)
    np.multiply(s, t, out=out)
    out *= -4.0
    np.copyto(out, 0.0, where=outside)
    return out


def w(t, out=None, prime=None):
    """Double-well density: (1 - t^2)^2 on [-1, 1], zero outside.

    With out, the well is written there; with prime, w'(t) is written into
    prime from the same 1 - t^2, so one pass serves both.  Neither buffer
    may overlap the other, and prime may not overlap t; without prime,
    out may be t itself.
    """
    t = _as_array(t)
    s = np.subtract(1.0, np.multiply(t, t, out=out), out=out)
    if prime is not None:
        _slope(s, t, prime)
    # Bitwise the piecewise form: t*t > 1 iff |t| > 1; fmax sends nan to 0.
    s = np.fmax(s, 0.0, out=out)
    return _scalar_or_array(np.multiply(s, s, out=out), t)


def w_prime(t):
    """Derivative of ``w``: -4 t (1 - t^2) on [-1, 1], zero outside."""
    t = _as_array(t)
    s = np.empty(t.shape)
    np.subtract(1.0, np.multiply(t, t, out=s), out=s)
    return _scalar_or_array(_slope(s, t, s), t)


def h(t):
    """Signed well area 2t - (2/3) t^3, clamped to +/- 4/3 outside [-1, 1].

    Antiderivative of 2 * sqrt(w) with h(0) = 0.
    """
    t = _as_array(t)
    tc = np.clip(t, -1.0, 1.0)
    out = 2.0 * tc - (2.0 / 3.0) * tc**3
    return _scalar_or_array(out, t)


def h_tilde(t, out=None):
    """``h`` rescaled by its saturation value, mapping [-1, 1] onto [-1, 1].

    Closed form t * (3 - t^2) / 2 inside the well, clamped outside.  With
    out, which may be t itself, the result is written there.
    """
    t = _as_array(t)
    tc = np.clip(t, -1.0, 1.0, out=np.empty(t.shape) if out is None else out)
    factor = np.multiply(tc, tc, out=np.empty_like(tc))
    tc *= 0.5
    tc *= np.subtract(3.0, factor, out=factor)
    return _scalar_or_array(tc, t)


def h_tilde_inverse(y):
    """Inverse of ``h_tilde`` restricted to [-1, 1].

    Closed form t = 2 sin(arcsin(y) / 3): with t = 2 sin(a) the cubic
    t * (3 - t^2) / 2 is sin(3a).  The saturation inputs +/-1 map to +/-1
    exactly, which the rounded sine alone would miss by one ULP.
    """
    y = _as_array(y)
    if np.any(np.abs(y) > 1.0 + 1e-12):
        raise ValueError("h_tilde_inverse requires values in [-1, 1]")
    yc = np.clip(y, -1.0, 1.0)
    t = np.where(np.abs(yc) == 1.0, yc, 2.0 * np.sin(np.arcsin(yc) / 3.0))
    return _scalar_or_array(t, y)


def c0() -> float:
    """Interface cost per unit perimeter: total rise of ``h`` = 8/3."""
    return C0
