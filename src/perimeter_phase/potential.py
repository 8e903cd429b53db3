"""Double-well potential and the compressed phase built from it.

The well is ``w(t) = (1 - t^2)^2`` inside [-1, 1] and zero outside, so it
vanishes exactly once the argument saturates.  ``w`` can write into a
given buffer, and with ``prime=`` it also writes ``w'`` from the same
``1 - t^2``: the descent reads the well and its slope at an iterate from
one pass.  ``w_prime`` shares that slope formula.

``h_tilde`` is the signed area ``2 * integral_0^t sqrt(w)`` divided by its
saturation value 4/3, so it maps [-1, 1] onto [-1, 1]; the discrete total
variation of ``h_tilde`` composed with a state counts interfaces in
multiples of 2 (one full swing from -1 to +1).  The area's total rise
across the well, 8/3, is the cost of one unit of interface, ``C0``.
"""

from __future__ import annotations

import numpy as np

# Interface cost per unit perimeter: 2 * integral_{-1}^{1} sqrt(w) = 8/3.
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


def h_tilde(t, out=None):
    """Compressed phase: 2 * integral_0^t sqrt(w) over its saturation value 4/3.

    Closed form t * (3 - t^2) / 2 inside the well, clamped to +/- 1
    outside.  With out, which may be t itself, the result is written there.
    """
    t = _as_array(t)
    tc = np.clip(t, -1.0, 1.0, out=np.empty(t.shape) if out is None else out)
    factor = np.multiply(tc, tc, out=np.empty_like(tc))
    tc *= 0.5
    tc *= np.subtract(3.0, factor, out=factor)
    return _scalar_or_array(tc, t)
