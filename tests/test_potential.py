"""Double-well potential, its derivative, and the compressed phase."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from perimeter_phase import C0, h_tilde, w, w_prime


def test_well_values():
    assert w(0.0) == 1.0
    assert w(1.0) == 0.0
    assert w(-1.0) == 0.0
    assert w(0.5) == pytest.approx(0.5625, rel=1e-15)
    # cut off outside the wells
    assert w(1.5) == 0.0
    assert w(-2.0) == 0.0
    assert w(np.inf) == 0.0


def test_well_vectorized_and_nonnegative():
    t = np.linspace(-3.0, 3.0, 1001)
    vals = w(t)
    assert vals.shape == t.shape
    assert np.all(vals >= 0.0)
    inside = np.abs(t) <= 1.0
    assert np.allclose(vals[inside], (1.0 - t[inside] ** 2) ** 2, rtol=0, atol=1e-15)
    assert np.all(vals[~inside] == 0.0)


def test_well_derivative_matches_difference_quotient():
    rng = np.random.default_rng(3)
    t = rng.uniform(-0.98, 0.98, size=200)
    eps = 1e-6
    numeric = (w(t + eps) - w(t - eps)) / (2.0 * eps)
    assert np.allclose(w_prime(t), numeric, rtol=0, atol=1e-7)
    # flat outside the support
    assert w_prime(1.5) == 0.0
    assert w_prime(-1.5) == 0.0


def _piecewise_w(t: float) -> float:
    if abs(t) <= 1.0:
        s = 1.0 - t * t
        return s * s
    return 0.0


def _piecewise_w_prime(t: float) -> float:
    return -4.0 * t * (1.0 - t * t) if abs(t) <= 1.0 else 0.0


_EDGES = [
    0.0, -0.0, 1.0, -1.0,
    np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
    np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
    1e200, -1e200, math.inf, -math.inf, math.nan,
    0.5, -0.3, 1e-160, 5e-324,
]


@pytest.mark.parametrize("fn, piecewise", [(w, _piecewise_w), (w_prime, _piecewise_w_prime)])
def test_well_edge_values_are_bitwise_the_piecewise_form(fn, piecewise):
    # Signed zeros, the cut at |t| = 1, overflow of t*t, infinities and nan
    # all give the piecewise definition's bits, evaluated on Python floats.
    t = np.array(_EDGES)
    before = t.copy()
    expected = np.array([piecewise(float(x)) for x in _EDGES])
    # The shared pass writes the well into out and its slope into prime.
    out, prime = np.full_like(t, np.nan), np.full_like(t, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        values = fn(t)
        scalars = [fn(float(x)) for x in _EDGES]
        assert w(t, out=out, prime=prime) is out
    assert t.tobytes() == before.tobytes()
    assert values.tobytes() == expected.tobytes()
    assert (out if fn is w else prime).tobytes() == expected.tobytes()
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == expected.tobytes()


def test_surface_tension_constant():
    assert C0 == pytest.approx(8.0 / 3.0, rel=0, abs=0)
    integral, err = quad(lambda t: 2.0 * math.sqrt(w(t)), 0.0, 1.0)
    assert abs(C0 - 2.0 * integral) <= 1e-9 + 10 * err


def test_h_tilde_is_normalized_h():
    # h_tilde' = (3/4) * 2 sqrt(w) inside [-1, 1]: the well area
    # h = integral of 2 sqrt(w) over its saturation value 4/3.
    rng = np.random.default_rng(11)
    a, b = np.sort(rng.uniform(-1.0, 1.0, size=(2, 20)), axis=0)
    rise = h_tilde(b) - h_tilde(a)
    for lo, hi, got in zip(a, b, rise):
        integral, err = quad(lambda t: 2.0 * math.sqrt(w(t)), lo, hi)
        assert got == pytest.approx(0.75 * integral, abs=max(1e-12, 10 * err))
    assert h_tilde(0.0) == 0.0
    assert h_tilde(1.0) == 1.0
    assert h_tilde(-1.0) == -1.0
    assert h_tilde(9.0) == 1.0
    assert h_tilde(-9.0) == -1.0
