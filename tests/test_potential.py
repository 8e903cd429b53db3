"""Double-well potential, its antiderivatives, and the inverse."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from perimeter_phase import C0, c0, h, h_tilde, h_tilde_inverse, w, w_prime


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


def test_antiderivative_h():
    # h' = 2 sqrt(w) inside [-1, 1], clamped at +/- 4/3 beyond.
    assert h(0.0) == 0.0
    assert h(1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert h(-1.0) == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert h(7.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert h(-7.0) == pytest.approx(-4.0 / 3.0, rel=1e-15)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-1.0, 1.0, size=2))
        integral, err = quad(lambda t: 2.0 * math.sqrt(w(t)), a, b)
        assert h(b) - h(a) == pytest.approx(integral, abs=max(1e-12, 10 * err))


def test_surface_tension_constant():
    assert c0() == C0
    assert C0 == pytest.approx(8.0 / 3.0, rel=0, abs=0)
    integral, err = quad(lambda t: 2.0 * math.sqrt(w(t)), 0.0, 1.0)
    assert abs(c0() - 2.0 * integral) <= 1e-9 + 10 * err
    # the constant is twice the full antiderivative range
    assert c0() == pytest.approx(2.0 * h(1.0), rel=1e-15)


def test_h_tilde_is_normalized_h():
    t = np.linspace(-1.0, 1.0, 401)
    assert np.allclose(h_tilde(t), 0.75 * h(t), rtol=1e-14, atol=1e-14)
    assert h_tilde(1.0) == 1.0
    assert h_tilde(-1.0) == -1.0
    assert h_tilde(9.0) == 1.0
    assert h_tilde(-9.0) == -1.0


def test_h_tilde_inverse_against_trig_oracle():
    # h_tilde(t) = (3 t - t^3) / 2 = sin(3 arcsin(t / 2) ... ) has the
    # closed-form inverse t = 2 sin(arcsin(y) / 3) on [-1, 1].
    y = np.linspace(-1.0, 1.0, 2001)
    oracle = 2.0 * np.sin(np.arcsin(y) / 3.0)
    assert np.allclose(h_tilde_inverse(y), oracle, rtol=0, atol=1e-12)


def test_h_tilde_inverse_roundtrip():
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.0, 1.0, size=500)
    t = h_tilde_inverse(y)
    assert np.all(np.abs(t) <= 1.0)
    assert np.allclose(h_tilde(t), y, rtol=0, atol=1e-13)
    assert h_tilde_inverse(1.0) == pytest.approx(1.0, abs=1e-12)
    assert h_tilde_inverse(-1.0) == pytest.approx(-1.0, abs=1e-12)
    assert h_tilde_inverse(0.0) == pytest.approx(0.0, abs=1e-15)


def test_h_tilde_inverse_monotone():
    y = np.linspace(-1.0, 1.0, 4001)
    t = h_tilde_inverse(y)
    assert np.all(np.diff(t) > 0.0)
