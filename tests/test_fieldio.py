"""Binary and CSV field round trips with their JSON sidecars."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import perimeter_phase as pp
from perimeter_phase import fieldio


def random_field(domain, seed=0, scale=0.7):
    rng = np.random.default_rng(seed)
    return pp.ScalarField(domain, scale * rng.standard_normal(domain.node_shape))


@pytest.mark.parametrize(
    "domain",
    [
        pp.Domain.interval(-1.0, 1.0, 32),
        pp.Domain.box(-1.0, 1.0, 16),
        pp.Domain.ball(1.0, 16),
    ],
)
def test_binary_roundtrip_exact(domain, tmp_path):
    field = random_field(domain, seed=41)
    path = os.path.join(tmp_path, "field.f64")
    fieldio.save_binary(field, path)
    assert os.path.exists(path + ".json")
    back = fieldio.load_binary(path)
    assert back.domain.kind == domain.kind
    assert back.domain.n == domain.n
    assert np.array_equal(back.values, field.values)


def test_binary_sidecar_contents(tmp_path):
    domain = pp.Domain.box(-1.0, 1.0, 16)
    field = random_field(domain, seed=43)
    path = os.path.join(tmp_path, "field.f64")
    fieldio.save_binary(field, path)
    with open(path + ".json", "r", encoding="utf-8") as f:
        meta = json.load(f)
    assert meta["dim"] == 2
    assert meta["n"] == 16
    assert tuple(meta["shape"]) == domain.node_shape
    assert meta["domain"]["kind"] == "box"


def test_binary_size_mismatch_raises(tmp_path):
    domain = pp.Domain.interval(-1.0, 1.0, 32)
    field = random_field(domain, seed=47)
    path = os.path.join(tmp_path, "field.f64")
    fieldio.save_binary(field, path)
    with open(path, "ab") as f:
        f.write(b"\x00" * 8)
    with pytest.raises(OSError):
        fieldio.load_binary(path)


@pytest.mark.parametrize(
    "domain",
    [pp.Domain.interval(-1.0, 1.0, 32), pp.Domain.box(-1.0, 1.0, 8)],
)
def test_csv_roundtrip_exact(domain, tmp_path):
    # %.17g printing is lossless for float64
    field = random_field(domain, seed=53)
    path = os.path.join(tmp_path, "field.csv")
    fieldio.save_csv(field, path)
    back = fieldio.load_csv(path)
    assert np.array_equal(back.values, field.values)
    assert back.domain.h == domain.h


def test_csv_header_and_coordinates(tmp_path):
    domain = pp.Domain.interval(0.0, 1.0, 4)
    field = pp.ScalarField(domain, np.linspace(0.0, 1.0, 5))
    path = os.path.join(tmp_path, "field.csv")
    fieldio.save_csv(field, path)
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "index,x,value"
    assert len(lines) == 6


def test_load_field_dispatch(tmp_path):
    domain = pp.Domain.interval(-1.0, 1.0, 16)
    field = random_field(domain, seed=59)
    bin_path = os.path.join(tmp_path, "a.f64")
    csv_path = os.path.join(tmp_path, "a.csv")
    fieldio.save_binary(field, bin_path)
    fieldio.save_csv(field, csv_path)
    for path in (bin_path, csv_path):
        back = fieldio.load_field(path)
        assert np.array_equal(back.values, field.values)


def test_energies_survive_roundtrip(tmp_path):
    domain = pp.Domain.box(-1.0, 1.0, 16)
    field = random_field(domain, seed=61, scale=0.4)
    state = pp.PhaseState(field, 1e-2, 2.0)
    before = pp.e_eps(state).total
    path = os.path.join(tmp_path, "field.f64")
    fieldio.save_binary(field, path)
    after = pp.e_eps(pp.PhaseState(fieldio.load_binary(path), 1e-2, 2.0)).total
    assert after == before


_coords = st.floats(-5.0, 5.0)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(("interval", "box", "ball")))
    n = draw(st.integers(2, 24))
    if kind == "ball":
        center = (draw(_coords), draw(_coords))
        return pp.Domain.ball(draw(st.floats(1e-2, 10.0)), n, center)
    lo = draw(_coords)
    hi = lo + draw(st.floats(1e-3, 10.0))
    return pp.Domain.interval(lo, hi, n) if kind == "interval" else pp.Domain.box(lo, hi, n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_binary_roundtrip_is_bitwise_on_random_grids(data):
    domain = data.draw(domains())
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(arrays(np.float64, domain.node_shape, elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.f64")
        fieldio.save_binary(pp.ScalarField(domain, values), path)
        loaded = fieldio.load_field(path)
    assert loaded.domain == domain
    assert loaded.values.tobytes() == values.tobytes()
    # The sidecar's domain is the same grid, so it shares the cached arrays.
    assert loaded.domain.nodes_x is domain.nodes_x
