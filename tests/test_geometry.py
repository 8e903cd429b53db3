"""Grids, regions, exact perimeters, and the interface-length estimator."""

import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perimeter_phase as pp
from perimeter_phase import geometry
from perimeter_phase.errors import DomainError, UnsupportedRegionError
from perimeter_phase.geometry import region_cell_fraction

GRID_ARRAYS = (
    "axis_x",
    "axis_y",
    "nodes_x",
    "nodes_y",
    "cell_x",
    "cell_y",
    "cell_weights",
    "node_weights",
    "boundary_mask",
)


def test_interval_domain_layout():
    dom = pp.Domain.interval(-1.0, 1.0, 8)
    assert dom.dim == 1
    assert dom.h == pytest.approx(0.25)
    assert dom.node_shape == (9,)
    assert dom.nodes_x[0] == -1.0 and dom.nodes_x[-1] == 1.0
    assert np.sum(dom.cell_weights) == pytest.approx(2.0, rel=1e-14)
    assert np.sum(dom.node_weights) == pytest.approx(2.0, rel=1e-14)
    assert dom.boundary_mask[0] and dom.boundary_mask[-1]
    assert not np.any(dom.boundary_mask[1:-1])


def test_box_domain_layout():
    dom = pp.Domain.box(-1.0, 1.0, 16)
    assert dom.dim == 2
    assert dom.node_shape == (17, 17)
    assert np.sum(dom.cell_weights) == pytest.approx(4.0, rel=1e-14)
    assert dom.boundary_mask[0, :].all() and dom.boundary_mask[:, -1].all()
    assert not dom.boundary_mask[1:-1, 1:-1].any()
    # meshgrid uses ij indexing: first axis is x
    assert dom.nodes_x[0, 0] == -1.0 and dom.nodes_x[-1, 0] == 1.0
    assert dom.nodes_y[0, 0] == -1.0 and dom.nodes_y[0, -1] == 1.0


def test_ball_domain_layout():
    dom = pp.Domain.ball(1.0, 64)
    assert dom.kind == "ball"
    assert dom.lo == -1.0 and dom.hi == 1.0
    # cell weights approximate the disc area to first order
    assert np.sum(dom.cell_weights) == pytest.approx(math.pi, abs=5e-4)
    # boundary nodes are those outside or on the sphere
    r = np.hypot(dom.nodes_x, dom.nodes_y)
    assert np.array_equal(dom.boundary_mask, r >= 1.0 - 1e-15)


@pytest.mark.parametrize("n, center", [(98, (0.0, 0.0)), (196, (0.0, 0.0)), (98, (0.1, 0.2))])
def test_ball_array_edge_is_boundary(n, center):
    # At these n the edge node where the circle touches the array edge
    # rounds to a signed distance of +2^-52; it is still a boundary node.
    dom = pp.Domain.ball(1.0, n, center)
    edge = np.ones(dom.node_shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    assert dom.boundary_mask[edge].all()


def test_domain_rejects_bad_input():
    with pytest.raises(DomainError):
        pp.Domain.interval(1.0, -1.0, 8)
    with pytest.raises(DomainError):
        pp.Domain.interval(-1.0, 1.0, 0)
    with pytest.raises(DomainError):
        pp.Domain.ball(-2.0, 8)
    for lo, hi in ((-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0, math.nan)):
        with pytest.raises(DomainError):
            pp.Domain.interval(lo, hi, 8)
        with pytest.raises(DomainError):
            pp.Domain.box(lo, hi, 8)
    for radius in (math.inf, math.nan):
        with pytest.raises(DomainError):
            pp.Domain.ball(radius, 8)
    for center in ((math.nan, 0.0), (0.0, -math.inf), (0.0,)):
        with pytest.raises(DomainError):
            pp.Domain.ball(1.0, 8, center)


# JSON values a domain object may hold in place of a good one.
_JSON_JUNK = st.sampled_from([None, "1", [], {}, True, math.inf, -math.inf, math.nan])
_JSON_VALUE = st.one_of(_JSON_JUNK, st.integers(-3, 40), st.floats(-1e6, 1e6))


# The keys each domain kind reads besides "kind".
_DOMAIN_KEYS = {
    "interval": ("n", "lo", "hi"),
    "box": ("n", "lo", "hi"),
    "ball": ("n", "radius", "center"),
}


@st.composite
def domain_data(draw):
    """A JSON-like domain object that builds a grid, or the same with one
    fault: a bad value, a dropped key, a key its kind does not read or a
    bad kind; or something else."""
    kind = draw(st.sampled_from(sorted(_DOMAIN_KEYS)))
    good = {
        "n": st.integers(2, 40),
        "lo": st.floats(-10.0, 0.0),
        "hi": st.floats(1e-3, 10.0),
        "radius": st.floats(1e-3, 10.0),
        "center": st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    }
    data = {"kind": kind, **{key: draw(good[key]) for key in _DOMAIN_KEYS[kind]}}
    fault = draw(st.sampled_from((None, "value", "drop", "stray", "kind", "junk")))
    key = draw(st.sampled_from(sorted(data)))
    if fault == "value":
        data[key] = draw(st.one_of(_JSON_VALUE, st.lists(_JSON_VALUE, max_size=3)))
    elif fault == "drop":
        del data[key]
    elif fault == "stray":
        data[draw(st.sampled_from(sorted(good) + ["centre"]))] = draw(_JSON_VALUE)
    elif fault == "kind":
        data["kind"] = draw(_JSON_JUNK)
    elif fault == "junk":
        return draw(_JSON_JUNK)
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=domain_data())
def test_domain_from_dict_builds_a_finite_grid_or_raises_domain_error(data):
    try:
        domain = pp.Domain.from_dict(data)
    except DomainError:
        return
    assert set(data) <= {"kind", *_DOMAIN_KEYS[domain.kind]}
    assert 0.0 < domain.h < math.inf
    for array in grid_arrays(domain):
        assert array.dtype == bool or np.all(np.isfinite(array))
    assert pp.Domain.from_dict(domain.to_dict()) == domain


def test_domain_dict_roundtrip():
    for dom in (
        pp.Domain.interval(-2.0, 3.0, 32),
        pp.Domain.box(0.0, 1.0, 8),
        pp.Domain.ball(1.5, 16, center=(0.5, -0.25)),
    ):
        clone = pp.Domain.from_dict(dom.to_dict())
        assert clone.kind == dom.kind
        assert clone.n == dom.n
        assert clone.h == dom.h
        assert np.array_equal(clone.nodes_x, dom.nodes_x)


def grid_arrays(domain):
    return [a for a in (getattr(domain, name) for name in GRID_ARRAYS) if a is not None]


def assert_same_grid_bits(a, b):
    assert (a.dim, a.node_shape, a.h, a.measure) == (b.dim, b.node_shape, b.h, b.measure)
    for name in GRID_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@pytest.mark.parametrize(
    "make",
    [
        lambda: pp.Domain.interval(-1.0, 2.0, 16),
        lambda: pp.Domain.box(-1.0, 1.0, 16),
        lambda: pp.Domain.ball(1.0, 16, (0.25, -0.5)),
    ],
)
def test_equal_domains_share_read_only_arrays(make):
    a, b = make(), make()
    assert a == b and repr(a) == repr(b)
    for x, y in zip(grid_arrays(a), grid_arrays(b), strict=True):
        assert x is y
        assert not x.flags.writeable
    with pytest.raises(ValueError):
        a.nodes_x[0] = 5.0
    with pytest.raises(ValueError):
        b.cell_weights *= 2.0
    with pytest.raises(ValueError):
        a.boundary_mask[...] = False


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: pp.Domain.ball(1.0, 32), lambda: pp.Domain.ball(1.0, 32, (1e-3, 0.0))),
        (lambda: pp.Domain.ball(1.0, 32), lambda: pp.Domain.ball(1.0, 64)),
        (lambda: pp.Domain.box(-1.0, 1.0, 32), lambda: pp.Domain.interval(-1.0, 1.0, 32)),
        (lambda: pp.Domain.interval(-1.0, 1.0, 32), lambda: pp.Domain.box(-1.0, 1.0, 32)),
    ],
)
def test_unequal_domains_get_their_own_arrays(first, second):
    a = first()
    b = second()
    assert a != b
    for x in grid_arrays(a):
        assert all(x is not y for y in grid_arrays(b))
    geometry._GRID_CACHE.clear()
    assert_same_grid_bits(b, second())


def test_grid_built_once_under_concurrent_first_calls(monkeypatch):
    builds = []
    real_build = geometry._build_grid

    def slow_build(domain):
        builds.append(domain)
        time.sleep(0.05)
        return real_build(domain)

    monkeypatch.setattr(geometry, "_build_grid", slow_build)
    monkeypatch.setattr(geometry, "_GRID_CACHE", {})
    workers = 4
    start = threading.Barrier(workers)

    def build(_):
        start.wait(timeout=10)
        return pp.Domain.ball(1.0, 32, (0.1, 0.2))

    # More threads than cores, switching often, all missing the cache at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(build, i) for i in range(workers)]
            domains = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert all(d.nodes_x is domains[0].nodes_x for d in domains)


_coords = st.floats(-5.0, 5.0, allow_subnormal=False)


@st.composite
def grid_params(draw):
    lo = draw(_coords)
    return {
        "kind": draw(st.sampled_from(("interval", "box", "ball"))),
        "n": draw(st.integers(2, 24)),
        "bounds": (lo, lo + draw(st.floats(1e-3, 10.0))),
        "center": (draw(_coords), draw(_coords)),
        "radius": draw(st.floats(1e-2, 10.0)),
    }


def make_domain(params):
    lo, hi = params["bounds"]
    rest = {k: v for k, v in params.items() if k != "bounds"}
    return pp.Domain(lo=lo, hi=hi, **rest)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_cached_grid_equals_a_fresh_build(data):
    # The second domain equals the first, or differs in one parameter, so
    # a cache key that missed a parameter would hand it the first's grid.
    first = data.draw(grid_params())
    changed = data.draw(st.sampled_from((None,) + tuple(first)))
    second = dict(first)
    if changed is not None:
        second[changed] = data.draw(grid_params())[changed]
    make_domain(first)
    cached = make_domain(second)
    geometry._GRID_CACHE.clear()
    assert_same_grid_bits(cached, make_domain(second))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 98, 196, 512])
@pytest.mark.parametrize(
    "center, radius", [((0.0, 0.0), 1.0), ((0.3, -0.7), 0.5), ((1e3, -1e3), 2.0)]
)
def test_ball_cut_cells_follow_the_disc_fraction_rule(n, center, radius):
    # The grid weighs cells and flags boundary nodes by the disc of the
    # ball, with the rule region_cell_fraction states for any region.
    dom = pp.Domain.ball(radius, n, center)
    disc = pp.Disc(center, radius)
    fraction = region_cell_fraction(disc, dom)
    assert dom.cell_weights.tobytes() == (dom.h * dom.h * fraction).tobytes()
    edge = np.ones(dom.node_shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    outside = disc.signed_distance(dom.nodes_x, dom.nodes_y) <= 0.0
    assert np.array_equal(dom.boundary_mask, edge | outside)


def sample_points(rng, count):
    return rng.uniform(-2.0, 2.0, size=(count, 2))


@pytest.mark.parametrize(
    "region",
    [
        pp.Disc((0.2, -0.1), 0.7),
        pp.HalfPlane((0.6, 0.8), 0.1),
        pp.Complement(pp.Disc((0.0, 0.0), 0.5)),
        pp.Union((pp.Disc((-0.4, 0.0), 0.3), pp.Disc((0.4, 0.0), 0.3))),
        pp.Intersection((pp.Disc((0.0, 0.0), 0.8), pp.HalfPlane((1.0, 0.0), 0.0))),
    ],
)
def test_region_signed_distance_is_1_lipschitz(region):
    rng = np.random.default_rng(17)
    p = sample_points(rng, 300)
    q = sample_points(rng, 300)
    sp = region.signed_distance(p[:, 0], p[:, 1])
    sq = region.signed_distance(q[:, 0], q[:, 1])
    dist = np.hypot(p[:, 0] - q[:, 0], p[:, 1] - q[:, 1])
    assert np.all(np.abs(sp - sq) <= dist + 1e-12)


def test_interval_union_signed_distance():
    reg = pp.IntervalUnion(((-0.5, 0.0), (0.25, np.inf)))
    assert reg.signed_distance(-0.25) == pytest.approx(0.25)
    assert reg.signed_distance(0.125) == pytest.approx(-0.125)
    # distance to the finite endpoint, even on the unbounded side
    assert reg.signed_distance(100.0) == pytest.approx(99.75)
    assert reg.signed_distance(-100.0) == pytest.approx(-99.5)
    with pytest.raises(DomainError):
        pp.IntervalUnion(((0.0, 1.0), (0.5, 2.0)))  # overlapping
    with pytest.raises(DomainError):
        pp.IntervalUnion(((1.0, 0.0),))  # reversed


@pytest.mark.parametrize("combination", [pp.Union, pp.Intersection])
def test_union_and_intersection_need_a_part(combination):
    with pytest.raises(DomainError, match="needs at least one part"):
        combination(())


def test_empty_interval_union_is_nowhere():
    reg = pp.IntervalUnion(())
    assert np.all(reg.signed_distance(np.linspace(-2.0, 2.0, 5)) == -np.inf)
    assert reg.signed_distance(0.0) == -np.inf
    assert not pp.rasterize(reg, pp.Domain.interval(-1.0, 1.0, 8)).any()


_PLANE_REGIONS = {
    "disc": pp.Disc((0.0, 0.0), 0.5),
    "half_plane": pp.HalfPlane((1.0, 0.0), 0.0),
    "complement": pp.Complement(pp.Disc((0.0, 0.0), 0.5)),
    "union": pp.Union((pp.IntervalUnion(((0.0, 0.5),)), pp.HalfPlane((0.0, 1.0), 0.0))),
    "intersection": pp.Intersection((pp.FullSpace(), pp.Disc((0.2, 0.0), 0.5))),
}


@pytest.mark.parametrize("name", list(_PLANE_REGIONS))
def test_plane_regions_on_an_interval_raise(name):
    # A disc or half-plane needs y; an interval has none, and reading None
    # as y gave NaN distances and NaN energies.
    region = _PLANE_REGIONS[name]
    dom = pp.Domain.interval(-1.0, 1.0, 16)
    state = pp.PhaseState(pp.ScalarField(dom, np.sin(3.0 * dom.nodes_x)), 1e-1, 1.0)
    for call in (
        lambda: region.signed_distance(dom.nodes_x),
        lambda: pp.rasterize(region, dom),
        lambda: region_cell_fraction(region, dom),
        lambda: pp.e_eps(state, subdomain=region),
        lambda: pp.SharpPair(pp.ScalarField(dom, dom.nodes_x), region=region),
    ):
        with pytest.raises(DomainError, match="needs a 2D domain"):
            call()


def test_half_plane_normalizes():
    hp = pp.HalfPlane((3.0, 4.0), 1.0)
    assert math.hypot(*hp.normal) == pytest.approx(1.0, rel=1e-15)
    # signed distance is a true distance after normalization
    assert hp.signed_distance(1.0, 1.0) == pytest.approx(
        (3.0 * 1.0 + 4.0 * 1.0) / 5.0 - 1.0 / 5.0
    )


def test_boolean_regions():
    disc = pp.Disc((0.0, 0.0), 0.5)
    comp = pp.Complement(disc)
    assert comp.signed_distance(0.0, 0.0) == pytest.approx(-0.5)
    full = pp.FullSpace()
    empty = pp.EmptySpace()
    assert full.signed_distance(3.0, 4.0) == math.inf
    assert empty.signed_distance(3.0, 4.0) == -math.inf
    union = pp.Union((disc, pp.Disc((2.0, 0.0), 0.5)))
    assert union.signed_distance(2.0, 0.0) == pytest.approx(0.5)
    inter = pp.Intersection((disc, pp.HalfPlane((1.0, 0.0), 0.0)))
    assert inter.signed_distance(-0.25, 0.0) == pytest.approx(-0.25)


def test_region_from_dict_reads_literal_dicts():
    disc = {"type": "disc", "center": [0.25, -0.5], "radius": 0.75}
    plane = {"type": "half_plane", "normal": [3.0, 4.0], "offset": 1.0}
    cases = [
        ({"type": "interval_union", "intervals": [[-0.5, 0.5], [1.0, "inf"]]},
         pp.IntervalUnion(((-0.5, 0.5), (1.0, math.inf)))),
        ({"type": "interval_union", "intervals": [["-inf", 0.0]]},
         pp.IntervalUnion(((-math.inf, 0.0),))),
        (disc, pp.Disc((0.25, -0.5), 0.75)),
        # The normal is normalized, and the offset with it.
        (plane, pp.HalfPlane((0.6, 0.8), 0.2)),
        ({"type": "complement", "inner": disc}, pp.Complement(pp.Disc((0.25, -0.5), 0.75))),
        ({"type": "union", "parts": [disc, plane]},
         pp.Union((pp.Disc((0.25, -0.5), 0.75), pp.HalfPlane((3.0, 4.0), 1.0)))),
        ({"type": "intersection", "parts": [disc]},
         pp.Intersection((pp.Disc((0.25, -0.5), 0.75),))),
        ({"type": "full_space"}, pp.FullSpace()),
        ({"type": "empty_space"}, pp.EmptySpace()),
    ]
    for data, region in cases:
        assert pp.region_from_dict(data) == region
    half_plane = pp.region_from_dict(plane)
    assert half_plane.normal == (0.6, 0.8) and half_plane.offset == 0.2


def test_rasterize_counts():
    dom = pp.Domain.box(-1.0, 1.0, 64)
    mask = pp.rasterize(pp.Disc((0.0, 0.0), 0.5), dom)
    frac = np.sum(mask) / mask.size
    assert frac == pytest.approx(math.pi * 0.25 / 4.0, rel=0.05)


def test_exact_perimeter_1d():
    dom = pp.Domain.interval(-1.0, 1.0, 64)
    assert pp.exact_perimeter(pp.IntervalUnion(((-0.5, 0.5),)), dom) == 2.0
    # endpoint on or outside the boundary does not count
    assert pp.exact_perimeter(pp.IntervalUnion(((-1.0, 0.5),)), dom) == 1.0
    assert pp.exact_perimeter(pp.IntervalUnion(((0.0, np.inf),)), dom) == 1.0
    assert pp.exact_perimeter(pp.IntervalUnion(((-np.inf, np.inf),)), dom) == 0.0
    assert (
        pp.exact_perimeter(pp.IntervalUnion(((-0.75, -0.25), (0.25, 0.75))), dom)
        == 4.0
    )


def circle_arc_oracle(center, r, inside, samples=2_000_000):
    """Arc length of the circle portion where inside(x, y) holds."""
    theta = (np.arange(samples) + 0.5) * (2.0 * math.pi / samples)
    x = center[0] + r * np.cos(theta)
    y = center[1] + r * np.sin(theta)
    return 2.0 * math.pi * r * np.mean(inside(x, y))


def test_disc_perimeter_in_ball_oracle():
    dom = pp.Domain.ball(1.0, 16)

    def inside(x, y):
        return np.hypot(x, y) < 1.0

    # concentric
    assert pp.exact_perimeter(pp.Disc((0.0, 0.0), 0.5), dom) == pytest.approx(
        math.pi, rel=1e-14
    )
    # off-center, boundary crossing the domain sphere
    for center, r in (((0.6, 0.0), 0.5), ((0.3, 0.4), 0.6), ((0.9, 0.0), 0.35)):
        exact = pp.exact_perimeter(pp.Disc(center, r), dom)
        oracle = circle_arc_oracle(center, r, inside)
        assert exact == pytest.approx(oracle, abs=3e-5)
    # fully inside and fully outside
    assert pp.exact_perimeter(pp.Disc((0.0, 0.0), 0.2), dom) == pytest.approx(
        0.4 * math.pi
    )
    assert pp.exact_perimeter(pp.Disc((5.0, 0.0), 0.5), dom) == 0.0
    # domain ball strictly inside the disc: no boundary inside
    assert pp.exact_perimeter(pp.Disc((0.0, 0.0), 3.0), dom) == 0.0


def test_disc_perimeter_in_box():
    dom = pp.Domain.box(-1.0, 1.0, 16)
    assert pp.exact_perimeter(pp.Disc((0.1, -0.2), 0.5), dom) == pytest.approx(
        math.pi, rel=1e-14
    )
    assert pp.exact_perimeter(pp.Disc((8.0, 0.0), 0.5), dom) == 0.0
    assert pp.exact_perimeter(pp.Disc((0.0, 0.0), 5.0), dom) == 0.0
    with pytest.raises(UnsupportedRegionError):
        pp.exact_perimeter(pp.Disc((0.9, 0.0), 0.5), dom)


def segment_length_oracle(normal, offset, inside, span=10.0, samples=2_000_000):
    """Length of the line normal . x = offset where inside holds."""
    nx, ny = normal
    norm = math.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    base = (offset / norm * nx, offset / norm * ny)
    t = (np.arange(samples) + 0.5) / samples * 2.0 * span - span
    x = base[0] - ny * t
    y = base[1] + nx * t
    return 2.0 * span * np.mean(inside(x, y))


def test_half_plane_perimeter_in_ball():
    dom = pp.Domain.ball(1.0, 16)
    # through the center: a full diameter
    assert pp.exact_perimeter(pp.HalfPlane((1.0, 0.0), 0.0), dom) == pytest.approx(2.0)
    # chord at distance d: length 2 sqrt(1 - d^2)
    assert pp.exact_perimeter(pp.HalfPlane((1.0, 0.0), 0.6), dom) == pytest.approx(
        2.0 * math.sqrt(1.0 - 0.36), rel=1e-14
    )
    assert pp.exact_perimeter(pp.HalfPlane((0.0, 1.0), 1.5), dom) == 0.0


def test_half_plane_perimeter_in_box():
    dom = pp.Domain.box(-1.0, 1.0, 16)

    def inside(x, y):
        return (np.abs(x) < 1.0) & (np.abs(y) < 1.0)

    for normal, offset in (
        ((1.0, 0.0), 0.25),
        ((0.6, 0.8), 0.1),
        ((1.0, 1.0), 0.0),
        ((-0.3, 0.95), -0.4),
    ):
        exact = pp.exact_perimeter(pp.HalfPlane(normal, offset), dom)
        oracle = segment_length_oracle(normal, offset, inside)
        assert exact == pytest.approx(oracle, abs=3e-5)
    assert pp.exact_perimeter(pp.HalfPlane((1.0, 0.0), 9.0), dom) == 0.0


def test_exact_perimeter_unsupported_compositions():
    dom = pp.Domain.box(-1.0, 1.0, 16)
    with pytest.raises(UnsupportedRegionError):
        pp.exact_perimeter(
            pp.Union((pp.Disc((0.0, 0.0), 0.3), pp.Disc((0.5, 0.0), 0.3))), dom
        )
    with pytest.raises(UnsupportedRegionError):
        pp.exact_perimeter(
            pp.Intersection((pp.Disc((0.0, 0.0), 0.5), pp.HalfPlane((1.0, 0.0), 0.0))),
            dom,
        )


def test_complement_perimeter_matches():
    dom = pp.Domain.box(-1.0, 1.0, 16)
    disc = pp.Disc((0.1, 0.1), 0.4)
    assert pp.exact_perimeter(pp.Complement(disc), dom) == pp.exact_perimeter(
        disc, dom
    )


def test_interface_length_1d():
    dom = pp.Domain.interval(-1.0, 1.0, 256)
    v = np.sin(3.0 * np.pi * dom.nodes_x)
    assert pp.interface_length(v, dom) == 5.0
    assert pp.interface_length(np.ones(dom.node_shape), dom) == 0.0
    assert pp.interface_length(v >= 0.0, dom) == 5.0


def test_interface_length_disc_converges_second_order():
    disc = pp.Disc((0.0, 0.0), 0.5)
    errors = []
    for n, tol in ((256, 2e-5), (512, 5e-6), (1024, 1.5e-6)):
        dom = pp.Domain.box(-1.0, 1.0, n)
        sd = disc.signed_distance(dom.nodes_x, dom.nodes_y)
        length = pp.interface_length(sd, dom)
        rel = abs(length - math.pi) / math.pi
        assert rel <= tol
        errors.append(rel)
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_interface_length_half_plane_exact():
    hp = pp.HalfPlane((0.6, 0.8), 0.1)
    dom = pp.Domain.box(-1.0, 1.0, 256)
    sd = hp.signed_distance(dom.nodes_x, dom.nodes_y)
    assert pp.interface_length(sd, dom) == pytest.approx(
        pp.exact_perimeter(hp, dom), rel=1e-12
    )


def test_interface_length_boolean_overestimates():
    # midpoint crossings turn smooth circles into staircases; the known
    # systematic overestimate is a few percent
    disc = pp.Disc((0.0, 0.0), 0.5)
    dom = pp.Domain.box(-1.0, 1.0, 1024)
    sd = disc.signed_distance(dom.nodes_x, dom.nodes_y)
    length = pp.interface_length(sd >= 0.0, dom)
    rel = (length - math.pi) / math.pi
    assert 0.04 <= rel <= 0.07


def test_interface_length_ball_domain():
    disc = pp.Disc((0.0, 0.0), 0.5)
    dom = pp.Domain.ball(1.0, 512)
    sd = disc.signed_distance(dom.nodes_x, dom.nodes_y)
    length = pp.interface_length(sd, dom)
    assert abs(length - math.pi) / math.pi <= 5e-6


def test_region_cell_fraction_grid_aligned():
    dom = pp.Domain.box(-1.0, 1.0, 8)
    frac = region_cell_fraction(pp.HalfPlane((1.0, 0.0), 0.0), dom)
    # the boundary lies on a grid line, so fractions are exactly 0 or 1
    assert set(np.unique(frac)) == {0.0, 1.0}
    assert np.sum(frac) * dom.h * dom.h == pytest.approx(2.0, rel=1e-14)


def test_region_cell_fraction_area():
    dom = pp.Domain.box(-1.0, 1.0, 256)
    frac = region_cell_fraction(pp.Disc((0.0, 0.0), 0.5), dom)
    area = float(np.sum(frac)) * dom.h * dom.h
    assert area == pytest.approx(math.pi * 0.25, rel=2e-4)


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_full_and_empty_space_cell_fractions_are_exact(kind):
    # +/- inf signed distances clip to exactly 1 and 0, with no warning
    dom = pp.Domain.box(-1.0, 1.0, 16) if kind == "box" else pp.Domain.ball(1.0, 16, (0.25, -0.5))
    cases = ((pp.FullSpace(), 1.0), (pp.EmptySpace(), 0.0), (pp.Complement(pp.FullSpace()), 0.0))
    for region, value in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frac = region_cell_fraction(region, dom)
        assert frac.shape == dom.cell_weights.shape
        assert np.all(frac == value), region


_GRID_MAKERS = [
    lambda: pp.Domain.interval(-1.0, 2.0, 16),
    lambda: pp.Domain.box(-1.0, 1.0, 16),
    lambda: pp.Domain.ball(1.0, 16, (0.25, -0.5)),
]


def meshgrid_nodes(dom):
    """The node coordinates as full meshgrid arrays."""
    axes = (dom.axis_x,) if dom.dim == 1 else (dom.axis_x, dom.axis_y)
    return np.meshgrid(*axes, indexing="ij")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("make", _GRID_MAKERS)
def test_grid_coordinates_have_the_meshgrid_bits(make):
    dom = make()
    mesh = meshgrid_nodes(dom)
    nodes = (dom.nodes_x,) if dom.dim == 1 else (dom.nodes_x, dom.nodes_y)
    assert len(nodes) == len(mesh)
    for got, want in zip(nodes, mesh):
        assert same_bits(got, want)
    if dom.dim == 1:
        assert dom.nodes_y is None and dom.cell_y is None
        assert same_bits(dom.cell_x, 0.5 * (mesh[0][:-1] + mesh[0][1:]))
        return
    mx, my = mesh
    assert same_bits(dom.cell_x, 0.5 * (mx[:-1, :-1] + mx[1:, :-1]))
    assert same_bits(dom.cell_y, 0.5 * (my[:-1, :-1] + my[:-1, 1:]))
    # zero-stride read-only views: the grid stores only the axes and midpoints
    for view in (dom.nodes_x, dom.nodes_y, dom.cell_x, dom.cell_y):
        assert 0 in view.strides and not view.flags.writeable
    full = dom.nodes_x.copy()
    assert full.flags.writeable and full.flags.c_contiguous and same_bits(full, mx)


@pytest.mark.parametrize("make", _GRID_MAKERS)
def test_cell_weights_are_a_view_of_the_node_weights(make):
    # the grid stores its weights once: the node weights are the cell
    # weights padded with a zero last row and column (last entry in 1D)
    dom = make()
    cell = (slice(None, -1),) * dom.dim
    assert np.shares_memory(dom.cell_weights, dom.node_weights)
    assert same_bits(dom.cell_weights, dom.node_weights[cell])
    assert dom.cell_weights.shape == (dom.n,) * dom.dim
    edge = np.ones(dom.node_shape, dtype=bool)
    edge[cell] = False
    assert not np.any(dom.node_weights[edge])


_REGIONS_2D = {
    "disc": pp.Disc((0.1, -0.2), 0.5),
    "half_plane": pp.HalfPlane((1.0, 2.0), 0.3),
    "union": pp.Union((pp.Disc((0.0, 0.1), 0.4),)),
    "intersection": pp.Intersection((pp.HalfPlane((0.0, 1.0), -0.2),)),
    "complement": pp.Complement(pp.Disc((-0.2, 0.0), 0.3)),
    "full_space": pp.FullSpace(),
    "empty_space": pp.EmptySpace(),
}


@pytest.mark.parametrize("make", _GRID_MAKERS[1:])
@pytest.mark.parametrize("name", list(_REGIONS_2D))
def test_regions_on_coordinate_views_match_meshgrid_arrays(make, name):
    dom, region = make(), _REGIONS_2D[name]
    mx, my = meshgrid_nodes(dom)
    want = np.asarray(region.signed_distance(mx, my), dtype=float)
    sd = region.signed_distance(dom.nodes_x, dom.nodes_y)
    assert np.shape(sd) == dom.node_shape
    assert same_bits(sd, want)
    mask = pp.rasterize(region, dom)
    assert same_bits(mask, want >= 0.0)
    pair = pp.SharpPair(pp.ScalarField(dom, np.where(mask, 0.5, -0.5)), region=region)
    assert same_bits(pair.node_sd, want)
    assert same_bits(pair.node_mask(), mask)


# Hand-computed marching-squares lengths on one cell with +/-1 corners: a
# corner cut joins two adjacent edge midpoints (sqrt(2)/2), a straight cut
# joins opposite midpoints (1), and a saddle makes two corner cuts.
# Case bits: 1 = (0,0), 2 = (1,0), 4 = (1,1), 8 = (0,1) set when >= 0.
_CORNER = math.sqrt(2.0) / 2.0
_MS_EXPECTED = {
    0: 0.0, 1: _CORNER, 2: _CORNER, 3: 1.0, 4: _CORNER, 5: 2 * _CORNER,
    6: 1.0, 7: _CORNER, 8: _CORNER, 9: 1.0, 10: 2 * _CORNER, 11: _CORNER,
    12: 1.0, 13: _CORNER, 14: _CORNER, 15: 0.0,
}


def _one_cell(v00, v10, v11, v01):
    """Lengths of the cell anchored at node (0, 0) of a 3 x 3 grid, h = 1."""
    from perimeter_phase.geometry import per_cell_interface_lengths

    dom = pp.Domain.box(0.0, 2.0, 2)
    vals = np.full(dom.node_shape, -1.0)
    vals[0, 0], vals[1, 0], vals[1, 1], vals[0, 1] = v00, v10, v11, v01
    return per_cell_interface_lengths(vals, dom)[0, 0]


@pytest.mark.parametrize("case", range(16))
def test_marching_squares_cases_with_unit_corners(case):
    corners = [1.0 if case & bit else -1.0 for bit in (1, 2, 4, 8)]
    assert _one_cell(*corners) == pytest.approx(_MS_EXPECTED[case], rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "corners, expected",
    [
        # case 5, average +1: the inside corners connect, so the cuts are
        # 1/4 of each edge around the outside corners (1,0) and (0,1); the
        # other resolution would cut 3/4 of each edge, 1.5 sqrt(2) in all.
        ((3.0, -1.0, 3.0, -1.0), 0.5 * math.sqrt(2.0)),
        # case 5, average -1: the inside corners are cut off instead.
        ((1.0, -3.0, 1.0, -3.0), 0.5 * math.sqrt(2.0)),
        # case 10, average +1: the inside corners (1,0) and (0,1) connect.
        ((-1.0, 3.0, -1.0, 3.0), 0.5 * math.sqrt(2.0)),
        # case 10, average -1.
        ((-3.0, 1.0, -3.0, 1.0), 0.5 * math.sqrt(2.0)),
        # Unequal inside corners: two 1/4-by-1/3 cuts, 5/12 each.  The other
        # resolution would give (3/4 + 2/3) sqrt(2).
        ((3.0, -1.0, 2.0, -1.0), 5.0 / 6.0),
    ],
)
def test_marching_squares_saddles_follow_the_cell_average(corners, expected):
    assert _one_cell(*corners) == pytest.approx(expected, rel=1e-14)


def _reference_cell_length(v00, v10, v11, v01):
    """One cell of marching squares written out per case, as a scalar loop."""

    def crossing(a, b):
        return min(max(a / (a - b), 0.0), 1.0) if a != b else 0.5

    points = {
        "B": (crossing(v00, v10), 0.0),
        "R": (1.0, crossing(v10, v11)),
        "T": (crossing(v01, v11), 1.0),
        "L": (0.0, crossing(v00, v01)),
    }
    case = sum(bit for bit, v in zip((1, 2, 4, 8), (v00, v10, v11, v01)) if v >= 0.0)
    segments = {
        1: "LB", 2: "BR", 3: "LR", 4: "RT", 6: "BT", 7: "TL",
        8: "TL", 9: "BT", 11: "RT", 12: "LR", 13: "BR", 14: "LB",
    }
    if case in (5, 10):
        joined = 0.25 * (v00 + v10 + v11 + v01) >= 0.0
        # A saddle cuts off the corners whose sign differs from the average.
        pairs = ("BR", "TL") if joined == (case == 5) else ("LB", "RT")
    else:
        pairs = (segments[case],) if case in segments else ()
    return sum(
        math.hypot(points[a][0] - points[b][0], points[a][1] - points[b][1]) for a, b in pairs
    )


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_marching_squares_matches_scalar_reference(kind):
    from perimeter_phase.geometry import per_cell_interface_lengths

    dom = pp.Domain.box(-1.0, 1.0, 24) if kind == "box" else pp.Domain.ball(1.0, 24)
    vals = np.random.default_rng(17).standard_normal(dom.node_shape)
    vals[3, 4] = vals[4, 4] = 0.0  # exact zeros sit inside
    got = per_cell_interface_lengths(vals, dom)
    for i in range(dom.n):
        for j in range(dom.n):
            corners = (vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1])
            expect = _reference_cell_length(*corners)
            if kind == "ball" and dom.cell_weights[i, j] < 0.5 * dom.h * dom.h:
                expect = 0.0
            assert got[i, j] == pytest.approx(expect, rel=1e-13, abs=1e-15)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["interval", "box", "ball"]),
    n=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
)
def test_mask_and_its_unit_image_give_the_same_cell_lengths(kind, n, seed, density):
    from perimeter_phase.geometry import per_cell_interface_lengths

    dom = pp.Domain.ball(1.0, n) if kind == "ball" else pp.Domain(kind=kind, n=n)
    mask = np.random.default_rng(seed).random(dom.node_shape) < density
    from_mask = per_cell_interface_lengths(mask, dom)
    from_image = per_cell_interface_lengths(np.where(mask, 1.0, -1.0), dom)
    assert from_mask.tobytes() == from_image.tobytes()
