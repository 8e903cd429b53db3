"""Grids, regions, exact perimeters, and a discrete interface length.

Domains are uniform tensor grids over an interval, a square box, or the
bounding box of a ball; nodes live at the n+1 grid lines per axis and
cells are anchored at their lower-left node.  Regions are closed sets
described by signed distance functions (positive inside), composable by
complement, union, and intersection.

Two perimeter notions coexist deliberately: ``exact_perimeter`` answers
with closed-form geometry for the supported region shapes, while
``interface_length`` measures a discrete interface from node samples by
a table-driven marching squares with linear interpolation.  Tests compare
the two.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, UnsupportedRegionError

_DOMAIN_KINDS = ("interval", "box", "ball")


def _finite(*xs) -> bool:
    """Whether each x is a number in float range: not a bool, NaN or infinite."""
    return all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max
        for x in xs
    )


# Process-wide, because a pipeline builds the same grid many times (every
# field file read back carries its domain).  Holds the read-only grid
# arrays of the last domain built, keyed by its parameters; a ball grid
# with n=512 holds about 2.4 MB (its node and cell coordinates are
# zero-stride views of the axes, its cell weights a view of its node
# weights), so a new domain replaces the cached grid.
_GRID_CACHE: dict = {}
_GRID_LOCK = threading.Lock()


@dataclass
class Domain:
    """Uniform grid over an interval, a box, or a ball's bounding box.

    n is the number of cells per axis, so each axis carries n + 1 nodes at
    lo + i * h with h = (hi - lo) / n.  For balls the grid spans the
    bounding box and cell quadrature weights are clipped by the cut
    fraction of the boundary circle; nodes on or outside the circle, and
    every node on the edge of the array, are flagged as boundary.

    Equal domains share their grid arrays (axes, nodes, cell centres,
    cell and node weights, boundary mask), and these arrays are
    read-only: writing into one raises ValueError, so copy an array
    before changing it.  In 2D the node and cell coordinates are
    full-shape zero-stride views of the axes and of their midpoints;
    ``.copy()`` gives a full array.  The cell weights are the node weights
    without their last row and column (last entry in 1D), which weigh 0:
    ``cell_weights`` is a view of ``node_weights``, strided in 2D.
    """

    kind: str
    n: int
    lo: float = -1.0
    hi: float = 1.0
    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _DOMAIN_KINDS:
            raise DomainError(f"domain.kind must be interval, box, or ball, got {self.kind!r}")
        if not (_finite(self.n) and int(self.n) == self.n >= 2):
            raise DomainError(f"domain.n must be an integer >= 2, got {self.n!r}")
        if not (isinstance(self.center, (list, tuple)) and len(self.center) == 2
                and _finite(*self.center)):
            raise DomainError(f"domain.center must be two finite numbers, got {self.center!r}")
        if self.kind == "ball":
            if not (_finite(self.radius) and self.radius > 0):
                raise DomainError(
                    f"domain.radius must be a positive finite number, got {self.radius!r}"
                )
            self.lo, self.hi = -self.radius, self.radius
        elif not (_finite(self.lo, self.hi) and self.lo < self.hi):
            raise DomainError(
                f"domain needs finite numbers lo < hi, got lo={self.lo!r}, hi={self.hi!r}"
            )
        self.n = int(self.n)
        self.center = (float(self.center[0]), float(self.center[1]))
        self.lo, self.hi, self.radius = float(self.lo), float(self.hi), float(self.radius)
        if not 0.0 < (self.hi - self.lo) / self.n < math.inf:
            raise DomainError(
                f"domain [{self.lo}, {self.hi}] has no finite positive cell width at n = {self.n}"
            )
        self._build()

    @classmethod
    def interval(cls, a: float = -1.0, b: float = 1.0, n: int = 256) -> "Domain":
        return cls(kind="interval", n=n, lo=a, hi=b)

    @classmethod
    def box(cls, lo: float = -1.0, hi: float = 1.0, n: int = 256) -> "Domain":
        return cls(kind="box", n=n, lo=lo, hi=hi)

    @classmethod
    def ball(
        cls,
        radius: float = 1.0,
        n: int = 256,
        center: Tuple[float, float] = (0.0, 0.0),
    ) -> "Domain":
        return cls(kind="ball", n=n, center=center, radius=radius)

    # Derived grid data are plain attributes, not dataclass fields, so
    # equality and repr stay parameter-based.
    def _build(self):
        key = (self.kind, self.n, self.lo, self.hi, self.center, self.radius)
        with _GRID_LOCK:
            grid = _GRID_CACHE.get(key)
            if grid is None:
                _GRID_CACHE.clear()
                grid = _GRID_CACHE[key] = _build_grid(self)
        vars(self).update(grid)

    def to_dict(self) -> dict:
        if self.kind == "ball":
            return {
                "kind": self.kind,
                "n": self.n,
                "center": list(self.center),
                "radius": self.radius,
            }
        return {"kind": self.kind, "n": self.n, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, data) -> "Domain":
        """The domain that ``to_dict`` wrote; DomainError for any other data."""
        if not isinstance(data, dict):
            raise DomainError(f"domain must be an object, got {data!r}")
        kind = data.get("kind")
        if kind not in _DOMAIN_KINDS:
            raise DomainError(f"domain.kind must be interval, box, or ball, got {kind!r}")
        required = ("n", "radius") if kind == "ball" else ("n", "lo", "hi")
        keys = required + ("center",) if kind == "ball" else required
        _check_keys(data, ("kind",) + keys, f"domain kind {kind!r}")
        for key in required:
            if key not in data:
                raise DomainError(f"missing required key 'domain.{key}'")
        return cls(kind=kind, **{key: data[key] for key in keys if key in data})


def _check_keys(data: dict, known, owner: str) -> None:
    """DomainError naming every key of data that is not in known."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise DomainError(f"unknown key {', '.join(map(repr, unknown))} for {owner}")


def _compact(a: np.ndarray) -> np.ndarray:
    """a cut to length one along each zero-stride axis, which turns a grid's
    coordinate views into its axes; the result broadcasts back to a."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides)]


def _build_grid(domain: Domain) -> dict:
    """The derived grid attributes of a domain; its arrays are read-only."""
    n = domain.n
    dim = 1 if domain.kind == "interval" else 2
    # A ball's lo and hi are -R and R, so its axes start at c - R.
    h = (domain.hi - domain.lo) / n
    if domain.kind == "ball":
        origins = [c - domain.radius for c in domain.center]
    else:
        origins = [domain.lo, domain.lo]
    xs, ys = (origin + h * np.arange(n + 1) for origin in origins)

    if dim == 1:
        node_shape = (n + 1,)
        nodes_x, nodes_y = xs, None
        cell_x, cell_y = 0.5 * (xs[:-1] + xs[1:]), None
        cell_w = h
        boundary = np.zeros(n + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        measure = domain.hi - domain.lo
    else:
        node_shape = (n + 1, n + 1)
        nodes_x = np.broadcast_to(xs[:, None], node_shape)
        nodes_y = np.broadcast_to(ys, node_shape)
        cell_x = np.broadcast_to(0.5 * (xs[:-1] + xs[1:])[:, None], (n, n))
        cell_y = np.broadcast_to(0.5 * (ys[:-1] + ys[1:]), (n, n))
        # The array edge is boundary for a ball too: rounding can put an
        # edge node where the circle touches the edge a few ulp inside it.
        boundary = np.zeros(node_shape, dtype=bool)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
        if domain.kind == "box":
            cell_w = h * h
            measure = (domain.hi - domain.lo) ** 2
        else:
            disc = Disc(domain.center, domain.radius)
            cell_w = h * h * np.clip(0.5 + disc.signed_distance(cell_x, cell_y) / h, 0.0, 1.0)
            boundary |= disc.signed_distance(nodes_x, nodes_y) <= 0.0
            measure = math.pi * domain.radius**2

    # One weight array: a cell's weight sits at its anchor node, the last
    # row and column weigh 0, and cell_weights is the view of the rest.
    node_w = np.zeros(node_shape)
    cell = (slice(None, -1),) * dim
    node_w[cell] = cell_w
    grid = {
        "dim": dim,
        "h": h,
        "measure": measure,
        "node_shape": node_shape,
        "axis_x": xs,
        "axis_y": ys if dim == 2 else None,
        "nodes_x": nodes_x,
        "nodes_y": nodes_y,
        "cell_x": cell_x,
        "cell_y": cell_y,
        "cell_weights": node_w[cell],
        "node_weights": node_w,
        "boundary_mask": boundary,
    }
    for value in grid.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return grid


def region_cell_fraction(region: "Region", domain: Domain) -> np.ndarray:
    """Fraction of each cell covered by the region, first-order accurate.

    clip(1/2 + sd(center) / h, 0, 1) per cell; exact when the region
    boundary is a grid line, within O(h) of the true fraction otherwise.
    """
    sd = np.asarray(region.signed_distance(domain.cell_x, domain.cell_y), dtype=float)
    frac = np.divide(sd, domain.h)
    frac += 0.5
    # +/- inf signed distances (full / empty space) clip to 1 and 0.
    return np.clip(frac, 0.0, 1.0, out=frac)


class Region:
    """Closed set described by a signed distance, positive inside."""

    def signed_distance(self, x, y=None):
        raise NotImplementedError


def _num_from_json(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


@dataclass(frozen=True)
class IntervalUnion(Region):
    """Union of disjoint closed intervals on the line; endpoints may be inf."""

    intervals: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        prev_b = -math.inf
        for a, b in self.intervals:
            a, b = float(a), float(b)
            if not a < b:
                raise DomainError(f"degenerate interval ({a}, {b})")
            if a < prev_b:
                raise DomainError("intervals must be disjoint and sorted")
            prev_b = b
            cleaned.append((a, b))
        object.__setattr__(self, "intervals", tuple(cleaned))

    def signed_distance(self, x, y=None):
        x = np.asarray(x, dtype=float)
        best = np.full_like(x, -math.inf)
        for a, b in self.intervals:
            left = x - a if a > -math.inf else np.full_like(x, math.inf)
            right = b - x if b < math.inf else np.full_like(x, math.inf)
            best = np.maximum(best, np.minimum(left, right))
        return best


def _plane_points(region: Region, x, y):
    """x and y as float arrays; DomainError without y, as on an interval."""
    if y is None:
        raise DomainError(f"a {type(region).__name__} region needs a 2D domain, not an interval")
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


@dataclass(frozen=True)
class Disc(Region):
    center: Tuple[float, float]
    radius: float

    def __post_init__(self):
        if not (len(self.center) == 2 and _finite(*self.center)):
            raise DomainError(f"disc center must be two finite numbers, got {self.center!r}")
        if not (_finite(self.radius) and self.radius > 0):
            raise DomainError(f"disc radius must be a positive finite number, got {self.radius!r}")
        object.__setattr__(
            self, "center", (float(self.center[0]), float(self.center[1]))
        )
        object.__setattr__(self, "radius", float(self.radius))

    def signed_distance(self, x, y=None):
        x, y = _plane_points(self, x, y)
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        np.hypot(_compact(x) - self.center[0], _compact(y) - self.center[1], out=out)
        return np.subtract(self.radius, out, out=out)


@dataclass(frozen=True)
class HalfPlane(Region):
    """Half-plane {normal . x >= offset}; the normal is unit-normalized."""

    normal: Tuple[float, float]
    offset: float

    def __post_init__(self):
        if not (len(self.normal) == 2 and _finite(*self.normal)):
            raise DomainError(f"half-plane normal must be two finite numbers, got {self.normal!r}")
        if not _finite(self.offset):
            raise DomainError(f"half-plane offset must be a finite number, got {self.offset!r}")
        nx, ny = float(self.normal[0]), float(self.normal[1])
        norm = math.hypot(nx, ny)
        if not 0.0 < norm < math.inf:
            raise DomainError(f"half-plane normal must be nonzero, got {self.normal!r}")
        object.__setattr__(self, "normal", (nx / norm, ny / norm))
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def signed_distance(self, x, y=None):
        x, y = _plane_points(self, x, y)
        return self.normal[0] * x + self.normal[1] * y - self.offset


@dataclass(frozen=True)
class Complement(Region):
    inner: Region

    def signed_distance(self, x, y=None):
        return -np.asarray(self.inner.signed_distance(x, y))


@dataclass(frozen=True)
class Union(Region):
    parts: Tuple[Region, ...]

    def __post_init__(self):
        if not self.parts:
            raise DomainError("a union needs at least one part")

    def signed_distance(self, x, y=None):
        sds = (np.asarray(p.signed_distance(x, y), dtype=float) for p in self.parts)
        return functools.reduce(np.maximum, sds)


@dataclass(frozen=True)
class Intersection(Region):
    parts: Tuple[Region, ...]

    def __post_init__(self):
        if not self.parts:
            raise DomainError("a intersection needs at least one part")

    def signed_distance(self, x, y=None):
        sds = (np.asarray(p.signed_distance(x, y), dtype=float) for p in self.parts)
        return functools.reduce(np.minimum, sds)


@dataclass(frozen=True)
class FullSpace(Region):
    def signed_distance(self, x, y=None):
        return np.full(np.shape(np.asarray(x, dtype=float)), math.inf)


@dataclass(frozen=True)
class EmptySpace(Region):
    def signed_distance(self, x, y=None):
        return np.full(np.shape(np.asarray(x, dtype=float)), -math.inf)


# Each region type's keys besides "type", all required, and its reader;
# the keys of _REGION_LISTS hold JSON arrays.
_REGION_LISTS = frozenset({"intervals", "center", "normal", "parts"})
_REGION_READERS = {
    "interval_union": (("intervals",), lambda d: IntervalUnion(
        tuple((_num_from_json(a), _num_from_json(b)) for a, b in d["intervals"]))),
    "disc": (("center", "radius"), lambda d: Disc(tuple(d["center"]), d["radius"])),
    "half_plane": (("normal", "offset"), lambda d: HalfPlane(tuple(d["normal"]), d["offset"])),
    "complement": (("inner",), lambda d: Complement(region_from_dict(d["inner"]))),
    "union": (("parts",), lambda d: Union(tuple(map(region_from_dict, d["parts"])))),
    "intersection": (("parts",), lambda d: Intersection(tuple(map(region_from_dict, d["parts"])))),
    "full_space": ((), lambda d: FullSpace()),
    "empty_space": ((), lambda d: EmptySpace()),
}


def region_from_dict(data: dict) -> Region:
    """The region a JSON object describes; DomainError for an unknown type
    or key, a missing key, or a list key that holds no list."""
    if not isinstance(data, dict):
        raise DomainError(f"a region must be an object, got {data!r}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _REGION_READERS:
        raise DomainError(f"unknown region type {kind!r}")
    keys, read = _REGION_READERS[kind]
    _check_keys(data, ("type",) + keys, f"region type {kind!r}")
    for key in keys:
        if key not in data:
            raise DomainError(f"missing required key 'region.{key}'")
        if key in _REGION_LISTS and not isinstance(data[key], (list, tuple)):
            raise DomainError(f"region.{key} must be a list, got {data[key]!r}")
    return read(data)


def rasterize(region: Region, domain: Domain) -> np.ndarray:
    """Boolean node mask of the region (sd >= 0 counts inside)."""
    return np.asarray(region.signed_distance(domain.nodes_x, domain.nodes_y)) >= 0.0


def _disc_perimeter_in_ball(disc: Disc, domain: Domain) -> float:
    big_r = domain.radius
    cx, cy = domain.center
    d = math.hypot(disc.center[0] - cx, disc.center[1] - cy)
    r = disc.radius
    if d + r <= big_r:
        return 2.0 * math.pi * r
    if d >= r + big_r or r >= d + big_r:
        return 0.0
    # Circle partially inside: arc subtended inside the domain circle.
    cos_alpha = (d * d + r * r - big_r * big_r) / (2.0 * d * r)
    cos_alpha = min(1.0, max(-1.0, cos_alpha))
    alpha = math.acos(cos_alpha)
    return 2.0 * r * alpha


def _disc_perimeter_in_box(disc: Disc, domain: Domain) -> float:
    cx, cy = disc.center
    r = disc.radius
    lo, hi = domain.lo, domain.hi
    if lo < cx - r and cx + r < hi and lo < cy - r and cy + r < hi:
        return 2.0 * math.pi * r
    # Circle entirely outside the closed box.
    qx = min(max(cx, lo), hi)
    qy = min(max(cy, lo), hi)
    if math.hypot(cx - qx, cy - qy) >= r and not (lo <= cx <= hi and lo <= cy <= hi):
        return 0.0
    # Box entirely inside the open disc: the curve never enters.
    corners = [(lo, lo), (lo, hi), (hi, lo), (hi, hi)]
    if max(math.hypot(cx - px, cy - py) for px, py in corners) < r:
        return 0.0
    raise UnsupportedRegionError(
        "disc boundary crosses the box; no closed form is provided"
    )


def _half_plane_perimeter_in_ball(hp: HalfPlane, domain: Domain) -> float:
    cx, cy = domain.center
    dist = abs(hp.normal[0] * cx + hp.normal[1] * cy - hp.offset)
    if dist >= domain.radius:
        return 0.0
    return 2.0 * math.sqrt(domain.radius**2 - dist**2)


def _half_plane_perimeter_in_box(hp: HalfPlane, domain: Domain) -> float:
    # Clip the boundary line against the open box (Liang-Barsky on a long
    # parameterized segment through the box region).
    nx, ny = hp.normal
    # Point on the line and its direction.
    px, py = nx * hp.offset, ny * hp.offset
    dx, dy = -ny, nx
    lo, hi = domain.lo, domain.hi
    t0, t1 = -math.inf, math.inf
    # Solve lo <= px + t*dx <= hi and same for y.
    for pos, direction in ((px, dx), (py, dy)):
        if direction == 0.0:
            if not (lo <= pos <= hi):
                return 0.0
            continue
        ta = (lo - pos) / direction
        tb = (hi - pos) / direction
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
    if t1 <= t0:
        return 0.0
    return (t1 - t0) * math.hypot(dx, dy)


def exact_perimeter(region: Region, domain: Domain) -> float:
    """Length of the region boundary inside the open domain, closed form.

    Supported: interval unions in 1D, discs and half-planes in 2D, and
    complements of anything supported.  Unions and intersections have no
    general closed form here and raise.
    """
    if isinstance(region, (FullSpace, EmptySpace)):
        return 0.0
    if isinstance(region, Complement):
        return exact_perimeter(region.inner, domain)
    if domain.dim == 1:
        if isinstance(region, IntervalUnion):
            count = 0
            for a, b in region.intervals:
                for endpoint in (a, b):
                    if math.isfinite(endpoint) and domain.lo < endpoint < domain.hi:
                        count += 1
            return float(count)
        raise UnsupportedRegionError(
            f"no exact perimeter for {type(region).__name__} on an interval"
        )
    if isinstance(region, Disc):
        if domain.kind == "ball":
            return _disc_perimeter_in_ball(region, domain)
        return _disc_perimeter_in_box(region, domain)
    if isinstance(region, HalfPlane):
        if domain.kind == "ball":
            return _half_plane_perimeter_in_ball(region, domain)
        return _half_plane_perimeter_in_box(region, domain)
    raise UnsupportedRegionError(
        f"no exact perimeter for {type(region).__name__} in 2D"
    )


# Marching-squares case table in the manner of Lorensen & Cline (1987).
# A cell's case sets bit 1 for corner (0,0), 2 for (1,0), 4 for (1,1) and
# 8 for (0,1) when that corner value is >= 0.  Each row lists the case's
# two segments as pairs of edges (bottom, right, top, left); an unused
# segment joins an edge to itself and has length zero.  Rows 5 and 10 are
# the saddles with a negative cell average, which cut off the inside
# corners; a saddle with a nonnegative average joins its inside corners
# and so takes the row of the opposite saddle, 15 - case.
_B, _R, _T, _L = range(4)
_NONE = (_B, _B)
_MS_TABLE = np.array(
    [
        (_NONE, _NONE),  # 0
        ((_L, _B), _NONE),  # 1
        ((_B, _R), _NONE),  # 2
        ((_L, _R), _NONE),  # 3
        ((_R, _T), _NONE),  # 4
        ((_L, _B), (_R, _T)),  # 5
        ((_B, _T), _NONE),  # 6
        ((_T, _L), _NONE),  # 7
        ((_T, _L), _NONE),  # 8
        ((_B, _T), _NONE),  # 9
        ((_B, _R), (_T, _L)),  # 10
        ((_R, _T), _NONE),  # 11
        ((_L, _R), _NONE),  # 12
        ((_B, _R), _NONE),  # 13
        ((_L, _B), _NONE),  # 14
        (_NONE, _NONE),  # 15
    ]
)


def _crossing(a, b):
    """Linear zero crossing along an edge from value a to value b, in [0, 1]."""
    denom = a - b
    t = np.where(denom != 0.0, a / np.where(denom == 0.0, 1.0, denom), 0.5)
    return np.clip(t, 0.0, 1.0)


def per_cell_interface_lengths(values: np.ndarray, domain: Domain) -> np.ndarray:
    """Interface length of {values >= 0} per cell, in units of a cell facet.

    Boolean input is mapped to +/- 1.  In 1D a cell counts 1 where the
    sign changes across it.  In 2D marching squares joins linearly
    interpolated edge crossings, in units of the cell side h, and saddle
    cells are split according to the sign of the cell average.  On ball
    domains only cells at least half covered by the domain count.
    """
    mask = values.dtype == bool
    if not mask:
        values = np.asarray(values, dtype=float)
    inside = values if mask else values >= 0.0
    if domain.dim == 1:
        return (inside[:-1] != inside[1:]).astype(float)

    # Case codes from the corners' sign bits, one byte per cell; corner
    # values are gathered on the cut cells only.
    bits = inside.view(np.uint8)
    case = bits[:-1, :-1] | bits[1:, :-1] << 1
    case |= bits[1:, 1:] << 2
    case |= bits[:-1, 1:] << 3
    del inside, bits
    cut = (case != 0) & (case != 15)
    if domain.kind == "ball":
        cut &= domain.cell_weights >= 0.5 * domain.h * domain.h
    corners = (values[:-1, :-1], values[1:, :-1], values[1:, 1:], values[:-1, 1:])
    if mask:
        v00, v10, v11, v01 = (np.where(c[cut], 1.0, -1.0) for c in corners)
    else:
        v00, v10, v11, v01 = (c[cut] for c in corners)
    case = case[cut]
    avg = 0.25 * (v00 + v10 + v11 + v01)
    saddle = (case == 5) | (case == 10)
    case = np.where(saddle & (avg >= 0.0), 15 - case, case)

    tb, tr = _crossing(v00, v10), _crossing(v10, v11)
    tt, tl = _crossing(v01, v11), _crossing(v00, v01)
    zero, one = np.zeros_like(tb), np.ones_like(tb)
    xs = np.stack((tb, one, tt, zero))
    ys = np.stack((zero, tr, one, tl))
    ends = _MS_TABLE[case]
    cells = np.arange(case.size)[:, None]
    lengths = np.hypot(
        xs[ends[..., 0], cells] - xs[ends[..., 1], cells],
        ys[ends[..., 0], cells] - ys[ends[..., 1], cells],
    )
    total = np.zeros(cut.shape)
    total[cut] = lengths[:, 0] + lengths[:, 1]
    return total


def interface_length(values: np.ndarray, domain: Domain) -> float:
    """Discrete interface length of {values >= 0} from node samples.

    Boolean input is mapped to +/- 1, which places every crossing at edge
    midpoints; float input (a level-set sample) gives linearly interpolated
    crossings, first-order accurate for smooth interfaces.  In 1D this is
    the sign-change count.  On ball domains only cells at least half
    covered by the domain contribute.
    """
    values = np.asarray(values)
    if values.shape != domain.node_shape:
        raise DomainError(
            f"values shape {values.shape} does not match grid {domain.node_shape}"
        )
    total = np.sum(per_cell_interface_lengths(values, domain))
    return float(total * domain.h if domain.dim == 2 else total)
