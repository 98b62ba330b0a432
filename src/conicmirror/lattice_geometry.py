"""Exact lattice polygon machinery.

Points live in M = Z^2, covectors in the dual N = Z^2; the pairing is the dot
product. A heighted polygon is a finite point set A together with exact rational
heights nu; the induced regular (coherent) triangulation is the projection of
the lower convex hull of the lifted points (m, nu(m)).

All geometry in this module is exact: integer cross products and Fraction
arithmetic; no floating point.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DegeneratePolygon, InconsistentInput, NonTriangularCell

Point = tuple[int, int]
Covector = tuple[int, int]
RationalLike = Union[int, str, Fraction]


# ---------------------------------------------------------------------------
# vector helpers


def vsub(a: Sequence, b: Sequence) -> tuple:
    return (a[0] - b[0], a[1] - b[1])


def pairing(n: Sequence, m: Sequence):
    """<n, m> = n1*m1 + n2*m2."""
    return n[0] * m[0] + n[1] * m[1]


def perp(v: Sequence) -> tuple:
    """Fixed global convention: (a, b)^perp = (-b, a)."""
    return (-v[1], v[0])


def cross(a: Sequence, b: Sequence):
    return a[0] * b[1] - a[1] * b[0]


def orient(o: Sequence, a: Sequence, b: Sequence):
    """Sign of the doubled signed area of triangle (o, a, b)."""
    return cross(vsub(a, o), vsub(b, o))


def gcd2(a: int, b: int) -> int:
    return math.gcd(abs(a), abs(b))


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primitivize(v: Covector) -> Covector:
    g = gcd2(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return (v[0] // g, v[1] // g)


# Largest decimal exponent of a rational string, Python's limit on the digits
# of an integer string: Fraction("1e999999999") would build 10**999999999.
MAX_DECIMAL_EXPONENT = 4300


def as_fraction(x: RationalLike) -> Fraction:
    """Exact rational from int, Fraction, or a string ("p/q" or decimal).

    Raises ValueError for a decimal exponent beyond MAX_DECIMAL_EXPONENT.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a rational height")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2]
        # an exponent that is not an integer makes Fraction reject x itself
        if exponent.strip().lstrip("+-").replace("_", "").isdigit():
            if abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"decimal exponent of {x!r} exceeds {MAX_DECIMAL_EXPONENT}")
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


# ---------------------------------------------------------------------------
# convex hull (exact, integers)


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Vertices of the convex hull in counterclockwise order.

    Andrew's monotone chain on integer coordinates; collinear boundary points
    are dropped, so the result lists extreme points only.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # all points collinear
        return [pts[0], pts[-1]]
    return hull


def hull_doubled_area(points: Iterable[Point]) -> int:
    return _doubled_area_of_hull(convex_hull(points))


def _doubled_area_of_hull(hull: Sequence[Point]) -> int:
    if len(hull) < 3:
        return 0
    s = 0
    for i in range(len(hull)):
        s += cross(hull[i], hull[(i + 1) % len(hull)])
    return abs(s)


# ---------------------------------------------------------------------------
# heighted polygons


@dataclass(frozen=True)
class HeightedPolygon:
    """A finite set A of distinct lattice points with exact rational heights nu.

    Points are stored as an ordered tuple; all ids elsewhere in the package are
    indices into it. Heights are parallel to points. The hull may be degenerate
    at construction time; operations that need a 2-dimensional polygon raise
    DegeneratePolygon.
    """

    points: tuple[Point, ...]
    heights: tuple[Fraction, ...]

    def __post_init__(self):
        pts = tuple((int(p[0]), int(p[1])) for p in self.points)
        hts = tuple(h if type(h) is Fraction else as_fraction(h) for h in self.heights)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if len(hts) != len(pts):
            raise ValueError("heights must be parallel to points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "heights", hts)
        # point -> id; not a field, so equality, hashing and repr ignore it
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})

    @classmethod
    def create(
        cls,
        points: Iterable[Sequence[int]],
        heights: Union[Sequence[RationalLike], RationalLike] = 0,
    ) -> "HeightedPolygon":
        """A polygon from any point pairs and one height for all points or one
        per point; __post_init__ converts both, once."""
        pts = tuple(points)
        if isinstance(heights, (int, str, Fraction)):
            hts = (as_fraction(heights),) * len(pts)
        else:
            hts = tuple(heights)
        return cls(points=pts, heights=hts)

    def height(self, point: Sequence[int]) -> Fraction:
        p = (int(point[0]), int(point[1]))
        try:
            return self.heights[self._index[p]]
        except KeyError:
            raise KeyError(f"point {p} not in A") from None

    def index_of(self, point: Sequence[int]) -> int:
        p = (int(point[0]), int(point[1]))
        try:
            return self._index[p]
        except KeyError:
            raise ValueError(f"point {p} not in A") from None

    @property
    def is_full_dimensional(self) -> bool:
        return hull_doubled_area(self.points) > 0

    def require_full_dimensional(self) -> None:
        if not self.is_full_dimensional:
            raise DegeneratePolygon(
                f"convex hull of {len(self.points)} points is not 2-dimensional"
            )

    def hull(self) -> list[Point]:
        return convex_hull(self.points)


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True)
class Edge:
    """An edge of a triangulation: vertex ids, interior flag, adjacent cell ids."""

    v: tuple[int, int]
    interior: bool
    cells: tuple[int, ...]


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of conv(A) using points of A.

    cells are sorted triples of indices into points; edges carry their 1 or 2
    adjacent cell ids (indices into cells). vertices_used lists the point ids
    that appear in some cell; input points may be unused (lifted above the
    lower hull).
    """

    points: tuple[Point, ...]
    cells: tuple[tuple[int, int, int], ...]
    edges: tuple[Edge, ...]
    vertices_used: tuple[int, ...]

    def interior_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.interior]

    def edge_points(self, e: Edge) -> tuple[Point, Point]:
        return (self.points[e.v[0]], self.points[e.v[1]])


def cell_doubled_area(points: Sequence[Point], cell: Sequence[int]) -> int:
    a, b, c = (points[cell[0]], points[cell[1]], points[cell[2]])
    return abs(cross(vsub(b, a), vsub(c, a)))


def build_triangulation(
    points: Sequence[Point], cells: Iterable[Sequence[int]]
) -> Triangulation:
    """Assemble and validate a Triangulation from cells given as id triples.

    Exact validation: nondegenerate cells, doubled areas summing to the doubled
    hull area, every edge shared by at most 2 cells, single-cell edges lying on
    the hull boundary, and no T-junctions (no used vertex strictly inside
    another cell's edge). Raises InconsistentInput on violation.
    """
    pts = tuple((int(p[0]), int(p[1])) for p in points)
    norm_cells = []
    for c in cells:
        ids = tuple(sorted(int(i) for i in c))
        if len(ids) != 3 or len(set(ids)) != 3:
            raise InconsistentInput(f"cell {c} is not a triple of distinct ids")
        if not all(0 <= i < len(pts) for i in ids):
            raise InconsistentInput(f"cell {c} has out-of-range ids")
        if cell_doubled_area(pts, ids) == 0:
            raise InconsistentInput(f"cell {c} is degenerate (collinear)")
        norm_cells.append(ids)
    norm_cells.sort()
    if len(set(norm_cells)) != len(norm_cells):
        raise InconsistentInput("duplicate cells")

    total = sum(cell_doubled_area(pts, c) for c in norm_cells)
    hull = convex_hull(pts)
    hull_area = _doubled_area_of_hull(hull)
    if total != hull_area:
        raise InconsistentInput(
            f"cell areas sum to {total}, hull doubled area is {hull_area}"
        )

    edge_cells: dict[tuple[int, int], list[int]] = {}
    for ci, c in enumerate(norm_cells):
        for u, v in ((c[0], c[1]), (c[0], c[2]), (c[1], c[2])):
            edge_cells.setdefault((u, v), []).append(ci)

    def on_hull_boundary(a: Point, b: Point) -> bool:
        for i in range(len(hull)):
            p, q = hull[i], hull[(i + 1) % len(hull)]
            if orient(p, q, a) == 0 and orient(p, q, b) == 0:
                lo, hi = min(p, q), max(p, q)
                if lo <= min(a, b) and max(a, b) <= hi:
                    return True
        return False

    used = sorted({i for c in norm_cells for i in c})
    edges = []
    for (u, v), adj in sorted(edge_cells.items()):
        if len(adj) > 2:
            raise InconsistentInput(f"edge {(u, v)} shared by {len(adj)} cells")
        interior = len(adj) == 2
        if not interior and not on_hull_boundary(pts[u], pts[v]):
            raise InconsistentInput(
                f"edge {(u, v)} has one adjacent cell but is not on the boundary"
            )
        # T-junction test: no used vertex strictly inside this edge; an edge
        # of lattice length 1 has no lattice point strictly inside it
        a, b = pts[u], pts[v]
        if math.gcd(b[0] - a[0], b[1] - a[1]) > 1:
            for w in used:
                if w in (u, v):
                    continue
                r = pts[w]
                if orient(a, b, r) == 0 and min(a, b) < r < max(a, b):
                    raise InconsistentInput(
                        f"vertex {w} lies strictly inside edge {(u, v)}"
                    )
        edges.append(Edge(v=(u, v), interior=interior, cells=tuple(adj)))

    return Triangulation(
        points=pts,
        cells=tuple(norm_cells),
        edges=tuple(edges),
        vertices_used=tuple(used),
    )


# ---------------------------------------------------------------------------
# lower-hull regular triangulation


def _common_denominator(heights: Iterable[Fraction]) -> int:
    lcm = 1
    for h in heights:
        lcm = lcm * h.denominator // math.gcd(lcm, h.denominator)
    return lcm


def _lift(poly: HeightedPolygon) -> list[tuple[int, int, int]]:
    """The points (x, y, L*nu) with L the common height denominator.

    Scaling every height by L > 0 keeps the lower hull, and makes every
    above / on / below test one integer 3x3 determinant.
    """
    lcm = _common_denominator(poly.heights)
    return [
        (p[0], p[1], h.numerator * (lcm // h.denominator))
        for p, h in zip(poly.points, poly.heights)
    ]


def _pivot(lifted: Sequence[tuple[int, int, int]], a: int, b: int) -> Optional[list[int]]:
    """The lower-hull face left of the lower-hull edge a -> b, or None.

    Gift-wrapping step: of the points strictly left of a -> b, the one whose
    plane through lifted a, b is lowest spans the face; the face is every
    point on that plane, in id order. None when no point lies left of a -> b,
    i.e. a -> b runs along the boundary with the polygon on its right.
    """
    ax, ay, az = lifted[a]
    ux, uy, uz = lifted[b][0] - ax, lifted[b][1] - ay, lifted[b][2] - az
    best = None
    for x, y, z in lifted:
        wx, wy, wz = x - ax, y - ay, z - az
        nz = ux * wy - uy * wx
        if nz <= 0:
            continue
        if best is None or wx * best[0] + wy * best[1] + wz * best[2] < 0:
            best = (uy * wz - uz * wy, uz * wx - ux * wz, nz)
    if best is None:
        return None
    nx, ny, nz = best
    return [
        q for q, (x, y, z) in enumerate(lifted)
        if (x - ax) * nx + (y - ay) * ny + (z - az) * nz == 0
    ]


def _first_edge(
    poly: HeightedPolygon, lifted: Sequence[tuple[int, int, int]]
) -> tuple[int, int]:
    """The lower-hull edge leaving the lexicographically smallest point along
    its ccw hull edge: minimal slope, the farthest point on a tie."""
    hull = poly.hull()
    p0, p1 = hull[0], hull[1]
    i0 = poly.index_of(p0)
    d = vsub(p1, p0)
    z0 = lifted[i0][2]
    best, best_t, best_dz = None, 0, 0
    for q, p in enumerate(poly.points):
        if q == i0 or orient(p0, p1, p) != 0:
            continue
        t = pairing(d, vsub(p, p0))
        dz = lifted[q][2] - z0
        if best is None or dz * best_t < best_dz * t or (
            dz * best_t == best_dz * t and t > best_t
        ):
            best, best_t, best_dz = q, t, dz
    return i0, best


def _first_triangle(pts: Sequence[Point], face: Sequence[int]) -> tuple[int, int, int]:
    """The lexicographically smallest non-collinear triple of a sorted face."""
    return next(
        t for t in itertools.combinations(face, 3)
        if orient(pts[t[0]], pts[t[1]], pts[t[2]]) != 0
    )


def regular_triangulation(poly: HeightedPolygon) -> Triangulation:
    """The regular triangulation induced by the heights.

    The cells are the lower faces of the lifted points (m, nu(m)), found by
    exact gift wrapping (Chand-Kapur, J. ACM 17, 1970): start from the
    lower-hull edge over the boundary at the lexicographically smallest point,
    then pivot across every edge of each face found (see _pivot) until only
    boundary edges remain. Heights are scaled to integers first, so every
    test is an integer determinant. O(|A| * cells).

    A face is every point on its plane. If its hull has more than 3 vertices
    the heights are non-generic and NonTriangularCell is raised; of several
    such faces, the one holding the lexicographically smallest non-collinear
    triple is named. On-plane points inside a triangular face or on its edges
    are not vertices of the decomposition and go unused, as do points lifted
    strictly above the lower hull.
    """
    poly.require_full_dimensional()
    pts = poly.points
    lifted = _lift(poly)
    cells = []
    non_triangular = []
    # (u, v) is done once the face left of u -> v is known; todo holds the
    # edges still to pivot across
    done: set[tuple[int, int]] = set()
    todo = [_first_edge(poly, lifted)]
    while todo:
        a, b = todo.pop()
        if (a, b) in done:
            continue
        face = _pivot(lifted, a, b)
        if face is None:
            continue
        ring = [poly.index_of(p) for p in convex_hull(pts[q] for q in face)]
        for u, v in zip(ring, ring[1:] + ring[:1]):
            done.add((u, v))
            if (v, u) not in done:
                todo.append((v, u))
        if len(ring) == 3:
            cells.append(ring)
        else:
            non_triangular.append(face)
    if non_triangular:
        face = min(non_triangular, key=lambda f: _first_triangle(pts, f))
        raise NonTriangularCell(
            f"lower-hull face through points {face} "
            f"({[pts[q] for q in face]}) is not a triangle; "
            "heights are non-generic (try perturb_heights)"
        )
    return build_triangulation(pts, cells)


def is_unimodular(tri: Triangulation) -> bool:
    """True iff every cell {a,b,c} has |det(b-a, c-a)| = 1."""
    return all(cell_doubled_area(tri.points, c) == 1 for c in tri.cells)


def _fold_rows(tri: Triangulation) -> Iterator[tuple[tuple[tuple[int, int], ...], bool]]:
    """Adaptedness as integer linear forms in the heights, one at a time.

    Each item is (row, strict), row a tuple of (point id, coefficient) pairs.
    The heights nu induce tri (up to cell order) iff every row r has
    sum(c * nu[q] for q, c in r) > 0 when strict and >= 0 when not (De
    Loera-Rambau-Santos, Triangulations, 2010, ch. 2). A row says that a point
    lifts above the plane of a cell: |D| times its height minus the affine
    interpolation of the cell's vertex heights at it, D the cell's doubled
    signed area. One strict row per interior edge (the far vertex of one
    adjacent cell above the other cell: a strictly convex fold) and one weak
    row per unused point (on or above a cell that contains it). Every row
    vanishes on affine heights. The three vertex coefficients of a row are
    -|D| times the barycentric coordinates of the point, so a cell contains
    the point exactly when none of them is positive.
    """
    pts = tri.points

    def above(cell: Sequence[int], q: int) -> tuple[tuple[int, int], ...]:
        a, b, c = cell
        (ax, ay), (bx, by), (cx, cy), (qx, qy) = pts[a], pts[b], pts[c], pts[q]
        ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, qx - ax, qy - ay
        d = ux * vy - uy * vx
        cb, cc = vx * wy - vy * wx, wx * uy - wy * ux
        s = 1 if d > 0 else -1
        return ((a, -s * (cb + cc + d)), (b, s * cb), (c, s * cc), (q, s * d))

    for e in tri.edges:
        if e.interior:
            (far,) = set(tri.cells[e.cells[1]]) - set(e.v)
            yield above(tri.cells[e.cells[0]], far), True
    used = {i for c in tri.cells for i in c}
    for q in range(len(pts)):
        if q in used:
            continue
        rows = (above(c, q) for c in tri.cells)
        row = next((r for r in rows if r[0][1] <= 0 and r[1][1] <= 0 and r[2][1] <= 0), None)
        if row is None:
            yield (), True  # no cell holds q: a row that nothing satisfies
        else:
            yield row, False


def is_adapted(poly: HeightedPolygon, tri: Triangulation) -> bool:
    """True iff the heights induce exactly this triangulation (up to cell order).

    Evaluates the rows of _fold_rows on the integer-scaled heights and stops
    at the first one with the wrong sign. Integer arithmetic only;
    O(edges + unused * cells).
    """
    if tuple(tri.points) != tuple(poly.points):
        return False
    z = [p[2] for p in _lift(poly)]
    for row, strict in _fold_rows(tri):
        value = 0
        for q, c in row:
            value += c * z[q]
        if value < 0 or (strict and value == 0):
            return False
    return True


def perturb_heights(poly: HeightedPolygon, seed: int) -> HeightedPolygon:
    """Add distinct tiny rationals eps*k_i to break ties in non-generic heights.

    The perturbation scale is chosen small enough that every strict lower-hull
    comparison keeps its sign: comparison values of the unperturbed heights are
    multiples of 1/(L*D) with L the common height denominator and D a cell
    determinant bounded by 8R^2 (R = max coordinate magnitude), while the
    perturbation moves any comparison by less than eps*maxk*(2 + 16R^2).
    Deterministic for a fixed seed; genericity of the result is overwhelmingly
    likely but not guaranteed (reseed if NonTriangularCell persists).
    """
    n = len(poly.points)
    rng = random.Random(seed)
    ks = rng.sample(range(1, 16 * max(n, 2) ** 3), n)
    lcm = _common_denominator(poly.heights)
    r = max(max(abs(p[0]), abs(p[1])) for p in poly.points) or 1
    maxk = max(ks)
    eps = Fraction(1, 2 * lcm * maxk * (2 + 16 * r * r) * (8 * r * r))
    heights = tuple(h + eps * k for h, k in zip(poly.heights, ks))
    return HeightedPolygon(points=poly.points, heights=heights)
