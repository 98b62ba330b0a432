"""Lower-hull triangulations, adaptedness, unimodularity.

Frozen expected values were derived with an independent qhull-based 3d lower
hull oracle (scripts/oracle_lower_hull.py); the library implementation is
exact gift wrapping over the lifted points, so agreement is a genuine
dual-route check. Two oracles run here directly: qhull, and the exact
brute-force triple scan below, which also fixes which face a
NonTriangularCell names and its message to the byte.
"""

import importlib.util
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicmirror.errors import DegeneratePolygon, InconsistentInput, NonTriangularCell
from conicmirror.lattice_geometry import (
    HeightedPolygon,
    _fold_rows,
    build_triangulation,
    cell_doubled_area,
    convex_hull,
    cross,
    hull_doubled_area,
    is_adapted,
    is_unimodular,
    orient,
    perturb_heights,
    regular_triangulation,
    vsub,
)
from conicmirror.tropical_curves import tropical_curve

from conftest import FOUR_HEIGHTS, FOUR_POINTS, PARABOLOID_POINTS


def test_single_triangle_any_heights(simplex_tri):
    assert simplex_tri.cells == ((0, 1, 2),)
    assert all(not e.interior for e in simplex_tri.edges)
    tilted = HeightedPolygon.create(((0, 0), (1, 0), (0, 1)), [1, 2, 3])
    assert regular_triangulation(tilted).cells == ((0, 1, 2),)


def test_four_point_star(four_point_tri):
    # frozen: qhull oracle gives the 3-cell star around (0,0)
    assert four_point_tri.cells == ((0, 1, 2), (0, 1, 3), (0, 2, 3))
    interior = [e.v for e in four_point_tri.interior_edges()]
    boundary = [e.v for e in four_point_tri.edges if not e.interior]
    assert interior == [(0, 1), (0, 2), (0, 3)]
    assert boundary == [(1, 2), (1, 3), (2, 3)]
    assert four_point_tri.vertices_used == (0, 1, 2, 3)
    assert is_unimodular(four_point_tri)


def test_four_point_positive_height_drops_origin(four_point_tri):
    poly = HeightedPolygon.create(FOUR_POINTS, [Fraction(1, 4), 0, 0, 0])
    tri = regular_triangulation(poly)
    assert tri.cells == ((1, 2, 3),)
    assert tri.vertices_used == (1, 2, 3)
    assert not is_unimodular(tri)  # doubled area 3
    assert not is_adapted(poly, four_point_tri)


def test_paraboloid_euclidean_heights_are_non_generic():
    # (0,0),(1,0),(1,1),(0,1) are cocircular: quadrilateral lower face
    poly = HeightedPolygon.create(
        PARABOLOID_POINTS, [x * x + y * y for x, y in PARABOLOID_POINTS]
    )
    with pytest.raises(NonTriangularCell) as err:
        regular_triangulation(poly)
    assert "[0, 3, 4, 5]" in str(err.value)


def test_paraboloid_perturbed_gives_four_unimodular_cells():
    poly = HeightedPolygon.create(
        PARABOLOID_POINTS, [x * x + y * y for x, y in PARABOLOID_POINTS]
    )
    tri = regular_triangulation(perturb_heights(poly, seed=7))
    assert len(tri.cells) == 4
    assert is_unimodular(tri)


def test_paraboloid_sup_norm_heights_frozen_cells():
    # frozen from the qhull oracle
    poly = HeightedPolygon.create(
        PARABOLOID_POINTS, [max(abs(x), abs(y)) ** 2 for x, y in PARABOLOID_POINTS]
    )
    tri = regular_triangulation(poly)
    assert tri.cells == ((0, 3, 4), (0, 3, 5), (1, 3, 4), (2, 3, 5))
    assert is_unimodular(tri)


def test_unimodularity_det_two_cell():
    tri = build_triangulation([(0, 0), (2, 0), (0, 1)], [(0, 1, 2)])
    assert not is_unimodular(tri)


def test_degenerate_polygon():
    poly = HeightedPolygon.create([(0, 0), (1, 0), (2, 0)], 0)
    assert not poly.is_full_dimensional
    with pytest.raises(DegeneratePolygon):
        regular_triangulation(poly)


def test_area_bookkeeping(four_point_tri):
    total = sum(
        cell_doubled_area(four_point_tri.points, c) for c in four_point_tri.cells
    )
    assert total == hull_doubled_area(four_point_tri.points) == 3


def test_unimodular_cell_count_equals_doubled_area():
    # unimodular triangulations of the same polygon all have 2*area(hull)
    # cells; strictly convex (paraboloid) base heights keep every lattice
    # point on the lower hull while the perturbation picks the diagonals
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    base = HeightedPolygon.create(pts, [x * x + y * y for x, y in pts])
    counts = set()
    cell_sets = set()
    for seed in (1, 2, 3, 11, 29):
        tri = regular_triangulation(perturb_heights(base, seed))
        assert is_unimodular(tri)
        counts.add(len(tri.cells))
        cell_sets.add(tri.cells)
    assert counts == {hull_doubled_area(pts)} == {4}
    assert len(cell_sets) > 1  # different seeds realize different diagonals


def test_affine_height_shift_leaves_cells_unchanged(four_point):
    base = regular_triangulation(four_point).cells
    for (c1, c2, d) in [(1, 0, 0), (0, -2, 5), (3, 7, -1)]:
        shifted = HeightedPolygon(
            points=four_point.points,
            heights=tuple(
                h + c1 * p[0] + c2 * p[1] + d
                for h, p in zip(four_point.heights, four_point.points)
            ),
        )
        assert regular_triangulation(shifted).cells == base


def test_perturb_heights_deterministic(four_point):
    a = perturb_heights(four_point, seed=5)
    b = perturb_heights(four_point, seed=5)
    assert a.heights == b.heights
    c = perturb_heights(four_point, seed=6)
    assert c.heights != a.heights
    # perturbation preserves an already-generic triangulation
    assert regular_triangulation(a).cells == regular_triangulation(four_point).cells


def test_build_triangulation_rejects_bad_input():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(InconsistentInput):  # area mismatch (missing cell)
        build_triangulation(pts, [(0, 1, 2)])
    with pytest.raises(InconsistentInput):  # overlapping cells
        build_triangulation(pts, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(InconsistentInput):  # degenerate cell
        build_triangulation([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 1, 2), (0, 1, 3)])


@pytest.mark.parametrize(
    "points, cells, message",
    [
        # edge (0, 1) has lattice length 2, and the used vertex 2 = (1, 0) is its midpoint
        (
            [(0, 0), (2, 0), (1, 0), (0, 2), (2, 2)],
            [(0, 1, 3), (2, 3, 4)],
            "vertex 2 lies strictly inside edge (0, 1)",
        ),
        # two overlapping cells whose areas sum to the square's: the diagonal
        # (0, 3) bounds one cell and is not on the hull
        (
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [(0, 1, 3), (0, 1, 2)],
            "edge (0, 3) has one adjacent cell but is not on the boundary",
        ),
    ],
)
def test_build_triangulation_edge_checks(points, cells, message):
    with pytest.raises(InconsistentInput) as exc:
        build_triangulation(points, cells)
    assert str(exc.value) == message


def test_heights_reject_floats():
    with pytest.raises(TypeError):
        HeightedPolygon.create([(0, 0), (1, 0), (0, 1)], [0.25, 0, 0])


def test_huge_decimal_exponent_rejected_before_it_is_built():
    start = time.perf_counter()
    for height in ("1e999999999", "1e-999999999", "1e4301"):
        with pytest.raises(ValueError, match="exceeds 4300"):
            HeightedPolygon.create([(0, 0), (1, 0), (0, 1)], [height, 0, 0])
    assert time.perf_counter() - start < 1.0
    poly = HeightedPolygon.create([(0, 0), (1, 0), (0, 1)], ["-1/4", "2.5e-3", "1e300"])
    assert poly.heights == (Fraction(-1, 4), Fraction(1, 400), Fraction(10**300))
    bounds = HeightedPolygon.create([(0, 0), (1, 0)], ["1e4300", "-1E-4300"])
    assert bounds.heights == (Fraction(10**4300), Fraction(-1, 10**4300))


def test_convex_hull_drops_collinear_points():
    assert convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)]) == [(0, 0), (2, 0), (1, 1)]


@st.composite
def generic_polygons(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    pts = draw(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    heights = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=8),
            min_size=n,
            max_size=n,
        )
    )
    return HeightedPolygon.create(pts, heights)


@given(generic_polygons())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_adapted(poly):
    assume(poly.is_full_dimensional)
    try:
        tri = regular_triangulation(poly)
    except NonTriangularCell:
        assume(False)
    assert is_adapted(poly, tri)
    total = sum(cell_doubled_area(tri.points, c) for c in tri.cells)
    assert total == hull_doubled_area(tri.points)


def _qhull_lower_cells(points, heights):
    """Independent oracle: 3d convex hull, downward facets, coplanar grouping."""
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    lcm = 1
    for h in heights:
        lcm = lcm * h.denominator // __import__("math").gcd(lcm, h.denominator)
    lifted = np.array(
        [[p[0], p[1], int(h * lcm)] for p, h in zip(points, heights)], dtype=float
    )
    try:
        hull = ConvexHull(lifted)
    except QhullError:
        return None, None
    faces = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        nz = eq[2]
        if nz >= -1e-12:
            continue
        key = tuple(np.round(eq / -nz, 9))
        faces.setdefault(key, set()).update(int(i) for i in simplex)
    cells = []
    for verts in faces.values():
        if len(verts) > 3:
            return None, sorted(verts)
        cells.append(tuple(sorted(verts)))
    return sorted(cells), None


def test_against_qhull_oracle_random_inputs():
    rng = random.Random(20260814)
    checked = 0
    for _ in range(120):
        n = rng.randint(4, 8)
        pts = []
        while len(pts) < n:
            p = (rng.randint(-4, 4), rng.randint(-4, 4))
            if p not in pts:
                pts.append(p)
        heights = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in pts]
        poly = HeightedPolygon.create(pts, heights)
        if not poly.is_full_dimensional:
            continue
        try:
            tri = regular_triangulation(poly)
            ours = list(tri.cells)
        except NonTriangularCell:
            ours = None
        oracle_cells, oracle_bad_face = _qhull_lower_cells(poly.points, poly.heights)
        if oracle_cells is None and oracle_bad_face is None:
            continue  # qhull rejected (degenerate input for float hull)
        if ours is None:
            assert oracle_bad_face is not None
        else:
            assert oracle_cells == ours
        checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# the brute-force triple scan, a second exact oracle


def _affine_through(a, b, c, ha, hb, hc):
    """(u1, u2, w) with u.x + w equal to ha, hb, hc at the non-collinear a, b, c."""
    d = cross(vsub(b, a), vsub(c, a))
    db, dc = hb - ha, hc - ha
    ab, ac = vsub(b, a), vsub(c, a)
    u1 = Fraction(db * ac[1] - dc * ab[1], d)
    u2 = Fraction(ab[0] * dc - ac[0] * db, d)
    return u1, u2, ha - (u1 * a[0] + u2 * a[1])


def _triple_scan_cells(poly):
    """Lower-hull cells by scanning every triple, O(|A|^4).

    A triple spans a lower facet iff the affine function through its lifted
    vertices lies weakly below all lifted points; the facet is every
    on-plane point. A facet whose hull is not a triangle raises
    NonTriangularCell at the first such triple in id order, with the
    library's message; a triangular facet is emitted once, for the triple
    of its hull vertices.
    """
    pts, hts = poly.points, poly.heights
    cells = []
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        a, b, c = pts[i], pts[j], pts[k]
        if cross(vsub(b, a), vsub(c, a)) == 0:
            continue
        u1, u2, w = _affine_through(a, b, c, hts[i], hts[j], hts[k])
        values = [h - (u1 * p[0] + u2 * p[1] + w) for p, h in zip(pts, hts)]
        if min(values) < 0:
            continue
        face = [q for q, v in enumerate(values) if v == 0]
        verts = convex_hull([pts[q] for q in face])
        if len(verts) > 3:
            raise NonTriangularCell(
                f"lower-hull face through points {face} "
                f"({[pts[q] for q in face]}) is not a triangle; "
                "heights are non-generic (try perturb_heights)"
            )
        if {a, b, c} == set(verts):
            cells.append((i, j, k))
    return tuple(sorted(cells))


def _outcome(triangulate, poly):
    try:
        return ("cells", triangulate(poly))
    except NonTriangularCell as exc:
        return ("NonTriangularCell", str(exc))


def _retriangulated_is_adapted(poly, tri):
    """is_adapted by definition: the heights induce exactly tri's cells."""
    if tuple(tri.points) != tuple(poly.points):
        return False
    try:
        return _triple_scan_cells(poly) == tuple(sorted(tri.cells))
    except NonTriangularCell:
        return False


def _small_point_set(rng):
    """3 to 9 distinct points: a box grid (collinear boundary points), a
    subset of a dilated triangle, or scattered points."""
    kind = rng.randrange(3)
    if kind == 0:
        a, b = rng.randint(1, 3), rng.randint(1, 2)
        pool = [(x, y) for x in range(a + 1) for y in range(b + 1)]
    elif kind == 1:
        d = rng.randint(2, 3)
        pool = [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]
    else:
        pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    return rng.sample(pool, rng.randint(3, min(9, len(pool))))


def _small_heights(rng, pts):
    """Generic and non-generic heights: flat, paraboloid, small integers,
    or rationals with small denominators."""
    kind = rng.randrange(4)
    if kind == 0:
        return [0] * len(pts)
    if kind == 1:
        return [x * x + y * y for x, y in pts]
    if kind == 2:
        return [rng.randint(-2, 2) for _ in pts]
    return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in pts]


def test_gift_wrapping_matches_triple_scan_on_random_small_sets():
    rng = random.Random(20261018)
    compared = non_triangular = 0
    for _ in range(2500):
        pts = _small_point_set(rng)
        poly = HeightedPolygon.create(pts, _small_heights(rng, pts))
        if not poly.is_full_dimensional:
            continue
        ours = _outcome(lambda p: regular_triangulation(p).cells, poly)
        assert ours == _outcome(_triple_scan_cells, poly), (pts, poly.heights)
        compared += 1
        non_triangular += ours[0] == "NonTriangularCell"
    assert compared >= 2000
    assert 200 <= non_triangular <= compared - 1000


def test_non_triangular_cell_names_face_of_smallest_triple():
    # three square faces; the triple scan meets the one holding (0, 1, 3)
    # first, while the gift wrap starts at (0, 0) in another
    pts = [(2, 0), (3, 0), (0, 0), (2, 1), (3, 1), (0, 1), (1, 0), (1, 1)]
    poly = HeightedPolygon.create(pts, [1, 3, 0, 1, 3, 0, 0, 0])
    with pytest.raises(NonTriangularCell) as err:
        regular_triangulation(poly)
    assert ("NonTriangularCell", str(err.value)) == _outcome(_triple_scan_cells, poly)
    assert "[0, 1, 3, 4]" in str(err.value)


def test_local_is_adapted_matches_retriangulation_on_random_heights():
    rng = random.Random(1018)
    checked = adapted = 0
    while checked < 600:
        pts = _small_point_set(rng)
        base = HeightedPolygon.create(pts, _small_heights(rng, pts))
        if not base.is_full_dimensional:
            continue
        try:
            tri = regular_triangulation(base)
        except NonTriangularCell:
            continue
        for _ in range(3):
            heights = [
                h + Fraction(rng.randint(-1, 1), rng.choice((1, 2, 4)))
                if rng.random() < 0.3 else h
                for h in base.heights
            ]
            poly = HeightedPolygon.create(pts, heights)
            expected = _retriangulated_is_adapted(poly, tri)
            assert is_adapted(poly, tri) == expected, (pts, base.heights, heights)
            checked += 1
            adapted += expected
    assert min(adapted, checked - adapted) >= 50


def _cell_holds(tri, cell, q):
    """q lies in the closed triangle of cell: on no outer side of its CCW hull."""
    hull = convex_hull(tri.points[i] for i in cell)
    return all(orient(hull[i - 1], hull[i], q) >= 0 for i in range(3))


def test_fold_rows_place_unused_points_in_the_first_cell_holding_them():
    # reference: the first cell, in cell order, whose hull holds the point
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        pts = _small_point_set(rng)
        poly = HeightedPolygon.create(pts, _small_heights(rng, pts))
        if not poly.is_full_dimensional:
            continue
        try:
            tri = regular_triangulation(poly)
        except NonTriangularCell:
            continue
        used = {i for c in tri.cells for i in c}
        unused = [q for q in range(len(pts)) if q not in used]
        rows = list(_fold_rows(tri))[len(tri.interior_edges()):]
        assert len(rows) == len(unused)
        for q, (row, strict) in zip(unused, rows):
            cell = next(c for c in tri.cells if _cell_holds(tri, c, tri.points[q]))
            assert not strict and [i for i, _ in row] == [*cell, q]
            checked += 1


_TRIANGLE_3 = [(0, 0), (3, 0), (0, 3), (1, 1)]
_SQUARE_2 = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]


@pytest.mark.parametrize(
    "points, heights, cells, adapted",
    [
        # unused (1, 1) on the lifted plane x + y, inside the only cell
        (_TRIANGLE_3, [0, 3, 3, 2], [(0, 1, 2)], True),
        # unused (1, 1) on the lift of the interior edge (0,0)-(2,2)
        (_SQUARE_2, [0, 1, 1, 0, 0], [(0, 1, 3), (0, 2, 3)], True),
        # unused (1, 1) below the lifted plane
        (_TRIANGLE_3, [0, 3, 3, Fraction(3, 2)], [(0, 1, 2)], False),
        # two coplanar neighbouring cells: the lower face is the square
        (_SQUARE_2[:4], [0, 0, 0, 0], [(0, 1, 3), (0, 2, 3)], False),
        # the fold across (0,0)-(2,2) is concave: the other diagonal is adapted
        (_SQUARE_2[:4], [0, 0, 0, 1], [(0, 1, 3), (0, 2, 3)], False),
        (_SQUARE_2[:4], [0, 0, 0, 1], [(0, 1, 2), (1, 2, 3)], True),
    ],
)
def test_local_is_adapted_cases(points, heights, cells, adapted):
    poly = HeightedPolygon.create(points, heights)
    tri = build_triangulation(points, cells)
    assert is_adapted(poly, tri) is adapted
    assert _retriangulated_is_adapted(poly, tri) is adapted


def _load_qhull_oracle():
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_lower_hull.py"
    spec = importlib.util.spec_from_file_location("oracle_lower_hull", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_degree_ten_triangle_matches_qhull_within_budget():
    # 66 points, where an O(|A|^4) scan takes seconds; at this seed every
    # diagonal the perturbation picks is wide enough for qhull's precision
    pts = [(x, y) for x in range(11) for y in range(11 - x)]
    poly = perturb_heights(
        HeightedPolygon.create(pts, [x * x + y * y for x, y in pts]), seed=1
    )
    start = time.perf_counter()
    tri = regular_triangulation(poly)
    curve = tropical_curve(poly, tri)
    elapsed = time.perf_counter() - start
    cells, bad_face = _load_qhull_oracle().lower_hull_cells(poly.points, poly.heights)
    assert bad_face is None
    assert list(tri.cells) == cells
    assert len(tri.cells) == 100 and is_unimodular(tri)
    assert len(curve.vertices) == 100
    assert elapsed < 2.0, f"triangulation plus tropical curve took {elapsed:.2f} s"
