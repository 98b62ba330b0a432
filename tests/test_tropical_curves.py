"""Tropical polynomial evaluation, curve duality, legs, chambers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicmirror.errors import DegeneratePolygon, InconsistentInput, NonTriangularCell
from conicmirror.lattice_geometry import (
    HeightedPolygon,
    gcd2,
    perturb_heights,
    primitivize,
    regular_triangulation,
    vsub,
)
from conicmirror.tropical_curves import chamber_of, chambers, eval_tropical, tropical_curve

from conftest import FOUR_POINTS


def edge_weight(alpha, beta) -> int:
    """Lattice length of the segment [alpha, beta]."""
    d = vsub(alpha, beta)
    return gcd2(d[0], d[1])


def balancing_defect(curve, vertex_id: int) -> tuple[int, int]:
    """Sum of weighted primitive outgoing directions at a curve vertex.

    Zero for every vertex of a curve dual to a coherent triangulation
    (balancing).
    """
    v = curve.vertices[vertex_id]
    total = (0, 0)
    for be in curve.bounded_edges:
        if vertex_id not in be.v:
            continue
        other = curve.vertices[be.v[1] if be.v[0] == vertex_id else be.v[0]]
        d = (other[0] - v[0], other[1] - v[1])
        assert d != (0, 0), "coincident dual vertices"
        # primitive integer direction of the rational vector d
        num = (d[0].numerator * d[1].denominator, d[1].numerator * d[0].denominator)
        prim = primitivize(num)
        w = edge_weight(*be.dual_edge)
        total = (total[0] + w * prim[0], total[1] + w * prim[1])
    for leg in curve.legs:
        if leg.base_vertex != vertex_id:
            continue
        w = edge_weight(*leg.dual_edge)
        total = (total[0] + w * leg.direction[0], total[1] + w * leg.direction[1])
    return total


@pytest.fixture(scope="module")
def four_curve(four_point, four_point_tri):
    return tropical_curve(four_point, four_point_tri)


@pytest.fixture(scope="module")
def simplex_curve(simplex, simplex_tri):
    return tropical_curve(simplex, simplex_tri)


def test_eval_tropical_examples(four_point, simplex):
    assert eval_tropical(four_point, (2, 0)) == (Fraction(2), ((1, 0),))
    value, argmax = eval_tropical(four_point, (Fraction(1, 4), Fraction(1, 4)))
    assert value == Fraction(1, 4)
    assert argmax == ((0, 0), (0, 1), (1, 0))
    assert eval_tropical(simplex, (0, 0)) == (Fraction(0), ((0, 0), (0, 1), (1, 0)))


def test_four_point_curve_shape(four_curve):
    assert len(four_curve.vertices) == 3
    assert len(four_curve.bounded_edges) == 3
    assert len(four_curve.legs) == 3
    # frozen dual vertices, parallel to cells ((0,1,2),(0,1,3),(0,2,3))
    q = Fraction(1, 4)
    h = Fraction(-1, 2)
    assert four_curve.vertices == ((q, q), (q, h), (h, q))


def test_simplex_curve_shape_and_leg_directions(simplex_curve):
    assert simplex_curve.vertices == ((Fraction(0), Fraction(0)),)
    assert simplex_curve.bounded_edges == ()
    dirs = sorted(leg.direction for leg in simplex_curve.legs)
    assert dirs == [(-1, 0), (0, -1), (1, 1)]


def test_simplex_leg_constants(simplex_curve):
    (leg,) = [l for l in simplex_curve.legs if l.dual_edge == ((0, 1), (1, 0))]
    assert leg.c_sq == Fraction(1, 2)
    assert abs(leg.c - 0.5**0.5) < 1e-15
    assert leg.c_prime == Fraction(1, 2)
    assert abs(leg.c_dblprime) == Fraction(1, 2)
    assert leg.a_i == 0
    assert leg.direction == (1, 1)


def _on_segment(q, alpha, beta) -> bool:
    d, r = (beta[0] - alpha[0], beta[1] - alpha[1]), (q[0] - alpha[0], q[1] - alpha[1])
    return d[0] * r[1] == d[1] * r[0] and 0 <= d[0] * r[0] + d[1] * r[1] <= d[0] ** 2 + d[1] ** 2


def _random_curves(count: int):
    """Tropical curves of seeded random polygons with generic and tied heights."""
    rng = random.Random(20261018)
    curves = []
    while len(curves) < count:
        kind = rng.randrange(3)
        if kind == 0:
            d = rng.randint(1, 4)
            pts = [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]
        elif kind == 1:
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            pts = [(x, y) for x in range(a + 1) for y in range(b + 1)]
        else:
            pts = sorted({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 10))})
        heights = [
            [0] * len(pts),
            [x * x + y * y for x, y in pts],
            [rng.randint(-2, 2) for _ in pts],
            [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7))) for _ in pts],
        ][rng.randrange(4)]
        poly = HeightedPolygon.create(pts, heights)
        try:
            curves.append(tropical_curve(poly, regular_triangulation(poly)))
        except (DegeneratePolygon, NonTriangularCell):
            continue
    return curves


def _assert_legs_stay_on_their_edges(curve):
    poly = curve.polygon
    for leg in curve.legs:
        alpha, beta = leg.dual_edge
        # the terms tied along the leg: those of the edge [alpha, beta] that
        # already tie at the base vertex
        edge_ties = tuple(
            q for q in eval_tropical(poly, leg.base)[1] if _on_segment(q, alpha, beta)
        )
        assert alpha in edge_ties and beta in edge_ties
        for t in (Fraction(1, 3), 1, 7, 100):
            p = (leg.base[0] + t * leg.direction[0], leg.base[1] + t * leg.direction[1])
            value, argmax = eval_tropical(poly, p)
            assert argmax == edge_ties
            # the tie equation r_{alpha-beta} = nu(alpha) - nu(beta)
            d = (alpha[0] - beta[0], alpha[1] - beta[1])
            lhs = p[0] * d[0] + p[1] * d[1]
            assert lhs == curve.polygon.height(alpha) - curve.polygon.height(beta)
            # the half-plane bound of the leg, with the direction-aligned perp
            dp = (-d[1], d[0])
            sign = 1 if (dp[0] * leg.direction[0] + dp[1] * leg.direction[1]) > 0 else -1
            assert sign * (p[0] * dp[0] + p[1] * dp[1]) >= leg.a_i


def test_leg_ray_stays_in_two_term_locus(four_curve):
    _assert_legs_stay_on_their_edges(four_curve)
    curves = _random_curves(300)
    for curve in curves:
        _assert_legs_stay_on_their_edges(curve)
    assert sum(len(c.legs) for c in curves) >= 1000


def test_vertex_argmax_is_dual_cell(four_curve):
    tri = four_curve.triangulation
    for cell, v in zip(tri.cells, four_curve.vertices):
        _, argmax = eval_tropical(four_curve.polygon, v)
        assert set(argmax) == {tri.points[i] for i in cell}


def test_bounded_edge_midpoint_argmax(four_curve):
    for be in four_curve.bounded_edges:
        a = four_curve.vertices[be.v[0]]
        b = four_curve.vertices[be.v[1]]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        _, argmax = eval_tropical(four_curve.polygon, mid)
        assert argmax == tuple(sorted(be.dual_edge))


def test_balancing(four_curve):
    for vid in range(len(four_curve.vertices)):
        assert balancing_defect(four_curve, vid) == (0, 0)


def test_balancing_non_unimodular():
    # weights > 1: the 4-point polygon scaled by 2, points doubled only
    pts = [(0, 0), (2, 0), (0, 2), (-2, -2)]
    poly = HeightedPolygon.create(pts, [Fraction(-1, 4), 0, 0, 0])
    curve = tropical_curve(poly, regular_triangulation(poly))
    for vid in range(len(curve.vertices)):
        assert balancing_defect(curve, vid) == (0, 0)


def test_parallel_boundary_edges_give_parallel_legs():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    poly = HeightedPolygon.create(pts, [Fraction(-1, 8), 0, 0, 0])
    curve = tropical_curve(poly, regular_triangulation(poly))
    by_edge = {leg.dual_edge: leg.direction for leg in curve.legs}
    bottom = by_edge[((0, 0), (1, 0))]
    top = by_edge[((0, 1), (1, 1))]
    assert bottom in (top, (-top[0], -top[1]))
    left = by_edge[((0, 0), (0, 1))]
    right = by_edge[((1, 0), (1, 1))]
    assert left in (right, (-right[0], -right[1]))


def test_flat_triangle_legs_tie_with_unused_edge_points():
    # zero heights on the degree-2 triangle: the edge midpoints are unused
    # and tie with the edge's ends along every leg
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    poly = HeightedPolygon.create(pts, 0)
    curve = tropical_curve(poly, regular_triangulation(poly))
    assert sorted(leg.direction for leg in curve.legs) == [(-1, 0), (0, -1), (1, 1)]
    assert balancing_defect(curve, 0) == (0, 0)
    for leg in curve.legs:
        alpha, beta = leg.dual_edge
        mid = ((alpha[0] + beta[0]) // 2, (alpha[1] + beta[1]) // 2)
        p = (leg.base[0] + leg.direction[0], leg.base[1] + leg.direction[1])
        assert eval_tropical(curve.polygon, p)[1] == tuple(sorted((alpha, mid, beta)))


def test_chamber_of_examples(four_point):
    assert chamber_of(four_point, (3, 0)) == (1, 0)
    assert chamber_of(four_point, (0, 0)) == (0, 0)  # 1/4 beats 0, 0, -1/4... 0
    assert chamber_of(four_point, (10, 10)) is None  # two-term tie on the leg


def test_chambers_realized(four_point, four_point_tri):
    labels = chambers(four_point, four_point_tri)
    assert labels == list(FOUR_POINTS)
    assert chamber_of(four_point, (0, 0)) == labels[0]
    assert chamber_of(four_point, (3, 0)) != labels[0]
    # chamber of a dropped vertex is empty: with nu(0,0) = +1/4 the origin
    # chamber vanishes
    plus = HeightedPolygon.create(FOUR_POINTS, [Fraction(1, 4), 0, 0, 0])
    assert chambers(plus, regular_triangulation(plus)) == list(FOUR_POINTS[1:])
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert chamber_of(plus, (Fraction(x, 2), Fraction(y, 2))) != (0, 0)


def test_chamber_count_by_grid_sampling(four_point):
    labels = set()
    for i in range(-30, 31):
        for j in range(-30, 31):
            lab = chamber_of(four_point, (Fraction(i, 7) + Fraction(1, 131),
                                          Fraction(j, 7) + Fraction(1, 137)))
            if lab is not None:
                labels.add(lab)
    assert len(labels) == 4  # one chamber per point: the max is attained by all four


def test_curve_requires_adapted_heights(four_point_tri):
    plus = HeightedPolygon.create(FOUR_POINTS, [Fraction(1, 4), 0, 0, 0])
    with pytest.raises(InconsistentInput):
        tropical_curve(plus, four_point_tri)


def test_compact_part_and_bbox(four_curve):
    lo, hi = four_curve.bounding_box()
    assert lo == (Fraction(-1, 2), Fraction(-1, 2))
    assert hi == (Fraction(1, 4), Fraction(1, 4))


@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 9),
)
@settings(max_examples=80, deadline=None)
def test_eval_matches_bruteforce_and_chamber(num1, num2, den):
    poly = HeightedPolygon.create(FOUR_POINTS, (Fraction(-1, 4), 0, 0, 0))
    n = (Fraction(num1, den), Fraction(num2, den))
    value, argmax = eval_tropical(poly, n)
    vals = {a: n[0] * a[0] + n[1] * a[1] - h for a, h in zip(poly.points, poly.heights)}
    assert value == max(vals.values())
    assert set(argmax) == {a for a, v in vals.items() if v == value}
    lab = chamber_of(poly, n)
    assert (lab is None) == (len(argmax) > 1)


def test_balancing_on_random_perturbed_polygons():
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (2, 1)]
    base = HeightedPolygon.create(pts, [x * x + y * y for x, y in pts])
    for seed in (1, 5, 9):
        poly = perturb_heights(base, seed)
        curve = tropical_curve(poly, regular_triangulation(poly))
        for vid in range(len(curve.vertices)):
            assert balancing_defect(curve, vid) == (0, 0)
