"""Tropical polynomial, dual tropical curve, chambers, legs.

The tropical polynomial of a heighted polygon is L(n) = max over alpha in A of
<n, alpha> - nu(alpha), a convex piecewise-linear function on N_R. Its
non-differentiability locus is a 1-complex dual to the regular triangulation:
one vertex per cell (the triple-tie point), one bounded edge per interior edge,
one unbounded leg per boundary edge. Chambers are the open regions where a
single term strictly wins; they are labeled by the points of A used by the
triangulation.

Everything here is exact (Fractions); the only floats are the optional sqrt
views of the leg constant c, whose square is rational but c itself need not be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InconsistentInput
from .lattice_geometry import (
    Covector,
    HeightedPolygon,
    Point,
    Triangulation,
    cross,
    gcd2,
    is_adapted,
    pairing,
    perp,
    primitivize,
    vsub,
)

RationalPoint = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class TropicalPolynomial:
    """Terms (alpha, nu(alpha)); evaluation is max of <n,alpha> - nu(alpha)."""

    terms: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        exps = [t[0] for t in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponents")

    @classmethod
    def from_polygon(cls, poly: HeightedPolygon) -> "TropicalPolynomial":
        return cls(terms=tuple(zip(poly.points, poly.heights)))


def eval_tropical(
    L: TropicalPolynomial, n: Sequence
) -> tuple[Fraction, tuple[Point, ...]]:
    """(max value, sorted tuple of terms attaining it) at a rational point n."""
    nn = (Fraction(n[0]), Fraction(n[1]))
    best: Optional[Fraction] = None
    argmax: list[Point] = []
    for alpha, h in L.terms:
        v = nn[0] * alpha[0] + nn[1] * alpha[1] - h
        if best is None or v > best:
            best = v
            argmax = [alpha]
        elif v == best:
            argmax.append(alpha)
    return best, tuple(sorted(argmax))


@dataclass(frozen=True)
class Chamber:
    """Open region where the term labeled by alpha strictly wins the max."""

    label: Point
    polynomial: TropicalPolynomial

    def contains(self, n: Sequence) -> bool:
        _, argmax = eval_tropical(self.polynomial, n)
        return argmax == (self.label,)


@dataclass(frozen=True)
class Leg:
    """Unbounded ray of the curve, dual to a boundary edge {alpha, beta}.

    The ray is base + t * direction for t >= 0, where direction is the
    primitive +-(alpha-beta)^perp whose sign keeps the two-term tie. alpha is
    the lexicographically smaller endpoint (the endpoint order is otherwise
    a free choice; swapping it maps c' to 1-c' and flips the sign of c'').
    On the ray, r_{alpha-beta} = nu(alpha) - nu(beta) holds and
    r_{s*(alpha-beta)^perp} >= a_i, where s is the sign realized by direction
    and a_i is the value of that same linear function at the base vertex (the
    half-plane description needs the perp aligned with the ray).

    c = 1/|alpha-beta| is generally irrational and is stored exactly via its
    rational square c_sq; c_prime and c_dblprime are exact rationals.
    """

    base_vertex: int
    base: RationalPoint
    dual_edge: tuple[Point, Point]
    direction: Covector
    a_i: Fraction
    c_sq: Fraction
    c_prime: Fraction
    c_dblprime: Fraction

    @property
    def c(self) -> float:
        return math.sqrt(self.c_sq)


@dataclass(frozen=True)
class BoundedEdge:
    """Segment between two curve vertices, dual to an interior edge."""

    v: tuple[int, int]
    dual_edge: tuple[Point, Point]


@dataclass(frozen=True)
class TropicalCurve:
    polygon: HeightedPolygon
    triangulation: Triangulation
    polynomial: TropicalPolynomial
    vertices: tuple[RationalPoint, ...]  # parallel to triangulation.cells
    bounded_edges: tuple[BoundedEdge, ...]
    legs: tuple[Leg, ...]

    def compact_part(self) -> tuple[tuple[RationalPoint, ...], tuple[BoundedEdge, ...]]:
        """The union of vertices and bounded edges (no legs)."""
        return self.vertices, self.bounded_edges

    def bounding_box(self) -> tuple[RationalPoint, RationalPoint]:
        """Bounding box of the compact part."""
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))


def dual_vertex(poly: HeightedPolygon, cell: Sequence[int]) -> RationalPoint:
    """The point where the three terms of a cell tie: the cell's dual vertex."""
    i, j, k = cell
    a, b, c = poly.points[i], poly.points[j], poly.points[k]
    ha, hb, hc = poly.heights[i], poly.heights[j], poly.heights[k]
    # solve <n, b-a> = hb-ha, <n, c-a> = hc-ha
    ab, ac = vsub(b, a), vsub(c, a)
    det = cross(ab, ac)
    if det == 0:
        raise InconsistentInput(f"cell {tuple(cell)} is degenerate")
    r1, r2 = hb - ha, hc - ha
    n1 = Fraction(r1 * ac[1] - r2 * ab[1], det)
    n2 = Fraction(ab[0] * r2 - ac[0] * r1, det)
    return (n1, n2)


def _oriented_dual_edge(p: Point, q: Point) -> tuple[Point, Point]:
    """(alpha, beta) with alpha the lexicographically smaller endpoint."""
    return (p, q) if p < q else (q, p)


def tropical_curve(poly: HeightedPolygon, tri: Triangulation) -> TropicalCurve:
    """The curve dual to the triangulation induced by the heights.

    Raises InconsistentInput if tri is not the triangulation the heights
    induce (the duality only holds for adapted heights).
    """
    if tuple(tri.points) != tuple(poly.points) or not is_adapted(poly, tri):
        raise InconsistentInput("triangulation is not adapted to the heights")
    L = TropicalPolynomial.from_polygon(poly)
    vertices = tuple(dual_vertex(poly, c) for c in tri.cells)

    bounded = []
    legs = []
    for e in tri.edges:
        alpha, beta = _oriented_dual_edge(*tri.edge_points(e))
        if e.interior:
            bounded.append(
                BoundedEdge(v=(e.cells[0], e.cells[1]), dual_edge=(alpha, beta))
            )
            continue
        (cell_id,) = e.cells
        base = vertices[cell_id]
        d = vsub(alpha, beta)
        dp = perp(d)
        prim = primitivize(dp)
        # along the leg alpha and beta stay tied and the third vertex gamma of
        # the cell loses: <direction, gamma - alpha> < 0
        (gamma,) = set(tri.cells[cell_id]) - set(e.v)
        sign = -1 if pairing(prim, vsub(poly.points[gamma], alpha)) > 0 else 1
        direction = (sign * prim[0], sign * prim[1])
        dd = pairing(d, d)
        legs.append(
            Leg(
                base_vertex=cell_id,
                base=base,
                dual_edge=(alpha, beta),
                direction=direction,
                a_i=Fraction(sign * (base[0] * dp[0] + base[1] * dp[1])),
                c_sq=Fraction(1, dd),
                c_prime=Fraction(pairing(alpha, d), dd),
                c_dblprime=Fraction(pairing(alpha, dp), dd),
            )
        )
    return TropicalCurve(
        polygon=poly,
        triangulation=tri,
        polynomial=L,
        vertices=vertices,
        bounded_edges=tuple(bounded),
        legs=tuple(legs),
    )


def chamber_of(poly: HeightedPolygon, n: Sequence) -> Optional[Point]:
    """The label of the chamber containing n, or None if n is on the curve."""
    _, argmax = eval_tropical(TropicalPolynomial.from_polygon(poly), n)
    return argmax[0] if len(argmax) == 1 else None


def chambers(poly: HeightedPolygon, tri: Triangulation) -> list[Chamber]:
    """The nonempty chambers: one per vertex used by the triangulation."""
    L = TropicalPolynomial.from_polygon(poly)
    return [Chamber(label=poly.points[i], polynomial=L) for i in tri.vertices_used]


def edge_weight(alpha: Point, beta: Point) -> int:
    """Lattice length of the segment [alpha, beta]."""
    d = vsub(alpha, beta)
    return gcd2(d[0], d[1])


def balancing_defect(curve: TropicalCurve, vertex_id: int) -> tuple[int, int]:
    """Sum of weighted primitive outgoing directions at a curve vertex.

    Zero for every vertex of a curve dual to a coherent triangulation
    (balancing); exposed so tests can assert it.
    """
    v = curve.vertices[vertex_id]
    total = (0, 0)
    for be in curve.bounded_edges:
        if vertex_id not in be.v:
            continue
        other = curve.vertices[be.v[1] if be.v[0] == vertex_id else be.v[0]]
        d = (other[0] - v[0], other[1] - v[1])
        if d == (0, 0):
            raise InconsistentInput("coincident dual vertices")
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
