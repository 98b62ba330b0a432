"""Seeded inputs for the three workloads.

Everything the program sees is made here from the run seed: the same seed
gives byte-identical job files. Polygons are plain point lists with exact
rational heights (as strings); ring elements are term lists.
"""

from __future__ import annotations

import random
from fractions import Fraction

SIMPLEX = [(0, 0), (1, 0), (0, 1)]
FOUR_POINT = [(0, 0), (1, 0), (0, 1), (-1, -1)]
FOUR_POINT_HEIGHTS = [Fraction(-1, 4), Fraction(0), Fraction(0), Fraction(0)]
HEXAGON = [(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
PARABOLOID = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
# x^2 + y^2 with (1,1) lifted by 1/10, which breaks the cocircular unit square
PARABOLOID_HEIGHTS = [Fraction(x * x + y * y) for x, y in PARABOLOID]
PARABOLOID_HEIGHTS[3] += Fraction(1, 10)

HEIGHT_DENOMINATOR = 997
NOISE_SCALE = 8  # seeded height parts lie in [0, 1/NOISE_SCALE)


def triangle(d: int) -> list[tuple[int, int]]:
    """All lattice points of the degree-d triangle conv{(0,0), (d,0), (0,d)}."""
    return [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]


def rectangle(a: int, b: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(a + 1) for y in range(b + 1)]


def polygon_json(points, heights) -> dict:
    return {"points": [list(p) for p in points], "heights": [str(Fraction(h)) for h in heights]}


def generic_heights(rng: random.Random, points, oracle) -> list[Fraction]:
    """x^2 + y^2 plus a small seeded fraction, redrawn until qhull sees only triangles.

    The strictly convex base keeps every point on the lower hull; the
    seeded part picks among the tied (Delaunay-degenerate) diagonals.
    """
    den = HEIGHT_DENOMINATOR * NOISE_SCALE
    while True:
        hts = [Fraction(x * x + y * y) + Fraction(rng.randrange(HEIGHT_DENOMINATOR), den)
               for x, y in points]
        cells, bad = oracle.lower_hull_cells(points, hts)
        if bad is None:
            return hts


def transformed(rng: random.Random, points) -> list[tuple[int, int]]:
    """A seeded shear and translation: same lattice polygon, new coordinates."""
    k = rng.choice((-1, 0, 1))
    dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
    return [(x + k * y + dx, y + dy) for x, y in points]


# ------------------------------------------------------------------ ring


def random_terms(rng: random.Random, count: int, n_range: int, i_range: int) -> list[dict]:
    coeffs = [1, -1, 2, -3, 5, "1/2", "-2/3", "7/4"]
    keys = set()
    while len(keys) < count:
        keys.add(((rng.randint(-n_range, n_range), rng.randint(-n_range, n_range)),
                  rng.randint(-i_range, i_range)))
    return [{"n": list(n), "i": i, "c": str(rng.choice(coeffs))} for n, i in sorted(keys)]


def ring_inputs(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    polygons = {"simplex": SIMPLEX, "four_point": FOUR_POINT, "hexagon": HEXAGON}
    verify = [(name, b, i) for name in polygons for b, i in ((1, 1), (2, 0))]
    if smoke:
        verify = [(name, 1, 0) for name in polygons]
    small, large = (4, 1) if smoke else (24, 2)
    products = []
    names = list(polygons)
    for k in range(small):
        for theta in (False, True):
            poly = names[k % len(names)]
            products.append((poly, theta, random_terms(rng, 1, 4, 3), random_terms(rng, 1, 4, 3)))
    for k in range(large):
        for theta in (False, True):
            poly = ("hexagon", "four_point")[k % 2]
            products.append((poly, theta, random_terms(rng, 8, 4, 3), random_terms(rng, 8, 4, 3)))
    # criterion-2 style: basis triples with entries in [-10, 10], two polygons
    per_polygon = 8 if smoke else 120
    triples = [
        (poly, [((rng.randint(-10, 10), rng.randint(-10, 10)), rng.randint(-10, 10))
                for _ in range(3)])
        for poly in ("simplex", "four_point")
        for _ in range(per_polygon)
    ]
    return {
        "polygons": polygons,
        "verify": verify,
        "products": products,
        "triples": triples,
        "cover_pairs": 4 if smoke else 60,
        "rng": rng,
    }


def random_cover_element(rng: random.Random, group, entries: int) -> dict:
    """Entries (g, h, n, i) with h = g + projection(n), as the block algebra requires."""
    elements = group.elements()
    out = {}
    while len(out) < entries:
        g = rng.choice(elements)
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        h = group.add(g, group.projection(n))
        out[(g, h, n, rng.randint(-2, 2))] = Fraction(rng.choice((1, -1, 2, 3, -4)))
    return out


# -------------------------------------------------------------- geometry

# (name, points) of the size mix: from 6 to 36 points
SHAPES = (
    ("tri2", triangle(2)),
    ("hexagon", HEXAGON),
    ("tri3", triangle(3)),
    ("rect3x2", rectangle(3, 2)),
    ("tri4", triangle(4)),
    ("tri5", triangle(5)),
    ("tri6", triangle(6)),
    ("tri7", triangle(7)),
)
SMOKE_SHAPES = SHAPES[:3]
# (name, points, box) for the sections batch
SECTION_SHAPES = (
    ("tri2", triangle(2), 2),
    ("rect2x1", rectangle(2, 1), 2),
    ("hexagon", HEXAGON, 1),
)
# degree-2 triangle at height 0: the lower hull is one flat face whose
# edge midpoints go unused
FLAT_TRIANGLE = (triangle(2), [Fraction(0)] * 6)


def geometry_inputs(seed: int, smoke: bool, oracle) -> dict:
    rng = random.Random(seed)
    mix = []
    for name, pts in (SMOKE_SHAPES if smoke else SHAPES):
        hts = generic_heights(rng, pts, oracle)
        mix.append((name, transformed(rng, pts), hts))
    # The number of shift classes in a box, and the cost of finding each,
    # depend on the triangulation; fixed heights keep the sections work the
    # same for every seed, and a seeded translation leaves the classes as
    # they are.
    sections = []
    for k, (name, pts, box) in enumerate(SECTION_SHAPES[: 1 if smoke else None]):
        hts = generic_heights(random.Random(k), pts, oracle)
        dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
        sections.append((name, [(x + dx, y + dy) for x, y in pts], hts, 1 if smoke else box))
    return {"mix": mix, "sections": sections, "flat": FLAT_TRIANGLE}


# ---------------------------------------------------------------- amoeba


def amoeba_inputs(seed: int, smoke: bool, oracle) -> dict:
    """(name, points, heights, t exponents, leg t exponent) per polygon."""
    rng = random.Random(seed)
    deg3 = triangle(3)
    return {
        "polygons": [
            ("four_point", FOUR_POINT, FOUR_POINT_HEIGHTS, (2, 4, 8), 4),
            ("paraboloid", PARABOLOID, PARABOLOID_HEIGHTS, (4, 8, 16), 8),
            ("tri3", deg3, generic_heights(rng, deg3, oracle), (6,), 6),
        ],
        "grid": (200, 4) if smoke else (200, 64),
        "leg_count": 10 if smoke else 100,
    }
