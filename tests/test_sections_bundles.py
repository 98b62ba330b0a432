"""Tests for framed sections and line-bundle degree vectors."""

import contextlib
import itertools
import random
import time

import pytest

from conicmirror.errors import InvalidSection, NonTriangularCell, UnknownCell
from conicmirror.lattice_geometry import (
    Covector,
    HeightedPolygon,
    build_triangulation,
    pairing,
    perp,
    perturb_heights,
    primitivize,
    regular_triangulation,
    vsub,
)
from conicmirror.sections_bundles import (
    ClassificationReport,
    FramedSection,
    LineBundleClass,
    classification_report,
    degree_vector,
    enumerate_sections,
)


def shift_normalize(s):
    """Canonical representative: subtract the value on the lowest-indexed cell."""
    base = s.values[min(s.values)]
    return s.shift((-base[0], -base[1]))


def _reference_enumerate_sections(tri, box):
    """The search before the single walk, kept as an oracle.

    One full search per value of cell 0 in [-box, box]^2: each later cell,
    in BFS order, takes its parent's value plus a multiple of the primitive
    perp of the shared edge, staying inside the box, and is checked against
    every assigned neighbour by a scan of the interior edges; the complete
    sections are shift-normalized and repeats dropped.
    """
    if box < 0:
        raise ValueError("box must be >= 0")
    k = len(tri.cells)
    adj: dict[int, list[tuple[int, Covector]]] = {c: [] for c in range(k)}
    for e in tri.interior_edges():
        c1, c2 = e.cells
        alpha, beta = tri.edge_points(e)
        step = primitivize(perp(vsub(beta, alpha)))
        adj[c1].append((c2, step))
        adj[c2].append((c1, step))

    order = [0]
    parent: dict[int, tuple[int, Covector]] = {}
    seen = {0}
    qi = 0
    while qi < len(order):
        c = order[qi]
        qi += 1
        for d, step in adj[c]:
            if d not in seen:
                seen.add(d)
                parent[d] = (c, step)
                order.append(d)
    if len(order) != k:
        raise UnknownCell("triangulation dual graph is not connected")

    span = range(-box, box + 1)
    found: set[tuple] = set()
    results = []

    def consistent(assign, c):
        for d, _step in adj[c]:
            if d in assign:
                e_pts = None
                for e in tri.interior_edges():
                    if set(e.cells) == {c, d}:
                        e_pts = tri.edge_points(e)
                        break
                alpha, beta = e_pts
                if pairing(vsub(assign[c], assign[d]), vsub(alpha, beta)) != 0:
                    return False
        return True

    def rec(pos, assign):
        if pos == k:
            s = shift_normalize(FramedSection(dict(assign)))
            key = tuple(s.items())
            if key not in found:
                found.add(key)
                results.append(s)
            return
        c = order[pos]
        if c in parent:
            base_cell, step = parent[c]
            bx, by = assign[base_cell]
            candidates = []
            for m in range(-4 * box - 4, 4 * box + 5):
                v = (bx + m * step[0], by + m * step[1])
                if -box <= v[0] <= box and -box <= v[1] <= box:
                    candidates.append(v)
        else:
            candidates = [(x, y) for x in span for y in span]
        for v in candidates:
            assign[c] = v
            if consistent(assign, c):
                rec(pos + 1, assign)
            del assign[c]

    rec(0, {})
    results.sort(key=lambda s: tuple(s.items()))
    return results


def _triangle(d):
    return [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]


def _rectangle(a, b):
    return [(x, y) for x in range(a + 1) for y in range(b + 1)]


# (name, points, largest box) for the comparison with the oracle; the
# oracle's root loop makes boxes past these slow on the larger shapes
WALK_SHAPES = (
    ("simplex", _triangle(1), 3),
    ("four-point", [(0, 0), (1, 0), (0, 1), (-1, -1)], 3),
    ("triangle-2", _triangle(2), 3),
    ("triangle-3", _triangle(3), 1),
    ("rectangle-1x1", _rectangle(1, 1), 3),
    ("rectangle-2x1", _rectangle(2, 1), 3),
    ("hexagon", [(0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], 1),
)


def star_section(x, y, m):
    """General valid section on the 4-point star triangulation.

    Across edge {(0,0),(1,0)} the first components of cells 0 and 1 agree;
    across edge {(0,0),(0,1)} the second components of cells 0 and 2 agree;
    the edge {(0,0),(-1,-1)} then forces a single integer parameter m.
    """
    return FramedSection({0: (x, y), 1: (x, y + m), 2: (x + m, y)})


class TestCheckSection:
    """The interior-edge constraints: degree_vector raises InvalidSection
    where one fails and UnknownCell on cell ids that do not match."""

    def test_constant_sections_are_valid(self, four_point_tri):
        s = FramedSection({0: (2, 3), 1: (2, 3), 2: (2, 3)})
        degree_vector(four_point_tri, s)

    def test_known_invalid_assignment(self, four_point_tri):
        # cells 1 and 2 share the edge {(0,0),(-1,-1)}; the jump (0,1)
        # pairs to 1 with (1,1), so the constraint fails
        s = FramedSection({0: (0, 0), 1: (0, 1), 2: (0, 0)})
        with pytest.raises(InvalidSection):
            degree_vector(four_point_tri, s)

    def test_one_parameter_family_is_valid(self, four_point_tri):
        for m in range(-3, 4):
            degree_vector(four_point_tri, star_section(5, -2, m))

    def test_unknown_cell_ids_raise(self, four_point_tri):
        with pytest.raises(UnknownCell):
            degree_vector(four_point_tri, FramedSection({0: (0, 0), 1: (0, 0)}))
        with pytest.raises(UnknownCell):
            degree_vector(
                four_point_tri,
                FramedSection({0: (0, 0), 1: (0, 0), 2: (0, 0), 7: (0, 0)}),
            )

    def test_single_cell_has_no_constraints(self, simplex_tri):
        assert degree_vector(simplex_tri, FramedSection({0: (9, -4)})).degrees == {}

    def test_jump_is_multiple_of_primitive_perp(self, four_point_tri):
        # structural invariant behind the search in enumerate_sections
        for s in enumerate_sections(four_point_tri, 2):
            for e in four_point_tri.interior_edges():
                c1, c2 = sorted(e.cells)
                alpha, beta = four_point_tri.edge_points(e)
                step = primitivize(perp(vsub(beta, alpha)))
                jump = vsub(s[c1], s[c2])
                # jump = m * step for an integer m
                assert jump[0] * step[1] == jump[1] * step[0]
                if step[0] != 0:
                    assert jump[0] % step[0] == 0
                else:
                    assert jump[0] == 0 and jump[1] % step[1] == 0


class TestDegreeVector:
    def test_constant_section_has_zero_degrees(self, four_point_tri):
        s = FramedSection({0: (1, 1), 1: (1, 1), 2: (1, 1)})
        assert set(degree_vector(four_point_tri, s).degrees.values()) == {0}

    def test_star_family_degrees(self, four_point_tri):
        # edges 0,1,2 are the interior edges at the origin; the family
        # parameter m shows up as degrees (-m, m, 2m)
        for m in (-2, 0, 1, 3):
            d = degree_vector(four_point_tri, star_section(0, 0, m))
            assert d.items() == [(0, -m), (1, m), (2, 2 * m)]

    def test_invalid_section_raises(self, four_point_tri):
        with pytest.raises(InvalidSection):
            degree_vector(
                four_point_tri, FramedSection({0: (0, 0), 1: (0, 1), 2: (0, 0)})
            )

    def test_degrees_match_direct_pairing(self, four_point_tri):
        tri = four_point_tri
        s = star_section(2, -1, 3)
        d = degree_vector(tri, s)
        for e_id, e in enumerate(tri.edges):
            if not e.interior:
                continue
            sigma, sigma_p = sorted(e.cells)
            p, q = tri.edge_points(e)
            alpha, beta = (p, q) if p < q else (q, p)
            expected = pairing(vsub(s[sigma], s[sigma_p]), perp(vsub(beta, alpha)))
            assert d.degrees[e_id] == expected

    def test_shift_invariance_and_additivity(self, four_point_tri):
        rng = random.Random(20260814)
        for _ in range(1000):
            s1 = star_section(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            s2 = star_section(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            n = (rng.randint(-9, 9), rng.randint(-9, 9))
            d1 = degree_vector(four_point_tri, s1)
            assert degree_vector(four_point_tri, s1.shift(n)) == d1
            d2 = degree_vector(four_point_tri, s2)
            assert degree_vector(four_point_tri, s1 + s2) == d1 + d2


class TestEnumerateSections:
    def test_single_cell_box_two_has_one_class(self, simplex_tri):
        classes = enumerate_sections(simplex_tri, 2)
        assert len(classes) == 1
        assert classes[0].items() == [(0, (0, 0))]

    def test_star_box_counts(self, four_point_tri):
        # entries in [-b, b]^2 allow family parameters |m| <= 2b
        assert len(enumerate_sections(four_point_tri, 0)) == 1
        assert len(enumerate_sections(four_point_tri, 1)) == 5
        assert len(enumerate_sections(four_point_tri, 2)) == 9

    def test_star_box_one_representatives(self, four_point_tri):
        classes = enumerate_sections(four_point_tri, 1)
        expected = [tuple(star_section(0, 0, m).items()) for m in range(-2, 3)]
        assert [tuple(c.items()) for c in classes] == sorted(expected)

    def test_representatives_are_normalized_and_valid(self, four_point_tri):
        for s in enumerate_sections(four_point_tri, 2):
            assert s[0] == (0, 0)
            degree_vector(four_point_tri, s)

    def test_negative_box_rejected(self, four_point_tri):
        with pytest.raises(ValueError):
            enumerate_sections(four_point_tri, -1)

    def test_walk_matches_reference_on_seeded_triangulations(self):
        # perturb_heights of zero heights gives a random regular
        # triangulation per seed (seeds that leave a square face are
        # skipped); equal triangulations give equal lists, so the oracle
        # runs once per distinct (triangulation, box)
        reference = {}
        compared = 0
        for name, points, max_box in WALK_SHAPES:
            base = HeightedPolygon.create(points, 0)
            tris = []
            for seed in itertools.count():
                if len(tris) == 300:
                    break
                with contextlib.suppress(NonTriangularCell):
                    tris.append((seed, regular_triangulation(perturb_heights(base, seed))))
            for seed, tri in tris:
                box = seed % (max_box + 1)
                if (tri, box) not in reference:
                    reference[tri, box] = _reference_enumerate_sections(tri, box)
                got = enumerate_sections(tri, box)
                assert got == reference[tri, box], (name, seed, box)
                compared += 1
        assert compared >= 2000
        assert len({tri.cells for tri, _ in reference}) >= 60

    def test_long_strip_walks_past_the_recursion_limit(self):
        # a zigzag strip of 1040 cells: the dual graph is a path from cell 0,
        # deeper than Python's default recursion limit of 1000
        n = 520
        points = [(x, y) for x in range(n + 1) for y in (0, 1)]
        cells = [c for x in range(n)
                 for c in ((2 * x, 2 * x + 1, 2 * x + 2), (2 * x + 1, 2 * x + 2, 2 * x + 3))]
        tri = build_triangulation(points, cells)
        assert len(tri.cells) == 1040
        classes = enumerate_sections(tri, 0)
        assert len(classes) == 1
        assert set(classes[0].values.values()) == {(0, 0)}
        rep = classification_report(tri, 0)
        assert len(rep.degree_vectors) == 1
        assert len(rep.degree_vectors[0].degrees) == 1039
        assert set(rep.degree_vectors[0].degrees.values()) == {0}

    def test_star_box_twenty_is_fast(self, four_point_tri):
        start = time.perf_counter()
        classes = enumerate_sections(four_point_tri, 20)
        assert time.perf_counter() - start < 1.0
        assert len(classes) == 81
        assert classes == sorted(classes, key=lambda s: tuple(s.items()))
        assert all(s[0] == (0, 0) for s in classes)


class TestClassificationReport:
    def test_star_degree_map_is_injective_in_box(self, four_point_tri):
        rep = classification_report(four_point_tri, 2)
        assert isinstance(rep, ClassificationReport)
        assert len(rep.classes) == len(rep.degree_vectors) == 9
        assert len({tuple(d.items()) for d in rep.degree_vectors}) == 9

    def test_degree_vectors_close_under_addition_within_family(self, four_point_tri):
        d1 = degree_vector(four_point_tri, star_section(0, 0, 1))
        d2 = degree_vector(four_point_tri, star_section(0, 0, 2))
        d3 = degree_vector(four_point_tri, star_section(0, 0, 3))
        assert d1 + d2 == d3

    def test_mismatched_edge_sets_raise(self):
        with pytest.raises(UnknownCell):
            LineBundleClass({0: 1}) + LineBundleClass({1: 1})
