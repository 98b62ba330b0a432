"""Tests for quotient groups, the block cover algebra, and cover predicates."""

import itertools
import random
from fractions import Fraction

import pytest

from conicmirror.errors import InconsistentEntry, SingularMatrix
from conicmirror.lattice_geometry import HeightedPolygon, orient
from conicmirror.mckay_covers import (
    CoverAlgebraElement,
    Sublattice,
    character_decomposition,
    cover_compose,
    cover_polygon,
    cover_to_theta,
    has_compact_divisor,
    quotient,
    theta_to_cover,
    truncated_hom_dimension,
)
from conicmirror.theta_ring import ThetaElement, theta_multiply

# columns (1,-1), (0,3): the kernel of (a, b) -> a + b mod 3
SUB_Z3 = Sublattice(((1, 0), (-1, 3)))
# columns (1,1), (0,3): the kernel of (a, b) -> a - b mod 3
SUB_Z3_DIAG = Sublattice(((1, 0), (1, 3)))


def cover_unit(sub):
    """Sum of the identity generators (g, g, 0, 0) over all g in G."""
    return CoverAlgebraElement({(g, g, (0, 0), 0): 1 for g in quotient(sub).elements()})


def random_theta(rng, terms=2, n_bound=3, i_bound=2, c_bound=4):
    out = {}
    for _ in range(terms):
        key = ((rng.randint(-n_bound, n_bound), rng.randint(-n_bound, n_bound)),
               rng.randint(-i_bound, i_bound))
        out[key] = Fraction(rng.randint(-c_bound, c_bound))
    return ThetaElement(out)


def random_cover_element(rng, group, poly_unused=None, terms=2):
    out = {}
    els = group.elements()
    for _ in range(terms):
        g = rng.choice(els)
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        h = group.add(g, group.projection(n))
        out[(g, h, n, rng.randint(-2, 2))] = Fraction(rng.randint(-4, 4))
    return CoverAlgebraElement(out)


class TestQuotient:
    def test_diagonal_congruence_gives_z3(self):
        group = quotient(SUB_Z3_DIAG)
        assert group.invariant_factors == (1, 3)
        assert group.order == 3
        # both columns of the basis die
        assert group.projection((1, 1)) == (0, 0)
        assert group.projection((0, 3)) == (0, 0)
        # (1,0) and (0,1) generate and are inverse to each other mod N0
        a, b = group.projection((1, 0)), group.projection((0, 1))
        assert a != (0, 0) and b != (0, 0)
        assert group.add(a, b) == (0, 0)

    def test_doubled_lattice_gives_z2_x_z2(self):
        group = quotient(Sublattice(((2, 0), (0, 2))))
        assert group.invariant_factors == (2, 2)
        assert sorted(group.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert group.projection((1, 0)) != group.projection((0, 1))
        assert group.projection((5, 3)) == group.projection((1, 1))

    def test_full_lattice_gives_trivial_group(self):
        group = quotient(Sublattice.full())
        assert group.invariant_factors == (1, 1)
        assert group.elements() == [(0, 0)]
        assert group.projection((7, -9)) == (0, 0)

    def test_projection_is_homomorphism_with_kernel_n0(self):
        rng = random.Random(3)
        for sub in (SUB_Z3, SUB_Z3_DIAG, Sublattice(((2, 1), (0, 3)))):
            group = quotient(sub)
            (a, c), (b, d) = sub.basis
            for _ in range(200):
                m = (rng.randint(-9, 9), rng.randint(-9, 9))
                n = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert group.projection((m[0] + n[0], m[1] + n[1])) == group.add(
                    group.projection(m), group.projection(n)
                )
                # shifting by a lattice vector of N0 does not move the class
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                shifted = (m[0] + s * a + t * c, m[1] + s * b + t * d)
                assert group.projection(shifted) == group.projection(m)

    def test_kernel_is_exactly_n0(self):
        group = quotient(SUB_Z3)
        killed = [
            (a, b)
            for a in range(-6, 7)
            for b in range(-6, 7)
            if group.projection((a, b)) == (0, 0)
        ]
        assert killed == [
            (a, b) for a in range(-6, 7) for b in range(-6, 7) if (a + b) % 3 == 0
        ]

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularMatrix):
            Sublattice(((1, 2), (2, 4)))

    def test_invariant_factor_formula(self):
        # d1 = gcd of entries, d1 * d2 = |det|, checked on assorted bases
        cases = [((3, 0), (0, 3)), ((2, 4), (0, 2)), ((1, 5), (2, 4)), ((6, 2), (2, 6))]
        from math import gcd

        for basis in cases:
            sub = Sublattice(basis)
            d1, d2 = quotient(sub).invariant_factors
            (a, c), (b, d) = sub.basis
            assert d1 == gcd(gcd(a, b), gcd(c, d))
            assert d1 * d2 == sub.index()
            assert d2 % d1 == 0


class TestCoverCompose:
    def test_z3_generator_composition(self, simplex):
        group = quotient(SUB_Z3)
        g1 = group.projection((1, 0))
        assert group.projection((0, 1)) == g1
        g2 = group.add(g1, g1)
        x = CoverAlgebraElement({(g1, g2, (0, 1), 0): 1})
        y = CoverAlgebraElement({((0, 0), g1, (1, 0), 0): 1})
        out = cover_compose(simplex, SUB_Z3, x, y)
        expected = CoverAlgebraElement(
            {
                ((0, 0), g2, (1, 1), 0): Fraction(1),
                ((0, 0), g2, (1, 1), 1): Fraction(1),
            }
        )
        assert out == expected

    def test_mismatched_blocks_compose_to_zero(self, simplex):
        group = quotient(SUB_Z3)
        g1 = group.projection((1, 0))
        g2 = group.add(g1, g1)
        x = CoverAlgebraElement({(g1, g2, (0, 1), 0): 1})
        y = CoverAlgebraElement({((0, 0), g2, (1, 1), 0): 1})
        assert cover_compose(simplex, SUB_Z3, x, y) == CoverAlgebraElement()

    def test_unit_is_two_sided(self, simplex):
        rng = random.Random(11)
        group = quotient(SUB_Z3)
        unit = cover_unit(SUB_Z3)
        assert len(dict(unit.entries)) == 3
        for _ in range(25):
            x = random_cover_element(rng, group)
            assert cover_compose(simplex, SUB_Z3, unit, x) == x
            assert cover_compose(simplex, SUB_Z3, x, unit) == x

    def test_inconsistent_entry_rejected(self, simplex):
        # (1,0) projects to a generator, not to 0, so a (0,0) -> (0,0) block
        # entry with n = (1,0) is inconsistent
        bad = CoverAlgebraElement({((0, 0), (0, 0), (1, 0), 0): 1})
        good = cover_unit(SUB_Z3)
        with pytest.raises(InconsistentEntry):
            cover_compose(simplex, SUB_Z3, bad, good)
        with pytest.raises(InconsistentEntry):
            cover_compose(simplex, SUB_Z3, good, bad)

    def test_block_labels_must_be_residues(self, simplex):
        # G = Z/2 x Z/2; (0, 3) names the same element as (0, 1) but is not
        # its residue, so it cannot be matched against other blocks
        sub = Sublattice(((2, 0), (0, 2)))
        e = CoverAlgebraElement({((0, 1), (0, 1), (0, 0), 0): 1})
        assert cover_compose(simplex, sub, e, e) == e
        for g, h in (((0, 3), (0, 3)), ((0, 1), (0, -1)), ((2, 1), (0, 1))):
            bad = CoverAlgebraElement({(g, h, (0, 0), 0): 1})
            with pytest.raises(InconsistentEntry, match="not a residue"):
                cover_compose(simplex, sub, bad, bad)
            with pytest.raises(InconsistentEntry, match="not a residue"):
                cover_compose(simplex, sub, e, bad)

    def test_associative_and_bilinear(self, simplex):
        rng = random.Random(19)
        group = quotient(SUB_Z3)
        for _ in range(150):
            x = random_cover_element(rng, group)
            y = random_cover_element(rng, group)
            z = random_cover_element(rng, group)
            left = cover_compose(simplex, SUB_Z3, cover_compose(simplex, SUB_Z3, x, y), z)
            right = cover_compose(simplex, SUB_Z3, x, cover_compose(simplex, SUB_Z3, y, z))
            assert left == right
        x = random_cover_element(rng, group)
        y = random_cover_element(rng, group)
        z = random_cover_element(rng, group)
        assert cover_compose(simplex, SUB_Z3, x + y, z) == cover_compose(
            simplex, SUB_Z3, x, z
        ) + cover_compose(simplex, SUB_Z3, y, z)
        assert cover_compose(simplex, SUB_Z3, x.scale(3), y) == cover_compose(
            simplex, SUB_Z3, x, y
        ).scale(3)

    def test_trivial_group_reduces_to_theta_multiply(self, simplex, four_point):
        rng = random.Random(23)
        full = Sublattice.full()
        for poly in (simplex, four_point):
            for _ in range(60):
                a = random_theta(rng)
                b = random_theta(rng)
                composed = cover_compose(
                    simplex if poly is simplex else poly,
                    full,
                    theta_to_cover(a),
                    theta_to_cover(b),
                )
                assert cover_to_theta(composed) == theta_multiply(
                    simplex if poly is simplex else poly, a, b
                )
                assert composed == theta_to_cover(theta_multiply(
                    simplex if poly is simplex else poly, a, b
                ))


class TestCharacterDecomposition:
    def test_element_on_sublattice_is_single_trivial_piece(self):
        x = ThetaElement(
            {((3, 0), 0): Fraction(2), ((1, 2), 1): Fraction(-1), ((0, 0), 4): Fraction(5)}
        )
        dec = character_decomposition(SUB_Z3, x)
        assert list(dec) == [(0, 0)]
        assert dec[(0, 0)] == x

    def test_three_term_example_has_two_pieces(self):
        x = (
            ThetaElement.basis((1, 0), 0)
            + ThetaElement.basis((0, 1), 0)
            + ThetaElement.basis((1, 1), 0)
        )
        dec = character_decomposition(SUB_Z3, x)
        assert len(dec) == 2
        group = quotient(SUB_Z3)
        g1 = group.projection((1, 0))
        g2 = group.add(g1, g1)
        assert dec[g1] == ThetaElement.basis((1, 0), 0) + ThetaElement.basis((0, 1), 0)
        assert dec[g2] == ThetaElement.basis((1, 1), 0)

    def test_pieces_sum_to_input(self):
        rng = random.Random(31)
        for _ in range(30):
            x = random_theta(rng, terms=5)
            dec = character_decomposition(SUB_Z3, x)
            total = ThetaElement()
            for piece in dec.values():
                total = total + piece
            assert total == x

    def test_pieces_are_ring_graded(self, simplex):
        rng = random.Random(37)
        group = quotient(SUB_Z3)
        for _ in range(30):
            x = random_theta(rng, terms=3)
            y = random_theta(rng, terms=3)
            for ga, pa in character_decomposition(SUB_Z3, x).items():
                for gb, pb in character_decomposition(SUB_Z3, y).items():
                    prod = theta_multiply(simplex, pa, pb)
                    target = group.add(ga, gb)
                    for n, _ in prod.coefficients:
                        assert group.projection(n) == target


class TestTorsorSymmetry:
    def test_truncated_hom_dimension_depends_only_on_difference(self):
        group = quotient(SUB_Z3)
        dims = {}
        for g in group.elements():
            for h in group.elements():
                dims.setdefault(group.sub(h, g), set()).add(
                    truncated_hom_dimension(SUB_Z3, g, h, 3, 3)
                )
        assert all(len(v) == 1 for v in dims.values())
        assert dims[(0, 0)] == {119}  # 17 residue-0 points in the 7x7 box, times 7

    def test_total_dimension_is_group_order_times_base(self):
        group = quotient(SUB_Z3)
        total = sum(
            truncated_hom_dimension(SUB_Z3, g, h, 3, 3)
            for g in group.elements()
            for h in group.elements()
        )
        base = truncated_hom_dimension(Sublattice.full(), (0, 0), (0, 0), 3, 3)
        assert base == 49 * 7
        assert total == group.order * base


class TestCoverPolygon:
    def test_weight_one_one_cover_has_compact_divisor(self, simplex):
        assert cover_polygon(simplex, SUB_Z3) == ((-1, 3), (0, 0), (1, 0))
        assert has_compact_divisor(simplex, SUB_Z3) is True

    def test_surface_type_cover_has_none(self, simplex):
        assert has_compact_divisor(simplex, SUB_Z3_DIAG) is False

    def test_base_and_doubled_covers_have_none(self, simplex):
        assert has_compact_divisor(simplex, Sublattice.full()) is False
        assert has_compact_divisor(simplex, Sublattice(((2, 0), (0, 2)))) is False

    def test_pick_count_matches_lattice_scan(self):
        def scan(poly, sub):
            # reference: visit every lattice point of the cover polygon's
            # bounding box
            hull = cover_polygon(poly, sub)
            k = len(hull)
            xs = range(min(x for x, _ in hull), max(x for x, _ in hull) + 1)
            ys = range(min(y for _, y in hull), max(y for _, y in hull) + 1)
            return k >= 3 and any(
                all(orient(hull[t], hull[(t + 1) % k], q) > 0 for t in range(k))
                for q in itertools.product(xs, ys)
            )

        rng = random.Random(3)
        verdicts = []
        while len(verdicts) < 400:
            points = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 5))}
            basis = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
            if basis[0][0] * basis[1][1] == basis[0][1] * basis[1][0]:
                continue
            poly, sub = HeightedPolygon.create(sorted(points), 0), Sublattice(basis)
            expected = scan(poly, sub)
            assert has_compact_divisor(poly, sub) is expected, (sorted(points), basis)
            verdicts.append(expected)
        assert min(verdicts.count(True), verdicts.count(False)) >= 50
