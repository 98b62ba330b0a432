"""Theta ring structure constants and the exhaustive isomorphism check."""

import random

import pytest

from conicmirror.mirror_ring import MirrorElement, multiply
from conicmirror.theta_ring import (
    ThetaElement,
    theta_multiply,
    verify_mirror_iso,
)

P = ThetaElement.basis


def test_product_examples(simplex):
    assert theta_multiply(simplex, P((1, 0), 0), P((0, 1), 0)) == P((1, 1), 0) + P(
        (1, 1), 1
    )
    for a, b in [(0, 0), (2, -3), (-1, 4)]:
        assert theta_multiply(simplex, P((0, 0), a), P((0, 0), b)) == P((0, 0), a + b)
    for i in (0, 1, 2, 5):
        assert theta_multiply(simplex, P((-1, -1), -i), P((-1, -1), -i)) == P(
            (-2, -2), -2 * i
        )


def test_theta_multiply_is_mirror_multiply(simplex):
    x, y = P((1, 0), 0), P((0, 1), 0)
    lhs = theta_multiply(simplex, x, y)
    rhs = multiply(simplex, x, y)
    assert lhs == rhs == MirrorElement.basis((1, 1), 0) + MirrorElement.basis((1, 1), 1)


def test_group_ring_map_is_not_a_ring_map(simplex):
    # the binomial deformation is nontrivial: over the simplex the product of
    # the two coordinate generators has two terms, so forgetting corrections
    # (p_{n,i} -> group-ring (n,i)) fails to be multiplicative
    prod = theta_multiply(simplex, P((1, 0), 0), P((0, 1), 0))
    assert len(prod.coefficients) == 2


def test_n_grading(simplex, four_point):
    rng = random.Random(5)
    for poly in (simplex, four_point):
        for _ in range(30):
            x = P((rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-2, 2)) + P(
                (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-2, 2)
            )
            y = P((rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(-2, 2))
            prod = theta_multiply(poly, x, y)
            allowed = {
                (nx[0] + ny[0], nx[1] + ny[1])
                for nx, _ in x.coefficients
                for ny, _ in y.coefficients
            }
            assert {n for n, _ in prod.coefficients} <= allowed


def test_i_shift_is_p_multiplication(simplex, four_point):
    rng = random.Random(9)
    for poly in (simplex, four_point):
        for _ in range(40):
            n = (rng.randint(-5, 5), rng.randint(-5, 5))
            i = rng.randint(-4, 4)
            assert theta_multiply(poly, P((0, 0), 1), P(n, i)) == P(n, i + 1)


def test_associativity_and_commutativity_random(simplex, four_point):
    rng = random.Random(13)
    for poly in (simplex, four_point):
        for _ in range(40):
            x, y, z = (
                P((rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-4, 4))
                for _ in range(3)
            )
            assert theta_multiply(poly, x, y) == theta_multiply(poly, y, x)
            assert theta_multiply(poly, theta_multiply(poly, x, y), z) == theta_multiply(
                poly, x, theta_multiply(poly, y, z)
            )


def test_verify_mirror_iso_small(simplex, four_point):
    rep = verify_mirror_iso(simplex, 1, 0)
    assert rep.ok and rep.pairs_checked == 81
    rep4 = verify_mirror_iso(four_point, 2, 1)
    assert rep4.ok and rep4.pairs_checked == (25 * 3) ** 2
    assert rep4.failures == ()


def test_verify_mirror_iso_bad_bounds(simplex):
    with pytest.raises(ValueError):
        verify_mirror_iso(simplex, 0, 2)
