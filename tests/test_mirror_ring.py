"""Support function, closed-form product, character-sum oracle engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicmirror.errors import NotRegular
from conicmirror.lattice_geometry import HeightedPolygon
from conicmirror.mirror_ring import (
    MirrorElement,
    RawCharacterSum,
    c3_preset,
    canonicalize,
    ell1,
    ell2,
    embed,
    multiply,
    oracle_multiply,
    oracle_product,
)

from conftest import FOUR_HEIGHTS, FOUR_POINTS

B = MirrorElement.basis

covectors = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def test_ell1_examples(simplex):
    assert ell1(simplex, (0, 0)) == 0
    assert ell1(simplex, (1, 0)) == 1
    assert ell1(simplex, (-1, -1)) == 0


def test_ell1_is_min_level_in_cone(simplex, four_point):
    # independent route: smallest l with <-n, a> + l >= 0 for all a
    rng = random.Random(1)
    for poly in (simplex, four_point):
        for _ in range(200):
            n = (rng.randint(-9, 9), rng.randint(-9, 9))
            l = -100
            while any(-n[0] * a[0] - n[1] * a[1] + l < 0 for a in poly.points):
                l += 1
            assert ell1(poly, n) == l


def test_ell2_examples(simplex):
    assert ell2(simplex, (1, 0), (0, 1)) == 1
    assert ell2(simplex, (1, 0), (-1, 0)) == 1
    for n in [(0, 0), (3, -2), (-5, 1)]:
        assert ell2(simplex, n, (0, 0)) == 0


@given(covectors, covectors, covectors)
@settings(max_examples=200, deadline=None)
def test_ell2_nonnegative_symmetric_cocycle(n, np, npp):
    poly = HeightedPolygon.create(FOUR_POINTS, FOUR_HEIGHTS)
    assert ell2(poly, n, np) >= 0
    assert ell2(poly, n, np) == ell2(poly, np, n)
    s = (n[0] + np[0], n[1] + np[1])
    sp = (np[0] + npp[0], np[1] + npp[1])
    assert ell2(poly, n, np) + ell2(poly, s, npp) == ell2(poly, n, sp) + ell2(
        poly, np, npp
    )


def test_multiply_examples(simplex):
    assert multiply(simplex, B((1, 0), 0), B((0, 1), 0)) == B((1, 1), 0) + B((1, 1), 1)
    x = B((2, -1), 3, Fraction(5, 7)) + B((0, 1), -2)
    assert multiply(simplex, B((0, 0), 0), x) == x
    assert multiply(simplex, B((-1, -1), 0), B((-1, -1), 0)) == B((-2, -2), 0)
    # int coefficients times a Fraction: the middle binomial terms cancel
    x = B((1, 0), 0, 2) + B((1, 0), 1, -2) + B((0, 0), 0, 1)
    prod = multiply(simplex, x, B((0, 1), 0, "1/2"))
    assert ((1, 1), 1) not in prod.coefficients
    assert prod.coefficients == {
        ((1, 1), 0): Fraction(1),
        ((1, 1), 2): Fraction(-1),
        ((0, 1), 0): Fraction(1, 2),
    }
    assert prod == oracle_product(simplex, x, B((0, 1), 0, "1/2"))
    # integral values are stored as int, the others as Fraction
    assert {type(c) for c in prod.coefficients.values()} == {int, Fraction}
    assert type(prod.coefficients[((1, 1), 0)]) is int


def test_multiply_commutative_random(simplex, four_point):
    rng = random.Random(7)
    for poly in (simplex, four_point):
        for _ in range(50):
            x = B((rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(-3, 3))
            y = B((rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(-3, 3))
            assert multiply(poly, x, y) == multiply(poly, y, x)


def test_multiply_associative_random(simplex, four_point):
    rng = random.Random(11)
    for poly in (simplex, four_point):
        for _ in range(40):
            x, y, z = (
                B((rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-3, 3))
                for _ in range(3)
            )
            assert multiply(poly, multiply(poly, x, y), z) == multiply(
                poly, x, multiply(poly, y, z)
            )


def test_oracle_engine_example(simplex):
    raw = oracle_multiply(
        simplex,
        embed(simplex, B((1, 0), 0)),
        embed(simplex, B((0, 1), 0)),
    )
    assert raw.items() == [(((-1, -1), 2, 0), Fraction(1))]
    assert canonicalize(simplex, raw) == B((1, 1), 0) + B((1, 1), 1)


def test_canonicalize_chi_examples(simplex):
    chi01 = RawCharacterSum({((0, 0), 1, 0): 1})
    assert canonicalize(simplex, chi01) == B((0, 0), 0) + B((0, 0), 1)  # 1 + p
    chi00 = RawCharacterSum({((0, 0), 0, 0): 1})
    assert canonicalize(simplex, chi00) == B((0, 0), 0)


def test_not_regular(simplex):
    # the level-0 label of the coordinate y is outside the cone
    bad = RawCharacterSum({((0, -1), 0, 0): 1})
    with pytest.raises(NotRegular):
        canonicalize(simplex, bad)
    with pytest.raises(NotRegular):
        oracle_multiply(simplex, bad, RawCharacterSum({((0, 0), 0, 0): 1}))


def test_canonicalize_embed_roundtrip(simplex, four_point):
    rng = random.Random(3)
    for poly in (simplex, four_point):
        for _ in range(30):
            x = MirrorElement()
            for _ in range(rng.randint(1, 4)):
                x = x + B(
                    (rng.randint(-5, 5), rng.randint(-5, 5)),
                    rng.randint(-3, 3),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                )
            assert canonicalize(poly, embed(poly, x)) == x


def test_two_engines_agree_small_bounds(simplex, four_point):
    for poly in (simplex, four_point):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    for d in range(-2, 3):
                        x, y = B((a, b), 0), B((c, d), 1)
                        assert multiply(poly, x, y) == oracle_product(poly, x, y)


def test_element_algebra():
    x = B((1, 0), 0, 2) + B((1, 0), 0, -2)
    assert x == MirrorElement()
    y = B((0, 1), 1, "3/4")
    assert (y + y).coefficients == {((0, 1), 1): Fraction(3, 2)}
    assert y.scale(4) - y.scale(4) == MirrorElement()
    assert MirrorElement().coefficients == {}


def test_c3_preset_relations():
    poly, names = c3_preset()
    x, y, z = names["x"], names["y"], names["z"]
    assert x == B((1, 0), 0) and y == B((0, 1), 0) and z == B((-1, -1), 0)
    assert multiply(poly, x, y) == B((1, 1), 0) + B((1, 1), 1)
    xyz = multiply(poly, multiply(poly, x, y), z)
    # xyz = (1+p)^2: localizing at xyz - 1 = p(p+2) inverts p
    one_plus_p = B((0, 0), 0) + B((0, 0), 1)
    assert xyz == multiply(poly, one_plus_p, one_plus_p)
    assert xyz == B((0, 0), 0) + B((0, 0), 1).scale(2) + B((0, 0), 2)


def test_pascal_row_cache_keeps_no_long_row(simplex):
    from math import comb

    from conicmirror import mirror_ring

    cache = mirror_ring._short_pascal_row
    cache.cache_clear()
    k = 3000  # ell2((k, 0), (-k, -k)) = k on the simplex
    assert ell2(simplex, (k, 0), (-k, -k)) == k
    product = multiply(simplex, B((k, 0), 0), B((-k, -k), 0))
    assert product.coefficients[((0, -k), k // 2)] == comb(k, k // 2)
    assert cache.cache_info().currsize == 0
    # short rows stay cached, at most one per ell2 up to the bound
    for n in range(100):
        multiply(simplex, B((n, 0), 0), B((-n, -n), 0))
    assert cache.cache_info().currsize == cache.cache_info().maxsize == mirror_ring._SHORT_ROW + 1
