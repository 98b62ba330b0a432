"""Tests for the floating-point layer: localization, amoebas, moment map."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conicmirror.errors import UndefinedAtOrigin
from conicmirror.lattice_geometry import HeightedPolygon, perturb_heights, regular_triangulation
from conicmirror.numerics import (
    AmoebaCloud,
    MomentParams,
    PatchworkParams,
    amoeba_sample,
    chamber_distance,
    default_viewport,
    h_localized,
    h_t,
    h_ts,
    hausdorff_to_tropical,
    leg_zero_samples,
    localization_report,
    moment_map,
    moment_map_detail,
    phi_alpha,
    singular_level,
    smoothstep,
    stratum_of,
)
from conicmirror.tropical_curves import tropical_curve

from conftest import FOUR_HEIGHTS, FOUR_POINTS, PARABOLOID_POINTS


@pytest.fixture(scope="module")
def simplex_curve(simplex, simplex_tri):
    return tropical_curve(simplex, simplex_tri)


@pytest.fixture(scope="module")
def four_curve(four_point, four_point_tri):
    return tropical_curve(four_point, four_point_tri)


def term(poly, params, alpha, w):
    return (
        math.exp(-float(poly.height(alpha)) * params.log_t)
        * w[0] ** alpha[0]
        * w[1] ** alpha[1]
    )


class TestParams:
    def test_patchwork_validation(self):
        with pytest.raises(ValueError):
            PatchworkParams(t=1.0, epsilon_loc=0.1)
        with pytest.raises(ValueError):
            PatchworkParams(t=2.0, epsilon_loc=0.0)

    def test_moment_validation(self):
        with pytest.raises(ValueError):
            MomentParams(epsilon_blowup=0.0, chi=1.0)
        with pytest.raises(ValueError):
            MomentParams(epsilon_blowup=0.5, chi=1.5)

    def test_localization_report(self, simplex_curve, four_curve):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.05)
        rep = localization_report(simplex_curve, params)
        assert rep.min_feature_times_log_t == math.inf
        assert rep.eps_times_log_t == pytest.approx(0.1)
        assert rep.ok
        # shortest bounded edge of the three-vertex curve has length 3/4
        big = localization_report(four_curve, PatchworkParams(t=math.e**2, epsilon_loc=1.0))
        assert big.min_feature_times_log_t == pytest.approx(1.5)
        assert not big.ok
        small = localization_report(four_curve, params)
        assert small.ok


class TestPhiAlpha:
    def test_smoothstep_shape(self):
        assert smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0
        assert smoothstep(0.5) == 0.5
        xs = [i / 20 for i in range(21)]
        assert all(smoothstep(a) <= smoothstep(b) for a, b in zip(xs, xs[1:]))

    def test_deep_inside_chamber_is_zero(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        assert phi_alpha(simplex, params, (0, 0), (-5.0, -5.0)) == 0.0

    def test_distance_epsilon_log_t_is_one(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        lt = params.log_t
        # the origin chamber is {n1 <= 0, n2 <= 0}; from (d, -3) the distance is d
        assert phi_alpha(simplex, params, (0, 0), (0.1 * lt, -3.0)) == 1.0

    def test_midpoint_value_and_monotonicity(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        lt = params.log_t
        assert chamber_distance(simplex, params, (0, 0), (0.075 * lt, -3.0)) == pytest.approx(
            0.075 * lt, abs=1e-13
        )
        mid = phi_alpha(simplex, params, (0, 0), (0.075 * lt, -3.0))
        assert mid == pytest.approx(0.5, abs=1e-12)
        lo = phi_alpha(simplex, params, (0, 0), (0.06 * lt, -3.0))
        hi = phi_alpha(simplex, params, (0, 0), (0.08 * lt, -3.0))
        assert 0.0 < lo < mid < hi < 1.0

    def test_gradient_bound(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        bound = 4.0 / (params.epsilon_loc * params.log_t)
        rng = random.Random(9)
        h = 1e-6
        for _ in range(50):
            n = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for alpha in simplex.points:
                dx = (
                    phi_alpha(simplex, params, alpha, (n[0] + h, n[1]))
                    - phi_alpha(simplex, params, alpha, (n[0] - h, n[1]))
                ) / (2 * h)
                dy = (
                    phi_alpha(simplex, params, alpha, (n[0], n[1] + h))
                    - phi_alpha(simplex, params, alpha, (n[0], n[1] - h))
                ) / (2 * h)
                assert abs(dx) + abs(dy) < bound

    def test_unused_point_with_empty_chamber_cuts_to_one(self):
        # raising the origin height kills its chamber entirely
        dead = HeightedPolygon.create(
            ((0, 0), (1, 0), (0, 1), (-1, -1)), (Fraction(1, 4), 0, 0, 0)
        )
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        for n in [(-3.0, -2.0), (0.0, 0.0), (4.0, 1.0), (-1.0, 5.0)]:
            assert phi_alpha(dead, params, (0, 0), n) == 1.0

    def test_unknown_alpha_rejected(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        with pytest.raises(ValueError):
            phi_alpha(simplex, params, (5, 5), (0.0, 0.0))


class TestPatchworkFamily:
    def test_s_zero_is_plain_sum(self, four_point):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        w = (0.7 + 0.2j, -1.1 + 0.4j)
        direct = sum(term(four_point, params, a, w) for a in four_point.points)
        assert h_ts(four_point, params, 0.0, w) == pytest.approx(direct)
        assert h_t(four_point, params, w) == pytest.approx(direct)

    def test_custom_coefficients_enter_h_t_but_not_h_localized(self, simplex):
        params = PatchworkParams(
            t=math.e**2, epsilon_loc=0.1, coefficients={(0, 0): 5.0 + 0j}
        )
        unit = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        w = (0.9 + 0.1j, 1.2 - 0.3j)
        assert h_t(simplex, params, w) == pytest.approx(
            h_t(simplex, unit, w) + 4.0 * term(simplex, params, (0, 0), w)
        )
        assert h_localized(simplex, params, w) == h_localized(simplex, unit, w)

    def test_zero_component_rejected(self, simplex):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        with pytest.raises(ValueError):
            h_ts(simplex, params, 0.0, (0.0, 1.0))

    def test_two_term_reduction_on_leg(self, simplex, simplex_curve):
        params = PatchworkParams(t=math.e**3, epsilon_loc=0.05)
        lt = params.log_t
        leg = next(l for l in simplex_curve.legs if l.direction == (1, 1))
        alpha, beta = leg.dual_edge
        rng = random.Random(5)
        for k in range(100):
            s = 0.5 + 2.0 * k / 99
            n = (
                lt * (float(leg.base[0]) + s * leg.direction[0]),
                lt * (float(leg.base[1]) + s * leg.direction[1]),
            )
            w = (
                cmath.exp(complex(n[0], rng.uniform(0, 2 * math.pi))),
                cmath.exp(complex(n[1], rng.uniform(0, 2 * math.pi))),
            )
            two = term(simplex, params, alpha, w) + term(simplex, params, beta, w)
            h = h_localized(simplex, params, w)
            assert abs(h - two) <= 1e-12 * abs(two)


class TestStrata:
    def test_frozen_examples(self, simplex):
        params = PatchworkParams(t=math.e**3, epsilon_loc=0.05)
        lt = params.log_t
        assert stratum_of(simplex, params, (-4 * lt, -4 * lt)) == ((0, 0),)
        assert stratum_of(simplex, params, (1.5 * lt, 1.5 * lt)) == ((0, 1), (1, 0))
        assert stratum_of(simplex, params, (0.0, 0.0)) == ((0, 0), (0, 1), (1, 0))

    def test_grid_realizes_only_faces(self, four_point, four_point_tri):
        params = PatchworkParams(t=math.e**3, epsilon_loc=0.05)
        lt = params.log_t
        tri = four_point_tri
        faces = {frozenset([p]) for p in tri.points}
        for e in tri.edges:
            faces.add(frozenset(tri.edge_points(e)))
        for cell in tri.cells:
            faces.add(frozenset(tri.points[i] for i in cell))
        seen = set()
        for i in range(21):
            for j in range(21):
                n = (lt * (-2.0 + 0.2 * i), lt * (-2.0 + 0.2 * j))
                tau = frozenset(stratum_of(four_point, params, n))
                assert tau in faces
                seen.add(tau)
        # all three kinds of face appear on a grid this dense
        assert any(len(tau) == 1 for tau in seen)
        assert any(len(tau) == 2 for tau in seen)
        assert any(len(tau) == 3 for tau in seen)


def _reference_amoeba(poly, params, grid, viewport):
    """The per-line sampler: numpy roots on each grid line, then a scalar
    residual check |h_t| <= 1e-8 * (sum of term magnitudes) per root."""
    (_, ylo), (_, yhi) = viewport
    lt = params.log_t
    k = max(0, -min(p[0] for p in poly.points))
    max_pow = max(p[0] for p in poly.points) + k
    scales = {
        alpha: params.coefficient(alpha) * math.exp(-float(poly.height(alpha)) * lt)
        for alpha in poly.points
    }
    r2_values = np.linspace(ylo, yhi, grid[0])
    points, failed = [], []
    for line in range(grid[0] * grid[1]):
        i_r2, i_ph = divmod(line, grid[1])
        r2 = float(r2_values[i_r2])
        w2 = math.exp(lt * r2) * cmath.exp(1j * (2.0 * math.pi * i_ph / grid[1]))
        coeffs = np.zeros(max_pow + 1, dtype=complex)
        for alpha, c in scales.items():
            coeffs[alpha[0] + k] += c * w2 ** alpha[1]
        series = coeffs[::-1]
        if not np.any(series != 0):
            continue
        try:
            roots = np.roots(series)
        except np.linalg.LinAlgError:
            failed.append(line)
            continue
        for w1 in roots:
            if abs(w1) == 0.0:
                continue
            parts = [scales[a] * w1 ** a[0] * w2 ** a[1] for a in poly.points]
            mag_sum = sum(abs(p) for p in parts)
            if mag_sum == 0.0 or abs(sum(parts)) > 1e-8 * mag_sum:
                continue
            points.append((math.log(abs(w1)) / lt, r2))
    return AmoebaCloud(points=tuple(points), failed_lines=tuple(failed), viewport=viewport)


def _curve_case(points, heights, log_t):
    poly = HeightedPolygon.create(points, heights)
    viewport = default_viewport(tropical_curve(poly, regular_triangulation(poly)))
    return poly, PatchworkParams(t=math.exp(log_t), epsilon_loc=0.05), (100, 32), viewport


_SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
_PARABOLOID_HEIGHTS = [
    x * x + y * y + (Fraction(1, 10) if (x, y) == (1, 1) else 0) for x, y in PARABOLOID_POINTS
]
_TRIANGLE_4 = [(x, y) for x in range(5) for y in range(5 - x)]


def _amoeba_cases():
    deg4 = perturb_heights(
        HeightedPolygon.create(_TRIANGLE_4, [x * x + y * y for x, y in _TRIANGLE_4]), seed=1
    )
    square = HeightedPolygon.create(_SQUARE, 0)
    return {
        "four_point_e2": _curve_case(FOUR_POINTS, FOUR_HEIGHTS, 2),
        "four_point_e8": _curve_case(FOUR_POINTS, FOUR_HEIGHTS, 8),
        "paraboloid_e16": _curve_case(PARABOLOID_POINTS, _PARABOLOID_HEIGHTS, 16),
        "triangle4_e12": _curve_case(deg4.points, deg4.heights, 12),
        # the leading coefficient 1 - w_2 vanishes on the line w_2 = 1
        "square_zero_leading": (
            square,
            PatchworkParams(t=math.e**2, epsilon_loc=0.05, coefficients={(1, 0): 1, (1, 1): -1}),
            (3, 4),
            ((-1.0, -1.0), (1.0, 1.0)),
        ),
        # coefficients overflow to inf: lines the eigensolver rejects
        "square_overflow": (
            square,
            PatchworkParams(t=math.e**4, epsilon_loc=0.05, coefficients={(1, 1): 1e300}),
            (20, 4),
            ((-100.0, -100.0), (100.0, 100.0)),
        ),
        # w_1 does not occur: constant lines without roots
        "vertical_segment": (
            HeightedPolygon.create(((0, 0), (0, 1)), 0),
            PatchworkParams(t=math.e**2, epsilon_loc=0.05),
            (9, 5),
            ((-2.0, -2.0), (2.0, 2.0)),
        ),
    }


class TestAmoeba:
    def test_residual_products_round_like_scalar_products(self):
        # numpy's vectorized complex multiply fuses terms on some CPUs, so
        # the residual filter multiplies on real and imaginary parts
        from conicmirror.numerics import _cmul

        rng = np.random.default_rng(5)
        a = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        b = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        re, im = _cmul(a.real, a.imag, b.real, b.imag)
        scalar = [complex(x) * complex(y) for x, y in zip(a, b)]
        assert re.tolist() == [z.real for z in scalar]
        assert im.tolist() == [z.imag for z in scalar]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", list(_amoeba_cases()))
    def test_batched_sampler_matches_per_line_reference(self, name):
        poly, params, grid, viewport = _amoeba_cases()[name]
        cloud = amoeba_sample(poly, params, grid=grid, viewport=viewport)
        assert cloud == _reference_amoeba(poly, params, grid, viewport)
        if name == "square_overflow":
            assert len(cloud.failed_lines) == 27
        if name == "vertical_segment":
            assert cloud.points == () and cloud.failed_lines == ()

    def test_binomial_line_amoeba(self):
        line = HeightedPolygon.create(((0, 0), (1, 0)), (0, 0))
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        cloud = amoeba_sample(
            line, params, grid=(11, 8), viewport=((-2.0, -2.0), (2.0, 2.0))
        )
        assert cloud.failed_lines == ()
        assert len(cloud.points) == 11 * 8
        assert max(abs(p[0]) for p in cloud.points) < 1e-9

    def test_viewport_default_doubles_bbox_plus_three(self, four_curve):
        assert default_viewport(four_curve) == ((-3.875, -3.875), (3.625, 3.625))

    def test_hausdorff_of_exact_curve_samples_is_small(self, four_curve):
        # feed curve samples back as a fake cloud: distance bounded by step
        vp = default_viewport(four_curve)
        from conicmirror.numerics import _clipped_curve_segments

        pts = []
        for p, q in _clipped_curve_segments(four_curve, vp):
            length = math.hypot(q[0] - p[0], q[1] - p[1])
            count = max(2, int(length / 0.01) + 1)
            for k in range(count):
                s = k / (count - 1)
                pts.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
        cloud = AmoebaCloud(points=tuple(pts), failed_lines=(), viewport=vp)
        assert hausdorff_to_tropical(cloud, four_curve) < 0.03

    def test_four_point_amoeba_approaches_curve(self, four_point, four_curve):
        distances = []
        for logt in (2, 8):
            params = PatchworkParams(t=math.exp(logt), epsilon_loc=0.05)
            cloud = amoeba_sample(four_point, params, grid=(200, 64), curve=four_curve)
            assert cloud.failed_lines == ()
            distances.append(hausdorff_to_tropical(cloud, four_curve))
        assert distances[1] < distances[0]
        assert distances[1] < 0.35

    def test_leg_zero_samples_satisfy_leg_equation(self, simplex, simplex_curve):
        params = PatchworkParams(t=math.e**3, epsilon_loc=0.05)
        for leg in simplex_curve.legs:
            samples = leg_zero_samples(simplex, params, leg, count=40)
            assert len(samples) == 40
            alpha, beta = leg.dual_edge
            for w in samples:
                ta = term(simplex, params, alpha, w)
                tb = term(simplex, params, beta, w)
                assert abs(ta + tb) <= 1e-9 * (abs(ta) + abs(tb))


class TestMomentMap:
    def test_chi_zero_is_pi_u_squared(self):
        params = MomentParams(epsilon_blowup=0.3, chi=0.0)
        assert moment_map(params, 1.0, 7.0) == math.pi
        assert moment_map(params, 2.0, 0.0) == math.pi * 4.0

    def test_chi_one_unit_point(self):
        params = MomentParams(epsilon_blowup=0.3, chi=1.0)
        assert moment_map(params, 1.0, 1.0) == pytest.approx(
            math.pi + 0.15, abs=1e-15
        )

    def test_origin_limit_and_strict_raise(self):
        params = MomentParams(epsilon_blowup=0.3, chi=1.0)
        assert moment_map(params, 0.0, 0.0) == 0.0
        detail = moment_map_detail(params, 0.0, 0.0)
        assert detail.origin_limit_used
        assert detail.value == 0.0
        with pytest.raises(UndefinedAtOrigin):
            moment_map(params, 0.0, 0.0, strict=True)

    def test_singular_level_reported(self):
        params = MomentParams(epsilon_blowup=0.3, chi=0.0)
        assert singular_level(params) == 0.3
        at_level = moment_map_detail(params, math.sqrt(0.3 / math.pi), 0.0)
        assert at_level.at_singular_level
        off_level = moment_map_detail(
            MomentParams(epsilon_blowup=0.3, chi=1.0), 1.0, 1.0
        )
        assert not off_level.at_singular_level

    def test_monotone_in_abs_u(self):
        for chi in (0.0, 1.0):
            params = MomentParams(epsilon_blowup=0.7, chi=chi)
            for h in (0.0, 0.5, 2.0):
                values = [moment_map(params, u / 10, h) for u in range(0, 31)]
                assert all(a < b for a, b in zip(values, values[1:]))

    def test_fractional_chi_rejected(self):
        params = MomentParams(epsilon_blowup=0.3, chi=0.5)
        with pytest.raises(ValueError):
            moment_map(params, 1.0, 1.0)

    def test_negative_moduli_rejected(self):
        params = MomentParams(epsilon_blowup=0.3, chi=0.0)
        with pytest.raises(ValueError):
            moment_map(params, -1.0, 0.0)
