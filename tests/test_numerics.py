"""Tests for the floating-point layer: localization, amoebas, moment map."""

import cmath
import collections
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conicmirror.errors import RootFindingFailure
from conicmirror.lattice_geometry import HeightedPolygon, perturb_heights, regular_triangulation
from conicmirror.numerics import (
    _BLOCK_LINES,
    AmoebaCloud,
    MomentParams,
    PatchworkParams,
    _table,
    amoeba_sample,
    default_viewport,
    h_localized,
    h_ts,
    hausdorff_to_tropical,
    leg_zero_samples,
    moment_map,
    moment_map_detail,
    singular_level,
    smoothstep,
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


def phi_alpha(poly, params, alpha, n):
    """phi_alpha at n from the localization table that h_ts reads."""
    table = _table(poly, params)
    return table.phi(alpha, n, table.cutoff(n))


def chamber_distance(poly, params, alpha, n):
    """The table's distance from n to the log t scaled chamber of alpha."""
    return _table(poly, params).distance(alpha, n, math.inf)


def stratum_of(poly, params, n):
    """The points alpha with phi_alpha(n) != 1: a face of the triangulation."""
    return tuple(sorted(a for a in poly.points if phi_alpha(poly, params, a, n) != 1.0))


def _reference_chamber_distance(poly, params, alpha, n):
    """The clip-only chamber distance: clip a square around n by every
    halfplane of the chamber, then measure to the clipped polygon."""
    from conicmirror.numerics import _clip_halfplane, _point_segment_distance

    lt = params.log_t
    halfplanes = []
    nu_a = float(poly.height(alpha))
    inside = True
    for beta in poly.points:
        if beta == alpha:
            continue
        a, b = float(alpha[0] - beta[0]), float(alpha[1] - beta[1])
        c = lt * (nu_a - float(poly.height(beta)))
        halfplanes.append((a, b, c))
        if a * n[0] + b * n[1] - c < 0.0:
            inside = False
    if inside:
        return 0.0
    r = 8.0 * (1.0 + params.epsilon_loc * lt)
    pts = [(n[0] - r, n[1] - r), (n[0] + r, n[1] - r), (n[0] + r, n[1] + r), (n[0] - r, n[1] + r)]
    for a, b, c in halfplanes:
        pts = _clip_halfplane(pts, a, b, c)
        if not pts:
            return math.inf
    if len(pts) == 1:
        return math.hypot(n[0] - pts[0][0], n[1] - pts[0][1])
    return min(
        _point_segment_distance(n, pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))
    )


def _reference_phi(poly, params, alpha, n):
    """phi_alpha from the clip-only distance, without the halfplane cutoff."""
    d = _reference_chamber_distance(poly, params, alpha, n)
    lo = 0.5 * params.epsilon_loc * params.log_t
    hi = params.epsilon_loc * params.log_t
    if d <= lo:
        return 0.0
    if d >= hi:
        return 1.0
    return smoothstep((d - lo) / (hi - lo))


def _reference_h_ts(poly, params, s, w):
    """The family term by term, with _reference_phi."""
    n = (math.log(abs(w[0])), math.log(abs(w[1])))
    total = 0.0 + 0.0j
    for alpha in poly.points:
        cut = 1.0 - s * _reference_phi(poly, params, alpha, n) if s != 0.0 else 1.0
        if cut == 0.0:
            continue
        scale = math.exp(-float(poly.height(alpha)) * params.log_t)
        total += scale * cut * w[0] ** alpha[0] * w[1] ** alpha[1]
    return total


def _reference_h_localized(poly, params, w):
    """The localized family: s = 1."""
    return _reference_h_ts(poly, params, 1.0, w)


def _reference_stratum(poly, params, n):
    return tuple(sorted(a for a in poly.points if _reference_phi(poly, params, a, n) != 1.0))


def _outcome(f, *args):
    """repr of the value, or the exception's type and text."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _random_polygon(rng):
    points = sorted({(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 7))})
    heights = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in points]
    return HeightedPolygon.create(points, heights)


def _near_band_edge(rng, poly, params, alpha):
    """A point whose chamber distance is within 1e-12 of eps log t, found by
    bisection along a ray leaving the chamber; None if the chamber is empty."""
    lt, hi = params.log_t, params.epsilon_loc * params.log_t
    for _ in range(50):
        inner = (rng.uniform(-3.0, 3.0) * lt, rng.uniform(-3.0, 3.0) * lt)
        if _reference_chamber_distance(poly, params, alpha, inner) == 0.0:
            break
    else:
        return None
    angle = rng.uniform(0.0, 2.0 * math.pi)
    step = (math.cos(angle), math.sin(angle))

    def dist(s):
        return _reference_chamber_distance(
            poly, params, alpha, (inner[0] + s * step[0], inner[1] + s * step[1])
        )

    lo_s, hi_s = 0.0, 1.0
    while dist(hi_s) < hi:
        if hi_s > 1e6:  # the ray runs along the chamber
            return None
        lo_s, hi_s = hi_s, 2.0 * hi_s
    for _ in range(60):
        mid = 0.5 * (lo_s + hi_s)
        lo_s, hi_s = (mid, hi_s) if dist(mid) < hi else (lo_s, mid)
    s = rng.choice((lo_s, hi_s))
    return (inner[0] + s * step[0], inner[1] + s * step[1])


class TestPhiAlpha:
    def test_halfplane_cutoff_is_bit_equal_to_the_clip(self):
        rng = random.Random(2024)
        near = 0
        for case in range(2000):
            poly = _random_polygon(rng)
            params = PatchworkParams(
                t=math.exp(rng.uniform(0.5, 30.0)), epsilon_loc=rng.choice((0.05, 0.1, 0.5))
            )
            alpha = rng.choice(poly.points)
            n = None
            if case % 2 == 0:
                n = _near_band_edge(rng, poly, params, alpha)
            if n is None:
                lt = params.log_t
                n = (rng.uniform(-3.0, 3.0) * lt, rng.uniform(-3.0, 3.0) * lt)
            else:
                d = _reference_chamber_distance(poly, params, alpha, n)
                near += abs(d - params.epsilon_loc * params.log_t) <= 1e-12
            expected = _reference_phi(poly, params, alpha, n)
            assert repr(phi_alpha(poly, params, alpha, n)) == repr(expected), (case, n)
            assert chamber_distance(poly, params, alpha, n) == _reference_chamber_distance(
                poly, params, alpha, n
            )
            if case % 10 == 0 and max(abs(n[0]), abs(n[1])) < 700.0:
                w = (cmath.exp(complex(n[0], 0.3)), cmath.exp(complex(n[1], -1.1)))
                assert _outcome(h_localized, poly, params, w) == _outcome(
                    _reference_h_localized, poly, params, w
                )
        assert near >= 300, near

    def test_interleaved_polygons_and_params_match_the_reference(self):
        # h_localized keeps the chamber table of the last (polygon, params)
        # pair, keyed by identity: equal values in distinct objects, another
        # polygon or the same polygon at another t must not see a stale table
        rng = random.Random(77)
        first, second = _random_polygon(rng), _random_polygon(rng)
        polys = [first, second, HeightedPolygon.create(first.points, first.heights)]
        params = [
            PatchworkParams(t=math.e**3, epsilon_loc=0.1),
            PatchworkParams(t=math.e**3, epsilon_loc=0.1),
            PatchworkParams(t=math.e**7, epsilon_loc=0.1),
            PatchworkParams(t=math.e**3, epsilon_loc=0.5),
        ]
        pairs = [(poly, p) for poly in polys for p in params]
        for _ in range(400):
            poly, p = rng.choice(pairs)
            lt = p.log_t
            n = (rng.uniform(-3.0, 3.0) * lt, rng.uniform(-3.0, 3.0) * lt)
            w = (cmath.exp(complex(n[0], rng.uniform(0.0, 6.3))),
                 cmath.exp(complex(n[1], rng.uniform(0.0, 6.3))))
            assert _outcome(h_localized, poly, p, w) == _outcome(
                _reference_h_localized, poly, p, w
            )

    def test_unreached_overflowing_scale_matches_the_reference(self):
        # t^-nu of (-2, 0) is e^800, past the float range; its chamber ends at
        # n_1 = 200, beyond which its term is cut to 0 and never evaluated
        poly = HeightedPolygon.create(((-2, 0), (2, 0), (2, 1), (1, 1)), (-800, 0, 0, 0))
        params = PatchworkParams(t=math.e, epsilon_loc=0.1)
        with pytest.raises(OverflowError):
            math.exp(800.0)
        outcomes = []
        for n1 in (150.0, 199.0, 199.99, 200.1, 201.0, 300.0):
            for n2 in (-50.0, 0.0, 0.05, 50.0):
                n = (n1, n2)
                w = (cmath.exp(complex(n1, 0.2)), cmath.exp(complex(n2, 1.0)))
                for alpha in poly.points:
                    assert repr(phi_alpha(poly, params, alpha, n)) == repr(
                        _reference_phi(poly, params, alpha, n)
                    )
                    assert repr(chamber_distance(poly, params, alpha, n)) == repr(
                        _reference_chamber_distance(poly, params, alpha, n)
                    )
                assert stratum_of(poly, params, n) == _reference_stratum(poly, params, n)
                for s in (0.0, 0.5, 1.0):
                    got = _outcome(h_ts, poly, params, s, w)
                    assert got == _outcome(_reference_h_ts, poly, params, s, w)
                    outcomes.append(got)
                got = _outcome(h_localized, poly, params, w)
                assert got == _outcome(_reference_h_localized, poly, params, w)
                outcomes.append(got)
        assert any(isinstance(o, tuple) for o in outcomes)
        assert any(isinstance(o, str) for o in outcomes)

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

class TestPatchworkFamily:
    def test_s_zero_is_plain_sum(self, four_point):
        params = PatchworkParams(t=math.e**2, epsilon_loc=0.1)
        w = (0.7 + 0.2j, -1.1 + 0.4j)
        direct = sum(term(four_point, params, a, w) for a in four_point.points)
        assert h_ts(four_point, params, 0.0, w) == pytest.approx(direct)

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
    scales = {alpha: complex(math.exp(-float(poly.height(alpha)) * lt)) for alpha in poly.points}
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


def _reference_hausdorff(cloud, curve, curve_step=0.02):
    """Hausdorff distance with the clipped cloud built as a list of tuples,
    the cloud -> curve distances on (N, 2) arrays and scalar curve samples."""
    from scipy.spatial import cKDTree

    from conicmirror.numerics import _clipped_curve_segments

    vp = cloud.viewport
    (xlo, ylo), (xhi, yhi) = vp
    pts = np.array(
        [p for p in cloud.points if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi], dtype=float
    )
    segments = _clipped_curve_segments(curve, vp)
    if len(pts) == 0 or not segments:
        return math.inf
    best = np.full(len(pts), math.inf)
    for p, q in segments:
        d = np.array([q[0] - p[0], q[1] - p[1]])
        den = float(d @ d)
        rel = pts - np.array(p)
        s = np.clip((rel @ d) / den, 0.0, 1.0) if den > 0 else np.zeros(len(pts))
        diff = rel - np.outer(s, d)
        best = np.minimum(best, np.hypot(diff[:, 0], diff[:, 1]))
    samples = []
    for p, q in segments:
        count = max(2, int(math.hypot(q[0] - p[0], q[1] - p[1]) / curve_step) + 1)
        for s in np.linspace(0.0, 1.0, count):
            samples.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    dists, _ = cKDTree(pts).query(np.array(samples))
    return max(float(best.max()), float(np.max(dists)))


def _reference_leg_zeros(poly, params, leg, count):
    """The leg-zero loop term by term, on _reference_h_localized."""
    from conicmirror.lattice_geometry import _exgcd, primitivize, vsub

    alpha, beta = leg.dual_edge
    diff = vsub(alpha, beta)
    g = primitivize(diff)
    lattice_len = diff[0] // g[0] if g[0] != 0 else diff[1] // g[1]
    _, x, y = _exgcd(g[0], g[1])
    theta = (math.pi * x / lattice_len, math.pi * y / lattice_len)
    lt = params.log_t
    out = []
    for idx in range(count):
        s = 0.5 + (2.5 - 0.5) * idx / max(1, count - 1)
        n1 = lt * (float(leg.base[0]) + s * leg.direction[0])
        n2 = lt * (float(leg.base[1]) + s * leg.direction[1])
        w = (cmath.exp(complex(n1, theta[0])), cmath.exp(complex(n2, theta[1])))
        scale = sum(
            abs(math.exp(-float(poly.height(a)) * lt) * w[0] ** a[0] * w[1] ** a[1])
            for a in poly.points
        )
        tol = 1e-13 * scale
        if abs(_reference_h_localized(poly, params, w)) <= tol:
            out.append(w)
            continue
        var = 0 if diff[0] != 0 else 1

        def eval_at(z):
            return _reference_h_localized(poly, params, (z, w[1]) if var == 0 else (w[0], z))

        x0 = w[var]
        x1 = x0 * (1.0 + 1e-8)
        f0, f1 = eval_at(x0), eval_at(x1)
        converged = False
        for _ in range(60):
            if f1 == f0:
                break
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            x0, f0 = x1, f1
            x1, f1 = x2, eval_at(x2)
            if abs(f1) <= tol:
                converged = True
                break
        if not converged:
            raise RootFindingFailure(f"secant polish failed on leg sample {idx}")
        out.append((x1, w[1]) if var == 0 else (w[0], x1))
    return out


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
    # the term on (1, 1) has t^(17269/100) = e^690.76, about 1e300
    overflow = HeightedPolygon.create(_SQUARE, (0, 0, 0, Fraction(-17269, 100)))
    four_e4 = _curve_case(FOUR_POINTS, FOUR_HEIGHTS, 4)
    # at t = e^2, w_2 = t^-400 underflows to 0 on the row r_2 = -400
    underflow_row = ((-1.0, -400.0), (1.0, 1.0))
    return {
        "four_point_e2": _curve_case(FOUR_POINTS, FOUR_HEIGHTS, 2),
        "four_point_e8": _curve_case(FOUR_POINTS, FOUR_HEIGHTS, 8),
        "paraboloid_e16": _curve_case(PARABOLOID_POINTS, _PARABOLOID_HEIGHTS, 16),
        "triangle4_e12": _curve_case(deg4.points, deg4.heights, 12),
        # t^-400 underflows to 0 on (1, 0), so the leading coefficient
        # t^-400 + w_2 vanishes on the row r_2 = -400: lines without roots
        "square_zero_leading": (
            HeightedPolygon.create(_SQUARE, (0, 400, 0, 0)),
            PatchworkParams(t=math.e**2),
            (3, 4),
            underflow_row,
        ),
        # the leading coefficient w_2 vanishes on the row r_2 = -400, whose
        # lines of degree 1 share a block with stacked lines of degree 2
        "quadratic_zero_leading": (
            HeightedPolygon.create(((0, 0), (1, 0), (2, 1)), 0),
            PatchworkParams(t=math.e**2),
            (3, 4),
            underflow_row,
        ),
        # coefficients overflow to inf: lines the eigensolver rejects
        "square_overflow": (
            overflow,
            PatchworkParams(t=math.e**4),
            (20, 4),
            ((-100.0, -100.0), (100.0, 100.0)),
        ),
        # block edges: at 64 phases a block holds _BLOCK_LINES // 64 rows,
        # and 5 rows more start a second block; at 1 phase a block holds
        # _BLOCK_LINES rows; a row wider than _BLOCK_LINES is a block alone
        "rows_past_block_edge": four_e4[:2] + ((_BLOCK_LINES // 64 + 5, 64),) + four_e4[3:],
        "single_row": four_e4[:2] + ((1, 64),) + four_e4[3:],
        "single_phase": four_e4[:2] + ((_BLOCK_LINES + 88, 1),) + four_e4[3:],
        "rows_wider_than_block": four_e4[:2] + ((2, _BLOCK_LINES + 8),) + four_e4[3:],
        # failed lines on both sides of a block edge (blocks of
        # _BLOCK_LINES // 4 rows)
        "square_overflow_blocks": (
            overflow,
            PatchworkParams(t=math.e**4),
            (_BLOCK_LINES // 4 + 276, 4),
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
        if name == "square_overflow_blocks":
            assert cloud.failed_lines[0] < _BLOCK_LINES <= cloud.failed_lines[-1]
        # roots per row: the row r_2 = -400 is solved line by line at a
        # lower degree, the other rows are stacked
        rows = collections.Counter(r2 for _, r2 in cloud.points)
        if name == "square_zero_leading":
            assert rows == {-199.5: 4, 1.0: 4} and cloud.failed_lines == ()
        if name == "quadratic_zero_leading":
            assert rows == {-400.0: 4, -199.5: 8, 1.0: 8} and cloud.failed_lines == ()
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

    def test_hausdorff_matches_reference_on_benchmark_clouds(self):
        deg3 = [(x, y) for x in range(4) for y in range(4 - x)]
        tri3 = perturb_heights(HeightedPolygon.create(deg3, [x * x + y * y for x, y in deg3]), 3)
        for points, heights, log_ts in (
            (FOUR_POINTS, FOUR_HEIGHTS, (2, 4, 8)),
            (PARABOLOID_POINTS, _PARABOLOID_HEIGHTS, (4, 8, 16)),
            (tri3.points, tri3.heights, (6,)),
        ):
            poly = HeightedPolygon.create(points, heights)
            curve = tropical_curve(poly, regular_triangulation(poly))
            for log_t in log_ts:
                params = PatchworkParams(t=math.exp(log_t), epsilon_loc=0.05)
                cloud = amoeba_sample(poly, params, grid=(200, 64), curve=curve)
                expected = _reference_hausdorff(cloud, curve)
                assert hausdorff_to_tropical(cloud, curve) == pytest.approx(expected, abs=1e-12)

    def test_hausdorff_matches_reference_off_rows_empty_and_on_zero_length_segments(
        self, four_curve
    ):
        rng = random.Random(11)
        vp = default_viewport(four_curve)
        (xlo, ylo), (xhi, yhi) = vp
        # points off any sampler row, some outside the viewport
        scatter = tuple(
            (rng.uniform(xlo - 1.0, xhi + 1.0), rng.uniform(ylo - 1.0, yhi + 1.0))
            for _ in range(3000)
        )
        cloud = AmoebaCloud(points=scatter, failed_lines=(), viewport=vp)
        assert hausdorff_to_tropical(cloud, four_curve) == pytest.approx(
            _reference_hausdorff(cloud, four_curve), abs=1e-12
        )
        # a viewport holding no point of the cloud
        empty = dataclasses.replace(cloud, viewport=((50.0, 50.0), (60.0, 60.0)))
        assert hausdorff_to_tropical(empty, four_curve) == math.inf
        assert _reference_hausdorff(empty, four_curve) == math.inf
        # the vertex (1/4, 1/4) is the viewport's corner: both bounded edges
        # leaving it clip to zero-length segments, the leg (1, 1) to a segment
        corner = dataclasses.replace(cloud, viewport=((0.25, 0.25), (1.25, 1.25)))
        from conicmirror.numerics import _clipped_curve_segments

        segments = _clipped_curve_segments(four_curve, corner.viewport)
        lengths = sorted(math.dist(p, q) for p, q in segments)
        assert lengths[:2] == [0.0, 0.0] and lengths[2] > 1.0
        assert hausdorff_to_tropical(corner, four_curve) == pytest.approx(
            _reference_hausdorff(corner, four_curve), abs=1e-12
        )

    def test_hausdorff_tree_matches_a_balanced_tree_on_ties(self, four_curve):
        # clouds on a coarse lattice, with repeated points, so that curve
        # samples have several nearest points at exactly equal distances;
        # the reference queries scipy's default balanced tree
        rng = random.Random(31)
        vp = default_viewport(four_curve)
        steps = [i / 4 for i in range(-16, 16)]
        for case in range(200):
            size = rng.choice((1, 2, 7, 64, 65, 300, 1500))
            base = [(rng.choice(steps), rng.choice(steps)) for _ in range(max(1, size // 3))]
            points = tuple(rng.choice(base) for _ in range(size))
            cloud = AmoebaCloud(points=points, failed_lines=(), viewport=vp)
            assert hausdorff_to_tropical(cloud, four_curve) == _reference_hausdorff(
                cloud, four_curve
            ), case

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

    def test_leg_zero_samples_match_reference_loop(
        self, simplex, simplex_curve, four_point, four_curve
    ):
        for poly, curve in ((simplex, simplex_curve), (four_point, four_curve)):
            # at eps 1 the cutoff bands reach the samples near the vertex,
            # which then take secant steps
            for log_t, eps in ((3, 0.05), (8, 0.05), (2, 1.0), (3, 1.0)):
                params = PatchworkParams(t=math.exp(log_t), epsilon_loc=eps)
                for leg in curve.legs:
                    zeros = leg_zero_samples(poly, params, leg, count=40)
                    assert repr(zeros) == repr(_reference_leg_zeros(poly, params, leg, 40))

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

    def test_origin_limit_is_zero(self):
        params = MomentParams(epsilon_blowup=0.3, chi=1.0)
        assert moment_map(params, 0.0, 0.0) == 0.0
        detail = moment_map_detail(params, 0.0, 0.0)
        assert detail.origin_limit_used
        assert detail.value == 0.0

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
        for chi in (0.5, 1.5, -1.0, math.nan):
            with pytest.raises(ValueError, match="only for chi = 0 or chi = 1"):
                MomentParams(epsilon_blowup=0.3, chi=chi)

    def test_negative_moduli_rejected(self):
        params = MomentParams(epsilon_blowup=0.3, chi=0.0)
        with pytest.raises(ValueError):
            moment_map(params, -1.0, 0.0)
