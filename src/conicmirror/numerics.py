"""Floating-point layer: patchworking families, tropical localization,
amoeba sampling, Hausdorff comparison against the tropical curve, and the
moment-map closed forms.

Scaling conventions. The amoeba of h_t lives in base-t logarithmic
coordinates Log(w) = (log|w_1|, log|w_2|) / log t, where it converges to the
tropical curve of the heights as t grows. The localization cutoffs phi_alpha
instead live in plain logarithmic coordinates (log|w_1|, log|w_2|), compared
against the chambers scaled by log t, with thresholds (eps log t)/2 and
eps log t; dividing everything by log t recovers the unscaled picture.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import RootFindingFailure, UndefinedAtOrigin
from .lattice_geometry import HeightedPolygon, Point, _exgcd, primitivize, vsub
from .tropical_curves import Leg, TropicalCurve

RealPoint = tuple[float, float]
Viewport = tuple[RealPoint, RealPoint]  # ((xlo, ylo), (xhi, yhi))

_BIG = 1e30


@dataclass(frozen=True)
class PatchworkParams:
    """Parameters of the patchworking family h_t and its localization.

    coefficients maps lattice points of A to complex numbers; omitted points
    default to 1, matching the canonical all-ones choice.
    """

    t: float
    epsilon_loc: float
    coefficients: Optional[Mapping[Point, complex]] = None

    def __post_init__(self):
        if not (1.0 < float(self.t) < math.inf):
            raise ValueError("t must be finite and > 1")
        if not (0.0 < float(self.epsilon_loc) < math.inf):
            raise ValueError("epsilon_loc must be finite and > 0")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "epsilon_loc", float(self.epsilon_loc))
        if self.coefficients is not None:
            norm = {
                (int(p[0]), int(p[1])): complex(c)
                for p, c in dict(self.coefficients).items()
            }
            object.__setattr__(self, "coefficients", norm)

    @property
    def log_t(self) -> float:
        return math.log(self.t)

    def coefficient(self, alpha: Point) -> complex:
        if self.coefficients is None:
            return 1.0 + 0.0j
        return self.coefficients.get(alpha, 1.0 + 0.0j)


@dataclass(frozen=True)
class LocalizationReport:
    """Whether eps log t sits below half the smallest bounded feature."""

    eps_times_log_t: float
    min_feature_times_log_t: float
    ok: bool


def localization_report(curve: TropicalCurve, params: PatchworkParams) -> LocalizationReport:
    """Validate epsilon against the minimum feature size of the curve.

    The feature size is the length of the shortest bounded edge (infinite
    when the curve has none); the cutoff bands of width eps log t must not
    swallow a whole bounded edge of the log t scaled curve.
    """
    feature = math.inf
    for be in curve.bounded_edges:
        p = curve.vertices[be.v[0]]
        q = curve.vertices[be.v[1]]
        feature = min(feature, math.hypot(float(q[0] - p[0]), float(q[1] - p[1])))
    eps_lt = params.epsilon_loc * params.log_t
    feat_lt = feature * params.log_t
    return LocalizationReport(
        eps_times_log_t=eps_lt,
        min_feature_times_log_t=feat_lt,
        ok=eps_lt < feat_lt / 2,
    )


def smoothstep(x: float) -> float:
    """The C^2 step 6x^5 - 15x^4 + 10x^3, clamped to [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def _clip_halfplane(pts: list[RealPoint], a: float, b: float, c: float) -> list[RealPoint]:
    """Keep the part of the convex polygon with a*x + b*y >= c."""
    out: list[RealPoint] = []
    k = len(pts)
    for i in range(k):
        p = pts[i]
        q = pts[(i + 1) % k]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp >= 0.0:
            out.append(p)
        if (fp > 0.0 > fq) or (fp < 0.0 < fq):
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    return out


def _point_segment_distance(n: RealPoint, p: RealPoint, q: RealPoint) -> float:
    dx, dy = q[0] - p[0], q[1] - p[1]
    rx, ry = n[0] - p[0], n[1] - p[1]
    den = dx * dx + dy * dy
    s = 0.0 if den == 0.0 else max(0.0, min(1.0, (rx * dx + ry * dy) / den))
    return math.hypot(rx - s * dx, ry - s * dy)


def chamber_distance(
    poly: HeightedPolygon, params: PatchworkParams, alpha: Point, n: Sequence[float]
) -> float:
    """Euclidean distance from n (plain log coordinates) to the scaled chamber.

    The chamber of alpha, scaled by log t, is the intersection of the
    halfplanes <n, alpha - beta> >= (log t)(nu(alpha) - nu(beta)). The
    distance is computed exactly by clipping a square around n of half-width
    comfortably above the cutoff threshold, so any value at or below
    eps log t is exact and larger values are only ever overestimated past
    the band where phi is already 1. Empty chambers give +inf.
    """
    alpha = (int(alpha[0]), int(alpha[1]))
    if alpha not in poly.points:
        raise ValueError(f"{alpha} is not a point of the polygon")
    n = (float(n[0]), float(n[1]))
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
    pts: list[RealPoint] = [
        (n[0] - r, n[1] - r),
        (n[0] + r, n[1] - r),
        (n[0] + r, n[1] + r),
        (n[0] - r, n[1] + r),
    ]
    for a, b, c in halfplanes:
        pts = _clip_halfplane(pts, a, b, c)
        if not pts:
            return math.inf
    if len(pts) == 1:
        return math.hypot(n[0] - pts[0][0], n[1] - pts[0][1])
    return min(
        _point_segment_distance(n, pts[i], pts[(i + 1) % len(pts)])
        for i in range(len(pts))
    )


def phi_alpha(
    poly: HeightedPolygon, params: PatchworkParams, alpha: Point, n: Sequence[float]
) -> float:
    """Cutoff of the distance to the scaled chamber of alpha.

    Exactly 0 up to distance (eps log t)/2, exactly 1 from eps log t on,
    and the smoothstep in between; the gradient is bounded by
    3.75/(eps log t), within the required 4/(eps log t).
    """
    d = chamber_distance(poly, params, alpha, n)
    lo = 0.5 * params.epsilon_loc * params.log_t
    hi = params.epsilon_loc * params.log_t
    if d <= lo:
        return 0.0
    if d >= hi:
        return 1.0
    return smoothstep((d - lo) / (hi - lo))


def _require_nonzero(w: Sequence[complex]) -> tuple[complex, complex]:
    w1, w2 = complex(w[0]), complex(w[1])
    if w1 == 0 or w2 == 0:
        raise ValueError("w must be nonzero in both components")
    return w1, w2


def h_ts(
    poly: HeightedPolygon, params: PatchworkParams, s: float, w: Sequence[complex]
) -> complex:
    """The interpolating family: sum of c_a t^{-nu(a)} (1 - s phi_a) w^a.

    At s = 0 this is the plain patchworking polynomial h_t; at s = 1 the
    tropical localization with the params coefficients.
    """
    w1, w2 = _require_nonzero(w)
    n = (math.log(abs(w1)), math.log(abs(w2)))
    lt = params.log_t
    total = 0.0 + 0.0j
    for alpha in poly.points:
        cut = 1.0 - s * phi_alpha(poly, params, alpha, n) if s != 0.0 else 1.0
        if cut == 0.0:
            continue
        scale = math.exp(-float(poly.height(alpha)) * lt)
        total += params.coefficient(alpha) * scale * cut * w1 ** alpha[0] * w2 ** alpha[1]
    return total


def h_t(poly: HeightedPolygon, params: PatchworkParams, w: Sequence[complex]) -> complex:
    """The plain patchworking polynomial (the family at s = 0)."""
    return h_ts(poly, params, 0.0, w)


def h_localized(
    poly: HeightedPolygon, params: PatchworkParams, w: Sequence[complex]
) -> complex:
    """Tropical localization: the family at s = 1 with unit coefficients."""
    return h_ts(poly, replace(params, coefficients=None), 1.0, w)


def stratum_of(
    poly: HeightedPolygon, params: PatchworkParams, n: Sequence[float]
) -> tuple[Point, ...]:
    """The face of the triangulation whose stratum contains n.

    Returns the sorted tuple of lattice points alpha with phi_alpha(n) != 1;
    over a dense grid these realized sets are exactly the vertices, edges and
    cells of the adapted triangulation (the strata partition the plane).
    """
    return tuple(
        sorted(
            alpha
            for alpha in poly.points
            if phi_alpha(poly, params, alpha, n) != 1.0
        )
    )


@dataclass(frozen=True)
class AmoebaCloud:
    """Amoeba sample in base-t log coordinates, with per-line failures."""

    points: tuple[RealPoint, ...]
    failed_lines: tuple[int, ...]
    viewport: Viewport


def default_viewport(curve: TropicalCurve, scale: float = 2.0, pad: float = 3.0) -> Viewport:
    """Twice the bounding box of the compact part, padded by 3 units."""
    (xlo, ylo), (xhi, yhi) = curve.bounding_box()
    cx, cy = (float(xlo + xhi) / 2.0, float(ylo + yhi) / 2.0)
    hx = scale * float(xhi - xlo) / 2.0 + pad
    hy = scale * float(yhi - ylo) / 2.0 + pad
    return ((cx - hx, cy - hy), (cx + hx, cy + hy))


def _cmul(ar, ai, br, bi):
    """Complex product on real parts, rounded as a scalar product is: numpy's
    vectorized complex multiply fuses the terms and rounds differently."""
    return ar * br - ai * bi, ar * bi + ai * br


def _block_roots(series: np.ndarray) -> list[Optional[np.ndarray]]:
    """numpy roots of every row of a block of lines, None where it fails.

    Rows whose companion matrix numpy roots builds at full size (degree at
    least 1, nonzero leading and trailing coefficient, finite coefficients)
    are stacked and solved by one eigvals call. The other rows, and all rows
    of a block the stacked call rejects, go through numpy roots one by one.
    """
    deg = series.shape[1] - 1
    stack = (deg > 0) & (series[:, 0] != 0) & (series[:, -1] != 0)
    stack &= np.isfinite(series).all(axis=1)
    roots: list[Optional[np.ndarray]] = [None] * len(series)
    if stack.any():
        comp = np.zeros((int(stack.sum()), deg, deg), dtype=complex)
        comp[:, 1:, :-1] = np.eye(deg - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # eigvals rejects inf, nan
            comp[:, 0, :] = -series[stack, 1:] / series[stack, :1]
        try:
            for i, r in zip(np.flatnonzero(stack), np.linalg.eigvals(comp)):
                roots[i] = r
        except np.linalg.LinAlgError:
            stack[:] = False
    for i in np.flatnonzero(~stack):
        with contextlib.suppress(np.linalg.LinAlgError):
            roots[i] = np.roots(series[i])
    return roots


def amoeba_sample(
    poly: HeightedPolygon,
    params: PatchworkParams,
    grid: tuple[int, int] = (200, 64),
    viewport: Optional[Viewport] = None,
    curve: Optional[TropicalCurve] = None,
) -> AmoebaCloud:
    """Sample the amoeba of h_t by slicing along w_2.

    For each grid value (r_2, theta), set w_2 = t^{r_2} e^{i theta}, clear
    denominators by w_1^k, and find the w_1 roots as companion-matrix
    eigenvalues, with the matrix numpy roots builds. The n_phase lines of
    one r_2 value form a block: one eigvals call solves their stacked
    matrices, and the residual check |h_t| <= 1e-8 * (sum of term
    magnitudes) runs on all roots of the block at once; roots failing it are
    discarded. Grid lines where the eigensolver fails are reported, not
    fatal. Points are emitted as (log_t|w_1|, r_2), in grid order.
    """
    if viewport is None:
        if curve is None:
            raise ValueError("amoeba_sample needs a viewport or a tropical curve")
        viewport = default_viewport(curve)
    n_r2, n_phase = int(grid[0]), int(grid[1])
    if n_r2 < 1 or n_phase < 1:
        raise ValueError("grid must be positive in both directions")
    (_, ylo), (_, yhi) = viewport
    lt = params.log_t
    k = max(0, -min(p[0] for p in poly.points))
    max_pow = max(p[0] for p in poly.points) + k
    scales = [
        (alpha, params.coefficient(alpha) * math.exp(-float(poly.height(alpha)) * lt))
        for alpha in poly.points
    ]
    points: list[RealPoint] = []
    failed: list[int] = []
    for i_r2, r2 in enumerate(np.linspace(ylo, yhi, n_r2).tolist()):
        # w_2^alpha_2 per line and term, as Python complex powers: numpy's
        # power rounds negative exponents differently
        w2_pows = []
        for i_ph in range(n_phase):
            w2 = math.exp(lt * r2) * cmath.exp(1j * (2.0 * math.pi * i_ph / n_phase))
            w2_pows.append([w2 ** alpha[1] for alpha, _ in scales])
        series = np.zeros((n_phase, max_pow + 1), dtype=complex)  # highest power first
        for j, (alpha, c) in enumerate(scales):
            series[:, max_pow - k - alpha[0]] += [c * pw[j] for pw in w2_pows]
        roots = _block_roots(series)
        failed.extend(i_r2 * n_phase + i for i, r in enumerate(roots) if r is None)

        found = [np.empty(0) if r is None else r for r in roots]
        line = np.repeat(np.arange(n_phase), [len(r) for r in found])
        w1 = np.concatenate(found).astype(complex)
        line, w1 = line[w1 != 0], w1[w1 != 0]
        # residual filter against the sum of term magnitudes, summed in the
        # order of poly.points; a NaN comparison keeps the root
        w2_pows = np.array(w2_pows, dtype=complex)
        sum_re = sum_im = mag = 0.0
        for j, (alpha, c) in enumerate(scales):
            p = np.power(w1, alpha[0])
            re, im = _cmul(c.real, c.imag, p.real, p.imag)
            q = w2_pows[line, j]
            re, im = _cmul(re, im, q.real, q.imag)
            sum_re, sum_im, mag = sum_re + re, sum_im + im, mag + np.hypot(re, im)
        kept = w1[~((mag == 0.0) | (np.hypot(sum_re, sum_im) > 1e-8 * mag))]
        # np.hypot rounds as abs() of one complex does; np.abs does not
        points.extend((math.log(m) / lt, r2) for m in np.hypot(kept.real, kept.imag).tolist())
    return AmoebaCloud(points=tuple(points), failed_lines=tuple(failed), viewport=viewport)


def _clip_segment_to_rect(
    p: RealPoint, d: RealPoint, s_lo: float, s_hi: float, vp: Viewport
) -> Optional[tuple[float, float]]:
    """Liang-Barsky: the s-range of p + s*d inside the viewport, or None."""
    (xlo, ylo), (xhi, yhi) = vp
    t0, t1 = s_lo, s_hi
    for coord, dcoord, lo, hi in (
        (p[0], d[0], xlo, xhi),
        (p[1], d[1], ylo, yhi),
    ):
        if dcoord == 0.0:
            if coord < lo or coord > hi:
                return None
            continue
        ta = (lo - coord) / dcoord
        tb = (hi - coord) / dcoord
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return None
    return (t0, t1)


def _clipped_curve_segments(curve: TropicalCurve, vp: Viewport) -> list[tuple[RealPoint, RealPoint]]:
    segments: list[tuple[RealPoint, RealPoint]] = []
    verts = [(float(v[0]), float(v[1])) for v in curve.vertices]
    for be in curve.bounded_edges:
        p = verts[be.v[0]]
        q = verts[be.v[1]]
        d = (q[0] - p[0], q[1] - p[1])
        rng = _clip_segment_to_rect(p, d, 0.0, 1.0, vp)
        if rng is not None:
            s0, s1 = rng
            segments.append(
                ((p[0] + s0 * d[0], p[1] + s0 * d[1]), (p[0] + s1 * d[0], p[1] + s1 * d[1]))
            )
    for leg in curve.legs:
        p = (float(leg.base[0]), float(leg.base[1]))
        d = (float(leg.direction[0]), float(leg.direction[1]))
        rng = _clip_segment_to_rect(p, d, 0.0, _BIG, vp)
        if rng is not None:
            s0, s1 = rng
            if s1 > s0:
                segments.append(
                    ((p[0] + s0 * d[0], p[1] + s0 * d[1]), (p[0] + s1 * d[0], p[1] + s1 * d[1]))
                )
    return segments


def hausdorff_to_tropical(
    cloud: AmoebaCloud,
    curve: TropicalCurve,
    clip: Optional[Viewport] = None,
    curve_step: float = 0.02,
) -> float:
    """Symmetric Hausdorff distance between the clipped cloud and curve.

    Cloud-to-curve distances are exact point-to-segment minima over the
    curve pieces clipped to the viewport; curve-to-cloud distances are taken
    over a dense sampling of those pieces against a k-d tree of the clipped
    cloud. Units are the base-t log coordinates shared by both sides.
    Returns +inf when either side is empty in the viewport.
    """
    from scipy.spatial import cKDTree  # imported here: scipy.spatial is slow to load

    vp = clip if clip is not None else cloud.viewport
    (xlo, ylo), (xhi, yhi) = vp
    pts = np.array(
        [p for p in cloud.points if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi],
        dtype=float,
    )
    segments = _clipped_curve_segments(curve, vp)
    if len(pts) == 0 or not segments:
        return math.inf

    # cloud -> curve, exact per segment
    best = np.full(len(pts), math.inf)
    for p, q in segments:
        d = np.array([q[0] - p[0], q[1] - p[1]])
        den = float(d @ d)
        rel = pts - np.array(p)
        s = np.clip((rel @ d) / den, 0.0, 1.0) if den > 0 else np.zeros(len(pts))
        diff = rel - np.outer(s, d)
        best = np.minimum(best, np.hypot(diff[:, 0], diff[:, 1]))
    cloud_to_curve = float(best.max())

    # curve -> cloud, sampled
    samples = []
    for p, q in segments:
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        count = max(2, int(length / curve_step) + 1)
        for s in np.linspace(0.0, 1.0, count):
            samples.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
    tree = cKDTree(pts)
    dists, _ = tree.query(np.array(samples))
    curve_to_cloud = float(np.max(dists))

    return max(cloud_to_curve, curve_to_cloud)


def leg_zero_samples(
    poly: HeightedPolygon,
    params: PatchworkParams,
    leg: Leg,
    count: int = 100,
    s_start: float = 0.5,
    s_end: float = 2.5,
) -> list[tuple[complex, complex]]:
    """Points of the localized hypersurface over the interior of a leg.

    Each sample starts from the exact solution of the two-term binomial
    t^{-nu(a)} w^a + t^{-nu(b)} w^b = 0 whose log sits on the scaled leg,
    then is polished against the full localized polynomial by a secant
    iteration in w_1 (or w_2 for legs with horizontal dual edge), so the
    returned points are zeros of h itself, not of the binomial shortcut.
    """
    alpha, beta = leg.dual_edge
    diff = vsub(alpha, beta)
    g = primitivize(diff)
    lattice_len = diff[0] // g[0] if g[0] != 0 else diff[1] // g[1]
    _, x, y = _exgcd(g[0], g[1])
    theta = (math.pi * x / lattice_len, math.pi * y / lattice_len)
    lt = params.log_t

    def full(w):
        return h_localized(poly, params, w)

    out: list[tuple[complex, complex]] = []
    for idx in range(count):
        s = s_start + (s_end - s_start) * idx / max(1, count - 1)
        n1 = lt * (float(leg.base[0]) + s * leg.direction[0])
        n2 = lt * (float(leg.base[1]) + s * leg.direction[1])
        w = (cmath.exp(complex(n1, theta[0])), cmath.exp(complex(n2, theta[1])))
        scale = sum(
            abs(math.exp(-float(poly.height(a)) * lt) * w[0] ** a[0] * w[1] ** a[1])
            for a in poly.points
        )
        tol = 1e-13 * scale
        if abs(full(w)) <= tol:
            out.append(w)
            continue
        # secant in the coordinate the dual edge actually moves
        var = 0 if diff[0] != 0 else 1
        x0 = w[var]
        x1 = x0 * (1.0 + 1e-8)

        def eval_at(z):
            ww = (z, w[1]) if var == 0 else (w[0], z)
            return full(ww)

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
            raise RootFindingFailure(
                f"secant polish failed on leg sample {idx} (|h| = {abs(f1):.3e})"
            )
        out.append((x1, w[1]) if var == 0 else (w[0], x1))
    return out


@dataclass(frozen=True)
class MomentParams:
    """Blow-up size and the cutoff value at the query point."""

    epsilon_blowup: float
    chi: float

    def __post_init__(self):
        if not (0.0 < float(self.epsilon_blowup) < math.inf):
            raise ValueError("epsilon_blowup must be finite and > 0")
        if not (0.0 <= float(self.chi) <= 1.0):
            raise ValueError("chi must lie in [0, 1]")
        object.__setattr__(self, "epsilon_blowup", float(self.epsilon_blowup))
        object.__setattr__(self, "chi", float(self.chi))


def singular_level(params: MomentParams) -> float:
    """The level whose fiber is singular: the blow-up size epsilon."""
    return params.epsilon_blowup


def moment_map(
    params: MomentParams, abs_u: float, abs_h: float, strict: bool = False
) -> float:
    """Closed forms of the moment map at a point with the given moduli.

    chi = 0: pi |u|^2. chi = 1: pi |u|^2 + eps |u|^2 / (|h|^2 + |u|^2),
    undefined at |u| = |h| = 0, where the limit 0 along u = 0 is returned
    (or UndefinedAtOrigin raised when strict). Other chi values have no
    closed form here and are rejected.
    """
    u = float(abs_u)
    h = float(abs_h)
    if not (0.0 <= u < math.inf and 0.0 <= h < math.inf):
        raise ValueError("moduli must be finite and nonnegative")
    if params.chi == 0.0:
        return math.pi * u * u
    if params.chi == 1.0:
        if u == 0.0 and h == 0.0:
            if strict:
                raise UndefinedAtOrigin("moment map is undefined at |u| = |h| = 0")
            return 0.0
        if u == 0.0:
            return 0.0
        return math.pi * u * u + params.epsilon_blowup * u * u / (h * h + u * u)
    raise ValueError("closed forms are available only for chi = 0 or chi = 1")


@dataclass(frozen=True)
class MomentEvaluation:
    value: float
    origin_limit_used: bool
    singular_level: float
    at_singular_level: bool


def moment_map_detail(
    params: MomentParams, abs_u: float, abs_h: float
) -> MomentEvaluation:
    """moment_map plus origin and singular-level flags."""
    origin = params.chi == 1.0 and float(abs_u) == 0.0 and float(abs_h) == 0.0
    value = moment_map(params, abs_u, abs_h, strict=False)
    lam = singular_level(params)
    return MomentEvaluation(
        value=value,
        origin_limit_used=origin,
        singular_level=lam,
        at_singular_level=abs(value - lam) <= 1e-12,
    )
