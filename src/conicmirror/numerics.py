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
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import FloatRangeError, RootFindingFailure
from .lattice_geometry import HeightedPolygon, Point, _exgcd, primitivize, vsub
from .tropical_curves import Leg, TropicalCurve

RealPoint = tuple[float, float]
Viewport = tuple[RealPoint, RealPoint]  # ((xlo, ylo), (xhi, yhi))

_BIG = 1e30


def to_float(x) -> float:
    """float(x) of an exact int or Fraction, raising FloatRangeError, which
    names the size of x, where float() raises OverflowError."""
    try:
        return float(x)
    except OverflowError as exc:
        size = math.floor(math.log10(abs(x.numerator)) - math.log10(x.denominator))
        raise FloatRangeError(f"exact value of about 10^{size} is past the float range") from exc


@dataclass(frozen=True)
class PatchworkParams:
    """Parameters of the patchworking family h_t and its localization. The
    family's coefficients are all 1, the canonical all-ones choice."""

    t: float
    epsilon_loc: float = 0.05

    def __post_init__(self):
        if not (1.0 < float(self.t) < math.inf):
            raise ValueError("t must be finite and > 1")
        if not (0.0 < float(self.epsilon_loc) < math.inf):
            raise ValueError("epsilon_loc must be finite and > 0")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "epsilon_loc", float(self.epsilon_loc))

    @property
    def log_t(self) -> float:
        return math.log(self.t)


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


class _Chambers:
    """The localization table of one polygon at one t: the heights nu(alpha),
    the cutoff band (lo, hi) and, per alpha on first use, the halfplanes of
    its chamber and its scale t^-nu(alpha)."""

    def __init__(self, poly: HeightedPolygon, params: PatchworkParams):
        self.points = poly.points
        self.nu = {alpha: float(poly.height(alpha)) for alpha in poly.points}
        self.log_t = lt = params.log_t
        eps = params.epsilon_loc
        self.lo = 0.5 * eps * lt
        self.hi = eps * lt
        # half-width of the clipped square around n, comfortably above hi
        self.r = 8.0 * (1.0 + eps * lt)
        self._halfplanes: dict[Point, list[tuple[float, float, float, float]]] = {}
        self._scales: dict[Point, float] = {}

    def halfplanes(self, alpha: Point) -> list[tuple[float, float, float, float]]:
        """The rows (a, b, c, hypot(a, b)) of the halfplanes a*x + b*y >= c
        whose intersection is the scaled chamber of alpha, one per other
        point, in the order of the points."""
        rows = self._halfplanes.get(alpha)
        if rows is None:
            lt, nu, nu_a = self.log_t, self.nu, self.nu[alpha]
            rows = []
            for beta in self.points:
                if beta == alpha:
                    continue
                a, b = float(alpha[0] - beta[0]), float(alpha[1] - beta[1])
                rows.append((a, b, lt * (nu_a - nu[beta]), math.hypot(a, b)))
            self._halfplanes[alpha] = rows
        return rows

    def scale(self, alpha: Point) -> float:
        """t^-nu(alpha), computed on first use: the scale of a term that no
        evaluation reaches may overflow."""
        scale = self._scales.get(alpha)
        if scale is None:
            scale = self._scales[alpha] = math.exp(-self.nu[alpha] * self.log_t)
        return scale

    def distance(self, alpha: Point, n: RealPoint, cutoff: float) -> float:
        """The distance from n (plain log coordinates) to the chamber of
        alpha scaled by log t: the intersection of the halfplanes
        <n, alpha - beta> >= (log t)(nu(alpha) - nu(beta)). Computed by
        clipping a square around n of half-width r, so any value at or below
        eps log t is exact and larger ones are only overestimated, past the
        band where phi is 1; an empty chamber gives +inf. Returns cutoff,
        without clipping, once the distance to one violated halfplane (a
        lower bound) reaches it."""
        rows = self.halfplanes(alpha)
        x, y = n
        inside = True
        for a, b, c, norm in rows:
            g = a * x + b * y - c
            if g < 0.0:
                inside = False
                if -g >= cutoff * norm:
                    return cutoff
        if inside:
            return 0.0
        r = self.r
        pts: list[RealPoint] = [
            (x - r, y - r),
            (x + r, y - r),
            (x + r, y + r),
            (x - r, y + r),
        ]
        for a, b, c, _ in rows:
            pts = _clip_halfplane(pts, a, b, c)
            if not pts:
                return math.inf
        if len(pts) == 1:
            return math.hypot(x - pts[0][0], y - pts[0][1])
        return min(
            _point_segment_distance(n, pts[i], pts[(i + 1) % len(pts)])
            for i in range(len(pts))
        )

    def cutoff(self, n: RealPoint) -> float:
        """phi's cutoff for distance: its margin over hi exceeds the clip's
        rounding error, so the clip would also have given a distance >= hi,
        and phi = 1."""
        return self.hi * (1.0 + 1e-9) + 1e-12 * (abs(n[0]) + abs(n[1]))

    def phi(self, alpha: Point, n: RealPoint, cutoff: float) -> float:
        """phi_alpha at n, given self.cutoff(n): exactly 0 up to distance
        (eps log t)/2, exactly 1 from eps log t on, and the smoothstep in
        between, so the gradient is bounded by 3.75/(eps log t)."""
        d = self.distance(alpha, n, cutoff)
        lo, hi = self.lo, self.hi
        if d <= lo:
            return 0.0
        if d >= hi:
            return 1.0
        return smoothstep((d - lo) / (hi - lo))


# The table of the last (polygon, params) pair asked for: leg_zero_samples
# evaluates h_localized hundreds of times on one pair. Both are frozen, so
# their identity keys the table; the entry is read and replaced as one tuple.
_last_table: tuple = (None, None, None)


def _table(poly: HeightedPolygon, params: PatchworkParams) -> _Chambers:
    global _last_table
    last_poly, last_params, table = _last_table
    if last_poly is not poly or last_params is not params:
        table = _Chambers(poly, params)
        _last_table = (poly, params, table)
    return table


def _require_nonzero(w: Sequence[complex]) -> tuple[complex, complex]:
    w1, w2 = complex(w[0]), complex(w[1])
    if w1 == 0 or w2 == 0:
        raise ValueError("w must be nonzero in both components")
    return w1, w2


def h_ts(
    poly: HeightedPolygon, params: PatchworkParams, s: float, w: Sequence[complex]
) -> complex:
    """The interpolating family: sum of t^{-nu(a)} (1 - s phi_a) w^a.

    At s = 0 this is the plain patchworking polynomial h_t; at s = 1 the
    tropical localization.
    """
    chambers = _table(poly, params)
    w1, w2 = _require_nonzero(w)
    n = (math.log(abs(w1)), math.log(abs(w2)))
    cutoff = chambers.cutoff(n)
    total = 0.0 + 0.0j
    for alpha in chambers.points:
        cut = 1.0 - s * chambers.phi(alpha, n, cutoff) if s != 0.0 else 1.0
        if cut == 0.0:
            continue
        total += chambers.scale(alpha) * cut * w1 ** alpha[0] * w2 ** alpha[1]
    return total


def h_localized(
    poly: HeightedPolygon, params: PatchworkParams, w: Sequence[complex]
) -> complex:
    """Tropical localization (the family at s = 1)."""
    return h_ts(poly, params, 1.0, w)


@dataclass(frozen=True)
class AmoebaCloud:
    """Amoeba sample in base-t log coordinates, with per-line failures."""

    points: tuple[RealPoint, ...]
    failed_lines: tuple[int, ...]
    viewport: Viewport


def default_viewport(curve: TropicalCurve) -> Viewport:
    """Twice the bounding box of the compact part, padded by 3 units."""
    (xlo, ylo), (xhi, yhi) = curve.bounding_box()
    cx, cy = (to_float(xlo + xhi) / 2.0, to_float(ylo + yhi) / 2.0)
    hx = to_float(xhi - xlo) + 3.0
    hy = to_float(yhi - ylo) + 3.0
    lo, hi = (cx - hx, cy - hy), (cx + hx, cy + hy)
    widths = (hi[0] - lo[0], hi[1] - lo[1])
    if not (all(math.isfinite(v) for v in (*lo, *hi, *widths)) and min(widths) > 0.0):
        raise FloatRangeError(
            f"default viewport {lo}, {hi} has no finite positive size in floats"
        )
    return (lo, hi)


def _cmul(ar, ai, br, bi):
    """Complex product on real parts, rounded as a scalar product is: numpy's
    vectorized complex multiply fuses the terms and rounds differently."""
    return ar * br - ai * bi, ar * bi + ai * br


@contextlib.contextmanager
def _in_float_range(t: float):
    """Turn a float overflow, or a zero raised to a negative power after an
    underflow, into RootFindingFailure naming t."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise RootFindingFailure(
            f"line coefficients at t = {t!r} leave the float range ({exc})"
        ) from exc


def _block_roots(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """numpy roots of every row of a block of lines: all roots as one flat
    array in line order, the line of each root, and the lines where numpy
    roots fails.

    Rows whose companion matrix numpy roots builds at full size (degree at
    least 1, nonzero leading and trailing coefficient, finite coefficients)
    are stacked and solved by one eigvals call. The other rows, and all rows
    of a block the stacked call rejects, go through numpy roots one by one.
    """
    import numpy as np

    n_lines, deg = series.shape[0], series.shape[1] - 1
    stack = (deg > 0) & (series[:, 0] != 0) & (series[:, -1] != 0)
    stack &= np.isfinite(series).all(axis=1)
    stacked = np.empty((0, deg), dtype=complex)
    if stack.any():
        comp = np.zeros((int(stack.sum()), deg, deg), dtype=complex)
        comp[:, 1:, :-1] = np.eye(deg - 1)
        comp[:, 0, :] = -series[stack, 1:] / series[stack, :1]
        try:
            stacked = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError:
            stack[:] = False
    counts = np.where(stack, deg, 0)
    single: dict[int, np.ndarray] = {}
    failed: list[int] = []
    for i in np.flatnonzero(~stack).tolist():
        try:
            single[i] = np.roots(series[i])
        except np.linalg.LinAlgError:
            failed.append(i)
            continue
        counts[i] = len(single[i])
    line = np.repeat(np.arange(n_lines), counts)
    roots = np.empty(len(line), dtype=complex)
    starts = np.cumsum(counts) - counts
    roots[(starts[stack][:, None] + np.arange(deg)).ravel()] = stacked.ravel()
    for i, r in single.items():
        roots[starts[i]:starts[i] + len(r)] = r
    return roots, line, failed


# Grid lines solved together: whole r_2 rows up to this many lines. Many
# rows per block amortize the per-call numpy overhead; the bound keeps a
# grid at the CLI's root cap from building whole-grid temporaries.
_BLOCK_LINES = 4096


def line_degree(poly: HeightedPolygon) -> int:
    """The degree in w_1 of every grid line's polynomial once amoeba_sample
    clears its denominators by w_1^k: the most roots it seeks on a line."""
    xs = [p[0] for p in poly.points]
    return max(xs) - min(min(xs), 0)


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
    eigenvalues, with the matrix numpy roots builds. The lines of a few
    consecutive r_2 values (about _BLOCK_LINES) form a block: one eigvals
    call solves their stacked matrices, and the residual check
    |h_t| <= 1e-8 * (sum of term magnitudes) runs on all roots of the block
    at once; roots failing it are discarded. Grid lines where the
    eigensolver fails are reported, not fatal. Points are emitted as
    (log_t|w_1|, r_2), in grid order. A t whose powers leave the float range
    raises RootFindingFailure.
    """
    import numpy as np

    if viewport is None:
        if curve is None:
            raise ValueError("amoeba_sample needs a viewport or a tropical curve")
        viewport = default_viewport(curve)
    n_r2, n_phase = int(grid[0]), int(grid[1])
    if n_r2 < 1 or n_phase < 1:
        raise ValueError("grid must be positive in both directions")
    (_, ylo), (_, yhi) = viewport
    lt = params.log_t
    max_pow = line_degree(poly)
    top = max(p[0] for p in poly.points)
    with _in_float_range(params.t):
        scales = [
            (alpha, complex(math.exp(-float(poly.height(alpha)) * lt))) for alpha in poly.points
        ]
    # each distinct alpha_2 gets one column of w_2 powers
    w2_exps = list(dict.fromkeys(alpha[1] for alpha, _ in scales))
    terms = [(alpha, c, top - alpha[0], w2_exps.index(alpha[1])) for alpha, c in scales]
    phases = [cmath.exp(1j * (2.0 * math.pi * i_ph / n_phase)) for i_ph in range(n_phase)]
    rows_per_block = max(1, _BLOCK_LINES // n_phase)
    r2_grid = np.linspace(ylo, yhi, n_r2)
    points: list[RealPoint] = []
    failed: list[int] = []
    for first in range(0, n_r2, rows_per_block):
        row_r2 = r2_grid[first:first + rows_per_block].tolist()
        # w_2^alpha_2 per line, as Python complex powers: numpy's power
        # rounds negative exponents differently
        w2_pows = []
        with _in_float_range(params.t):
            for r2 in row_r2:
                modulus = math.exp(lt * r2)
                w2_pows += [w2 ** e for w2 in [modulus * ph for ph in phases] for e in w2_exps]
        # inf and NaN are expected in the array work (a power of a tiny root
        # may also divide by an underflowed zero): eigvals rejects them, the
        # row falls back to numpy roots or fails, and the residual filter
        # keeps a NaN comparison, so numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w2_pows = np.array(w2_pows, dtype=complex).reshape(-1, len(w2_exps))
            series = np.zeros((len(w2_pows), max_pow + 1), dtype=complex)  # highest power first
            for _, c, col, j in terms:
                re, im = _cmul(c.real, c.imag, w2_pows[:, j].real, w2_pows[:, j].imag)
                series[:, col].real += re
                series[:, col].imag += im
            w1, line, failed_lines = _block_roots(series)
            failed.extend(first * n_phase + i for i in failed_lines)
            line, w1 = line[w1 != 0], w1[w1 != 0]
            # residual filter against the sum of term magnitudes, summed in the
            # order of poly.points; a NaN comparison keeps the root
            w1_pows = {e: np.power(w1, e) for e in {alpha[0] for alpha, _ in scales}}
            w2_line = w2_pows[line]
            sum_re = sum_im = mag = 0.0
            for alpha, c, _, j in terms:
                p = w1_pows[alpha[0]]
                re, im = _cmul(c.real, c.imag, p.real, p.imag)
                q = w2_line[:, j]
                re, im = _cmul(re, im, q.real, q.imag)
                sum_re, sum_im, mag = sum_re + re, sum_im + im, mag + np.hypot(re, im)
            keep = ~((mag == 0.0) | (np.hypot(sum_re, sum_im) > 1e-8 * mag))
            kept, kept_rows = w1[keep], (line[keep] // n_phase).tolist()
            # np.hypot rounds as abs() of one complex does; np.abs does not;
            # the points of a row share its r_2 float
            points.extend(zip(
                [math.log(m) / lt for m in np.hypot(kept.real, kept.imag).tolist()],
                map(row_r2.__getitem__, kept_rows),
            ))
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


def _clipped_edges(curve: TropicalCurve, vp: Viewport) -> list[tuple[RealPoint, RealPoint]]:
    """The bounded edges inside the viewport, clipped; zero length kept."""
    segments: list[tuple[RealPoint, RealPoint]] = []
    verts = [(to_float(v[0]), to_float(v[1])) for v in curve.vertices]
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
    return segments


def _clipped_legs(curve: TropicalCurve, vp: Viewport) -> list[tuple[RealPoint, RealPoint]]:
    """The legs inside the viewport, clipped; zero length dropped."""
    segments: list[tuple[RealPoint, RealPoint]] = []
    for leg in curve.legs:
        p = (to_float(leg.base[0]), to_float(leg.base[1]))
        d = (to_float(leg.direction[0]), to_float(leg.direction[1]))
        rng = _clip_segment_to_rect(p, d, 0.0, _BIG, vp)
        if rng is not None:
            s0, s1 = rng
            if s1 > s0:
                segments.append(
                    ((p[0] + s0 * d[0], p[1] + s0 * d[1]), (p[0] + s1 * d[0], p[1] + s1 * d[1]))
                )
    return segments


def _clipped_curve_segments(curve: TropicalCurve, vp: Viewport) -> list[tuple[RealPoint, RealPoint]]:
    return _clipped_edges(curve, vp) + _clipped_legs(curve, vp)


def hausdorff_to_tropical(cloud: AmoebaCloud, curve: TropicalCurve) -> float:
    """Symmetric Hausdorff distance between the cloud and curve, both clipped
    to the cloud's viewport.

    Cloud-to-curve distances are exact point-to-segment minima over the
    curve pieces clipped to the viewport; curve-to-cloud distances are taken
    over samples of those pieces at most 0.02 apart against a k-d tree of
    the clipped cloud. Units are the base-t log coordinates shared by both
    sides. Returns +inf when either side is empty in the viewport.
    """
    import numpy as np
    from scipy.spatial import cKDTree  # imported here: scipy.spatial is slow to load

    vp = cloud.viewport
    (xlo, ylo), (xhi, yhi) = vp
    flat = itertools.chain.from_iterable(cloud.points)
    xy = np.fromiter(flat, dtype=float, count=2 * len(cloud.points)).reshape(-1, 2)
    x, y = xy[:, 0], xy[:, 1]
    pts = xy[(xlo <= x) & (x <= xhi) & (ylo <= y) & (y <= yhi)]
    segments = _clipped_curve_segments(curve, vp)
    if len(pts) == 0 or not segments:
        return math.inf
    x, y = pts[:, 0].copy(), pts[:, 1].copy()

    # cloud -> curve, exact per segment
    best = np.full(len(pts), math.inf)
    for (px, py), (qx, qy) in segments:
        dx, dy = qx - px, qy - py
        den = dx * dx + dy * dy
        rx, ry = x - px, y - py
        if den > 0:
            s = np.clip((rx * dx + ry * dy) / den, 0.0, 1.0)
            rx -= s * dx
            ry -= s * dy
        np.minimum(best, np.hypot(rx, ry), out=best)
    cloud_to_curve = float(best.max())

    # curve -> cloud, sampled
    samples = []
    for (px, py), (qx, qy) in segments:
        count = max(2, int(math.hypot(qx - px, qy - py) / 0.02) + 1)
        s = np.linspace(0.0, 1.0, count)
        samples.append(np.column_stack((px + s * (qx - px), py + s * (qy - py))))
    # nearest distances are exact whatever the tree's shape: an unbalanced,
    # uncompacted tree with large leaves builds fastest
    tree = cKDTree(pts, leafsize=64, balanced_tree=False, compact_nodes=False)
    dists, _ = tree.query(np.concatenate(samples))
    curve_to_cloud = float(np.max(dists))

    return max(cloud_to_curve, curve_to_cloud)


def leg_zero_samples(
    poly: HeightedPolygon,
    params: PatchworkParams,
    leg: Leg,
    count: int = 100,
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
    exponents = [(a, -float(poly.height(a)) * lt) for a in poly.points]
    weights: list[tuple[Point, float]] = []  # (a, t^-nu(a)), at the first sample

    def full(w):
        return h_localized(poly, params, w)

    out: list[tuple[complex, complex]] = []
    for idx in range(count):
        s = 0.5 + 2.0 * idx / max(1, count - 1)
        n1 = lt * (float(leg.base[0]) + s * leg.direction[0])
        n2 = lt * (float(leg.base[1]) + s * leg.direction[1])
        w = (cmath.exp(complex(n1, theta[0])), cmath.exp(complex(n2, theta[1])))
        if not weights:
            weights = [(a, math.exp(x)) for a, x in exponents]
        scale = sum(abs(x * w[0] ** a[0] * w[1] ** a[1]) for a, x in weights)
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
    """Blow-up size and the cutoff value at the query point: 0 or 1, the
    values with a closed form."""

    epsilon_blowup: float
    chi: float

    def __post_init__(self):
        if not (0.0 < float(self.epsilon_blowup) < math.inf):
            raise ValueError("epsilon_blowup must be finite and > 0")
        if float(self.chi) not in (0.0, 1.0):
            raise ValueError("closed forms are available only for chi = 0 or chi = 1")
        object.__setattr__(self, "epsilon_blowup", float(self.epsilon_blowup))
        object.__setattr__(self, "chi", float(self.chi))


def singular_level(params: MomentParams) -> float:
    """The level whose fiber is singular: the blow-up size epsilon."""
    return params.epsilon_blowup


def moment_map(params: MomentParams, abs_u: float, abs_h: float) -> float:
    """Closed forms of the moment map at a point with the given moduli.

    chi = 0: pi |u|^2. chi = 1: pi |u|^2 + eps |u|^2 / (|h|^2 + |u|^2),
    undefined at |u| = |h| = 0, where the limit 0 along u = 0 is returned.
    A value that overflows is rejected.
    """
    u = float(abs_u)
    h = float(abs_h)
    if not (0.0 <= u < math.inf and 0.0 <= h < math.inf):
        raise ValueError("moduli must be finite and nonnegative")
    if params.chi == 0.0:
        value = math.pi * u * u
    else:
        if u == 0.0:
            return 0.0
        # the second term depends on u/h only: rescale when both squares underflow
        m = max(u, h) if h * h + u * u == 0.0 else 1.0
        su, sh = u / m, h / m
        value = math.pi * u * u + params.epsilon_blowup * su * su / (sh * sh + su * su)
        if not math.isfinite(value):
            # eps * su * su can overflow before the division brings it back
            value = math.pi * u * u + params.epsilon_blowup * (su * su / (sh * sh + su * su))
    if not math.isfinite(value):
        raise ValueError(f"moment map value {value} is not finite")
    return value


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
    value = moment_map(params, abs_u, abs_h)
    lam = singular_level(params)
    return MomentEvaluation(
        value=value,
        origin_limit_used=origin,
        singular_level=lam,
        at_singular_level=abs(value - lam) <= 1e-12,
    )
