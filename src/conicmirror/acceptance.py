"""The package's committed checks, runnable as a suite.

Each criterion is a function returning a CriterionResult with a pass flag
and a one-line detail (counts, worst residuals, elapsed time). run_all
executes all nine in order. Randomized criteria draw from generators seeded
by the run seed, so a given seed reproduces byte-identical reports.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .lattice_geometry import HeightedPolygon, is_unimodular, regular_triangulation
from .mckay_covers import (
    CoverAlgebraElement,
    Sublattice,
    cover_compose,
    cover_to_theta,
    quotient,
    theta_to_cover,
    truncated_hom_dimension,
)
from .mirror_ring import MirrorElement, ell2, multiply, oracle_product
from .numerics import (
    MomentParams,
    PatchworkParams,
    amoeba_sample,
    h_localized,
    hausdorff_to_tropical,
    leg_zero_samples,
    moment_map,
    moment_map_detail,
)
from .sections_bundles import FramedSection, degree_vector, enumerate_sections
from .theta_ring import ThetaElement, theta_multiply, verify_mirror_iso
from .tropical_curves import chambers, tropical_curve

SIMPLEX = HeightedPolygon(
    points=((0, 0), (1, 0), (0, 1)),
    heights=(Fraction(0), Fraction(0), Fraction(0)),
)
FOUR_POINT = HeightedPolygon(
    points=((0, 0), (1, 0), (0, 1), (-1, -1)),
    heights=(Fraction(-1, 4), Fraction(0), Fraction(0), Fraction(0)),
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _random_basis_index(rng: random.Random) -> tuple[tuple[int, int], int]:
    return (
        (rng.randint(-10, 10), rng.randint(-10, 10)),
        rng.randint(-10, 10),
    )


def criterion_mirror_iso(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    failures = 0
    pairs = 0
    for poly in (SIMPLEX, FOUR_POINT):
        report = verify_mirror_iso(poly, 3, 2)
        failures += len(report.failures)
        pairs += report.pairs_checked
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60.0
    return CriterionResult(
        "mirror-isomorphism",
        ok,
        f"bounds (3,2), both polygons, {pairs} pairs, "
        f"{failures} failures, {dt:.1f}s (< 60s)",
    )


def criterion_associativity(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    engines: list[tuple[str, Callable]] = [
        ("closed-form", multiply),
        ("oracle", oracle_product),
    ]
    bad = 0
    triples = 10_000
    for poly in (SIMPLEX, FOUR_POINT):
        rng = random.Random(seed + 17)
        keys = [
            tuple(_random_basis_index(rng) for _ in range(3)) for _ in range(triples)
        ]
        for _, engine in engines:
            for kx, ky, kz in keys:
                x, y, z = (MirrorElement.basis(n, i) for n, i in (kx, ky, kz))
                xy = engine(poly, x, y)
                if xy != engine(poly, y, x):
                    bad += 1
                    continue
                if engine(poly, xy, z) != engine(poly, x, engine(poly, y, z)):
                    bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 30.0
    return CriterionResult(
        "ring-associativity-commutativity",
        ok,
        f"{triples} triples x 2 polygons x 2 engines, entries in [-10,10], "
        f"{bad} violations, {dt:.1f}s (< 30s)",
    )


def criterion_ell2_cocycle(seed: int) -> CriterionResult:
    rng = random.Random(seed + 29)
    bad_cocycle = 0
    bad_sign = 0
    triples = 10_000
    for poly in (SIMPLEX, FOUR_POINT):
        for _ in range(triples):
            n = (rng.randint(-10, 10), rng.randint(-10, 10))
            np_ = (rng.randint(-10, 10), rng.randint(-10, 10))
            npp = (rng.randint(-10, 10), rng.randint(-10, 10))
            nsum = (n[0] + np_[0], n[1] + np_[1])
            psum = (np_[0] + npp[0], np_[1] + npp[1])
            values = (
                ell2(poly, n, np_),
                ell2(poly, nsum, npp),
                ell2(poly, n, psum),
                ell2(poly, np_, npp),
            )
            if values[0] + values[1] != values[2] + values[3]:
                bad_cocycle += 1
            if any(v < 0 for v in values):
                bad_sign += 1
    ok = bad_cocycle == 0 and bad_sign == 0
    return CriterionResult(
        "ell2-cocycle",
        ok,
        f"{triples} triples x 2 polygons, {bad_cocycle} cocycle violations, "
        f"{bad_sign} negative values",
    )


def criterion_tropical_facts(seed: int) -> CriterionResult:
    tri = regular_triangulation(FOUR_POINT)
    curve = tropical_curve(FOUR_POINT, tri)
    n_legs = len(curve.legs)
    n_chambers = len(chambers(FOUR_POINT, tri))
    n_cells = len(tri.cells)
    uni = is_unimodular(tri)
    ok = n_legs == 3 and n_chambers == 4 and n_cells == 3 and uni
    return CriterionResult(
        "tropical-example-facts",
        ok,
        f"4-point example: {n_legs} legs (=3), {n_chambers} chambers (=4), "
        f"{n_cells} cells (=3), unimodular={uni}",
    )


def _term(poly: HeightedPolygon, params: PatchworkParams, alpha, w) -> complex:
    return (
        math.exp(-float(poly.height(alpha)) * params.log_t)
        * w[0] ** alpha[0]
        * w[1] ** alpha[1]
    )


def criterion_localization(seed: int) -> CriterionResult:
    params = PatchworkParams(t=math.e**3, epsilon_loc=0.05)
    lt = params.log_t
    rng = random.Random(seed + 43)
    worst_two_term = 0.0
    worst_zero = 0.0
    legs_checked = 0
    for poly in (SIMPLEX, FOUR_POINT):
        curve = tropical_curve(poly, regular_triangulation(poly))
        for leg in curve.legs:
            legs_checked += 1
            alpha, beta = leg.dual_edge
            for k in range(100):
                s = 0.5 + 2.0 * k / 99
                n = (
                    lt * (float(leg.base[0]) + s * leg.direction[0]),
                    lt * (float(leg.base[1]) + s * leg.direction[1]),
                )
                w = (
                    cmath.exp(complex(n[0], rng.uniform(0.0, 2.0 * math.pi))),
                    cmath.exp(complex(n[1], rng.uniform(0.0, 2.0 * math.pi))),
                )
                two = _term(poly, params, alpha, w) + _term(poly, params, beta, w)
                h = h_localized(poly, params, w)
                rel = abs(h - two) / abs(two)
                worst_two_term = max(worst_two_term, rel)
            for w in leg_zero_samples(poly, params, leg, count=40):
                a = _term(poly, params, alpha, w)
                b = _term(poly, params, beta, w)
                scale = abs(a) + abs(b)
                worst_zero = max(worst_zero, abs(a + b) / scale)
    ok = worst_two_term < 1e-12 and worst_zero < 1e-9
    return CriterionResult(
        "tropical-localization",
        ok,
        f"{legs_checked} legs x 100 points: two-term rel err {worst_two_term:.2e} "
        f"(< 1e-12); 40 leg zeros each: binomial rel err {worst_zero:.2e} (< 1e-9)",
    )


def criterion_amoeba_convergence(seed: int) -> CriterionResult:
    t0 = time.perf_counter()
    tri = regular_triangulation(FOUR_POINT)
    curve = tropical_curve(FOUR_POINT, tri)
    distances = []
    for t in (math.e**2, math.e**4, math.e**8):
        params = PatchworkParams(t=t, epsilon_loc=0.05)
        cloud = amoeba_sample(FOUR_POINT, params, grid=(200, 64), curve=curve)
        distances.append(hausdorff_to_tropical(cloud, curve))
    dt = time.perf_counter() - t0
    monotone = all(b <= a for a, b in zip(distances, distances[1:]))
    ok = monotone and distances[-1] < 0.35 and dt < 120.0
    formatted = ", ".join(f"{d:.4f}" for d in distances)
    return CriterionResult(
        "amoeba-hausdorff-convergence",
        ok,
        f"t in {{e^2, e^4, e^8}} at 200x64: distances [{formatted}] "
        f"(monotone={monotone}, final < 0.35), {dt:.1f}s (< 120s)",
    )


def _star_section(x: int, y: int, m: int) -> FramedSection:
    return FramedSection({0: (x, y), 1: (x, y + m), 2: (x + m, y)})


def criterion_sections(seed: int) -> CriterionResult:
    single_tri = regular_triangulation(SIMPLEX)
    classes = enumerate_sections(single_tri, 2)
    one_class = len(classes) == 1

    tri = regular_triangulation(FOUR_POINT)
    rng = random.Random(seed + 61)
    bad = 0
    pairs = 1_000
    for _ in range(pairs):
        s1 = _star_section(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        s2 = _star_section(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
        shift = (rng.randint(-20, 20), rng.randint(-20, 20))
        d1 = degree_vector(tri, s1)
        d2 = degree_vector(tri, s2)
        if degree_vector(tri, s1.shift(shift)) != d1:
            bad += 1
            continue
        if degree_vector(tri, s1 + s2) != d1 + d2:
            bad += 1
    ok = one_class and bad == 0
    return CriterionResult(
        "framed-sections",
        ok,
        f"single-cell box 2: {len(classes)} shift class (=1); "
        f"{pairs} random 4-point pairs: {bad} shift/additivity violations",
    )


def criterion_mckay(seed: int) -> CriterionResult:
    sub = Sublattice(((1, 0), (-1, 3)))
    group = quotient(sub)
    rng = random.Random(seed + 71)

    def random_cover() -> CoverAlgebraElement:
        out = {}
        for _ in range(2):
            g = rng.choice(group.elements())
            n = (rng.randint(-3, 3), rng.randint(-3, 3))
            h = group.add(g, group.projection(n))
            out[(g, h, n, rng.randint(-2, 2))] = Fraction(rng.randint(-4, 4))
        return CoverAlgebraElement(out)

    bad_assoc = 0
    triples = 1_000
    for _ in range(triples):
        x, y, z = random_cover(), random_cover(), random_cover()
        left = cover_compose(SIMPLEX, sub, cover_compose(SIMPLEX, sub, x, y), z)
        right = cover_compose(SIMPLEX, sub, x, cover_compose(SIMPLEX, sub, y, z))
        if left != right:
            bad_assoc += 1

    dims: dict[tuple[int, int], set[int]] = {}
    for g in group.elements():
        for h in group.elements():
            dims.setdefault(group.sub(h, g), set()).add(
                truncated_hom_dimension(sub, g, h, bound_n=6, bound_i=3)
            )
    torsor = all(len(v) == 1 for v in dims.values())

    full = Sublattice.full()
    bad_degenerate = 0
    for _ in range(200):
        a = ThetaElement(
            {
                ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2)): Fraction(
                    rng.randint(-4, 4)
                )
                for _ in range(2)
            }
        )
        b = ThetaElement(
            {
                ((rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-2, 2)): Fraction(
                    rng.randint(-4, 4)
                )
                for _ in range(2)
            }
        )
        composed = cover_compose(SIMPLEX, full, theta_to_cover(a), theta_to_cover(b))
        if cover_to_theta(composed) != theta_multiply(SIMPLEX, a, b):
            bad_degenerate += 1

    ok = bad_assoc == 0 and torsor and bad_degenerate == 0
    return CriterionResult(
        "mckay-covers",
        ok,
        f"|G|=3: {triples} triples, {bad_assoc} associativity violations; "
        f"Hom-dim depends only on h-g: {torsor}; "
        f"|G|=1 vs theta product: {bad_degenerate} mismatches in 200",
    )


def criterion_moment_map(seed: int) -> CriterionResult:
    rng = random.Random(seed + 83)
    eps = 0.3
    flat = MomentParams(epsilon_blowup=eps, chi=0.0)
    blown = MomentParams(epsilon_blowup=eps, chi=1.0)
    exact_flat = all(
        moment_map(flat, u, h) == math.pi * u * u
        for u, h in ((rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)) for _ in range(100))
    )
    center = abs(moment_map(blown, 1.0, 1.0) - (math.pi + eps / 2.0))
    u_sing = math.sqrt(eps / math.pi)
    detail = moment_map_detail(flat, u_sing, 0.0)
    singular_ok = detail.singular_level == eps and detail.at_singular_level
    ok = exact_flat and center <= 1e-15 and singular_ok
    return CriterionResult(
        "moment-map",
        ok,
        f"chi=0 exact on 100 samples: {exact_flat}; chi=1 at (1,1): "
        f"|value - (pi + eps/2)| = {center:.1e} (<= 1e-15); "
        f"singular level = eps with on-level flag: {singular_ok}",
    )


CRITERIA: tuple[tuple[str, Callable[[int], CriterionResult]], ...] = (
    ("1", criterion_mirror_iso),
    ("2", criterion_associativity),
    ("3", criterion_ell2_cocycle),
    ("4", criterion_tropical_facts),
    ("5", criterion_localization),
    ("6", criterion_amoeba_convergence),
    ("7", criterion_sections),
    ("8", criterion_mckay),
    ("9", criterion_moment_map),
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run every criterion in order."""
    return [fn(seed) for _, fn in CRITERIA]
