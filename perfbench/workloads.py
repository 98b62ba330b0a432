"""One workload in one fresh process: set-up, warm-up, timed rounds, checks.

Run by ``run.py``; not meant to be called by hand. Modes:

* ``setup``: build the inputs and warm up, then report the set-up time;
* ``run``: the same, then timed rounds with tracing off;
* ``trace``: the same, then untraced and traced rounds in turn, reporting
  the per-layer numbers of the traced rounds.

A round runs every batch of the workload once, one after the other, so a
slow spell spreads over all rates. Each batch's rate is taken per round,
with its seconds scaled to a reference machine speed (``calibrate.py``),
and the reported rate is the median over rounds. Outputs of the first round
are checked against independent computations (``checks.py``); later rounds
must reproduce them exactly. The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import calibrate
import checks
import inputs
from checks import CheckFailed, require

ROOT = Path(__file__).resolve().parent.parent
SEGMENT_S = 0.3  # longest stretch of work between two calibration slices


@dataclass
class Batch:
    """A fixed list of work items whose rate is measured once per round.

    ``do`` runs one item (timed); ``collect`` reads back an item's output
    after the clock stops; ``units`` is the work an item did, from its
    output; ``check`` verifies a whole batch's outputs independently.
    """

    metric: str
    items: list
    do: Callable[[Any], None]
    collect: Callable[[Any], Any]
    units: Callable[[Any, Any], int]
    check: Callable[[list, list], None]
    warm_items: Optional[list] = None

    def run(self) -> tuple[float, float]:
        """Run every item; (wall seconds, seconds scaled to the reference speed).

        A calibration slice runs before the first item and after every
        stretch of about SEGMENT_S seconds; each stretch is scaled by the
        slices on either side of it. Slices are not part of the time.
        """
        do = self.do
        raw = norm = 0.0
        before = calibrate.slice_seconds()
        start = time.perf_counter()
        for item in self.items:
            do(item)
            elapsed = time.perf_counter() - start
            if elapsed >= SEGMENT_S:
                after = calibrate.slice_seconds()
                raw += elapsed
                norm += calibrate.scaled(elapsed, before, after)
                before = after
                start = time.perf_counter()
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            raw += elapsed
            norm += calibrate.scaled(elapsed, before, calibrate.slice_seconds())
        return raw, norm


@dataclass
class Workload:
    batches: list[Batch]
    # operations run once per round outside the batches; each callable
    # runs one and returns 1 if it failed
    extra: list[Callable[[], int]] = field(default_factory=list)
    # run once, after the first round's checks
    final_checks: list[Callable[[], None]] = field(default_factory=list)
    # per-layer values the workload computes from its own outputs, per round
    layer_values: Optional[Callable[[], dict]] = None


class Cli:
    """``cli.main`` in-process, with its stdout and stderr captured."""

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.out = io.StringIO()
        self.err = io.StringIO()

    def __call__(self, argv: list[str]) -> int:
        self.out.seek(0)
        self.out.truncate()
        self.err.seek(0)
        self.err.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            return self.cli.main(argv)


def write_json(path: Path, data: Any) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------- ring


def ring_workload(seed: int, smoke: bool, work: Path) -> Workload:
    from conicmirror import cli, mckay_covers, mirror_ring, theta_ring
    from conicmirror.lattice_geometry import HeightedPolygon
    from conicmirror.mckay_covers import CoverAlgebraElement, Sublattice
    from conicmirror.mirror_ring import MirrorElement
    from conicmirror.theta_ring import ThetaElement

    data = inputs.ring_inputs(seed, smoke)
    run_cli = Cli(cli)
    points = data["polygons"]
    polys = {name: HeightedPolygon.create(pts, 0) for name, pts in points.items()}
    poly_files = {
        name: write_json(work / f"{name}.json", inputs.polygon_json(pts, [0] * len(pts)))
        for name, pts in points.items()
    }

    # verify-mirror: ((2B+1)^2 (2I+1))^2 ordered basis pairs per command
    def pairs(b: int, i: int) -> int:
        return ((2 * b + 1) ** 2 * (2 * i + 1)) ** 2

    verify_items = [
        (poly_files[name], b, i, str(work / f"verify-{k}.json"))
        for k, (name, b, i) in enumerate(data["verify"])
    ]

    def verify_do(item) -> None:
        path, b, i, out = item
        code = run_cli(["verify-mirror", "--in", path, "--bound-n", str(b),
                        "--bound-i", str(i), "--out", out])
        require(code == 0 and run_cli.out.getvalue() == "failures: 0\n",
                f"verify-mirror {path} {b} {i}: exit {code}, {run_cli.out.getvalue()!r}")

    def verify_check(items, outs) -> None:
        for (path, b, i, _), raw in zip(items, outs):
            report = json.loads(raw)
            require(report["failures"] == [] and report["ok"] is True, f"{path}: failures")
            require(report["pairs_checked"] == pairs(b, i),
                    f"{path}: {report['pairs_checked']} pairs, expected {pairs(b, i)}")

    # ring-mul / theta-mul jobs, JSON in and out
    product_items = []
    for k, (name, theta, x, y) in enumerate(data["products"]):
        job = {"polygon": inputs.polygon_json(points[name], [0] * len(points[name]))}
        if theta:
            job.update(x={"theta": True, "terms": x}, y={"theta": True, "terms": y})
        else:
            job.update(x=x, y=y)
        path = write_json(work / f"product-{k}.json", job)
        product_items.append((name, theta, x, y, path, str(work / f"product-{k}.out.json")))

    def product_do(item) -> None:
        _, theta, _, _, path, out = item
        code = run_cli(["theta-mul" if theta else "ring-mul", "--in", path, "--out", out])
        require(code == 0, f"product job {path}: exit {code}: {run_cli.err.getvalue()}")

    def product_check(items, outs) -> None:
        for (name, theta, x, y, path, _), raw in zip(items, outs):
            product = json.loads(raw)["product"]
            got = checks.terms_from_json(product["terms"] if theta else product)
            tx, ty = checks.terms_from_json(x), checks.terms_from_json(y)
            require(got == checks.ref_product(points[name], tx, ty), f"{path}: wrong product")
            oracle = mirror_ring.oracle_product(polys[name], MirrorElement(tx), MirrorElement(ty))
            require(got == oracle.coefficients, f"{path}: product differs from oracle_product")

    # criterion-2 triples: both engines, commutativity and associativity
    triple_items = [(polys[name], name, keys, []) for name, keys in data["triples"]]

    def triple_do(item) -> None:
        poly, _, keys, slot = item
        x, y, z = (MirrorElement.basis(n, i) for n, i in keys)
        slot.clear()
        for engine in (mirror_ring.multiply, mirror_ring.oracle_product):
            xy = engine(poly, x, y)
            slot.append((xy, engine(poly, y, x), engine(poly, xy, z),
                         engine(poly, x, engine(poly, y, z))))

    def triple_collect(item):
        return tuple(tuple(e.coefficients for e in engine) for engine in item[3])

    def triple_check(items, outs) -> None:
        for (_, name, keys, _), engines in zip(items, outs):
            x, y, z = ({(n, i): Fraction(1)} for n, i in keys)
            xy = checks.ref_product(points[name], x, y)
            xyz = checks.ref_product(points[name], xy, z)
            for label, (p_xy, p_yx, p_xy_z, p_x_yz) in zip(("closed form", "oracle"), engines):
                require(p_xy == p_yx, f"{label} not commutative on {keys}")
                require(p_xy_z == p_x_yz, f"{label} not associative on {keys}")
                require(p_xy == xy and p_xy_z == xyz, f"{label} product wrong on {keys}")

    # cover_compose at |G| = 1, 3 and 8
    rng = data["rng"]
    cover_items = []
    for basis in (((1, 0), (0, 1)), ((1, 0), (-1, 3)), ((2, 0), (0, 4))):
        sub = Sublattice(basis)
        group = mckay_covers.quotient(sub)
        for _ in range(data["cover_pairs"] // 3):
            x = inputs.random_cover_element(rng, group, 3)
            y = inputs.random_cover_element(rng, group, 3)
            cover_items.append((polys["simplex"], sub, CoverAlgebraElement(x),
                                CoverAlgebraElement(y), x, y, []))

    def cover_do(item) -> None:
        poly, sub, x, y, _, _, slot = item
        slot[:] = [mckay_covers.cover_compose(poly, sub, x, y)]

    def cover_check(items, outs) -> None:
        for (poly, sub, _, _, x, y, _), got in zip(items, outs):
            require(got == checks.ref_cover_compose(points["simplex"], x, y),
                    f"cover product wrong at index {sub.index()}")
            if sub.index() == 1:
                tx = ThetaElement({(n, i): c for (_, _, n, i), c in x.items()})
                ty = ThetaElement({(n, i): c for (_, _, n, i), c in y.items()})
                theta = theta_ring.theta_multiply(poly, tx, ty).coefficients
                require({(n, i): c for (_, _, n, i), c in got.items()} == theta,
                        "|G| = 1 cover product differs from the theta product")

    def ring_identities() -> None:
        simplex = polys["simplex"]
        _, gens = mirror_ring.c3_preset()
        xyz = mirror_ring.multiply(simplex, mirror_ring.multiply(simplex, gens["x"], gens["y"]),
                                   gens["z"])
        require(xyz.coefficients == {((0, 0), 0): 1, ((0, 0), 1): 2, ((0, 0), 2): 1},
                f"x*y*z = {xyz}, expected b(0,0,0) + 2 b(0,0,1) + b(0,0,2)")
        for name, poly in polys.items():
            for _ in range(50 if smoke else 500):
                a, b, c = ((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(3))
                ab, bc = (a[0] + b[0], a[1] + b[1]), (b[0] + c[0], b[1] + c[1])
                e = [mirror_ring.ell2(poly, *p) for p in ((a, b), (ab, c), (a, bc), (b, c))]
                require(e == [checks.defect(points[name], *p) for p in ((a, b), (ab, c), (a, bc), (b, c))],
                        f"ell2 differs from the support-function defect on {name}")
                require(e[0] + e[1] == e[2] + e[3] and min(e) >= 0,
                        f"ell2 cocycle identity fails on {name} at {a}, {b}, {c}")

    return Workload(
        batches=[
            Batch("verify_pairs_per_s", verify_items, verify_do,
                  lambda it: read_bytes(it[3]), lambda it, out: json.loads(out)["pairs_checked"],
                  verify_check),
            Batch("products_per_s", product_items, product_do,
                  lambda it: read_bytes(it[5]), lambda it, out: 1, product_check),
            Batch("assoc_triples_per_s", triple_items, triple_do, triple_collect,
                  lambda it, out: 1, triple_check),
            Batch("cover_products_per_s", cover_items, cover_do,
                  lambda it: it[6][0].entries, lambda it, out: 1, cover_check),
        ],
        final_checks=[ring_identities],
    )


# ------------------------------------------------------------- geometry


def _cross(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _extreme_points(pts) -> set:
    """Vertices of the convex hull of a planar point set (monotone chain)."""
    pts = sorted(set(map(tuple, pts)))

    def half(seq):
        out: list = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return set(half(pts) + half(pts[::-1]))


def geometry_workload(seed: int, smoke: bool, work: Path) -> Workload:
    from conicmirror import cli, sections_bundles
    from conicmirror.lattice_geometry import HeightedPolygon, regular_triangulation
    from conicmirror.sections_bundles import FramedSection

    oracle = checks.load_qhull_oracle(ROOT)
    data = inputs.geometry_inputs(seed, smoke, oracle)
    run_cli = Cli(cli)

    def prepare(tag: str, points, heights, cells=None) -> dict:
        """Job file plus the expected cells, from qhull unless given."""
        if cells is None:
            cells, face = oracle.lower_hull_cells(points, heights)
            require(face is None, f"{tag}: generated heights are not generic")
        path = write_json(work / f"{tag}.json", inputs.polygon_json(points, heights))
        return {"tag": tag, "points": points, "heights": heights, "cells": sorted(cells),
                "path": path}

    mix = [prepare(f"mix-{name}", pts, hts) for name, pts, hts in data["mix"]]
    tri_items = [(p, str(work / f"{p['tag']}.tri.json")) for p in mix]
    trop_items = [(p, str(work / f"{p['tag']}.trop.json")) for p in mix]
    sec_items = [
        (prepare(f"sections-{name}", pts, hts), box, str(work / f"sections-{name}.out.json"))
        for name, pts, hts, box in data["sections"]
    ]
    # all heights equal: the lower hull is one face, the triangle of its corners
    flat_points, flat_heights = data["flat"]
    corners = _extreme_points(flat_points)
    flat = prepare("flat", flat_points, flat_heights,
                   [tuple(q for q, p in enumerate(flat_points) if p in corners)])
    flat_out = str(work / "flat.trop.json")

    def command(name: str) -> Callable[[Any], None]:
        def do(item) -> None:
            p, out = item[0], item[-1]
            argv = [name, "--in", p["path"], "--out", out]
            if name == "sections":
                argv += ["--box", str(item[1])]
            code = run_cli(argv)
            require(code == 0, f"{name} {p['tag']}: exit {code}: {run_cli.err.getvalue()}")
        return do

    def tri_check(items, outs) -> None:
        for (p, _), raw in zip(items, outs):
            body = json.loads(raw)
            require(sorted(tuple(c) for c in body["triangulation"]["cells"]) == p["cells"],
                    f"{p['tag']}: cells differ from the qhull lower hull")
            unimodular = all(abs(_cross(*(p["points"][q] for q in c))) == 1 for c in p["cells"])
            require(body["unimodular"] == unimodular, f"{p['tag']}: wrong unimodular flag")

    def trop_check(items, outs) -> None:
        for (p, _), raw in zip(items, outs):
            body = json.loads(raw)
            checks.check_curve(p["points"], p["heights"], p["cells"], body["curve"])
            used = {tuple(p["points"][q]) for c in p["cells"] for q in c}
            require({tuple(c) for c in body["chambers"]} == used,
                    f"{p['tag']}: chambers are not the used points")

    def sec_check(items, outs) -> None:
        for (p, _, _), raw in zip(items, outs):
            body = json.loads(raw)
            tri = regular_triangulation(HeightedPolygon.create(p["points"], p["heights"]))
            edges = [{"v": list(e.v), "interior": e.interior, "cells": list(e.cells)}
                     for e in tri.edges]
            require(checks.edge_use(p["cells"]) == {tuple(e["v"]): len(e["cells"]) for e in edges},
                    f"{p['tag']}: triangulation edges differ from the qhull cells")
            classes = [{int(k): tuple(v) for k, v in c["section"].items()} for c in body["classes"]]
            require(len(classes) == body["count"] > 0, f"{p['tag']}: class count")
            require(len({tuple(sorted(c.items())) for c in classes}) == len(classes),
                    f"{p['tag']}: repeated shift class")
            for c, emitted in zip(classes, body["classes"]):
                require(checks.degree_of(p["points"], edges, c)
                        == {int(k): v for k, v in emitted["degrees"].items()},
                        f"{p['tag']}: degree vector differs from the edge formula")
            # shift invariance and additivity of the program's degree map
            for k in range(0, len(classes), max(1, len(classes) // 25)):
                s1 = FramedSection(classes[k])
                s2 = FramedSection(classes[(7 * k + 3) % len(classes)])
                d1 = sections_bundles.degree_vector(tri, s1)
                d2 = sections_bundles.degree_vector(tri, s2)
                require(sections_bundles.degree_vector(tri, s1.shift((k % 5 - 2, 3))) == d1,
                        f"{p['tag']}: degree vector not shift invariant")
                require(sections_bundles.degree_vector(tri, s1 + s2) == d1 + d2,
                        f"{p['tag']}: degree vector not additive")

    def flat_tropical() -> int:
        """tropical on the flat degree-2 triangle: fails while the leg probe
        demands that the argmax be exactly the two ends of the boundary edge."""
        code = run_cli(["tropical", "--in", flat["path"], "--out", flat_out])
        if code == 3 and "no leg direction works for boundary edge" in run_cli.err.getvalue():
            return 1
        require(code == 0, f"tropical on the flat triangle: exit {code}: {run_cli.err.getvalue()}")
        checks.check_curve(flat["points"], flat["heights"], flat["cells"],
                           read_json(flat_out)["curve"])
        return 0

    return Workload(
        batches=[
            Batch("triangulate_per_s", tri_items, command("triangulate"),
                  lambda it: read_bytes(it[1]), lambda it, out: 1, tri_check),
            Batch("tropical_per_s", trop_items, command("tropical"),
                  lambda it: read_bytes(it[1]), lambda it, out: 1, trop_check),
            Batch("section_classes_per_s", sec_items, command("sections"),
                  lambda it: read_bytes(it[2]), lambda it, out: json.loads(out)["count"],
                  sec_check),
        ],
        extra=[flat_tropical],
    )


# --------------------------------------------------------------- amoeba


def amoeba_workload(seed: int, smoke: bool, work: Path) -> Workload:
    from conicmirror import numerics
    from conicmirror.lattice_geometry import HeightedPolygon, regular_triangulation
    from conicmirror.numerics import PatchworkParams
    from conicmirror.tropical_curves import tropical_curve

    data = inputs.amoeba_inputs(seed, smoke, checks.load_qhull_oracle(ROOT))
    polys = []
    for name, pts, hts, exps, leg_exp in data["polygons"]:
        poly = HeightedPolygon.create(pts, hts)
        curve = tropical_curve(poly, regular_triangulation(poly))
        polys.append((name, pts, hts, poly, curve, exps, leg_exp))

    # amoeba_sample at every (polygon, t); its clouds feed hausdorff_to_tropical
    clouds: dict[tuple[str, int], Any] = {}
    sample_items = [(p, e, data["grid"]) for p in polys for e in p[5]]

    def sample_do(item) -> None:
        (name, _, _, poly, curve, _, _), e, grid = item
        params = PatchworkParams(t=math.exp(e), epsilon_loc=0.05)
        clouds[(name, e)] = numerics.amoeba_sample(poly, params, grid=grid, curve=curve)

    def sample_check(items, outs) -> None:
        for ((name, pts, hts, *_), e, _), points in zip(items, outs):
            checks.check_cloud(pts, hts, math.exp(e), points)

    distances: dict[tuple[str, int], float] = {}
    haus_items = [(p, e) for p in polys for e in p[5]] * (1 if smoke else 3)

    def haus_do(item) -> None:
        (name, _, _, _, curve, _, _), e = item
        distances[(name, e)] = numerics.hausdorff_to_tropical(clouds[(name, e)], curve)

    def haus_check(items, outs) -> None:
        require(all(d >= 0 for d in outs), "negative Hausdorff distance")

    leg_items = [(p, leg, []) for p in polys for leg in p[4].legs]

    def leg_do(item) -> None:
        (_, _, _, poly, _, _, e), leg, slot = item
        params = PatchworkParams(t=math.exp(e), epsilon_loc=0.05)
        slot[:] = numerics.leg_zero_samples(poly, params, leg, count=data["leg_count"])

    def leg_check(items, outs) -> None:
        for ((name, pts, hts, _, _, _, e), leg, _), zeros in zip(items, outs):
            require(len(zeros) == data["leg_count"], f"{name}: missing leg zeros")
            heights_of = dict(zip(pts, hts))
            worst = max(checks.binomial_residual(heights_of, math.exp(e), leg.dual_edge, w)
                        for w in zeros)
            require(worst < 1e-9, f"{name}: leg zero binomial residual {worst:.2e} >= 1e-9")

    def series(name: str) -> list[float]:
        return [distances[(name, e)] for e in next(p[5] for p in polys if p[0] == name)]

    def converges(name: str) -> bool:
        d = series(name)
        return all(b <= a for a, b in zip(d, d[1:])) and d[-1] < 0.35

    def four_point_converges() -> int:
        require(converges("four_point"),
                f"four-point Hausdorff series {series('four_point')} does not converge")
        return 0

    def paraboloid_converges() -> int:
        """Fails while amoeba_sample slices only along w_2 and misses the
        curve's horizontal segments."""
        return 0 if converges("paraboloid") else 1

    def layer_values() -> dict:
        attempted = sum(
            g[0] * g[1] * (max(q[0] for q in p[1]) - min(q[0] for q in p[1]))
            for p, _, g in sample_items
        )
        kept = sum(len(c.points) for c in clouds.values())
        finite = [d for d in distances.values() if math.isfinite(d)]
        return {
            "numerics.roots_attempted": attempted,
            "numerics.root_keep_ratio": kept / attempted,
            "numerics.failed_lines": sum(len(c.failed_lines) for c in clouds.values()),
            "numerics.hausdorff_worst": max(finite),
        }

    return Workload(
        batches=[
            Batch("amoeba_lines_per_s", sample_items, sample_do,
                  lambda it: clouds[(it[0][0], it[1])].points,
                  lambda it, out: it[2][0] * it[2][1], sample_check,
                  warm_items=[(p, p[5][0], (8, 4)) for p in polys]),
            Batch("hausdorff_per_s", haus_items, haus_do,
                  lambda it: distances[(it[0][0], it[1])], lambda it, out: 1, haus_check,
                  warm_items=[(p, p[5][0]) for p in polys]),
            Batch("leg_zeros_per_s", leg_items, leg_do,
                  lambda it: tuple(it[2]), lambda it, out: len(out), leg_check),
        ],
        extra=[four_point_converges, paraboloid_converges],
        layer_values=layer_values,
    )


WORKLOADS = {"ring": ring_workload, "geometry": geometry_workload, "amoeba": amoeba_workload}


# ---------------------------------------------------------------- rounds


def warm_up(workload: Workload) -> None:
    for batch in workload.batches:
        for item in batch.warm_items if batch.warm_items is not None else batch.items[:1]:
            batch.do(item)


def one_round(workload: Workload, reference: Optional[str]) -> dict:
    """Every batch once, then the extra operations, then the checks.

    Without a reference the outputs are checked independently; with one
    (a digest of the first round's outputs) they must reproduce it. Returns
    per batch the wall and scaled seconds and the units of work, plus the
    round's failed operations and output digest.
    """
    raw, norm, units, outputs = [], [], [], []
    for batch in workload.batches:
        r, n = batch.run()
        outs = [batch.collect(item) for item in batch.items]
        raw.append(r)
        norm.append(n)
        units.append(sum(batch.units(i, o) for i, o in zip(batch.items, outs)))
        outputs.append(outs)
    failed = sum(op() for op in workload.extra)
    if reference is None:
        for batch, outs in zip(workload.batches, outputs):
            batch.check(batch.items, outs)
        for final in workload.final_checks:
            final()
    digest = hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()
    require(reference is None or digest == reference, "outputs changed between rounds")
    return {"raw": raw, "norm": norm, "units": units, "failed": failed, "digest": digest}


def timed_rounds(workload: Workload, seconds: float, tracer=None) -> dict:
    """Whole rounds until the batches have run for ``seconds`` of wall time.

    With a tracer, untraced and traced rounds alternate, and rates come
    from the untraced rounds only. A batch's rate is its units over its
    scaled seconds, per round; reported is the median over rounds, with
    the unscaled median alongside.
    """
    ops_per_round = sum(len(b.items) for b in workload.batches) + len(workload.extra)
    modes = ("untraced", "traced") if tracer is not None else ("untraced",)
    reference: Optional[str] = None
    measured = 0.0
    rounds = failed = 0
    untraced: list[dict] = []
    walls: dict[str, list[tuple[float, float]]] = {mode: [] for mode in modes}
    while measured < seconds:
        for mode in modes:
            if mode == "traced":
                tracer.install()
            try:
                r = one_round(workload, reference)
            finally:
                if mode == "traced":
                    tracer.uninstall()
            reference = r["digest"] if reference is None else reference
            measured += sum(r["raw"])
            walls[mode].append((sum(r["raw"]), sum(r["norm"])))
            if mode == "untraced":
                untraced.append(r)
            rounds += 1
            failed += r["failed"]
    return {
        "rounds": rounds,
        "attempted": rounds * ops_per_round,
        "failed": failed,
        "rates": {b.metric: statistics.median(r["units"][k] / r["norm"][k] for r in untraced)
                  for k, b in enumerate(workload.batches)},
        "raw_rates": {b.metric: statistics.median(r["units"][k] / r["raw"][k] for r in untraced)
                      for k, b in enumerate(workload.batches)},
        "round_walls": walls,
    }


# per-layer values that only the amoeba workload's outputs provide
NUMERICS_DEFAULTS = {
    "numerics.roots_attempted": 0,
    "numerics.root_keep_ratio": 0.0,
    "numerics.failed_lines": 0,
    "numerics.hausdorff_worst": 0.0,
}


def layer_metrics(tracer, workload: Workload, walls: dict) -> dict:
    """Per-layer seconds and counts per traced round, plus ratios.

    A ratio whose denominator is zero (the layer did not run) reads 0.
    """
    rounds = len(walls["traced"])
    total, self_time = tracer.totals()
    calls: dict[str, int] = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = [n for n in total if n.startswith("serialize.") and n.endswith("_from_json")]
    emit = [n for n in total if n.startswith("serialize.") and n not in parse]
    summed = {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "serialize.parse_s": sum(total[n] for n in parse),
        "serialize.emit_s": sum(total[n] for n in emit),
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "lattice_geometry.triangulate_s": total.get("lattice_geometry.regular_triangulation", 0.0),
        "lattice_geometry.triangulate_calls": calls.get("lattice_geometry.regular_triangulation", 0),
        "lattice_geometry.is_adapted_s": total.get("lattice_geometry.is_adapted", 0.0),
        "tropical_curves.curve_self_s": self_time.get("tropical_curves.tropical_curve", 0.0),
        "tropical_curves.legs": counts["tropical_curves.legs"],
        "sections_bundles.enumerate_s": total.get("sections_bundles.enumerate_sections", 0.0),
        "sections_bundles.classes": counts["sections_bundles.classes"],
        "sections_bundles.degree_vector_s": total.get("sections_bundles.degree_vector", 0.0),
        "mirror_ring.multiply_s": total.get("mirror_ring.multiply", 0.0),
        "mirror_ring.multiply_calls": calls.get("mirror_ring.multiply", 0),
        "mirror_ring.terms_out": counts["mirror_ring.terms_out"],
        "mirror_ring.oracle_s": sum(total.get("mirror_ring." + n, 0.0)
                                    for n in ("embed", "oracle_multiply", "canonicalize")),
        "mirror_ring.oracle_calls": calls.get("mirror_ring.oracle_product", 0),
        "theta_ring.theta_multiply_s": total.get("theta_ring.theta_multiply", 0.0),
        "theta_ring.verify_self_s": self_time.get("theta_ring.verify_mirror_iso", 0.0),
        "mckay_covers.compose_s": total.get("mckay_covers.cover_compose", 0.0),
        "mckay_covers.quotient_s": total.get("mckay_covers.quotient", 0.0),
        "numerics.amoeba_sample_s": total.get("numerics.amoeba_sample", 0.0),
        "numerics.roots_kept": counts["numerics.roots_kept"],
        "numerics.hausdorff_s": total.get("numerics.hausdorff_to_tropical", 0.0),
        "numerics.leg_zero_s": total.get("numerics.leg_zero_samples", 0.0),
    }
    # seconds to the reference speed, by the traced rounds' overall scale
    scale = sum(n for _, n in walls["traced"]) / sum(r for r, _ in walls["traced"])
    values = {k: v * (scale if k.endswith("_s") else 1.0) / rounds for k, v in summed.items()}
    values["lattice_geometry.triangulations_per_curve"] = ratio(
        tracer.calls_in_roots_with("tropical_curves.tropical_curve",
                                   "lattice_geometry.regular_triangulation"),
        calls.get("tropical_curves.tropical_curve", 0))
    values["mckay_covers.quotients_per_compose"] = ratio(
        tracer.calls_under("mckay_covers.cover_compose", "mckay_covers.quotient"),
        calls.get("mckay_covers.cover_compose", 0))
    values["numerics.h_evals_per_zero"] = ratio(
        counts["numerics.h_localized"], counts["numerics.leg_zeros"])
    values["trace.overhead_s"] = (statistics.median(n for _, n in walls["traced"])
                                  - statistics.median(n for _, n in walls["untraced"]))
    values.update(NUMERICS_DEFAULTS)
    if workload.layer_values is not None:
        values.update(workload.layer_values())
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one workload of the conicmirror benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--work", required=True, help="scratch directory for job files")
    parser.add_argument("--trace-out", help="file for the traced run's spans")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    import conicmirror.cli  # noqa: F401  -- set-up includes the CLI's import

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result: dict[str, Any] = {}
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
        warm_up(workload)
        result["setup_s"] = time.monotonic() - args.t0
        if args.mode == "run":
            result.update(timed_rounds(workload, args.seconds))
        elif args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            result.update(timed_rounds(workload, args.seconds, tracer))
            result["layers"] = layer_metrics(tracer, workload, result["round_walls"])
            if args.trace_out:
                tracer.write(args.trace_out)
        result["correct"] = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
