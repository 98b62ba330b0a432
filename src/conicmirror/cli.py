"""Command-line front end: parse inputs, dispatch, emit JSON/CSV/SVG.

Exit codes: 0 on success, 2 on schema violations (malformed input files or
options), 3 on domain errors (the error class name goes to standard error).
Outputs are deterministic: identical inputs produce byte-identical files.
The acceptance command runs the full criteria suite and exits 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from . import __version__
from .errors import ConicMirrorError, SchemaError
from .lattice_geometry import regular_triangulation, is_unimodular
from .mckay_covers import (
    character_decomposition,
    cover_compose,
    cover_polygon,
    has_compact_divisor,
    quotient,
)
from .mirror_ring import multiply as mirror_multiply
from .numerics import (
    MomentParams,
    PatchworkParams,
    amoeba_sample,
    default_viewport,
    moment_map_detail,
)
from .sections_bundles import classification_report, degree_vector
from .serialize import (
    canonical_json,
    cloud_to_csv,
    cloud_to_json,
    cover_element_from_json,
    cover_element_to_json,
    curve_to_json,
    degree_vector_to_json,
    envelope,
    mirror_element_from_json,
    mirror_element_to_json,
    plot_svg,
    polygon_from_json,
    polygon_to_json,
    section_to_json,
    sublattice_from_json,
    sublattice_to_json,
    theta_element_from_json,
    theta_element_to_json,
    triangulation_to_json,
)
from .theta_ring import theta_multiply, verify_mirror_iso
from .tropical_curves import chambers, tropical_curve

COMMANDS = (
    "triangulate",
    "tropical",
    "amoeba",
    "ring-mul",
    "theta-mul",
    "verify-mirror",
    "sections",
    "mckay",
    "moment",
    "plot",
    "acceptance",
)


@dataclass(frozen=True)
class JobSpec:
    """A validated unit of CLI work: command, paths, command-specific options."""

    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise SchemaError(f"unknown command {self.command!r}")
        needs_input = self.command != "acceptance"
        if needs_input and not self.input_path:
            raise SchemaError(f"{self.command} requires --in")
        required = {
            "verify-mirror": ("bound_n", "bound_i"),
            "amoeba": ("t",),
            "sections": ("box",),
            "moment": ("eps_blowup",),
        }.get(self.command, ())
        for key in required:
            if self.options.get(key) is None:
                flag = "--" + key.replace("_", "-")
                raise SchemaError(f"{self.command} requires {flag}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _require_object(data: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SchemaError(f"{where}: expected a JSON object")
    return data


def _polygon_of(data: Any, where: str):
    body = _require_object(data, where)
    if "polygon" in body:
        return polygon_from_json(body["polygon"], f"{where}.polygon")
    if "points" in body:
        return polygon_from_json(body, where)
    raise SchemaError(f"{where}: expected a polygon (points/heights)")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        grid = (int(a), int(b))
    except ValueError as exc:
        raise SchemaError(f"--grid must look like 200x64, got {text!r}") from exc
    if grid[0] < 1 or grid[1] < 1:
        raise SchemaError("--grid must be positive in both directions")
    return grid


def _parse_viewport(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    try:
        x0, y0, x1, y1 = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SchemaError(
            f"--viewport must look like x0,y0,x1,y1, got {text!r}"
        ) from exc
    if not (x0 < x1 and y0 < y1):
        raise SchemaError("--viewport must have x0 < x1 and y0 < y1")
    return ((x0, y0), (x1, y1))


def _emit(spec: JobSpec, text: str) -> None:
    if spec.output_path:
        with open(spec.output_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- commands


def _cmd_triangulate(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    tri = regular_triangulation(poly)
    payload = envelope(
        "triangulation",
        {
            "polygon": polygon_to_json(poly),
            "triangulation": triangulation_to_json(tri),
            "unimodular": is_unimodular(tri),
        },
    )
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_tropical(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    tri = regular_triangulation(poly)
    curve = tropical_curve(poly, tri)
    payload = envelope(
        "tropical_curve",
        {
            "polygon": polygon_to_json(poly),
            "curve": curve_to_json(curve),
            "chambers": [list(ch.label) for ch in chambers(poly, tri)],
        },
    )
    _emit(spec, canonical_json(payload))
    return 0


def _params_from(spec: JobSpec) -> PatchworkParams:
    t = spec.options.get("t")
    eps = spec.options.get("eps_loc") or 0.05
    try:
        return PatchworkParams(t=float(t), epsilon_loc=float(eps))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_amoeba(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    params = _params_from(spec)
    grid = spec.options.get("grid") or (200, 64)
    viewport = spec.options.get("viewport")
    curve = None
    if viewport is None:
        curve = tropical_curve(poly, regular_triangulation(poly))
    cloud = amoeba_sample(poly, params, grid=grid, viewport=viewport, curve=curve)
    if spec.output_path and spec.output_path.endswith(".csv"):
        _emit(spec, cloud_to_csv(cloud))
        return 0
    payload = envelope(
        "amoeba",
        {"t": params.t, "grid": list(grid), "cloud": cloud_to_json(cloud)},
    )
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_ring_mul(spec: JobSpec) -> int:
    data = _require_object(_load_json(spec.input_path), "input")
    poly = _polygon_of(data, "input")
    if "x" not in data or "y" not in data:
        raise SchemaError("ring-mul input needs x and y elements")
    x = mirror_element_from_json(data["x"], "input.x")
    y = mirror_element_from_json(data["y"], "input.y")
    poly.require_full_dimensional()
    product = mirror_multiply(poly, x, y)
    payload = envelope("ring_product", {"product": mirror_element_to_json(product)})
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_theta_mul(spec: JobSpec) -> int:
    data = _require_object(_load_json(spec.input_path), "input")
    poly = _polygon_of(data, "input")
    if "x" not in data or "y" not in data:
        raise SchemaError("theta-mul input needs x and y elements")
    x = theta_element_from_json(data["x"], "input.x")
    y = theta_element_from_json(data["y"], "input.y")
    poly.require_full_dimensional()
    product = theta_multiply(poly, x, y)
    payload = envelope("theta_product", {"product": theta_element_to_json(product)})
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_verify_mirror(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    try:
        report = verify_mirror_iso(
            poly, int(spec.options["bound_n"]), int(spec.options["bound_i"])
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    print(f"failures: {len(report.failures)}")
    if spec.output_path:
        payload = envelope(
            "mirror_verification",
            {
                "bound_n": report.bound_n,
                "bound_i": report.bound_i,
                "pairs_checked": report.pairs_checked,
                "failures": [
                    [list(n), i, list(m), j] for ((n, i), (m, j)) in report.failures
                ],
                "ok": report.ok,
            },
        )
        with open(spec.output_path, "w", encoding="utf-8") as f:
            f.write(canonical_json(payload))
    return 0


def _cmd_sections(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    tri = regular_triangulation(poly)
    box = int(spec.options["box"])
    if box < 0:
        raise SchemaError("--box must be >= 0")
    report = classification_report(tri, box)
    payload = envelope(
        "sections",
        {
            "box": report.box,
            "count": len(report.classes),
            "kernel_seen": report.kernel_seen,
            "classes": [
                {
                    **section_to_json(s),
                    "degrees": degree_vector_to_json(d),
                }
                for s, d in zip(report.classes, report.degree_vectors)
            ],
        },
    )
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_mckay(spec: JobSpec) -> int:
    data = _require_object(_load_json(spec.input_path), "input")
    poly = _polygon_of(data, "input")
    sub_data = spec.options.get("sublattice")
    if sub_data is None:
        if "sublattice" not in data:
            raise SchemaError("mckay needs a sublattice (input file or --sublattice)")
        sub_data = data["sublattice"]
    sub = sublattice_from_json(sub_data, "sublattice")
    group = quotient(sub)
    body: dict[str, Any] = {
        "sublattice": sublattice_to_json(sub),
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
        "cover_polygon": [list(p) for p in cover_polygon(poly, sub)],
        "has_compact_divisor": has_compact_divisor(poly, sub),
    }
    if "x" in data or "y" in data:
        if not ("x" in data and "y" in data):
            raise SchemaError("mckay composition needs both x and y")
        x = cover_element_from_json(data["x"], "input.x")
        y = cover_element_from_json(data["y"], "input.y")
        body["product"] = cover_element_to_json(cover_compose(poly, sub, x, y))
    if "element" in data:
        element = theta_element_from_json(data["element"], "input.element")
        body["decomposition"] = {
            f"{g[0]},{g[1]}": theta_element_to_json(piece)
            for g, piece in character_decomposition(sub, element).items()
        }
    _emit(spec, canonical_json(envelope("mckay", body)))
    return 0


def _cmd_moment(spec: JobSpec) -> int:
    data = _require_object(_load_json(spec.input_path), "input")
    for key in ("chi", "abs_u", "abs_h"):
        if key not in data:
            raise SchemaError(f"moment input needs {key!r}")
    try:
        params = MomentParams(
            epsilon_blowup=float(spec.options["eps_blowup"]), chi=float(data["chi"])
        )
        detail = moment_map_detail(params, float(data["abs_u"]), float(data["abs_h"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    payload = envelope(
        "moment",
        {
            "chi": params.chi,
            "epsilon_blowup": params.epsilon_blowup,
            "abs_u": float(data["abs_u"]),
            "abs_h": float(data["abs_h"]),
            "value": detail.value,
            "singular_level": detail.singular_level,
            "origin_limit_used": detail.origin_limit_used,
            "at_singular_level": detail.at_singular_level,
        },
    )
    _emit(spec, canonical_json(payload))
    return 0


def _cmd_plot(spec: JobSpec) -> int:
    poly = _polygon_of(_load_json(spec.input_path), "input")
    tri = regular_triangulation(poly)
    curve = tropical_curve(poly, tri)
    viewport = spec.options.get("viewport") or default_viewport(curve)
    cloud = None
    if spec.options.get("overlay") == "amoeba":
        if spec.options.get("t") is None:
            raise SchemaError("plot --overlay amoeba requires --t")
        params = _params_from(spec)
        grid = spec.options.get("grid") or (120, 32)
        cloud = amoeba_sample(poly, params, grid=grid, viewport=viewport)
    _emit(spec, plot_svg(curve, viewport, cloud=cloud))
    return 0


def _cmd_acceptance(spec: JobSpec) -> int:
    from .acceptance import run_all

    results = run_all(seed=int(spec.options.get("seed") or 0))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    if spec.output_path:
        payload = envelope(
            "acceptance",
            {
                "results": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "ok": all(r.passed for r in results),
            },
        )
        with open(spec.output_path, "w", encoding="utf-8") as f:
            f.write(canonical_json(payload))
    return 0 if all(r.passed for r in results) else 1


_DISPATCH = {
    "triangulate": _cmd_triangulate,
    "tropical": _cmd_tropical,
    "amoeba": _cmd_amoeba,
    "ring-mul": _cmd_ring_mul,
    "theta-mul": _cmd_theta_mul,
    "verify-mirror": _cmd_verify_mirror,
    "sections": _cmd_sections,
    "mckay": _cmd_mckay,
    "moment": _cmd_moment,
    "plot": _cmd_plot,
    "acceptance": _cmd_acceptance,
}


def run(spec: JobSpec) -> int:
    """Execute a validated job; exit code semantics as in the module docstring."""
    try:
        return _DISPATCH[spec.command](spec)
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    except ConicMirrorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-mirror",
        description="Exact mirror-symmetry data of heighted lattice polygons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        if name != "acceptance":
            p.add_argument("--in", dest="input_path", required=False)
        p.add_argument("--out", dest="output_path", required=False)
        for flag in flags:
            if flag == "--t":
                p.add_argument("--t", type=float)
            elif flag == "--eps-loc":
                p.add_argument("--eps-loc", dest="eps_loc", type=float)
            elif flag == "--eps-blowup":
                p.add_argument("--eps-blowup", dest="eps_blowup", type=float)
            elif flag == "--bound-n":
                p.add_argument("--bound-n", dest="bound_n", type=int)
            elif flag == "--bound-i":
                p.add_argument("--bound-i", dest="bound_i", type=int)
            elif flag == "--box":
                p.add_argument("--box", type=int)
            elif flag == "--sublattice":
                p.add_argument("--sublattice", type=str)
            elif flag == "--grid":
                p.add_argument("--grid", type=str)
            elif flag == "--viewport":
                p.add_argument("--viewport", type=str)
            elif flag == "--seed":
                p.add_argument("--seed", type=int)
            elif flag == "--overlay":
                p.add_argument("--overlay", choices=["amoeba"])
        return p

    add("triangulate")
    add("tropical")
    add("amoeba", "--t", "--eps-loc", "--grid", "--viewport")
    add("ring-mul")
    add("theta-mul")
    add("verify-mirror", "--bound-n", "--bound-i")
    add("sections", "--box")
    add("mckay", "--sublattice")
    add("moment", "--eps-blowup")
    add("plot", "--t", "--eps-loc", "--grid", "--viewport", "--overlay")
    add("acceptance", "--seed")
    return parser


def spec_from_args(args: argparse.Namespace) -> JobSpec:
    options: dict[str, Any] = {}
    for key in (
        "t",
        "eps_loc",
        "eps_blowup",
        "bound_n",
        "bound_i",
        "box",
        "seed",
        "overlay",
    ):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    if getattr(args, "grid", None):
        options["grid"] = _parse_grid(args.grid)
    if getattr(args, "viewport", None):
        options["viewport"] = _parse_viewport(args.viewport)
    if getattr(args, "sublattice", None):
        try:
            options["sublattice"] = json.loads(args.sublattice)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"--sublattice is not valid JSON: {exc}") from exc
    return JobSpec(
        command=args.command,
        input_path=getattr(args, "input_path", None),
        output_path=getattr(args, "output_path", None),
        options=options,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
