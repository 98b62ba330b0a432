"""Command-line front end: parse inputs, dispatch, emit JSON/CSV/SVG.

Exit codes: 0 on success, 2 on schema violations (malformed input files or
options; argparse's usage errors exit 2 as well), 3 on domain errors (the
error class name goes to standard error).
Outputs are deterministic: identical inputs produce byte-identical files.
The acceptance command runs the full criteria suite and exits 1 on failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

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
    line_degree,
    moment_map_detail,
)
from .sections_bundles import classification_report
from .serialize import (
    SVG_SIZE,
    canonical_json,
    classes_to_json,
    cloud_to_csv,
    cloud_to_json,
    cover_element_from_json,
    cover_element_to_json,
    curve_to_json,
    envelope,
    mirror_element_from_json,
    mirror_element_to_json,
    plot_svg,
    points_to_json,
    polygon_from_json,
    polygon_to_json,
    sublattice_from_json,
    sublattice_to_json,
    theta_element_from_json,
    theta_element_to_json,
    triangulation_to_json,
)
from .theta_ring import theta_multiply, verify_mirror_iso
from .tropical_curves import chambers, tropical_curve


class Command(NamedTuple):
    """A CLI command: its handler, its option flags in --help order, the
    flags it cannot run without, and whether it reads an --in file. A
    NamedTuple, as a dataclass would add about 1 ms to every cold start."""

    handler: Callable[[argparse.Namespace], int]
    flags: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    takes_input: bool = True


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep, too many digits
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


# The --grid, --viewport and --sublattice values are parsed by these argparse
# types. A bad value raises SchemaError, which argparse does not catch, so main
# reports it as a schema error; an empty value counts as not given.


def _parse_grid(text: str) -> Optional[tuple[int, int]]:
    if not text:
        return None
    try:
        a, b = text.lower().split("x")
        grid = (int(a), int(b))
    except ValueError as exc:
        raise SchemaError(f"--grid must look like 200x64, got {text!r}") from exc
    if grid[0] < 1 or grid[1] < 1:
        raise SchemaError("--grid must be positive in both directions")
    return grid


# Largest amoeba work a grid may ask for, counted as grid lines times the
# degree in w_1 of each line's polynomial (at least 1): the number of roots
# sought, which bounds the points emitted. 200x64 is 38400 on the degree-3
# triangle and 128000 on the degree-10 one; at the cap, `amoeba --out` on
# four-point takes about 5 s and 290 MB on a 2-core x86-64 box.
MAX_GRID_WORK = 500_000


def _check_grid_work(poly, grid: tuple[int, int]) -> None:
    degree = max(1, line_degree(poly))
    work = grid[0] * grid[1] * degree
    if work > MAX_GRID_WORK:
        raise SchemaError(
            f"amoeba grid {grid[0]}x{grid[1]} asks for {work} roots "
            f"({grid[0] * grid[1]} lines x degree {degree} in w_1), "
            f"above the cap of {MAX_GRID_WORK}; pass a smaller --grid"
        )


def _parse_viewport(text: str) -> Optional[tuple[tuple[float, float], tuple[float, float]]]:
    if not text:
        return None
    try:
        x0, y0, x1, y1 = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SchemaError(
            f"--viewport must look like x0,y0,x1,y1, got {text!r}"
        ) from exc
    if not (x0 < x1 and y0 < y1):
        raise SchemaError("--viewport must have x0 < x1 and y0 < y1")
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1, x1 - x0, y1 - y0)):
        raise SchemaError("--viewport must have finite corners and widths")
    return ((x0, y0), (x1, y1))


def _parse_sublattice(text: str) -> Any:
    if not text:
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"--sublattice is not valid JSON: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if not args.output_path:
        sys.stdout.write(text)
        return
    try:
        with open(args.output_path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {args.output_path}: {exc}") from exc


# ------------------------------------------------------------- commands


def _cmd_triangulate(args: argparse.Namespace) -> int:
    poly = _polygon_of(_load_json(args.input_path), "input")
    tri = regular_triangulation(poly)
    payload = envelope(
        "triangulation",
        {
            "polygon": polygon_to_json(poly),
            "triangulation": triangulation_to_json(tri),
            "unimodular": is_unimodular(tri),
        },
    )
    _emit(args, canonical_json(payload))
    return 0


def _cmd_tropical(args: argparse.Namespace) -> int:
    poly = _polygon_of(_load_json(args.input_path), "input")
    tri = regular_triangulation(poly)
    curve = tropical_curve(poly, tri)
    payload = envelope(
        "tropical_curve",
        {
            "polygon": polygon_to_json(poly),
            "curve": curve_to_json(curve),
            "chambers": points_to_json(chambers(poly, tri)),
        },
    )
    _emit(args, canonical_json(payload))
    return 0


def _params_from(args: argparse.Namespace) -> PatchworkParams:
    try:
        return PatchworkParams(t=args.t)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_amoeba(args: argparse.Namespace) -> int:
    poly = _polygon_of(_load_json(args.input_path), "input")
    params = _params_from(args)
    grid = args.grid or (200, 64)
    _check_grid_work(poly, grid)
    viewport = args.viewport
    curve = None
    if viewport is None:
        curve = tropical_curve(poly, regular_triangulation(poly))
    cloud = amoeba_sample(poly, params, grid=grid, viewport=viewport, curve=curve)
    if args.output_path and args.output_path.endswith(".csv"):
        _emit(args, cloud_to_csv(cloud))
        return 0
    payload = envelope(
        "amoeba",
        {"t": params.t, "grid": list(grid), "cloud": cloud_to_json(cloud)},
    )
    _emit(args, canonical_json(payload))
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    """ring-mul and theta-mul: the element format and payload kind follow the
    command; theta_multiply is the mirror kernel under the theta layer's name."""
    if args.command == "theta-mul":
        from_json, multiply, to_json = theta_element_from_json, theta_multiply, theta_element_to_json
        kind = "theta_product"
    else:
        from_json, multiply, to_json = mirror_element_from_json, mirror_multiply, mirror_element_to_json
        kind = "ring_product"
    data = _require_object(_load_json(args.input_path), "input")
    poly = _polygon_of(data, "input")
    if "x" not in data or "y" not in data:
        raise SchemaError(f"{args.command} input needs x and y elements")
    x = from_json(data["x"], "input.x")
    y = from_json(data["y"], "input.y")
    poly.require_full_dimensional()
    product = multiply(poly, x, y)
    _emit(args, canonical_json(envelope(kind, {"product": to_json(product)})))
    return 0


def _cmd_verify_mirror(args: argparse.Namespace) -> int:
    poly = _polygon_of(_load_json(args.input_path), "input")
    try:
        report = verify_mirror_iso(poly, args.bound_n, args.bound_i)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    # the report file is written first, so a bad --out prints no summary
    if args.output_path:
        payload = envelope(
            "mirror_verification",
            {
                "polygon": polygon_to_json(poly),
                "bound_n": report.bound_n,
                "bound_i": report.bound_i,
                "pairs_checked": report.pairs_checked,
                "failures": [
                    [list(n), i, list(m), j] for ((n, i), (m, j)) in report.failures
                ],
                "ok": report.ok,
            },
        )
        _emit(args, canonical_json(payload))
    print(f"failures: {len(report.failures)}")
    return 0


def _cmd_sections(args: argparse.Namespace) -> int:
    poly = _polygon_of(_load_json(args.input_path), "input")
    tri = regular_triangulation(poly)
    if args.box < 0:
        raise SchemaError("--box must be >= 0")
    report = classification_report(tri, args.box)
    payload = envelope(
        "sections",
        {
            "box": report.box,
            "count": len(report.classes),
            "classes": classes_to_json(report),
        },
    )
    _emit(args, canonical_json(payload))
    return 0


def _cmd_mckay(args: argparse.Namespace) -> int:
    data = _require_object(_load_json(args.input_path), "input")
    poly = _polygon_of(data, "input")
    sub_data = args.sublattice
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
        "cover_polygon": points_to_json(cover_polygon(poly, sub)),
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
    _emit(args, canonical_json(envelope("mckay", body)))
    return 0


def _cmd_moment(args: argparse.Namespace) -> int:
    data = _require_object(_load_json(args.input_path), "input")
    values = {}
    for key in ("chi", "abs_u", "abs_h"):
        if key not in data:
            raise SchemaError(f"moment input needs {key!r}")
        # float() would take true as 1.0 and " 1_0 " as 10.0
        for kind, name in ((bool, "a boolean"), (str, "a string")):
            if isinstance(data[key], kind):
                raise SchemaError(f"moment input {key!r}: expected a number, got {name}")
        try:
            values[key] = float(data[key])
        except OverflowError:
            raise SchemaError(f"moment input {key!r}: integer past the float range") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(str(exc)) from exc
    try:
        params = MomentParams(epsilon_blowup=args.eps_blowup, chi=values["chi"])
        detail = moment_map_detail(params, values["abs_u"], values["abs_h"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    payload = envelope(
        "moment",
        {
            "chi": params.chi,
            "epsilon_blowup": params.epsilon_blowup,
            "abs_u": values["abs_u"],
            "abs_h": values["abs_h"],
            "value": detail.value,
            "singular_level": detail.singular_level,
            "origin_limit_used": detail.origin_limit_used,
            "at_singular_level": detail.at_singular_level,
        },
    )
    _emit(args, canonical_json(payload))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    if args.overlay is None:
        for flag, value in (("--t", args.t), ("--grid", args.grid)):
            if value is not None:
                raise SchemaError(f"plot {flag} requires --overlay amoeba")
    # a width that scales to infinitely many pixels would write inf into the SVG
    if args.viewport and not all(
        math.isfinite(SVG_SIZE / (hi - lo)) for lo, hi in zip(*args.viewport)
    ):
        raise SchemaError(f"--viewport is too narrow to scale to {SVG_SIZE} pixels")
    poly = _polygon_of(_load_json(args.input_path), "input")
    tri = regular_triangulation(poly)
    curve = tropical_curve(poly, tri)
    viewport = args.viewport or default_viewport(curve)
    cloud = None
    if args.overlay == "amoeba":
        if args.t is None:
            raise SchemaError("plot --overlay amoeba requires --t")
        params = _params_from(args)
        grid = args.grid or (120, 32)
        _check_grid_work(poly, grid)
        cloud = amoeba_sample(poly, params, grid=grid, viewport=viewport)
    _emit(args, plot_svg(curve, viewport, cloud=cloud))
    return 0


def _cmd_acceptance(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all(seed=args.seed or 0)
    if args.output_path:
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
        _emit(args, canonical_json(payload))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {
    "triangulate": Command(_cmd_triangulate),
    "tropical": Command(_cmd_tropical),
    "amoeba": Command(
        _cmd_amoeba, ("--t", "--grid", "--viewport"), required=("--t",)
    ),
    "ring-mul": Command(_cmd_product),
    "theta-mul": Command(_cmd_product),
    "verify-mirror": Command(
        _cmd_verify_mirror, ("--bound-n", "--bound-i"), required=("--bound-n", "--bound-i")
    ),
    "sections": Command(_cmd_sections, ("--box",), required=("--box",)),
    "mckay": Command(_cmd_mckay, ("--sublattice",)),
    "moment": Command(_cmd_moment, ("--eps-blowup",), required=("--eps-blowup",)),
    "plot": Command(_cmd_plot, ("--t", "--grid", "--viewport", "--overlay")),
    "acceptance": Command(_cmd_acceptance, ("--seed",), takes_input=False),
}

# argparse keywords of every option flag
_FLAGS = {
    "--t": {"type": float},
    "--eps-blowup": {"type": float},
    "--bound-n": {"type": int},
    "--bound-i": {"type": int},
    "--box": {"type": int},
    "--sublattice": {"type": _parse_sublattice},
    "--grid": {"type": _parse_grid},
    "--viewport": {"type": _parse_viewport},
    "--seed": {"type": int},
    "--overlay": {"choices": ["amoeba"]},
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every command and option of the CLI."""
    parser = argparse.ArgumentParser(
        prog="conic-mirror",
        description="Exact mirror-symmetry data of heighted lattice polygons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        if command.takes_input:
            p.add_argument("--in", dest="input_path", required=True)
        p.add_argument("--out", dest="output_path")
        for flag in command.flags:
            p.add_argument(flag, required=flag in command.required, **_FLAGS[flag])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args keeps no
    state in it between calls."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and run its command; exit codes as in the module docstring."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value that starts with '-', as -2,-2,2,2 does,
    # for an option: join each --viewport to the token after it
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--viewport":
            argv[i:i + 2] = [f"--viewport={argv[i + 1]}"]
    try:
        args = _parser().parse_args(argv)
        return COMMANDS[args.command].handler(args)
    except SchemaError as exc:
        print(f"SchemaError: {exc}", file=sys.stderr)
        return 2
    except ConicMirrorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
