"""Canonical serialization: JSON with exact rationals, CSV clouds, SVG plots.

All JSON emission is deterministic: keys sorted, rationals as exact "p/q"
strings, complex numbers as [re, im] pairs, no timestamps. A version string
travels in a separate header field so payloads of identical inputs are
byte-identical across runs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Optional

from . import __version__
from .errors import DigitLimitError, SchemaError
from .lattice_geometry import HeightedPolygon, Triangulation, as_fraction
from .mckay_covers import CoverAlgebraElement, Sublattice
from .mirror_ring import MirrorElement
from .numerics import AmoebaCloud, Viewport
from .sections_bundles import FramedSection, LineBundleClass
from .theta_ring import ThetaElement
from .tropical_curves import TropicalCurve


def _decimal_digits(n: int) -> int:
    """Digits of the integer n != 0, counted without converting it to a string:
    a b-bit integer has d or d + 1 digits, d = floor((b - 1) log10 2) + 1."""
    n = abs(n)
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def rational_str(x: Fraction) -> str:
    """x as "p/q" (or "p"); DigitLimitError past Python's digit limit for
    integer strings, which str() would meet with ValueError."""
    if type(x) is not Fraction:
        x = Fraction(x)
    limit = sys.get_int_max_str_digits()
    # a b-bit integer has at most 0.302 b + 1 digits, so at most 3 * limit
    # bits never pass the limit
    if limit and max(x.numerator.bit_length(), x.denominator.bit_length()) > 3 * limit:
        for part, name in ((x.numerator, "numerator"), (x.denominator, "denominator")):
            digits = _decimal_digits(part)
            if digits > limit:
                raise DigitLimitError(
                    f"a rational's {name} has {digits} digits, past the limit of "
                    f"{limit} for integer strings"
                )
    return str(x)


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, (int, str)):
        try:
            return as_fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational string {value!r}") from exc
    raise SchemaError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _int_pair(value: Any, where: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise SchemaError(f"{where}: expected a pair of integers, got {value!r}")
    return (value[0], value[1])


def envelope(kind: str, payload: Mapping[str, Any]) -> dict:
    out = {"version": __version__, "kind": kind}
    out.update(payload)
    return out


def canonical_json(obj: Any) -> str:
    """obj as the bytes of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) plus a newline, except that every key must be a str.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer builds one string per container and looks each leaf up by type.
    """
    return _json_value(obj, "") + "\n"


def _json_int(n: int) -> str:
    try:
        return int.__repr__(n)
    except ValueError:
        raise DigitLimitError(
            f"an integer has {_decimal_digits(n)} digits, past the limit of "
            f"{sys.get_int_max_str_digits()} for integer strings"
        ) from None


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# leaf writers by exact type; subclasses go through _json_value's isinstance checks
_JSON_LEAF = {
    str: encode_basestring_ascii,
    int: _json_int,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_value(v: Any, pad: str) -> str:
    leaf = _JSON_LEAF.get(type(v))
    if leaf is not None:
        return leaf(v)
    inner = pad + "  "
    get = _JSON_LEAF.get
    parts = []
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        for x in v:
            leaf = get(type(x))
            parts.append(leaf(x) if leaf else _json_value(x, inner))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        for k, x in sorted(v.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            leaf = get(type(x))
            parts.append(
                encode_basestring_ascii(k) + ": " + (leaf(x) if leaf else _json_value(x, inner))
            )
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    # subclasses of the leaf types; no class derives from two of these bases
    for base in (str, int, float):
        if isinstance(v, base):
            return _JSON_LEAF[base](v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


# ---------------------------------------------------------------- polygons


def polygon_to_json(poly: HeightedPolygon) -> dict:
    return {
        "points": [list(p) for p in poly.points],
        "heights": [rational_str(h) for h in poly.heights],
    }


def polygon_from_json(data: Any, where: str = "polygon") -> HeightedPolygon:
    if not isinstance(data, Mapping):
        raise SchemaError(f"{where}: expected an object with points/heights")
    if "points" not in data:
        raise SchemaError(f"{where}: missing 'points'")
    raw_pts = data["points"]
    if not isinstance(raw_pts, list) or not raw_pts:
        raise SchemaError(f"{where}: 'points' must be a nonempty list")
    points = [_int_pair(p, f"{where}.points[{i}]") for i, p in enumerate(raw_pts)]
    raw_heights = data.get("heights", 0)
    if isinstance(raw_heights, list):
        if len(raw_heights) != len(points):
            raise SchemaError(f"{where}: heights length differs from points length")
        heights = [
            parse_rational(h, f"{where}.heights[{i}]") for i, h in enumerate(raw_heights)
        ]
    else:
        heights = parse_rational(raw_heights, f"{where}.heights")
    try:
        return HeightedPolygon.create(points, heights)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ----------------------------------------------------------- triangulations


def triangulation_to_json(tri: Triangulation) -> dict:
    return {
        "points": [list(p) for p in tri.points],
        "cells": [list(c) for c in tri.cells],
        "edges": [
            {"v": list(e.v), "interior": e.interior, "cells": list(e.cells)}
            for e in tri.edges
        ],
    }


# ------------------------------------------------------------------ curves


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "vertices": [[rational_str(v[0]), rational_str(v[1])] for v in curve.vertices],
        "bounded_edges": [
            {"v": list(be.v), "dual_edge": [list(be.dual_edge[0]), list(be.dual_edge[1])]}
            for be in curve.bounded_edges
        ],
        "legs": [
            {
                "base_vertex": leg.base_vertex,
                "base": [rational_str(leg.base[0]), rational_str(leg.base[1])],
                "dual_edge": [list(leg.dual_edge[0]), list(leg.dual_edge[1])],
                "direction": list(leg.direction),
                "a_i": rational_str(leg.a_i),
                "c_sq": rational_str(leg.c_sq),
                "c_prime": rational_str(leg.c_prime),
                "c_dblprime": rational_str(leg.c_dblprime),
            }
            for leg in curve.legs
        ],
    }


# ---------------------------------------------------------- ring elements


def _terms_to_json(x: MirrorElement) -> list:
    return [
        {"n": list(n), "i": i, "c": rational_str(c)} for (n, i), c in x.items()
    ]


def _terms_from_json(rows: list, where: str) -> MirrorElement:
    coeffs: dict = {}
    for k, item in enumerate(rows):
        if not isinstance(item, Mapping) or not {"n", "i", "c"} <= set(item):
            raise SchemaError(f"{where}[{k}]: expected an object with n, i, c")
        n = _int_pair(item["n"], f"{where}[{k}].n")
        i = item["i"]
        if not isinstance(i, int) or isinstance(i, bool):
            raise SchemaError(f"{where}[{k}].i: expected an integer")
        c = parse_rational(item["c"], f"{where}[{k}].c")
        coeffs[(n, i)] = coeffs.get((n, i), 0) + c
    return MirrorElement(coeffs)


def mirror_element_to_json(x: MirrorElement) -> list:
    return _terms_to_json(x)


def mirror_element_from_json(data: Any, where: str = "element") -> MirrorElement:
    if isinstance(data, Mapping) and data.get("theta"):
        raise SchemaError(f"{where}: got a theta element where a mirror element is required")
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list of terms")
    return _terms_from_json(data, where)


def theta_element_to_json(x: ThetaElement) -> dict:
    return {"theta": True, "terms": _terms_to_json(x)}


def theta_element_from_json(data: Any, where: str = "element") -> ThetaElement:
    if not isinstance(data, Mapping) or data.get("theta") is not True:
        raise SchemaError(f"{where}: expected an object with theta: true and terms")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise SchemaError(f"{where}.terms: expected a list")
    return _terms_from_json(terms, f"{where}.terms")


# ------------------------------------------------------ sections, bundles


def section_to_json(s: FramedSection) -> dict:
    return {"section": {str(c): list(v) for c, v in s.items()}}


def degree_vector_to_json(d: LineBundleClass) -> dict:
    return {str(e): v for e, v in d.items()}


# ------------------------------------------------------------ sublattices


def sublattice_from_json(data: Any, where: str = "sublattice") -> Sublattice:
    if not isinstance(data, Mapping) or "basis" not in data:
        raise SchemaError(f"{where}: expected an object with a 2x2 'basis'")
    basis = data["basis"]
    if not isinstance(basis, list) or len(basis) != 2:
        raise SchemaError(f"{where}.basis: expected two rows")
    rows = tuple(_int_pair(r, f"{where}.basis[{i}]") for i, r in enumerate(basis))
    return Sublattice(rows)


def sublattice_to_json(sub: Sublattice) -> dict:
    return {"basis": [list(r) for r in sub.basis]}


def cover_element_to_json(x: CoverAlgebraElement) -> dict:
    return {
        "cover": True,
        "entries": [
            {"g": list(g), "h": list(h), "n": list(n), "i": i, "c": rational_str(c)}
            for (g, h, n, i), c in x.items()
        ],
    }


def cover_element_from_json(data: Any, where: str = "element") -> CoverAlgebraElement:
    if not isinstance(data, Mapping) or data.get("cover") is not True:
        raise SchemaError(f"{where}: expected an object with cover: true and entries")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise SchemaError(f"{where}.entries: expected a list")
    out: dict = {}
    for k, item in enumerate(entries):
        if not isinstance(item, Mapping) or not {"g", "h", "n", "i", "c"} <= set(item):
            raise SchemaError(f"{where}.entries[{k}]: expected g, h, n, i, c")
        g = _int_pair(item["g"], f"{where}.entries[{k}].g")
        h = _int_pair(item["h"], f"{where}.entries[{k}].h")
        n = _int_pair(item["n"], f"{where}.entries[{k}].n")
        i = item["i"]
        if not isinstance(i, int) or isinstance(i, bool):
            raise SchemaError(f"{where}.entries[{k}].i: expected an integer")
        key = (g, h, n, i)
        out[key] = out.get(key, 0) + parse_rational(
            item["c"], f"{where}.entries[{k}].c"
        )
    return CoverAlgebraElement(out)


# ------------------------------------------------------------ point clouds


def cloud_to_json(cloud: AmoebaCloud) -> dict:
    """The cloud's tuples as they are: canonical_json writes tuples as arrays."""
    return {
        "points": cloud.points,
        "failed_lines": cloud.failed_lines,
        "viewport": cloud.viewport,
    }


def cloud_to_csv(cloud: AmoebaCloud) -> str:
    lines = ["r1,r2"]
    lines.extend(f"{p[0]!r},{p[1]!r}" for p in cloud.points)
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- SVG


# width and height of every SVG plot, in pixels
SVG_SIZE = 600


def _svg_coords(p, vp: Viewport) -> tuple[float, float]:
    (xlo, ylo), (xhi, yhi) = vp
    x = (float(p[0]) - xlo) / (xhi - xlo) * SVG_SIZE
    y = SVG_SIZE - (float(p[1]) - ylo) / (yhi - ylo) * SVG_SIZE
    return x, y


def plot_svg(
    curve: TropicalCurve,
    viewport: Viewport,
    cloud: Optional[AmoebaCloud] = None,
) -> str:
    """Deterministic SVG of the tropical curve, optional amoeba overlay.

    Bounded edges and legs are clipped to the viewport; legs carry the
    class "leg" so they are countable in the output. Amoeba points render
    as a translucent cloud under the curve.
    """
    from .numerics import _clipped_edges, _clipped_legs, to_float

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    if cloud is not None:
        (xlo, ylo), (xhi, yhi) = viewport
        for p in cloud.points:
            if not (xlo <= p[0] <= xhi and ylo <= p[1] <= yhi):
                continue
            x, y = _svg_coords(p, viewport)
            parts.append(
                f'<circle class="amoeba" cx="{x:.2f}" cy="{y:.2f}" r="1.5" '
                f'fill="#d08080" fill-opacity="0.5"/>'
            )
    for cls, color, segments in (
        ("edge", "#204080", _clipped_edges(curve, viewport)),
        ("leg", "#208040", _clipped_legs(curve, viewport)),
    ):
        for p, q in segments:
            a = _svg_coords(p, viewport)
            b = _svg_coords(q, viewport)
            parts.append(
                f'<line class="{cls}" x1="{a[0]:.2f}" y1="{a[1]:.2f}" '
                f'x2="{b[0]:.2f}" y2="{b[1]:.2f}" stroke="{color}" stroke-width="2"/>'
            )
    verts = [(to_float(v[0]), to_float(v[1])) for v in curve.vertices]
    for v in verts:
        x, y = _svg_coords(v, viewport)
        parts.append(
            f'<circle class="vertex" cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#202020"/>'
        )
    # chamber labels at the lattice points, placed at a point of the chamber
    from .tropical_curves import chamber_of

    (xlo, ylo), (xhi, yhi) = viewport
    step_x = (xhi - xlo) / 40.0
    step_y = (yhi - ylo) / 40.0
    labeled = set()
    for gi in range(41):
        for gj in range(41):
            n = (xlo + gi * step_x, ylo + gj * step_y)
            label = chamber_of(curve.polygon, (Fraction(n[0]).limit_denominator(10**6),
                                               Fraction(n[1]).limit_denominator(10**6)))
            if label is None or label in labeled:
                continue
            labeled.add(label)
            x, y = _svg_coords(n, viewport)
            parts.append(
                f'<text class="chamber" x="{x:.2f}" y="{y:.2f}" '
                f'font-size="12" fill="#606060">{label[0]},{label[1]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
