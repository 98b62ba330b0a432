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
from functools import lru_cache
from itertools import chain, compress, cycle
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import __version__
from .errors import DigitLimitError, SchemaError
from .lattice_geometry import HeightedPolygon, Triangulation, as_fraction
from .mckay_covers import CoverAlgebraElement, Sublattice
from .mirror_ring import MirrorElement
from .numerics import AmoebaCloud, Viewport
from .sections_bundles import ClassificationReport, FramedSection, LineBundleClass
from .theta_ring import ThetaElement
from .tropical_curves import TropicalCurve


def _decimal_digits(n: int) -> int:
    """Digits of the integer n != 0, counted without converting it to a string:
    a b-bit integer has d or d + 1 digits, d = floor((b - 1) log10 2) + 1."""
    n = abs(n)
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def rational_str(x: Union[int, Fraction]) -> str:
    """x as "p/q" (or "p"); DigitLimitError past Python's digit limit for
    integer strings, which str() would meet with ValueError."""
    if type(x) is int:
        num, den = x, 1
    else:
        if type(x) is not Fraction:
            x = Fraction(x)
        num, den = x.numerator, x.denominator
    limit = sys.get_int_max_str_digits()
    # a b-bit integer has at most 0.302 b + 1 digits, so at most 3 * limit
    # bits never pass the limit
    if limit and max(num.bit_length(), den.bit_length()) > 3 * limit:
        for part, name in ((num, "numerator"), (den, "denominator")):
            digits = _decimal_digits(part)
            if digits > limit:
                raise DigitLimitError(
                    f"a rational's {name} has {digits} digits, past the limit of "
                    f"{limit} for integer strings"
                )
    return int.__repr__(num) if den == 1 else f"{num}/{den}"


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
    A Rows value is written as the list of its rows, by one %-format.
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
    if type(v) is Rows:
        return _rows_json(v, pad)
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


# ------------------------------------------------------------------- rows


class RowShape(NamedTuple):
    """One layout of a list row. row(*leaves) builds the row from its
    leaves, taken in the order the row is written (keys sorted as strings);
    kinds has a letter per leaf: "d" an int, "r" a float, "s" a JSON text
    such as encode_basestring_ascii writes."""

    row: Callable[..., Any]
    kinds: str


class Rows:
    """A JSON list whose k-th row is shapes[k].row(*its leaves), held as one
    flat tuple of every row's leaves in written order. canonical_json fills
    a %-template per shape and indent with them, giving the bytes that
    _json_value writes for the built rows."""

    __slots__ = ("shapes", "leaves")

    def __init__(self, shapes: Sequence[RowShape], leaves: tuple) -> None:
        self.shapes = shapes
        self.leaves = leaves


def _same_rows(shape: RowShape, leaves: tuple) -> Rows:
    return Rows((shape,) * (len(leaves) // len(shape.kinds)), leaves)


@lru_cache(maxsize=256)
def _row_template(shape: RowShape, pad: str) -> str:
    """The row as _json_value writes it at indent pad, with a %-code in place
    of each leaf: written once with sentinel strings as leaves."""
    marks = [f"\x00{k}\x00" for k in range(len(shape.kinds))]
    rest = _json_value(shape.row(*marks), pad)
    parts = []
    for mark, kind in zip(marks, shape.kinds):
        head, found, rest = rest.partition(encode_basestring_ascii(mark))
        if not found:
            raise ValueError("a row shape must write each leaf once, in argument order")
        parts += [head.replace("%", "%%"), "%" + kind]
    parts.append(rest.replace("%", "%%"))
    return "".join(parts)


def _rows_json(rows: Rows, pad: str) -> str:
    shapes, leaves = rows.shapes, rows.leaves
    if not shapes:
        return "[]"
    distinct = set(shapes)
    kinds = {k for shape in distinct for k in shape.kinds}
    # the leaf kind of every leaf, unless all leaves are of one kind
    every = "".join([shape.kinds for shape in shapes]) if len(kinds) > 1 else None

    def of_kind(kind: str):
        return leaves if every is None else compress(leaves, map(kind.__eq__, every))

    # _json_value's leaf errors, raised before any row is formatted; a b-bit
    # int has at most 0.302 b + 1 digits
    limit = sys.get_int_max_str_digits()
    if (
        "d" in kinds and limit and max(map(int.bit_length, of_kind("d"))) > 3 * limit
        or "r" in kinds and not all(map(math.isfinite, of_kind("r")))
    ):
        for x, kind in zip(leaves, every or cycle(kinds)):
            if kind == "d":
                _json_int(x)
            elif kind == "r":
                _json_float(x)
    inner = pad + "  "
    templates = {shape: _row_template(shape, inner) for shape in distinct}
    body = (",\n" + inner).join(map(templates.__getitem__, shapes))
    return ("[\n" + inner + body + "\n" + pad + "]") % leaves


_INT_PAIR = RowShape(lambda a, b: [a, b], "dd")
_INT_TRIPLE = RowShape(lambda a, b, c: [a, b, c], "ddd")
_FLOAT_PAIR = RowShape(lambda a, b: [a, b], "rr")
_TEXT = RowShape(lambda a: a, "s")
_TEXT_PAIR = RowShape(lambda a, b: [a, b], "ss")


def points_to_json(points: Sequence[Sequence[int]]) -> Rows:
    """Integer pairs as a list of [x, y] rows."""
    return _same_rows(_INT_PAIR, tuple(chain.from_iterable(points)))


def _rationals(values) -> tuple:
    return tuple(map(encode_basestring_ascii, map(rational_str, values)))


# ---------------------------------------------------------------- polygons


def polygon_to_json(poly: HeightedPolygon) -> dict:
    return {
        "points": points_to_json(poly.points),
        "heights": _same_rows(_TEXT, _rationals(poly.heights)),
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


# an edge has one adjacent cell or two
_EDGE_ROWS = {
    1: RowShape(lambda c, interior, v0, v1: {"cells": [c], "interior": interior, "v": [v0, v1]},
                "dsdd"),
    2: RowShape(lambda c0, c1, interior, v0, v1: {
        "cells": [c0, c1], "interior": interior, "v": [v0, v1]}, "ddsdd"),
}


def triangulation_to_json(tri: Triangulation) -> dict:
    edge_leaves = []
    for e in tri.edges:
        edge_leaves += e.cells
        edge_leaves += (_JSON_LEAF[bool](e.interior), *e.v)
    return {
        "points": points_to_json(tri.points),
        "cells": _same_rows(_INT_TRIPLE, tuple(chain.from_iterable(tri.cells))),
        "edges": Rows([_EDGE_ROWS[len(e.cells)] for e in tri.edges], tuple(edge_leaves)),
    }


# ------------------------------------------------------------------ curves


_BOUNDED_EDGE = RowShape(
    lambda a0, a1, b0, b1, v0, v1: {"dual_edge": [[a0, a1], [b0, b1]], "v": [v0, v1]},
    "dddddd",
)
_LEG = RowShape(
    lambda a_i, x, y, base_vertex, c_dblprime, c_prime, c_sq, d0, d1, a0, a1, b0, b1: {
        "a_i": a_i,
        "base": [x, y],
        "base_vertex": base_vertex,
        "c_dblprime": c_dblprime,
        "c_prime": c_prime,
        "c_sq": c_sq,
        "direction": [d0, d1],
        "dual_edge": [[a0, a1], [b0, b1]],
    },
    "sssdsssdddddd",
)


def curve_to_json(curve: TropicalCurve) -> dict:
    legs = []
    for leg in curve.legs:
        legs += _rationals((leg.a_i, *leg.base))
        legs.append(leg.base_vertex)
        legs += _rationals((leg.c_dblprime, leg.c_prime, leg.c_sq))
        legs += (*leg.direction, *leg.dual_edge[0], *leg.dual_edge[1])
    return {
        "vertices": _same_rows(_TEXT_PAIR, _rationals(chain.from_iterable(curve.vertices))),
        "bounded_edges": _same_rows(_BOUNDED_EDGE, tuple(
            chain.from_iterable((*be.dual_edge[0], *be.dual_edge[1], *be.v)
                                for be in curve.bounded_edges)
        )),
        "legs": _same_rows(_LEG, tuple(legs)),
    }


# ---------------------------------------------------------- ring elements


_TERM = RowShape(lambda c, i, n0, n1: {"c": c, "i": i, "n": [n0, n1]}, "sddd")


def _terms_to_json(x: MirrorElement) -> Rows:
    leaves = []
    for (n, i), c in x.items():
        leaves += (encode_basestring_ascii(rational_str(c)), i, *n)
    return _same_rows(_TERM, tuple(leaves))


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


def mirror_element_to_json(x: MirrorElement) -> Rows:
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


def section_to_json(s: FramedSection, cells: Sequence[int]) -> tuple:
    """The covector entries of s, cell by cell in the given order."""
    return tuple(chain.from_iterable(map(s.values.__getitem__, cells)))


def degree_vector_to_json(d: LineBundleClass, edges: Sequence[int]) -> tuple:
    """The degrees of d, edge by edge in the given order."""
    return tuple(map(d.degrees.__getitem__, edges))


@lru_cache(maxsize=64)
def _class_shape(edge_keys: tuple[str, ...], cell_keys: tuple[str, ...]) -> RowShape:
    split = len(edge_keys)

    def row(*leaves):
        return {
            "degrees": dict(zip(edge_keys, leaves)),
            "section": {
                key: list(leaves[split + 2 * j: split + 2 * j + 2])
                for j, key in enumerate(cell_keys)
            },
        }

    return RowShape(row, "d" * (split + 2 * len(cell_keys)))


def classes_to_json(report: ClassificationReport) -> Rows:
    """The report's class rows {"degrees": ..., "section": ...}. Every class
    has the same cells and interior edges, so all rows share one shape; the
    cell and edge ids are keys, sorted as strings ("10" before "2")."""
    if not report.classes:
        return Rows((), ())
    cells = sorted(report.classes[0].values, key=str)
    edges = sorted(report.degree_vectors[0].degrees, key=str)
    leaves = []
    for s, d in zip(report.classes, report.degree_vectors):
        leaves += degree_vector_to_json(d, edges)
        leaves += section_to_json(s, cells)
    shape = _class_shape(tuple(map(str, edges)), tuple(map(str, cells)))
    return Rows((shape,) * len(report.classes), tuple(leaves))


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


_COVER_TERM = RowShape(
    lambda c, g0, g1, h0, h1, i, n0, n1: {"c": c, "g": [g0, g1], "h": [h0, h1], "i": i,
                                         "n": [n0, n1]},
    "sddddddd",
)


def cover_element_to_json(x: CoverAlgebraElement) -> dict:
    leaves = []
    for (g, h, n, i), c in x.items():
        leaves += (encode_basestring_ascii(rational_str(c)), *g, *h, i, *n)
    return {"cover": True, "entries": _same_rows(_COVER_TERM, tuple(leaves))}


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
    """canonical_json writes the cloud's tuples as arrays."""
    return {
        "points": _same_rows(_FLOAT_PAIR, tuple(chain.from_iterable(cloud.points))),
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
