"""The canonical JSON writer against json.dumps, which it replaces, and its
row-template path against its general one."""

import json
from enum import IntEnum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicmirror import serialize
from conicmirror.errors import DigitLimitError
from conicmirror.serialize import RowShape, Rows, _json_value, canonical_json


class Level(IntEnum):
    LOW = -3
    HIGH = 10**20


class Pair(NamedTuple):
    first: Any
    second: Any


class Label(str):
    pass


class Weight(float):
    pass


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),  # nan and +-inf included
    st.text(max_size=8),  # non-ASCII and control characters included
    st.sampled_from(list(Level)),
    st.text(max_size=8).map(Label),
    st.floats().map(Weight),
)


def _containers(children):
    sequences = st.lists(children, max_size=3)
    keys = st.one_of(st.text(max_size=8), st.text(max_size=8).map(Label))
    return st.one_of(
        sequences,
        sequences.map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(keys, children, max_size=3),
    )


def _outcome(write, value):
    try:
        return write(value)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=12))
def test_writer_matches_json_dumps(value):
    expected = _outcome(
        lambda v: json.dumps(v, sort_keys=True, indent=2, allow_nan=False) + "\n", value
    )
    assert _outcome(canonical_json, value) == expected


@pytest.mark.parametrize(
    "value", [{1: "a"}, {"a": {(1, 2): 0}}, [{None: 1}], {1.5: 2}, {True: 0}]
)
def test_non_str_key_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


@pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": b"bytes"}])
def test_unserializable_value_raises_type_error(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_integer_past_digit_limit_raises_digit_limit_error():
    with pytest.raises(DigitLimitError, match="an integer has 4301 digits"):
        canonical_json({"order": [-(10**4300)]})


def test_cloud_envelope_writes_its_tuples_as_lists():
    import math

    from conicmirror.lattice_geometry import HeightedPolygon
    from conicmirror.numerics import PatchworkParams, amoeba_sample
    from conicmirror.serialize import cloud_to_json, envelope

    # a term of about 1e300 on (1, 1) makes some lines fail
    poly = HeightedPolygon.create(((0, 0), (1, 0), (0, 1), (1, 1)), [0, 0, 0, "-17269/100"])
    viewport = ((-100.0, -100.0), (100.0, 100.0))
    cloud = amoeba_sample(poly, PatchworkParams(t=math.e**4), grid=(20, 4), viewport=viewport)
    assert cloud.points and cloud.failed_lines
    payload = envelope("amoeba", {"cloud": cloud_to_json(cloud)})
    listified = envelope("amoeba", {"cloud": {
        "points": [list(p) for p in cloud.points],
        "failed_lines": list(cloud.failed_lines),
        "viewport": [list(corner) for corner in cloud.viewport],
    }})
    assert canonical_json(payload) == json.dumps(listified, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------ the row path


def _plain(value):
    """value with every Rows replaced by the list of rows it stands for."""
    if type(value) is Rows:
        leaves = iter(value.leaves)
        rows = []
        for shape in value.shapes:
            args = [next(leaves) for _ in shape.kinds]
            args = [json.loads(a) if k == "s" else a for a, k in zip(args, shape.kinds)]
            rows.append(_plain(shape.row(*args)))
        return rows
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _error(write, value):
    try:
        return write(value)
    except Exception as exc:  # the exception and its message are the outcome
        return type(exc), str(exc)


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e-5, 9.999999999999999e-06, 0.0001, 1e308,
    float("inf"), float("-inf"), float("nan"),
]
_EDGE_INTS = [10**4299, -(10**4299), 10**4300, -(10**4300), 2**12900, -(2**12901), 0, -1]
_LEAF = {
    "d": st.one_of(st.integers(), st.sampled_from(_EDGE_INTS)),
    "r": st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
    "s": st.one_of(
        st.text(max_size=6), st.sampled_from(["%", "%s", '"%d"', "100%", "é ", "\\"])
    ).map(encode_basestring_ascii),
}
_SHAPES = [
    serialize._INT_PAIR, serialize._INT_TRIPLE, serialize._FLOAT_PAIR, serialize._TEXT,
    serialize._TEXT_PAIR, *serialize._EDGE_ROWS.values(), serialize._BOUNDED_EDGE,
    serialize._LEG, serialize._TERM, serialize._COVER_TERM,
    serialize._class_shape(("0", "10", "2"), ("0", "1")),
    # keys with % in them, which the template must escape
    RowShape(lambda a, b: {"%d": a, "100%": [b, {"%%": []}]}, "sd"),
]


@st.composite
def _rows(draw):
    """Rows of one or two shapes, zero to four of them, with their leaves."""
    kinds = draw(st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=2))
    shapes = draw(st.lists(st.sampled_from(kinds), max_size=4))
    leaves = tuple(draw(_LEAF[k]) for shape in shapes for k in shape.kinds)
    return Rows(shapes, leaves)


@settings(max_examples=200, deadline=None)
@given(_rows(), st.integers(min_value=0, max_value=2))
def test_row_path_matches_json_value(rows, depth):
    value = rows
    for _ in range(depth):
        value = {"rows": value, "after": 1}
    expected = _error(lambda v: _json_value(_plain(v), "") + "\n", value)
    assert _error(canonical_json, value) == expected


def test_row_shape_must_write_leaves_in_argument_order():
    backwards = RowShape(lambda a, b: {"a": b, "b": a}, "dd")
    with pytest.raises(ValueError, match="in argument order"):
        canonical_json(Rows([backwards], (1, 2)))


def _reference_curve(curve):
    """curve_to_json as a plain dict, built field by field."""
    r = serialize.rational_str
    return {
        "vertices": [[r(v[0]), r(v[1])] for v in curve.vertices],
        "bounded_edges": [
            {"v": list(be.v), "dual_edge": [list(be.dual_edge[0]), list(be.dual_edge[1])]}
            for be in curve.bounded_edges
        ],
        "legs": [
            {"base_vertex": leg.base_vertex, "base": [r(leg.base[0]), r(leg.base[1])],
             "dual_edge": [list(leg.dual_edge[0]), list(leg.dual_edge[1])],
             "direction": list(leg.direction), "a_i": r(leg.a_i), "c_sq": r(leg.c_sq),
             "c_prime": r(leg.c_prime), "c_dblprime": r(leg.c_dblprime)}
            for leg in curve.legs
        ],
    }


def _reference_polygon(poly):
    return {"points": [list(p) for p in poly.points],
            "heights": [serialize.rational_str(h) for h in poly.heights]}


def _command_bytes(argv, tmp_path):
    from conicmirror.cli import main

    out = tmp_path / ("out" + argv[0])
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sections_bytes_equal_the_plain_payload(tmp_path, seed):
    import random

    from conicmirror.lattice_geometry import HeightedPolygon, regular_triangulation
    from conicmirror.sections_bundles import classification_report

    rng = random.Random(seed)
    points = [(x, y) for x in range(3) for y in range(3 - x)]  # degree-2 triangle
    heights = [str(x * x + y * y + Fraction(rng.randrange(997), 7976)) for x, y in points]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"points": points, "heights": heights}))
    poly = HeightedPolygon.create(points, heights)
    report = classification_report(regular_triangulation(poly), 2)
    payload = serialize.envelope("sections", {
        "box": 2, "count": len(report.classes),
        "classes": [
            {"section": {str(c): list(v) for c, v in s.items()},
             "degrees": {str(e): v for e, v in d.items()}}
            for s, d in zip(report.classes, report.degree_vectors)
        ],
    })
    written = _command_bytes(["sections", "--in", str(path), "--box", "2"], tmp_path)
    assert written == _json_value(payload, "") + "\n"


def test_tropical_bytes_equal_the_plain_payload(tmp_path):
    from conicmirror.lattice_geometry import HeightedPolygon, regular_triangulation
    from conicmirror.tropical_curves import chambers, tropical_curve

    points = [(x, y) for x in range(4) for y in range(4 - x)]  # degree-3 triangle
    heights = [str(x * x + y * y + Fraction(x * y, 7)) for x, y in points]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"points": points, "heights": heights}))
    poly = HeightedPolygon.create(points, heights)
    tri = regular_triangulation(poly)
    payload = serialize.envelope("tropical_curve", {
        "polygon": _reference_polygon(poly),
        "curve": _reference_curve(tropical_curve(poly, tri)),
        "chambers": [list(label) for label in chambers(poly, tri)],
    })
    written = _command_bytes(["tropical", "--in", str(path)], tmp_path)
    assert written == _json_value(payload, "") + "\n"


@pytest.mark.parametrize("grid", ["40x16", "200x64"])
@pytest.mark.parametrize("sample", ["four_point", "simplex"])
def test_amoeba_bytes_equal_the_plain_payload(tmp_path, sample, grid):
    from pathlib import Path

    from conicmirror.lattice_geometry import HeightedPolygon, regular_triangulation
    from conicmirror.numerics import PatchworkParams, amoeba_sample
    from conicmirror.tropical_curves import tropical_curve

    path = Path(__file__).resolve().parent.parent / "sample_inputs" / f"{sample}.json"
    body = json.loads(path.read_text())
    poly = HeightedPolygon.create(body["points"], body["heights"])
    t = 54.6
    size = tuple(int(k) for k in grid.split("x"))
    cloud = amoeba_sample(poly, PatchworkParams(t=t), grid=size,
                          curve=tropical_curve(poly, regular_triangulation(poly)))
    payload = serialize.envelope("amoeba", {"t": t, "grid": list(size), "cloud": {
        "points": [list(p) for p in cloud.points],
        "failed_lines": list(cloud.failed_lines),
        "viewport": [list(corner) for corner in cloud.viewport],
    }})
    written = _command_bytes(["amoeba", "--in", str(path), "--t", repr(t), "--grid", grid],
                             tmp_path)
    assert written == _json_value(payload, "") + "\n"


def test_row_path_errors_leave_no_out_file(tmp_path, monkeypatch, capsys):
    from conicmirror import cli
    from conicmirror.numerics import AmoebaCloud

    simplex = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["0", "0", "0"]}
    big = 9 * 10**4299  # n + n has 4301 digits
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"polygon": simplex, "x": [{"n": [big, 0], "i": 0, "c": "1"}],
                               "y": [{"n": [big, 0], "i": 0, "c": "1"}]}))
    out = tmp_path / "product.json"
    assert cli.main(["ring-mul", "--in", str(job), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("DigitLimitError: an integer has 4301 digits")
    assert not out.exists()

    def nan_cloud(poly, params, grid, viewport, curve):
        return AmoebaCloud(points=((0.5, float("nan")),), failed_lines=(), viewport=viewport)

    monkeypatch.setattr(cli, "amoeba_sample", nan_cloud)
    poly = tmp_path / "simplex.json"
    poly.write_text(json.dumps(simplex))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant: nan"):
        cli.main(["amoeba", "--in", str(poly), "--t", "10", "--viewport", "0,0,1,1",
                  "--out", str(out)])
    assert not out.exists()
    assert capsys.readouterr().out == ""
