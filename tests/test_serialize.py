"""The canonical JSON writer against json.dumps, which it replaces."""

import json
from enum import IntEnum
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicmirror.errors import DigitLimitError
from conicmirror.serialize import canonical_json


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
