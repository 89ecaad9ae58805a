"""The array parsers and the `resolved-scenario` writer against their
one-value-at-a-time definitions.

`gates.complexes_from_literal` and `gates.matrix_from_json` must return
what `complex_from_literal` returns entry by entry, bit for bit, or raise the
error that the first bad entry raises. `cli._indented_json` must return the text of
``json.dumps(obj, sort_keys=True, indent=2)``.
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliq.cli import _indented_json
from obliq.gates import (
    complex_from_literal,
    complexes_from_literal,
    matrix_from_json,
)

EDGE_INTS = [2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1, -(2**63), 2**64 + 1, 2**1023 * 3 // 2, 10**400, -(10**400)]
NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70) | st.sampled_from(EDGE_INTS)
ANY_SCALAR = (
    NUMBERS
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.text(max_size=3)
    | st.none()
    | st.floats().map(np.float64)
    | st.fractions()
)
ANY_ENTRY = ANY_SCALAR | st.lists(ANY_SCALAR, min_size=1, max_size=3)


@st.composite
def literal_lists(draw):
    """A list of JSON numbers or of [re, im] pairs of them, with up to two
    entries, or halves of pairs, swapped for any value."""
    values = draw(st.lists(NUMBERS, max_size=8) | st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if not values:
            break
        i = draw(st.integers(0, len(values) - 1))
        if isinstance(values[i], list) and draw(st.booleans()):
            # An entry swapped earlier may be a list of 1 to 3 values.
            values[i][draw(st.integers(0, len(values[i]) - 1))] = draw(ANY_SCALAR)
        else:
            values[i] = draw(ANY_ENTRY)
    return values


@st.composite
def real_matrices(draw):
    """A square matrix of JSON numbers, with at most one entry of a row after
    the first swapped for any value: a bool, a string, a NaN, 10**400, a pair."""
    n = draw(st.integers(2, 4))
    rows = [draw(st.lists(NUMBERS, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        bad = st.sampled_from([True, "1", math.nan, 10**400, [0.5, -1.0]]) | ANY_ENTRY
        rows[draw(st.integers(1, n - 1))][draw(st.integers(0, n - 1))] = draw(bad)
    return rows


def _entry_by_entry(values):
    """(array, None) from `complex_from_literal` on each entry, or (None,
    (type, message))."""
    try:
        return np.array([complex_from_literal(v) for v in values], dtype=complex), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(values=literal_lists() | st.lists(ANY_ENTRY, max_size=6) | real_matrices())
@example(values=[1, 2**63 + 1, -0.0, 10**400])
@example(values=[[1, 0], [0.5, math.nan]])
@example(values=[[1, 0], Fraction(1, 3)])
@example(values=[[1, 0.5], [-0.0, True]])
@example(values=[[1, 0.5], [2, "1"]])
@example(values=[[1, 0.5], [math.nan, 2]])
@example(values=[[1, 0.5], [2, 10**400]])
@example(values=[[1, 0.5], [[0.5, -1.0], 2]])
@example(values=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
def test_array_parsers_agree_with_scalar_parsers(values):
    cases = [(complexes_from_literal, values)]
    if len(values) >= 2 and all(isinstance(row, list) and len(row) == len(values) for row in values):
        cases.append((matrix_from_json, [v for row in values for v in row]))
    for array_parse, entries in cases:
        expected, error = _entry_by_entry(entries)
        try:
            got, got_error = array_parse(values), None
        except Exception as exc:
            got, got_error = None, (type(exc), str(exc))
        assert got_error == error
        if error is None:
            if array_parse is matrix_from_json:
                expected = expected.reshape(len(values), len(values))
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


TEXT = st.text(st.sampled_from('[],"\n\\ :{}aé€\U0001f600') | st.characters(), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.sampled_from([10**400]) | st.floats() | TEXT
BRACKETED = st.sampled_from(["[", "{", "],", "]", "}", "[]", "{}", "],\n    [", "a[1]"])
# Rows whose first entry is a scalar, as the writer's row path sees them: a
# later entry may be a string holding a bracket or a brace, a list (nested up
# to three levels) or a dict, and a row may be empty.
ROW_ENTRY = st.recursive(
    SCALARS | BRACKETED,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=4,
)
ROW = st.builds(lambda first, rest: [first, *rest], SCALARS | BRACKETED, st.lists(ROW_ENTRY, max_size=3))
ROWS = st.lists(ROW | st.just([]), min_size=1, max_size=4)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4) | ROWS,
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(obj=JSON_VALUES)
@example(obj=[[], [[]], [[1], []], {}])
@example(obj={"m": [[["],\n      [", 1.5], ["\n", -0.0]], [[math.nan, math.inf]]]})
@example(obj=[[1, [2]], [3, 4], "x"])
@example(obj=[[1, "["], [2, 3]])
@example(obj=[[1, "{"], [2, 3]])
@example(obj=[[1, "],\n    ["], [2, 3]])
@example(obj=[[1, 2], [3, [4]]])
@example(obj=[[1, 2], [3, {"a": [5]}]])
@example(obj=[[1, 2], [], [3]])
@example(obj=[[1, [[2, [3]]]], [4]])
@example(obj=[[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
def test_writer_is_json_dumps_indent_2(obj):
    assert _indented_json(obj) == json.dumps(obj, sort_keys=True, indent=2)
