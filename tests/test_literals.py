"""The array parsers and the `resolved-scenario` writer against their
one-value-at-a-time definitions.

`gates.reals_from_literal` and `gates.complexes_from_literal` must return
what `real_from_literal` and `complex_from_literal` return entry by entry, bit
for bit, or raise the error that the first bad entry raises. `cli._indented_json`
must return the text of ``json.dumps(obj, sort_keys=True, indent=2)``.
"""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliq.cli import _indented_json
from obliq.gates import complex_from_literal, complexes_from_literal, real_from_literal, reals_from_literal

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


def _entry_by_entry(parse, values, dtype):
    """(array, None) from parsing each entry, or (None, (type, message))."""
    try:
        return np.array([parse(v) for v in values], dtype=dtype), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(values=literal_lists() | st.lists(ANY_ENTRY, max_size=6))
@example(values=[1, 2**63 + 1, -0.0, 10**400])
@example(values=[[1, 0], [0.5, math.nan]])
@example(values=[[1, 0], Fraction(1, 3)])
def test_array_parsers_agree_with_scalar_parsers(values):
    for array_parse, scalar_parse, dtype in (
        (reals_from_literal, real_from_literal, float),
        (complexes_from_literal, complex_from_literal, complex),
    ):
        expected, error = _entry_by_entry(scalar_parse, values, dtype)
        try:
            got, got_error = array_parse(values), None
        except Exception as exc:
            got, got_error = None, (type(exc), str(exc))
        assert got_error == error
        if error is None:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


TEXT = st.text(st.sampled_from('[],"\n\\ :{}aé€\U0001f600') | st.characters(), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.sampled_from([10**400]) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(obj=JSON_VALUES)
@example(obj=[[], [[]], [[1], []], {}])
@example(obj={"m": [[["],\n      [", 1.5], ["\n", -0.0]], [[math.nan, math.inf]]]})
@example(obj=[[1, [2]], [3, 4], "x"])
def test_writer_is_json_dumps_indent_2(obj):
    assert _indented_json(obj) == json.dumps(obj, sort_keys=True, indent=2)
