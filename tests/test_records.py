"""`_write_records` must give the bytes of one `json.dumps` per shot."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import obliq.cli
from obliq.cli import _write_records

# Keys that sort before, around and after "shot".
KEYS = ["a", "bits", "estimate", "kept", "readout", "s", "sho", "shota", "z", "Shot"]
# Keys of nested objects are user strings (script record names): some need
# escaping or are not ASCII.
NESTED_KEYS = KEYS + ['na"me', "é", "a,b", "back\\slash"]
FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.1, -2.5, 1e300, 5e-324]
# Strings that hold a separator, a quote, a backslash or a non-ASCII character.
STRINGS = ["exact_sum", "a,b", 'q"', "\\", "é", "],[", ""]


def _constant(value, shots: int) -> np.ndarray:
    """A column that holds `value` for every shot, without a copy per shot."""
    return np.broadcast_to(np.asarray(value), (shots,))


def _reference(columns, shots: int, row_of_shot=None) -> str:
    """The per-record path: a dict of Python values and `json.dumps` per
    shot, of row ``row_of_shot[i]`` of ``columns`` (row i if not given)."""

    def value(col, i):
        if isinstance(col, dict):
            return {k: value(c, i) for k, c in col.items()}
        if col.ndim == 2:
            return [value(c, i) for c in col.T]
        x = col[i]
        if col.dtype.kind == "b":
            return bool(x)
        if col.dtype.kind in "iu":
            return int(x)
        if col.dtype.kind == "f":
            return float(x)
        return str(x)

    lines = []
    for i in range(shots):
        row = i if row_of_shot is None else row_of_shot[i]
        rec = {"shot": i, **{k: value(c, row) for k, c in columns.items()}}
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


def _written(tmp_path, columns, shots: int, row_of_shot=None) -> str:
    """The writer's bytes for the row table ``columns``, shot i taking row
    ``row_of_shot[i]`` (row i if not given)."""
    path = tmp_path / "records.jsonl"
    _write_records(path, columns, np.arange(shots) if row_of_shot is None else row_of_shot)
    return path.read_text()


def _floats(draw, size: int) -> np.ndarray:
    pool = draw(st.lists(st.sampled_from(FLOATS) | st.floats(), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return np.array([pool[p] for p in picks], dtype=np.float64)


@st.composite
def _column(draw, shots: int, nested: bool = True):
    kinds = ["float", "bool", "int8", "int64", "str", "list", "bool_list", "float_list", "const", "object"]
    kind = draw(st.sampled_from(kinds))
    if kind == "object" and not nested:
        kind = "int8"
    if kind == "float":
        return _floats(draw, shots)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=shots, max_size=shots)))
    if kind == "int8":
        vals = st.integers(-128, 127)
        return np.array(draw(st.lists(vals, min_size=shots, max_size=shots)), dtype=np.int8)
    if kind == "int64":
        vals = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3)
        return np.array(draw(st.lists(vals, min_size=shots, max_size=shots)), dtype=np.int64)
    if kind == "str":
        return np.array(draw(st.lists(st.sampled_from(STRINGS), min_size=shots, max_size=shots)))
    if kind in ("list", "bool_list", "float_list"):
        width = draw(st.integers(0, 3))
        if kind == "float_list":
            return _floats(draw, shots * width).reshape(shots, width)
        bits = draw(st.lists(st.integers(0, 1), min_size=shots * width, max_size=shots * width))
        dtype = np.int8 if kind == "list" else bool
        return np.array(bits, dtype=dtype).reshape(shots, width)
    if kind == "const":
        value = draw(st.sampled_from([0, 7, True, False] + STRINGS + FLOATS))
        return _constant(value, shots)
    keys = draw(st.lists(st.sampled_from(NESTED_KEYS), min_size=0, max_size=3, unique=True))
    return {k: draw(_column(shots, nested=False)) for k in keys}


@st.composite
def _table(draw):
    shots = draw(st.integers(1, 30))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=0, max_size=len(KEYS), unique=True))
    return {k: draw(_column(shots)) for k in keys}, shots


@settings(max_examples=300, deadline=None)
@given(_table())
def test_writer_matches_per_record_dumps(tmp_path_factory, table):
    columns, shots = table
    tmp_path = tmp_path_factory.mktemp("records")
    assert _written(tmp_path, columns, shots) == _reference(columns, shots)


@st.composite
def _shared_table(draw):
    """A table of n rows and each shot's row in it: several shots may share
    a row, and a row may be taken by no shot."""
    columns, n = draw(_table())
    shots = draw(st.integers(1, 40))
    row_of_shot = np.array(draw(st.lists(st.integers(0, n - 1), min_size=shots, max_size=shots)))
    return columns, shots, row_of_shot


@settings(max_examples=300, deadline=None)
@given(_shared_table())
def test_writer_of_shared_rows_matches_per_record_dumps(tmp_path_factory, table):
    columns, shots, row_of_shot = table
    tmp_path = tmp_path_factory.mktemp("records")
    assert _written(tmp_path, columns, shots, row_of_shot) == _reference(columns, shots, row_of_shot)


def test_signed_zero_nan_and_inf_stay_apart(tmp_path):
    est = np.array([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 0.0, -0.0])
    text = _written(tmp_path, {"estimate": est}, len(est))
    assert text == _reference({"estimate": est}, len(est))
    assert '"estimate":-0.0' in text and '"estimate":NaN' in text


def test_float_column_fixed_by_the_bits_before_it(tmp_path):
    # The estimate follows the readout, down to the sign of zero, except in
    # the last shot, where it does not.
    readout = np.array([0, 1, 0, 1, 0], dtype=np.int8)
    for est in ([0.0, -0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0, -0.0]):
        cols = {"readout": readout, "estimate": np.array(est)}
        assert _written(tmp_path, cols, 5) == _reference(cols, 5)


def test_bool_and_int8_columns_render_differently(tmp_path):
    cols = {"kept": np.array([True, False, True]), "k": np.array([1, 0, 1], dtype=np.int8)}
    text = _written(tmp_path, cols, 3)
    assert text.splitlines()[0] == '{"k":1,"kept":true,"shot":0}'
    assert text == _reference(cols, 3)


def test_single_shot(tmp_path):
    cols = {"bits": {"isi_0": np.array([1])}, "readout": np.array([0], dtype=np.int8)}
    assert _written(tmp_path, cols, 1) == '{"bits":{"isi_0":1},"readout":0,"shot":0}\n'


def test_every_row_distinct(tmp_path):
    shots = 2000
    rng = np.random.default_rng(3)
    cols = {"value": rng.normal(size=shots), "index": np.arange(shots)}
    assert _written(tmp_path, cols, shots) == _reference(cols, shots)


def test_many_columns_do_not_overflow_the_key(tmp_path):
    # Column k is 1 only in shot k, so each of the 80 columns splits a row
    # off and none is fixed by the ones before it: a mixed-radix key that is
    # never re-coded would need 2**80 values.
    shots = 120
    bits = np.eye(shots, 80, dtype=np.int8)
    cols = {f"b{k:02d}": bits[:, k] for k in range(80)}
    cols["parity_bits"] = bits
    assert _written(tmp_path, cols, shots) == _reference(cols, shots)


def test_long_run_spans_write_chunks(tmp_path):
    shots = 20000
    rng = np.random.default_rng(9)
    cols = {
        "readout": rng.integers(0, 2, size=shots).astype(np.int8),
        "mode": _constant("sampled", shots),
    }
    assert _written(tmp_path, cols, shots) == _reference(cols, shots)


def test_two_dimensional_bool_and_float_columns(tmp_path):
    floats = np.array([[float("nan"), -0.0, 1e300], [0.0, -0.0, 1e300], [float("nan"), -0.0, 1e300]])
    cols = {"f": floats, "b": np.array([[True, False], [False, False], [True, False]]), "e": np.zeros((3, 0))}
    text = _written(tmp_path, cols, 3)
    assert text.splitlines()[0] == '{"b":[true,false],"e":[],"f":[NaN,-0.0,1e+300],"shot":0}'
    assert text == _reference(cols, 3)


def test_encoder_calls_grow_with_columns_not_rows(tmp_path, monkeypatch):
    # 2,000 shots, 200 distinct rows, 4 leaf columns: one encoding per
    # column and per key, none per row.
    shots = 2000
    code = np.random.default_rng(5).permutation(np.arange(shots) % 200)
    cols = {
        "readout": (code % 2).astype(np.int8),
        "parity_bits": np.stack([code // 2 % 2, code // 4 % 50], axis=1).astype(np.int8),
        "estimate": code * 0.1 - 3.0,
    }
    calls = []
    encode = obliq.cli._canonical_json
    monkeypatch.setattr(obliq.cli, "_canonical_json", lambda obj: calls.append(obj) or encode(obj))
    text = _written(tmp_path, cols, shots)
    assert len(calls) < 20, len(calls)
    assert text == _reference(cols, shots)
