"""Named gate matrices and (de)serialization of gate literals.

Gate literals appear in scenario files in three forms: a named gate with
optional angle, an explicit matrix with complex entries written as
``[re, im]`` pairs, or a Kraus list of such matrices. Every numeric literal
of a scenario (amplitudes, matrix entries, angles, rates, the tolerance) is
read by `real_from_literal`, alone or through `complex_from_literal`. Arrays
of literals go through `complexes_from_literal` (state vectors) and
`matrix_from_json` (matrices): one numpy conversion when every entry is a
JSON int or float, or every entry a pair of them, else
`complex_from_literal` entry by entry, so the first bad literal raises the
scalar parser's error.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain

import numpy as np

from .errors import ScenarioSchemaError
from .qmath import as_complex, is_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def real_from_literal(value) -> float:
    """A JSON number as a finite float.

    Bools, strings and other non-numbers, NaN, infinities and integers
    beyond float range are schema errors.
    """
    # JSON floats skip the slower abstract-class check.
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ScenarioSchemaError(f"{value!r} is not a number")
    try:
        out = float(value)
    except OverflowError:
        raise ScenarioSchemaError("integer literal beyond float range") from None
    if not math.isfinite(out):
        raise ScenarioSchemaError(f"{value!r} is not a finite number")
    return out


def complex_from_literal(value) -> complex:
    """A complex number written as a real or as an ``[re, im]`` pair of reals."""
    if isinstance(value, list) and len(value) == 2:
        return complex(real_from_literal(value[0]), real_from_literal(value[1]))
    return complex(real_from_literal(value), 0.0)


_JSON_NUMBERS = {float, int}


def _finite_floats(values, kinds: set) -> np.ndarray | None:
    """``values`` as one float array if ``kinds``, the entries' types, are
    JSON int or float and every result is finite, else None."""
    if not kinds <= _JSON_NUMBERS:
        return None
    try:
        out = np.array(values, dtype=float)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def complexes_from_literal(values: list) -> np.ndarray:
    """`complex_from_literal` over a list, as a complex array. The entries'
    types are scanned once."""
    kinds = set(map(type, values))
    if kinds <= _JSON_NUMBERS:
        reals = _finite_floats(values, kinds)
        if reals is not None:
            return reals.astype(complex)
    elif kinds == {list} and set(map(len, values)) == {2}:
        flat = list(chain.from_iterable(values))
        pairs = _finite_floats(flat, set(map(type, flat)))
        if pairs is not None:
            return pairs.view(complex)
    return np.array([complex_from_literal(v) for v in values], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


_FIXED = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "T": T,
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
}

_PARAMETRIC = {"RY": ry, "RZ": rz}


def named_gate(name: str, theta: float | None = None) -> np.ndarray:
    if not isinstance(name, str):
        raise ScenarioSchemaError(f"gate name {name!r} is not a string")
    name = name.upper()
    if name in _FIXED:
        if theta is not None:
            raise ScenarioSchemaError(f"gate {name} takes no angle")
        return _FIXED[name].copy()
    if name in _PARAMETRIC:
        if theta is None:
            raise ScenarioSchemaError(f"gate {name} requires an angle")
        return _PARAMETRIC[name](real_from_literal(theta))
    raise ScenarioSchemaError(f"unknown gate name {name!r}")


def matrix_from_json(rows) -> np.ndarray:
    """Parse a square matrix: 2 or more rows of `complex_from_literal` entries."""
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(row, list) and len(row) == len(rows) for row in rows)
    ):
        raise ScenarioSchemaError("matrix literal must be a non-empty square list of rows")
    if len(rows) < 2:
        raise ScenarioSchemaError("matrix literal needs at least 2 rows")
    if not isinstance(rows[0][0], list):  # a real matrix: no flattened list
        reals = _finite_floats(rows, set(map(type, chain.from_iterable(rows))))
        if reals is not None:
            return reals.astype(complex)
    return complexes_from_literal(list(chain.from_iterable(rows))).reshape(len(rows), len(rows))


def matrix_to_json(mat: np.ndarray) -> list:
    mat = as_complex(mat)
    return [[[float(c.real), float(c.imag)] for c in row] for row in mat]


# How far a gate literal may be from unitary: max |U^dag U - I|. A program
# U scales the outcome row of the measurement that links it by up to
# 1 + UNITARY_TOL, and the runners refuse a row that sums further than
# 1e-9 / len(steps) from 1 (`distributed._sample`); a run has up to 16 steps
# (`cli.MAX_BRANCH_BITS`), and 1e-9 / 16 = 6.25e-11 >= 5e-11.
UNITARY_TOL = 5e-11


def gate_from_literal(obj) -> np.ndarray:
    """Resolve a scenario gate literal to a matrix within UNITARY_TOL of
    unitary.

    Accepts a bare name string, {"name": ..., "theta": ...} or
    {"matrix": [[[re, im], ...], ...]}.
    """
    if isinstance(obj, str):
        mat = named_gate(obj)
    elif isinstance(obj, dict) and "name" in obj:
        mat = named_gate(obj["name"], obj.get("theta"))
    elif isinstance(obj, dict) and "matrix" in obj:
        mat = matrix_from_json(obj["matrix"])
    else:
        raise ScenarioSchemaError(f"unrecognized gate literal {obj!r}")
    if not is_unitary(mat, UNITARY_TOL):
        raise ScenarioSchemaError("gate literal is not unitary")
    return mat


def kraus_from_literal(obj) -> list[np.ndarray]:
    if not (isinstance(obj, dict) and "kraus" in obj):
        raise ScenarioSchemaError(f"unrecognized Kraus literal {obj!r}")
    ops = obj["kraus"]
    if not isinstance(ops, list) or not ops:
        raise ScenarioSchemaError("a Kraus list must be a non-empty list of matrices")
    return [matrix_from_json(m) for m in ops]
