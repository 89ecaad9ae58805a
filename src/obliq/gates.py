"""Named gate matrices and (de)serialization of gate literals.

Gate literals appear in scenario files in three forms: a named gate with
optional angle, an explicit matrix with complex entries written as
``[re, im]`` pairs, or a Kraus list of such matrices.
"""

from __future__ import annotations

import numbers

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
        if isinstance(theta, bool) or not isinstance(theta, numbers.Real):
            raise ScenarioSchemaError(f"gate {name} angle {theta!r} is not a number")
        return _PARAMETRIC[name](float(theta))
    raise ScenarioSchemaError(f"unknown gate name {name!r}")


def matrix_from_json(rows) -> np.ndarray:
    """Parse a matrix whose entries are [re, im] pairs (or bare reals)."""
    try:
        out = []
        for row in rows:
            r = []
            for cell in row:
                if isinstance(cell, (int, float)):
                    r.append(complex(cell))
                else:
                    re, im = cell
                    r.append(complex(float(re), float(im)))
            out.append(r)
        mat = np.array(out, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ScenarioSchemaError(f"malformed matrix literal: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ScenarioSchemaError(f"matrix literal must be square, got {mat.shape}")
    return mat


def matrix_to_json(mat: np.ndarray) -> list:
    mat = as_complex(mat)
    return [[[float(c.real), float(c.imag)] for c in row] for row in mat]


def gate_from_literal(obj, require_unitary: bool = True) -> np.ndarray:
    """Resolve a scenario gate literal to a matrix.

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
    if require_unitary and not is_unitary(mat, 1e-8):
        raise ScenarioSchemaError("gate literal is not unitary")
    return mat


def kraus_from_literal(obj) -> list[np.ndarray]:
    if not (isinstance(obj, dict) and "kraus" in obj):
        raise ScenarioSchemaError(f"unrecognized Kraus literal {obj!r}")
    ops = [matrix_from_json(m) for m in obj["kraus"]]
    if not ops:
        raise ScenarioSchemaError("empty Kraus list")
    return ops
