"""Pure and mixed states over labeled register layouts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateValidationError
from .qmath import EPS, RegisterLayout, as_complex, partial_trace

__all__ = ["PureState", "MixedState", "bell_state", "as_mixed", "basis_state"]


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector over a layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.layout.total_dim:
            raise DimensionError(
                f"{amps.shape[0]} amplitudes for layout dim {self.layout.total_dim}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise StateValidationError(f"state norm {norm} is not 1")

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_mixed(self) -> "MixedState":
        return MixedState(self.layout, self.density())


@dataclass(frozen=True)
class MixedState:
    """Density matrix over a layout: Hermitian, PSD, unit trace."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_complex(self.matrix)
        object.__setattr__(self, "matrix", mat)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} for layout dim {d}")
        if np.abs(mat - mat.conj().T).max() > 1e-8:
            raise StateValidationError("density matrix is not Hermitian")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > 1e-8:
            raise StateValidationError(f"density matrix trace {tr} is not 1")
        wmin = float(np.linalg.eigvalsh(mat).min())
        if wmin < -1e-8:
            raise StateValidationError(f"density matrix has eigenvalue {wmin}")

    @classmethod
    def formed(cls, layout: RegisterLayout, matrix: np.ndarray) -> "MixedState":
        """A state that obliq formed itself from checked states, by a
        measurement or a relabeling: it is not checked again."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= EPS

    def marginal(self, keep) -> "MixedState":
        return MixedState(self.layout.subset(keep), partial_trace(self.matrix, keep, self.layout))


def as_mixed(state: PureState | MixedState) -> MixedState:
    return state.to_mixed() if isinstance(state, PureState) else state


def basis_state(index: int, d: int, label: str = "q") -> PureState:
    if not 0 <= index < d:
        raise DimensionError(f"basis index {index} out of range for dim {d}")
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return PureState(RegisterLayout.of((label, d)), amps)


def bell_state(d: int) -> PureState:
    """Maximally entangled pair sum_i |ii> / sqrt(d) on two d-dim registers."""
    if d < 2:
        raise DimensionError(f"ebit dimension must be >= 2, got {d}")
    amps = np.zeros(d * d, dtype=complex)
    for i in range(d):
        amps[i * d + i] = 1.0
    amps /= np.sqrt(d)
    return PureState(RegisterLayout.of(("A", d), ("B", d)), amps)
