"""Channels, program states, and the channel-state duality toolbox.

A "program" is a quantum state carrying a gate or channel: for a unitary U it
is the pure state (U ox 1)|omega> on ports (out, in), and for a channel E the
mixed state (E ox id)(|omega><omega|). Running the program is a measurement
protocol implemented in :mod:`obliq.oblivious`; this module owns the duality
algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StateValidationError
from .qmath import (
    EPS,
    RegisterLayout,
    as_complex,
    dagger,
    is_unitary,
    partial_trace,
    tensor_product,
)
from .states import MixedState, PureState, as_mixed, bell_state

OUT = "out"
IN = "in"


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)

    def __post_init__(self):
        if not self.kraus:
            raise StateValidationError("channel needs at least one Kraus operator")
        ops = tuple(as_complex(k) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        dout, din = ops[0].shape
        for k in ops:
            if k.shape != (dout, din):
                raise DimensionError("Kraus operators have mixed shapes")
        object.__setattr__(self, "in_dim", din)
        object.__setattr__(self, "out_dim", dout)
        # Entries near the float maximum overflow to inf or nan, which fail.
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(dagger(k) @ k for k in ops)
            if not np.abs(total - np.eye(din)).max() <= 1e-8:
                raise StateValidationError("Kraus operators do not sum to identity")

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self, rho)


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    rho = as_complex(rho)
    if rho.shape != (channel.in_dim, channel.in_dim):
        raise DimensionError(
            f"state dim {rho.shape} does not match channel input {channel.in_dim}"
        )
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=complex)
    for k in channel.kraus:
        out += k @ rho @ dagger(k)
    return out


@dataclass(frozen=True)
class ChoiProgram:
    """Program state over ports (out, in) with the unit-trace-per-port marginal.

    The in-port marginal of any trace-preserving program is I/in_dim; that is
    validated on construction. ``state`` may be pure (unitary program) or
    mixed (channel program).
    """

    state: PureState | MixedState
    out_dim: int = field(init=False)
    in_dim: int = field(init=False)

    def __post_init__(self):
        layout = self.state.layout
        if layout.labels != (OUT, IN):
            raise DimensionError(f"program layout must be (out, in), got {layout.labels}")
        object.__setattr__(self, "out_dim", layout.dim(OUT))
        object.__setattr__(self, "in_dim", layout.dim(IN))
        marg = partial_trace(as_mixed(self.state).matrix, [IN], layout)
        if np.abs(marg - np.eye(self.in_dim) / self.in_dim).max() > 1e-8:
            raise StateValidationError("program in-port marginal is not I/d")

    @property
    def is_pure(self) -> bool:
        return isinstance(self.state, PureState)

    def density(self) -> np.ndarray:
        """The program's density matrix. Both kinds of state were validated
        when built, so no `MixedState` is made (and checked) again."""
        return self.state.density() if self.is_pure else self.state.matrix


def program_layout(out_dim: int, in_dim: int) -> RegisterLayout:
    return RegisterLayout.of((OUT, out_dim), (IN, in_dim))


def choi_of(op: np.ndarray | KrausChannel) -> ChoiProgram:
    """Program state of a unitary matrix or a Kraus channel."""
    if isinstance(op, KrausChannel):
        din = op.in_dim
        omega = bell_state(din).density()
        mat = np.zeros((op.out_dim * din, op.out_dim * din), dtype=complex)
        for k in op.kraus:
            kk = tensor_product(k, np.eye(din))
            mat += kk @ omega @ dagger(kk)
        state = MixedState(program_layout(op.out_dim, din), mat)
        return ChoiProgram(state)
    u = as_complex(op)
    if not is_unitary(u, 1e-8):
        raise StateValidationError("matrix program must be unitary")
    d = u.shape[0]
    omega = bell_state(d).amplitudes
    amps = tensor_product(u, np.eye(d)) @ omega
    return ChoiProgram(PureState(program_layout(d, d), amps))


def unitary_of_choi(program: ChoiProgram) -> np.ndarray:
    """Recover the unitary carried by a pure program state."""
    if not program.is_pure:
        raise StateValidationError("only pure program states carry a unitary")
    d_in, d_out = program.in_dim, program.out_dim
    u = program.state.amplitudes.reshape(d_out, d_in) * np.sqrt(d_in)
    if not is_unitary(u, 1e-8):
        raise StateValidationError("program amplitudes do not form a unitary")
    return u


def channel_of_choi(program: ChoiProgram) -> KrausChannel:
    """Extract Kraus operators from a program state.

    Eigenvectors of the rescaled program matrix become Kraus operators; they
    are sorted by descending eigenvalue and phase-fixed so the first
    nonnegligible entry of each operator is real positive, making the
    extraction deterministic. Eigenvalues at or below 1e-10 are dropped.
    """
    j = program.in_dim * program.density()
    w, v = np.linalg.eigh(j)
    order = np.argsort(w)[::-1]
    ops = []
    for idx in order:
        lam = float(w[idx])
        if lam <= 1e-10:
            continue
        vec = v[:, idx]
        nz = np.flatnonzero(np.abs(vec) > 1e-12)
        if nz.size:
            ph = vec[nz[0]] / abs(vec[nz[0]])
            vec = vec / ph
        ops.append(np.sqrt(lam) * vec.reshape(program.out_dim, program.in_dim))
    return KrausChannel(tuple(ops))


def stinespring_dilation(
    channel: KrausChannel, ancilla_dim: int | None = None
) -> tuple[np.ndarray, int]:
    """Unitary U on (ancilla, system) with K_i = <i|U|0>, ancilla first.

    The first in_dim columns of U hold the isometry V = sum_i |i> ox K_i; the
    rest is a deterministic orthonormal completion. ``ancilla_dim`` pads the
    Kraus list with zero operators so several channels can share one ancilla.
    Returns (U, ancilla_dim).
    """
    ops = list(channel.kraus)
    if ancilla_dim is not None:
        if ancilla_dim < len(ops):
            raise DimensionError(
                f"ancilla dim {ancilla_dim} below Kraus count {len(ops)}"
            )
        zero = np.zeros_like(ops[0])
        ops = ops + [zero] * (ancilla_dim - len(ops))
    r = len(ops)
    din, dout = channel.in_dim, channel.out_dim
    full = r * dout
    if full < din:
        raise DimensionError("dilation space smaller than channel input")
    v = np.zeros((full, din), dtype=complex)
    for i, k in enumerate(ops):
        v[i * dout : (i + 1) * dout, :] = k
    # Orthonormal completion: columns of Q beyond rank(V) are orthogonal to V.
    q, _ = np.linalg.qr(v, mode="complete")
    u = np.concatenate([v, q[:, din:]], axis=1)
    if not is_unitary(u, 1e-8):
        raise StateValidationError("dilation completion failed")
    return u, r


def kraus_of_dilation(u: np.ndarray, out_dim: int, in_dim: int) -> KrausChannel:
    """Inverse of :func:`stinespring_dilation` for a given block split."""
    u = as_complex(u)
    full = u.shape[0]
    if full % out_dim:
        raise DimensionError("dilation dim is not a multiple of the output dim")
    r = full // out_dim
    ops = tuple(u[i * out_dim : (i + 1) * out_dim, :in_dim] for i in range(r))
    return KrausChannel(ops)


def transpose_program(program: ChoiProgram) -> ChoiProgram:
    """Swap the two ports of a pure program: carries U -> U^T."""
    if not program.is_pure:
        raise StateValidationError("transpose needs a pure program state")
    d_out, d_in = program.out_dim, program.in_dim
    amps = program.state.amplitudes.reshape(d_out, d_in).T.reshape(-1)
    return ChoiProgram(PureState(program_layout(d_in, d_out), amps))


def conjugate_program(program: ChoiProgram) -> ChoiProgram:
    """Conjugate all amplitudes of a pure program: carries U -> U*."""
    if not program.is_pure:
        raise StateValidationError("conjugation needs a pure program state")
    return ChoiProgram(PureState(program.state.layout, program.state.amplitudes.conj()))


# ---------------------------------------------------------------------------
# Real-embedding of complex gates: one extra qubit carries the imaginary part.
# The appended qubit is the least significant digit, so the embedded vector
# reads |Re psi>|0> + |Im psi>|1>.
# ---------------------------------------------------------------------------

_MINUS_IY = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class RebitEmbedding:
    """Real orthogonal matrix acting on (system ox qubit)."""

    source_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix)
        d2 = 2 * self.source_dim
        if q.shape != (d2, d2):
            raise DimensionError(f"embedding shape {q.shape}, expected {(d2, d2)}")
        if np.abs(q.imag).max() > EPS:
            raise StateValidationError("embedding matrix must be real")
        if np.abs(q.T @ q - np.eye(d2)).max() > 1e-8:
            raise StateValidationError("embedding matrix must be orthogonal")
        object.__setattr__(self, "matrix", q.real.copy())


def rebit_embed(u: np.ndarray) -> RebitEmbedding:
    """Real doubling of a unitary: U1 ox I + U2 ox (-iY) for U = U1 + i U2."""
    u = as_complex(u)
    if not is_unitary(u, 1e-8):
        raise StateValidationError("rebit embedding needs a unitary")
    d = u.shape[0]
    q = np.kron(u.real, np.eye(2)) + np.kron(u.imag, _MINUS_IY)
    return RebitEmbedding(d, q)


def rebit_input(psi: np.ndarray | PureState) -> PureState:
    """Real doubled vector |Re psi>|0> + |Im psi>|1>, unit norm by construction."""
    amps = psi.amplitudes if isinstance(psi, PureState) else as_complex(psi).reshape(-1)
    d = amps.shape[0]
    out = np.zeros(2 * d, dtype=complex)
    out[0::2] = amps.real
    out[1::2] = amps.imag
    layout = RegisterLayout.of(("sys", d), ("rebit", 2))
    return PureState(layout, out)


def rebit_readout_probability(emb: RebitEmbedding, phi: PureState, a: int) -> float:
    """P(system reads a) after the embedded gate, qubit marginalized."""
    if not 0 <= a < emb.source_dim:
        raise DimensionError(f"readout index {a} out of range")
    vec = emb.matrix @ phi.amplitudes
    return float(abs(vec[2 * a]) ** 2 + abs(vec[2 * a + 1]) ** 2)


# ---------------------------------------------------------------------------
# Stock channels used across tests and scenarios.
# ---------------------------------------------------------------------------


def depolarizing_channel(d: int) -> KrausChannel:
    """Completely depolarizing map rho -> I/d via the d^2 displacement operators."""
    from .oblivious import GeneralizedPauliBasis

    basis = GeneralizedPauliBasis(d)
    return KrausChannel(tuple(s / d for s in basis.operators))


def dephasing_channel() -> KrausChannel:
    from .gates import I2, Z

    return KrausChannel((I2 / np.sqrt(2), Z / np.sqrt(2)))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise StateValidationError(f"damping rate {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))
