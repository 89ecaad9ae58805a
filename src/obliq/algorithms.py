"""Algorithm layer on top of the oblivious primitives.

Trace estimation with one clean qubit (plain and doubled black-box
variants), the swap test, probabilistic composition of program states,
block encodings with oblivious amplitude amplification, linear
combinations of unitaries, and exactly amplified oblivious superposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import ChoiProgram, IN, OUT, choi_of, conjugate_program, transpose_program, unitary_of_choi
from .distributed import pingpong_run
from .errors import (
    BlockEncodingError,
    BranchError,
    DimensionError,
    EstimationError,
    StateValidationError,
)
from .gates import H, Y, ry
from .oblivious import (
    BinaryBranch,
    OqtRecord,
    _bell_layer,
    _swap_blocks,
    controlled_gate,
)
from .qmath import (
    RegisterLayout,
    as_complex,
    dagger,
    is_unitary,
    projector,
    tensor_product,
)
from .states import MixedState, PureState


@dataclass(frozen=True)
class MeasurementAxis:
    """Readout axis for a control qubit: X reads the real part of a trace,
    Y the imaginary part."""

    which: str

    def __post_init__(self):
        if self.which not in ("X", "Y"):
            raise StateValidationError(f"axis must be X or Y, got {self.which!r}")

    def outcome0_projector(self) -> np.ndarray:
        if self.which == "X":
            plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
            return projector(plus)
        return (np.eye(2, dtype=complex) + Y) / 2.0


X_AXIS = MeasurementAxis("X")
Y_AXIS = MeasurementAxis("Y")


def _axis(axis) -> MeasurementAxis:
    if isinstance(axis, MeasurementAxis):
        return axis
    return MeasurementAxis(str(axis))


def dqc1(u: np.ndarray, rho: MixedState | np.ndarray, axis) -> float:
    """One-clean-qubit trace readout, simulated as the explicit circuit.

    Control |0>, Hadamard, controlled-U, then the axis measurement; the
    outcome-0 probability is (1 + Re tr(U rho))/2 on X and the imaginary
    counterpart on Y.
    """
    u = as_complex(u)
    if not is_unitary(u, 1e-8):
        raise StateValidationError("dqc1 needs a unitary")
    rho_m = rho.matrix if isinstance(rho, MixedState) else as_complex(rho)
    d = u.shape[0]
    if rho_m.shape != (d, d):
        raise DimensionError(f"state shape {rho_m.shape} for unitary dim {d}")
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    state = tensor_product(zero, rho_m)
    hgate = tensor_product(H, np.eye(d))
    state = hgate @ state @ dagger(hgate)
    cu = controlled_gate(u)
    state = cu @ state @ dagger(cu)
    m0 = tensor_product(_axis(axis).outcome0_projector(), np.eye(d))
    return float(np.trace(m0 @ state).real)


def odqc1(
    program: ChoiProgram,
    conj_program: ChoiProgram,
    rho: MixedState | np.ndarray,
    eta: MixedState | np.ndarray,
    axis,
    enforce_pair: bool = False,
) -> float:
    """Doubled trace readout from a black-box program pair.

    The controlled gate applies U ox U* on (data, ancilla) so the outcome-0
    probability carries the product tr(U rho) tr(U* eta); the construction
    is insensitive to a global phase split e^{i phi}U, e^{-i phi}U*.
    ``enforce_pair`` turns on the test-mode conjugate check.
    """
    u = unitary_of_choi(program)
    uc = unitary_of_choi(conj_program)
    if u.shape != uc.shape:
        raise DimensionError("program pair dims differ")
    if enforce_pair and np.abs(uc - u.conj()).max() > 1e-8:
        raise StateValidationError("programs are not a conjugate pair")
    rho_m = rho.matrix if isinstance(rho, MixedState) else as_complex(rho)
    eta_m = eta.matrix if isinstance(eta, MixedState) else as_complex(eta)
    return dqc1(tensor_product(u, uc), tensor_product(rho_m, eta_m), axis)


def swap_test_probability(psi: PureState | np.ndarray, phi: PureState | np.ndarray) -> float:
    """Exact outcome-0 probability (1 + |<psi|phi>|^2)/2 of the swap test."""
    a = psi.amplitudes if isinstance(psi, PureState) else as_complex(psi).reshape(-1)
    b = phi.amplitudes if isinstance(phi, PureState) else as_complex(phi).reshape(-1)
    if a.shape != b.shape:
        raise DimensionError("swap test needs equal dims")
    return dqc1(_swap_blocks(a.shape[0]), tensor_product(projector(a), projector(b)), X_AXIS)


def swap_test(
    psi: PureState | np.ndarray,
    phi: PureState | np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Sampled overlap estimate 2*f0 - 1 from the swap-test circuit,
    clipped to [0, 1]."""
    if shots < 1:
        raise EstimationError(f"shots must be positive, got {shots}")
    p0 = swap_test_probability(psi, phi)
    f0 = float((rng.random(shots) < p0).mean())
    return float(np.clip(2.0 * f0 - 1.0, 0.0, 1.0))


def compose_programs(p1: ChoiProgram, p2: ChoiProgram) -> tuple[BinaryBranch, BinaryBranch]:
    """Binary Bell measurement fusing two unitary programs into one.

    The trivial branch (probability 1/d^2) holds the program state of
    U1^dag U2: the composition `superchannel.oqt_compose_choi` of p2 with
    the program of U1^dag, which is p1 transposed and conjugated.
    """
    if not (p1.is_pure and p2.is_pure):
        raise StateValidationError("composition needs pure (unitary) programs")
    if p1.in_dim != p2.in_dim or p1.out_dim != p2.out_dim or p1.in_dim != p1.out_dim:
        raise DimensionError("composition needs equal square port dims")
    return _bell_layer([(p2, transpose_program(conjugate_program(p1)))], [OUT, IN])


# ---------------------------------------------------------------------------
# Block encodings and oblivious amplitude amplification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary G on (control, data) whose control-0 block is sqrt(p) U."""

    g: np.ndarray
    control_dim: int
    data_dim: int
    p: float
    theta: float
    target: np.ndarray

    @property
    def total_dim(self) -> int:
        return self.control_dim * self.data_dim


def block_encoding_check(g: np.ndarray, control_dim: int, data_dim: int) -> BlockEncoding:
    """Validate the scalar-block property M^dag M = p I and extract (p, U).

    Rejects matrices whose top-left block is not proportional to a unitary;
    that rejection is the usable precondition signal for amplification on
    unknown inputs.
    """
    g = as_complex(g)
    d = data_dim
    if g.shape != (control_dim * d, control_dim * d):
        raise DimensionError(
            f"G shape {g.shape} does not match ({control_dim}x{d})^2"
        )
    if not is_unitary(g, 1e-9):
        raise BlockEncodingError("G is not unitary")
    m = g[:d, :d]
    gram = dagger(m) @ m
    p = float(np.trace(gram).real / d)
    if p <= 1e-12 or p > 1.0 + 1e-9:
        raise BlockEncodingError(f"block norm p = {p} outside (0, 1]")
    if np.abs(gram - p * np.eye(d)).max() > 1e-9:
        raise BlockEncodingError("not a block encoding: M^dag M deviates from scalar * I")
    p = min(p, 1.0)
    return BlockEncoding(
        g=g,
        control_dim=control_dim,
        data_dim=d,
        p=p,
        theta=float(np.arcsin(np.sqrt(p))),
        target=m / np.sqrt(p),
    )


def random_block_encoding(d: int, p: float, rng: np.random.Generator) -> BlockEncoding:
    """Two-block construction [[sU, cV], [cU, -sV]] with s = sqrt(p)."""
    from .qmath import random_unitary

    if not 0.0 < p < 1.0:
        raise BlockEncodingError(f"p must lie in (0,1), got {p}")
    s, c = np.sqrt(p), np.sqrt(1.0 - p)
    u = random_unitary(d, rng)
    v = random_unitary(d, rng)
    g = np.block([[s * u, c * v], [c * u, -s * v]])
    return block_encoding_check(g, 2, d)


def recommended_iterations(theta: float) -> int:
    """round(pi/(4 theta) - 1/2), capped so (2n+1)theta <= pi/2 + theta."""
    n = int(round(np.pi / (4.0 * theta) - 0.5))
    n = max(n, 0)
    while n > 0 and (2 * n + 1) * theta > np.pi / 2.0 + theta + 1e-12:
        n -= 1
    return n


def _zero_block_projector(control_dim: int, d: int) -> np.ndarray:
    pi = np.zeros((control_dim * d, control_dim * d), dtype=complex)
    pi[:d, :d] = np.eye(d)
    return pi


def oaa_walk_operator(be: BlockEncoding) -> np.ndarray:
    """W = -G R G^dag R with R the reflection about the control-0 block."""
    r = 2.0 * _zero_block_projector(be.control_dim, be.data_dim) - np.eye(be.total_dim)
    return -be.g @ r @ dagger(be.g) @ r


@dataclass(frozen=True)
class OaaResult:
    success_probability: float
    post_state: PureState
    iterations: int
    theta: float


def oaa_amplify(be: BlockEncoding, n: int, psi: PureState | np.ndarray) -> OaaResult:
    """Apply W^n G to |0>|psi> and post-select the control-0 block.

    The success probability is sin^2((2n+1) theta), independent of psi; the
    post-selected state is the encoded unitary applied to psi up to a global
    phase.
    """
    if n < 0:
        raise EstimationError(f"iteration count must be >= 0, got {n}")
    amps = psi.amplitudes if isinstance(psi, PureState) else as_complex(psi).reshape(-1)
    d = be.data_dim
    if amps.shape[0] != d:
        raise DimensionError(f"input dim {amps.shape[0]} for data dim {d}")
    vec = np.zeros(be.total_dim, dtype=complex)
    vec[:d] = amps
    w = oaa_walk_operator(be)
    final = np.linalg.matrix_power(w, n) @ (be.g @ vec)
    block = final[:d]
    success = float(np.linalg.norm(block) ** 2)
    if success < 1e-14:
        raise BranchError("post-selected block has vanishing norm")
    post = PureState(
        RegisterLayout.of(("data", d)), block / np.linalg.norm(block)
    )
    return OaaResult(
        success_probability=success,
        post_state=post,
        iterations=n,
        theta=be.theta,
    )


def oaa_factor_programs(be: BlockEncoding, n: int) -> list[ChoiProgram]:
    """The 2n+1 program states whose teleportation chain realizes W^n G.

    Application order: G once, then n repetitions of (R G^dag R, G); the
    walk's overall -1 phases vanish at the program-state level.
    """
    if n < 0:
        raise EstimationError(f"iteration count must be >= 0, got {n}")
    r = 2.0 * _zero_block_projector(be.control_dim, be.data_dim) - np.eye(be.total_dim)
    rgr = r @ dagger(be.g) @ r
    factors = [choi_of(be.g)]
    for _ in range(n):
        factors.append(choi_of(rgr))
        factors.append(choi_of(be.g))
    return factors


def oaa_via_oqt(
    be: BlockEncoding,
    n: int,
    system: PureState | MixedState | np.ndarray,
    rng: np.random.Generator | None = None,
    forced_bits: Sequence[int] | None = None,
) -> OqtRecord:
    """Run the amplification product as a teleportation chain
    (`pingpong_run`) over its 2n+1 factor programs; the all-zero parity
    branch reproduces the direct circuit on (control, data)."""
    programs = oaa_factor_programs(be, n)
    return pingpong_run(programs, system, rng=rng, forced_bits=forced_bits)[0]


# ---------------------------------------------------------------------------
# Linear combination of unitaries.
# ---------------------------------------------------------------------------


def _completion_with_first_column(alpha: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column is the given unit vector."""
    m = alpha.shape[0]
    cols = [alpha] + [np.eye(m, dtype=complex)[:, k] for k in range(m)]
    q, _ = np.linalg.qr(np.column_stack(cols)[:, : m + 1])
    q = q[:, :m]
    phase = np.vdot(q[:, 0], alpha)
    q[:, 0] = q[:, 0] * (phase / abs(phase))
    if np.abs(q[:, 0] - alpha).max() > 1e-12:
        q[:, 0] = alpha
    return q


@dataclass(frozen=True)
class LCUPlan:
    """Prepared linear combination sum_i c_i U_i with c_i >= 0.

    alpha = sqrt(c_i / l1) is the symmetric factorization, so the same
    vector prepares and unprepares; complex input coefficients have their
    phases absorbed into the unitaries.
    ``black_box`` records that the unitaries arrived as applier pairs.
    """

    coefficients: tuple[float, ...]
    unitaries: tuple[np.ndarray, ...]
    alpha: np.ndarray
    prepare: np.ndarray
    unprepare: np.ndarray
    l1: float
    black_box: bool = False

    @staticmethod
    def build(
        coefficients: Sequence[complex],
        unitaries: Sequence[np.ndarray | tuple[Callable, Callable] | Callable],
        data_dim: int | None = None,
    ) -> "LCUPlan":
        """``unitaries`` entries are matrices, bare appliers, or
        (apply_u, apply_u_conj) pairs; appliers are invoked on basis vectors
        only. ``data_dim`` is required when every term is a black box."""
        if len(coefficients) != len(unitaries):
            raise DimensionError("one coefficient per unitary is required")
        if len(coefficients) == 0:
            raise DimensionError("empty combination")
        from .oblivious import _materialize

        entries = []
        black_box = False
        d = data_dim
        for u in unitaries:
            if callable(u) or (isinstance(u, tuple) and callable(u[0])):
                black_box = True
                entries.append(("bb", u[0] if isinstance(u, tuple) else u))
            else:
                mat = as_complex(u)
                if d is None:
                    d = mat.shape[0]
                entries.append(("mat", mat))
        if d is None:
            raise DimensionError("all terms are black boxes; pass data_dim explicitly")
        resolved = []
        for kind, u in entries:
            if kind == "bb":
                resolved.append(_materialize(u, d))
            else:
                if u.shape != (d, d):
                    raise DimensionError("ragged unitary dims in combination")
                resolved.append(u)
        coeffs = []
        adjusted = []
        for c, u in zip(coefficients, resolved):
            c = complex(c)
            mag = abs(c)
            if mag < 1e-14:
                coeffs.append(0.0)
                adjusted.append(u)
                continue
            coeffs.append(mag)
            adjusted.append(u * (c / mag))
        for u in adjusted:
            if not is_unitary(u, 1e-8):
                raise StateValidationError("combination terms must be unitary")
        l1 = float(sum(coeffs))
        if l1 < 1e-14:
            raise DimensionError("all coefficients vanish")
        alpha = np.sqrt(np.array(coeffs) / l1).astype(complex)
        prepare = _completion_with_first_column(alpha)
        return LCUPlan(
            coefficients=tuple(coeffs),
            unitaries=tuple(adjusted),
            alpha=alpha,
            prepare=prepare,
            unprepare=dagger(prepare),
            l1=l1,
            black_box=black_box,
        )

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    @property
    def data_dim(self) -> int:
        return self.unitaries[0].shape[0]

    def combination_matrix(self) -> np.ndarray:
        """C = sum_i c_i U_i / l1, the operator the circuit post-selects."""
        return sum(c * u for c, u in zip(self.coefficients, self.unitaries)) / self.l1

    def select_matrix(self) -> np.ndarray:
        """Direct-sum multiplexed application sum_i |i><i| ox U_i."""
        m, d = self.n_terms, self.data_dim
        sel = np.zeros((m * d, m * d), dtype=complex)
        for i, u in enumerate(self.unitaries):
            sel[i * d : (i + 1) * d, i * d : (i + 1) * d] = u
        return sel

    def circuit(self) -> np.ndarray:
        """(B ox I) select (A ox I) on (control, data)."""
        d = self.data_dim
        return (
            tensor_product(self.unprepare, np.eye(d))
            @ self.select_matrix()
            @ tensor_product(self.prepare, np.eye(d))
        )


@dataclass(frozen=True)
class LcuResult:
    success_probability: float
    post_state: PureState


def lcu_apply(plan: LCUPlan, psi: PureState | np.ndarray) -> LcuResult:
    """Run prepare, select, unprepare on |0>|psi> and post-select control 0.

    Success probability is <psi|C^dag C|psi> for C = sum c_i U_i / l1; the
    surviving data state is C|psi> normalized.
    """
    amps = psi.amplitudes if isinstance(psi, PureState) else as_complex(psi).reshape(-1)
    d = plan.data_dim
    if amps.shape[0] != d:
        raise DimensionError(f"input dim {amps.shape[0]} for data dim {d}")
    m = plan.n_terms
    vec = np.zeros(m * d, dtype=complex)
    vec[:d] = amps
    out = plan.circuit() @ vec
    block = out[:d]
    success = float(np.linalg.norm(block) ** 2)
    if success < 1e-14:
        raise BranchError("degenerate superposition: post-selected state has no norm")
    post = PureState(RegisterLayout.of(("data", d)), block / np.linalg.norm(block))
    return LcuResult(success_probability=success, post_state=post)


# ---------------------------------------------------------------------------
# Oblivious superposition with exactly amplified success.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OqsResult:
    mode: str
    success_probability: float
    post_state: PureState
    iterations: int
    base_probability: float
    theta: float
    xi: float


def _diluted_rounds(l_circuit: np.ndarray, d: int, p: float, init: np.ndarray):
    """Shared dilution: one extra qubit rotated so the rotated success angle
    hits pi/(2(2n+1)) exactly, making n amplification rounds land on 1."""
    theta = float(np.arcsin(np.sqrt(p)))
    n = max(1, int(np.ceil(np.pi / (4.0 * theta) - 0.5)))
    theta_p = np.pi / (2.0 * (2 * n + 1))
    xi = float(np.arccos(np.clip(np.sin(theta_p) / np.sin(theta), -1.0, 1.0)))
    big = tensor_product(ry(2.0 * xi), l_circuit)
    dim = big.shape[0]
    x0 = np.zeros(dim, dtype=complex)
    x0[: init.shape[0]] = init
    pi_good = np.zeros((dim, dim), dtype=complex)
    pi_good[:d, :d] = np.eye(d)
    s_chi = 2.0 * pi_good - np.eye(dim)
    s_init = 2.0 * np.outer(x0, x0.conj()) - np.eye(dim)
    q = -big @ s_init @ dagger(big) @ s_chi
    final = np.linalg.matrix_power(q, n) @ (big @ x0)
    return final[:d], n, theta, xi


def oqs(mode: str, plan: LCUPlan, system: PureState | np.ndarray | None = None) -> OqsResult:
    """Boosted superposition of unitaries.

    generate: prepare sum_i c_i U_i |0> from the fixed all-zero input, with
    the amplification reflections taken about the known initial state and
    the ancilla-0 block; the dilution ancilla makes the final success exact.

    apply: treat the combination circuit as a block encoding (requiring
    C proportional to a unitary, rejected otherwise) and amplify its action
    on an unknown input state.
    """
    if mode not in ("generate", "apply"):
        raise EstimationError(f"unknown mode {mode!r}")
    d = plan.data_dim
    m = plan.n_terms
    l_circuit = plan.circuit()
    if mode == "generate":
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
    else:
        block_encoding_check(l_circuit, m, d)
        if system is None:
            raise DimensionError("apply mode needs an input state")
        amps = (
            system.amplitudes
            if isinstance(system, PureState)
            else as_complex(system).reshape(-1)
        )
        if amps.shape[0] != d:
            raise DimensionError(f"input dim {amps.shape[0]} for data dim {d}")
    target = plan.combination_matrix() @ amps
    base_p = float(np.linalg.norm(target) ** 2)
    if base_p < 1e-14:
        raise BranchError("degenerate superposition: target has no norm")
    if base_p > 1.0 - 1e-12:
        post = PureState(RegisterLayout.of(("data", d)), target / np.linalg.norm(target))
        return OqsResult(mode, 1.0, post, 0, base_p, float(np.arcsin(1.0)), 0.0)
    init = np.zeros(m * d, dtype=complex)
    init[:d] = amps
    block, n, theta, xi = _diluted_rounds(l_circuit, d, base_p, init)
    success = float(np.linalg.norm(block) ** 2)
    post = PureState(RegisterLayout.of(("data", d)), block / np.linalg.norm(block))
    return OqsResult(
        mode=mode,
        success_probability=success,
        post_state=post,
        iterations=n,
        base_probability=base_p,
        theta=theta,
        xi=xi,
    )
