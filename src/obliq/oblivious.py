"""Measurement-driven execution of program states.

Programs are run, never decoded: every operation here is a projective
measurement on program ports plus classical records of which branch fired.
The three primitives are

* initial-state injection: a binary measurement on the in port that either
  launches U|psi> or leaves a known complement state;
* oblivious teleportation: a binary Bell-pair measurement gluing a system to
  the in port, with a parity bit per step and closed-form branch states
  (`oqt_step` gives both branches of one step, `oqt_sample_records` samples
  many trails of a chain at once; one trail of a chain on the protocol
  engine is `distributed.pingpong_run`);
* oblivious control: controlled application of a black-box gate built from
  controlled swaps, one unconditional doubled application U ox U*, and an
  entangled flag whose eigenvalue is exactly one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import ChoiProgram, IN, OUT
from .errors import (
    BranchError,
    DimensionError,
    EstimationError,
    StateValidationError,
)
from .qmath import (
    RegisterLayout,
    apply_on_targets,
    as_complex,
    embed_operator,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    is_hermitian,
    partial_trace,
    projector,
    tensor_product,
)
from .states import MixedState, PureState, as_mixed, bell_state

SYS = "s"


# ---------------------------------------------------------------------------
# Displacement-operator basis X^a Z^b.
# ---------------------------------------------------------------------------


class GeneralizedPauliBasis:
    """Clock-and-shift operator basis: d^2 unitaries, index a*d + b -> X^a Z^b.

    Index 0 is the identity; tr(s_i^dag s_j) = d delta_ij.
    """

    def __init__(self, d: int):
        if d < 2:
            raise DimensionError(f"basis dimension must be >= 2, got {d}")
        self.d = d
        omega = np.exp(2j * np.pi / d)
        self.clock = np.diag(omega ** np.arange(d))
        shift = np.zeros((d, d), dtype=complex)
        for j in range(d):
            shift[(j + 1) % d, j] = 1.0
        self.shift = shift
        ops = []
        xa = np.eye(d, dtype=complex)
        for _a in range(d):
            zb = np.eye(d, dtype=complex)
            for _b in range(d):
                ops.append(xa @ zb)
                zb = zb @ self.clock
            xa = self.shift @ xa
        self.operators = ops

    def __len__(self) -> int:
        return self.d * self.d

    def index(self, a: int, b: int) -> int:
        return (a % self.d) * self.d + (b % self.d)


@functools.lru_cache(maxsize=None)
def bell_projector(d: int) -> np.ndarray:
    """|omega><omega| on a d-dimensional Bell pair, built once per d; read-only."""
    p = projector(bell_state(d).amplitudes)
    p.flags.writeable = False
    return p


# ---------------------------------------------------------------------------
# Binary measurement branches.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryBranch:
    """One outcome of a two-outcome measurement: parity bit, probability,
    and the normalized post-measurement state of the surviving registers."""

    parity: int
    probability: float
    post_state: MixedState


def _binary_measure(
    joint: np.ndarray,
    layout: RegisterLayout,
    p0: np.ndarray,
    keep: Sequence[str],
    names: Sequence[str],
) -> tuple[BinaryBranch, BinaryBranch]:
    """Measure {P0, 1 - P0}, then trace everything but ``keep``, whose
    registers are renamed to ``names`` in the post-measurement states.

    ``p0`` is the trivial outcome's projector on the registers that are not
    kept, in layout order. Because it acts only on traced-out registers,
    branch 0 is tr_M(P0 rho) and branch 1 is tr_M(rho) minus branch 0, each
    O(D^2); no layout-sized projector is built.
    """
    keep_layout = RegisterLayout(tuple((new, layout.dim(old)) for new, old in zip(names, keep)))
    num0 = partial_trace(joint, list(keep), layout, p0)
    nums = (num0, partial_trace(joint, list(keep), layout) - num0)
    branches = []
    for parity, num in enumerate(nums):
        prob = float(np.trace(num).real)
        if prob < 1e-14:
            raise BranchError(f"branch {parity} has probability {prob}")
        branches.append(BinaryBranch(parity, prob, MixedState(keep_layout, num / prob)))
    return branches[0], branches[1]


def isi_measure(
    program: ChoiProgram, inject: PureState | np.ndarray
) -> tuple[BinaryBranch, BinaryBranch]:
    """Initial-state injection: binary measurement on the program's in port.

    The trivial outcome projects the in port onto the conjugate of the
    injected vector; for a unitary program it leaves U|psi> on the out port
    with probability 1/d, and the other branch leaves
    (1 - U psi U^dag)/(d - 1).
    """
    amps = inject.amplitudes if isinstance(inject, PureState) else as_complex(inject).reshape(-1)
    if amps.shape[0] != program.in_dim:
        raise DimensionError(
            f"inject dim {amps.shape[0]} does not match program in-port {program.in_dim}"
        )
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-8:
        raise StateValidationError(f"inject norm {norm} is not 1")
    p0 = projector(amps.conj())
    return _binary_measure(program.density(), program.state.layout, p0, [OUT], [SYS])


def _as_system(state: PureState | MixedState | np.ndarray) -> MixedState:
    if isinstance(state, (PureState, MixedState)):
        mixed = as_mixed(state)
        return MixedState(RegisterLayout.of((SYS, mixed.dim)), mixed.matrix)
    mat = as_complex(state)
    if mat.ndim == 1:
        mat = projector(mat)
    return MixedState(RegisterLayout.of((SYS, mat.shape[0]),), mat)


def oqt_step(
    program: ChoiProgram, system: PureState | MixedState | np.ndarray
) -> tuple[BinaryBranch, BinaryBranch]:
    """One oblivious teleportation step.

    The binary Bell measurement {|omega><omega|, complement} on (in port,
    system) either teleports the system through the program (parity 0,
    probability 1/d^2) or leaves the complement state
    (d - U rho U^dag) / (d^2 - 1) on the out port (parity 1).
    """
    sys_state = _as_system(system)
    d_in = program.in_dim
    if sys_state.dim != d_in:
        raise DimensionError(
            f"system dim {sys_state.dim} does not match program in-port {d_in}"
        )
    layout = RegisterLayout.of((OUT, program.out_dim), (IN, d_in), (SYS, d_in))
    joint = tensor_product(program.density(), sys_state.matrix)
    return _binary_measure(joint, layout, bell_projector(d_in), [OUT], [SYS])


@dataclass(frozen=True)
class OqtRecord:
    """Parity trail of one teleportation chain and its exact final state."""

    parity_bits: tuple[int, ...]
    s: int
    final_state: MixedState


def parity_mix_alpha(s: int, d: int) -> float:
    """Identity weight in the chain closed form
    alpha_s * I + (-1)^s U rho U^dag / (d^2-1)^s."""
    return (1.0 - (-1.0) ** s / (d * d - 1.0) ** s) / d


@dataclass(frozen=True)
class OqtRecordBatch:
    """Vectorized stand-in for a list of OqtRecords sharing one chain."""

    parity_bits: np.ndarray  # (shots, n) int8
    s: np.ndarray  # (shots,) int
    states_by_s: dict[int, MixedState]

    def __len__(self) -> int:
        return int(self.s.shape[0])


def oqt_sample_records(
    programs: Sequence[ChoiProgram],
    system: PureState | MixedState | np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> OqtRecordBatch:
    """Draw many parity trails at once.

    Branch states after k steps depend only on the parity sum; this is
    checked numerically while the reachable states are enumerated. The
    shots then walk the chain with the protocols' level walk
    (`distributed._walk`), one ``rng.random(shots)`` per step: a level is
    the array of its live rows' parity counts.
    """
    from .distributed import _walk  # distributed imports this module

    if shots < 1:
        raise EstimationError(f"shots must be positive, got {shots}")
    states: dict[int, MixedState] = {0: _as_system(system)}
    rows: list[dict[int, np.ndarray]] = []
    for prog in programs:
        row: dict[int, np.ndarray] = {}
        nxt: dict[int, MixedState] = {}
        for s_val, st in sorted(states.items()):
            b0, b1 = oqt_step(prog, st)
            row[s_val] = np.array([b0.probability, b1.probability])
            for branch in (b0, b1):
                key = s_val + branch.parity
                if key in nxt:
                    delta = np.abs(nxt[key].matrix - branch.post_state.matrix).max()
                    if delta > 1e-9:
                        raise StateValidationError("branch states with equal parity sum diverged")
                else:
                    nxt[key] = branch.post_state
        rows.append(row)
        states = nxt
    tables = [np.array([row[s] for s in range(len(row))]) for row in rows]
    steps = [lambda s, table=table: (table[s], lambda at, bits: s[at] + bits) for table in tables]
    uniforms = rng.random((len(steps), shots)).T
    bits, *_ = _walk(np.zeros(1, dtype=np.intp), steps, lambda s: None, uniforms)
    bits = bits.astype(np.int8)
    return OqtRecordBatch(bits, bits.sum(axis=1), states)


def oqt_estimate_observable(
    batch: OqtRecordBatch,
    observable: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Unbiased estimate of tr(O U rho U^dag) from the parity records of
    `oqt_sample_records`.

    Each record contributes (-1)^s (d^2-1)^s (m - alpha_s tr O), the affine
    branch relation inverted recursively over s. With ``rng`` the value m is
    a sampled eigenvalue of O measured on the record's final state; without
    it m is the exact expectation (a zero-variance variant).
    """
    if len(batch) == 0:
        raise EstimationError("empty record stream")
    obs = as_complex(observable)
    some_state = next(iter(batch.states_by_s.values()))
    d = some_state.dim
    if obs.shape != (d, d):
        raise DimensionError(f"observable shape {obs.shape} for state dim {d}")
    if not is_hermitian(obs, 1e-8):
        raise StateValidationError("observable must be Hermitian")
    tr_obs = float(np.trace(obs).real)
    values = np.zeros(len(batch))
    if rng is None:
        for s_val, st in batch.states_by_s.items():
            values[batch.s == s_val] = float(np.trace(obs @ st.matrix).real)
    else:
        evals, evecs = np.linalg.eigh(obs)
        for s_val, st in batch.states_by_s.items():
            mask = batch.s == s_val
            count = int(mask.sum())
            if count == 0:
                continue
            probs = np.einsum("ik,ij,jk->k", evecs.conj(), st.matrix, evecs).real
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            idx = rng.choice(evals.shape[0], size=count, p=probs)
            values[mask] = evals[idx]
    s = batch.s.astype(float)
    alpha = (1.0 - (-1.0) ** s / (d * d - 1.0) ** s) / d
    t_hat = (-1.0) ** s * (d * d - 1.0) ** s * (values - alpha * tr_obs)
    estimate = float(t_hat.mean())
    stderr = float(t_hat.std(ddof=1) / np.sqrt(len(batch))) if len(batch) > 1 else 0.0
    return estimate, stderr


# ---------------------------------------------------------------------------
# Multi-party binary Bell measurement and local parity statistics.
# ---------------------------------------------------------------------------


def multiparty_binary_bell(
    parts: Sequence[tuple[ChoiProgram, PureState | MixedState | np.ndarray]],
) -> tuple[BinaryBranch, BinaryBranch]:
    """Joint binary Bell measurement across several (program, system) pairs.

    The trivial outcome is the product of all local trivial projectors; its
    branch teleports every system at once. The complement lumps every other
    local pattern into a single parity-1 branch.
    """
    if not parts:
        raise DimensionError("need at least one (program, system) part")
    regs = []
    joint = p0 = np.ones((1, 1), dtype=complex)
    outs = []
    for k, (prog, system) in enumerate(parts):
        sys_state = _as_system(system)
        if sys_state.dim != prog.in_dim:
            raise DimensionError(f"part {k}: system dim does not match program in-port")
        regs += [(f"out{k}", prog.out_dim), (f"in{k}", prog.in_dim), (f"s{k}", prog.in_dim)]
        outs.append(f"out{k}")
        joint = tensor_product(joint, tensor_product(prog.density(), sys_state.matrix))
        p0 = tensor_product(p0, bell_projector(prog.in_dim))
    return _binary_measure(joint, RegisterLayout(tuple(regs)), p0, outs, outs)


@dataclass(frozen=True)
class ParitySamples:
    """Grouped local-parity statistics for a multi-part Bell layer."""

    shots: int
    all_zero: int
    rest: int
    efficiency_factor: float


def local_parity_sampling(
    parts: Sequence[tuple[ChoiProgram, PureState | MixedState | np.ndarray]],
    shots: int,
    rng: np.random.Generator,
) -> ParitySamples:
    """Sample each part's local binary Bell outcome independently per shot.

    Outcomes are grouped into the all-trivial pattern versus the rest, which
    is all a concatenated layer can use; the quadratic-per-part sample cost
    of insisting on the all-trivial pattern is reported as the efficiency
    factor prod d_k^2.
    """
    if shots < 1:
        raise EstimationError(f"shots must be positive, got {shots}")
    p0s = []
    eff = 1.0
    for prog, system in parts:
        b0, _ = oqt_step(prog, system)
        p0s.append(b0.probability)
        eff *= float(prog.in_dim) ** 2
    bits = (rng.random((shots, len(p0s))) >= np.array(p0s)).astype(np.int8)
    all_zero = int((bits.sum(axis=1) == 0).sum())
    return ParitySamples(
        shots=shots, all_zero=all_zero, rest=shots - all_zero, efficiency_factor=eff
    )


# ---------------------------------------------------------------------------
# Oblivious control: controlled black-box gates via an entangled flag.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlagState:
    """Entangled flag for the controlled construction.

    ``omega`` is the maximally entangled pair, a +1 eigenvector of
    U ox U* for every U. ``omega_perp`` is the unit-trace complement of
    omega inside the full +1 eigenspace span{|v_i>|v_i*>}; it depends on U's
    eigenbasis, so materializing it requires the unitary.
    """

    which: str
    dim: int

    def __post_init__(self):
        if self.which not in ("omega", "omega_perp"):
            raise StateValidationError(f"unknown flag kind {self.which!r}")
        if self.dim < 2:
            raise DimensionError(f"flag port dimension must be >= 2, got {self.dim}")

    def density(self, u: np.ndarray | None = None) -> np.ndarray:
        if self.which == "omega":
            return bell_projector(self.dim)
        if u is None:
            raise StateValidationError("omega_perp needs the unitary's eigenbasis")
        u = as_complex(u)
        if u.shape != (self.dim, self.dim):
            raise DimensionError(f"unitary shape {u.shape} for flag dim {self.dim}")
        _, vecs = np.linalg.eig(u)
        basis = [np.kron(vecs[:, i], vecs[:, i].conj()) for i in range(self.dim)]
        pi = sum(projector(b) for b in basis)
        return (pi - bell_projector(self.dim)) / (self.dim - 1)


def _materialize(apply_op: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Assemble a matrix by invoking a black-box applier on basis vectors."""
    cols = []
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        col = as_complex(apply_op(e)).reshape(-1)
        if col.shape[0] != d:
            raise DimensionError("applier changed the vector dimension")
        cols.append(col)
    return np.column_stack(cols)


def _swap_blocks(dim: int) -> np.ndarray:
    s = np.zeros((dim * dim, dim * dim))
    for a in range(dim):
        for b in range(dim):
            s[b * dim + a, a * dim + b] = 1.0
    return s


def controlled_gate(u: np.ndarray) -> np.ndarray:
    """|0><0| ox I + |1><1| ox U on (qubit control, target)."""
    u = as_complex(u)
    d = u.shape[0]
    gate = np.eye(2 * d, dtype=complex)
    gate[d:, d:] = u
    return gate


def oqc_build(
    apply_u: Callable[[np.ndarray], np.ndarray],
    apply_u_conj: Callable[[np.ndarray], np.ndarray],
    d: int,
    flag: FlagState,
) -> np.ndarray:
    """Full controlled-gate circuit on (control, data, ancilla, flag pair).

    Shape: controlled-SWAP of the doubled data slot with the flag pair when
    the control reads 0, one unconditional U ox U* on the data slot, swap
    back. Restricted to a flag inside the +1 eigenspace the induced action on
    (control, data ox ancilla) is exactly P0 ox 1 + P1 ox (U ox U*); the
    doubling cancels any global phase of U.
    """
    if flag.dim != d:
        raise DimensionError(f"flag dim {flag.dim} does not match data dim {d}")
    u = _materialize(apply_u, d)
    uc = _materialize(apply_u_conj, d)
    uhat = tensor_product(u, uc)
    d2 = d * d
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    cswap0 = tensor_product(p0, _swap_blocks(d2)) + tensor_product(p1, np.eye(d2 * d2))
    mid = tensor_product(np.eye(2), tensor_product(uhat, np.eye(d2)))
    return cswap0 @ mid @ cswap0


def oqc_induced_operator(
    circuit: np.ndarray, d: int, flag: FlagState, u: np.ndarray | None = None
) -> np.ndarray:
    """Action of the full circuit on (control, data, ancilla) for a given flag.

    Computed as the flag-eigenbasis compression sum_k w_k <v_k|V|v_k>; for
    flags inside the +1 eigenspace this is the exact controlled gate.
    """
    d2 = d * d
    dim_cd = 2 * d2
    if circuit.shape != (dim_cd * d2, dim_cd * d2):
        raise DimensionError(f"circuit shape {circuit.shape} for data dim {d}")
    sigma = flag.density(u)
    w, v = np.linalg.eigh(sigma)
    tensor = circuit.reshape(dim_cd, d2, dim_cd, d2)
    out = np.zeros((dim_cd, dim_cd), dtype=complex)
    for k in range(w.shape[0]):
        if w[k] <= 1e-12:
            continue
        vk = v[:, k]
        out += w[k] * np.einsum("aibj,i,j->ab", tensor, vk.conj(), vk)
    return out


def multiplexer_build(
    controls: Sequence[np.ndarray],
    programs: Sequence[tuple[Callable, Callable]],
    d: int,
) -> np.ndarray:
    """Product of binary controlled stages: sum_i P_i ox (U_i ox U_i*).

    ``controls`` must be mutually orthogonal projectors resolving the
    identity on the control space; each gets its own black-box applier pair
    (apply_u, apply_u_conj), invoked on basis vectors only.
    """
    if len(controls) != len(programs):
        raise DimensionError("one applier pair per control projector is required")
    if not controls:
        raise DimensionError("empty multiplexer")
    m = as_complex(controls[0]).shape[0]
    total = np.zeros((m, m), dtype=complex)
    projs = []
    for p in controls:
        p = as_complex(p)
        if p.shape != (m, m):
            raise DimensionError("ragged control projectors")
        if not is_hermitian(p, 1e-8) or np.abs(p @ p - p).max() > 1e-8:
            raise StateValidationError("controls must be projectors")
        projs.append(p)
        total += p
    if np.abs(total - np.eye(m)).max() > 1e-8:
        raise StateValidationError("control projectors must resolve the identity")
    for i, pi in enumerate(projs):
        for pj in projs[i + 1 :]:
            if np.abs(pi @ pj).max() > 1e-8:
                raise StateValidationError("control projectors must be orthogonal")
    d2 = d * d
    result = np.eye(m * d2, dtype=complex)
    for p, (au, auc) in zip(projs, programs):
        u = _materialize(au, d)
        uc = _materialize(auc, d)
        if np.abs(uc - u.conj()).max() > 1e-8:
            raise StateValidationError("applier pair is not a conjugate pair")
        stage = tensor_product(p, tensor_product(u, uc)) + tensor_product(
            np.eye(m) - p, np.eye(d2)
        )
        result = stage @ result
    return result


# ---------------------------------------------------------------------------
# Measurement-boundary three-CNOT compilation of the doubly controlled NOT.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateOp:
    """One gate in a compiled sequence; qubit 0 is most significant."""

    name: str
    qubits: tuple[int, ...]
    theta: float | None = None


def toffoli_boundary_compile() -> tuple[GateOp, ...]:
    """Three CNOTs plus four quarter-turn Y rotations on (c1, c2, target).

    The compiled gate equals the doubly controlled NOT times a diagonal sign
    (-1 on |101>), so every computational-basis outcome distribution --- in
    particular the target readout --- matches the exact gate.
    """
    quarter = np.pi / 4
    return (
        GateOp("RY", (2,), quarter),
        GateOp("CNOT", (1, 2)),
        GateOp("RY", (2,), quarter),
        GateOp("CNOT", (0, 2)),
        GateOp("RY", (2,), -quarter),
        GateOp("CNOT", (1, 2)),
        GateOp("RY", (2,), -quarter),
    )


def sequence_unitary(ops: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Dense matrix of a gate sequence (first op applied first)."""
    from .gates import CNOT, ry

    layout = RegisterLayout(tuple((f"q{k}", 2) for k in range(n_qubits)))
    total = np.eye(layout.total_dim, dtype=complex)
    for op in ops:
        if op.name == "RY":
            mat = ry(op.theta)
        elif op.name == "CNOT":
            mat = CNOT
        else:
            raise DimensionError(f"unsupported op {op.name!r} in sequence")
        total = apply_on_targets(mat, total, [f"q{q}" for q in op.qubits], layout)
    return total
