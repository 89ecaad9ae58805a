"""Measurement-driven execution of program states.

Programs are run, never decoded: every operation here is a projective
measurement on program ports plus classical records of which branch fired.
The three primitives are

* initial-state injection: a binary measurement on the in port that either
  launches U|psi> or leaves a known complement state;
* oblivious teleportation: a binary Bell-pair measurement gluing a system to
  the in port, with a parity bit per step and closed-form branch states
  (`oqt_step` gives both branches of one step, `oqt_sample_records` samples
  many trails of a unital chain at once by the parity law; one trail of a
  chain on the protocol engine is `distributed.pingpong_run`). A system is
  a program with a 1-dimensional in port, so a step, a composition of two
  programs and the multi-party layer are one Bell layer, `_bell_layer`. It
  contracts each linked pair of ports (the link product of program states)
  and forms only the kept state, never the product of the programs' states;
* oblivious control: controlled application of a black-box gate built from
  controlled swaps, one unconditional doubled application U ox U*, and an
  entangled flag whose eigenvalue is exactly one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import ChoiProgram, OUT, program_layout
from .errors import (
    BranchError,
    DimensionError,
    EstimationError,
    StateValidationError,
)
from .qmath import (
    RegisterLayout,
    _check_entries,
    apply_on_targets,
    as_complex,
    embed_operator,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    is_hermitian,
    layout_of,
    partial_trace,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    projector,
    tensor_product,
)
from .states import MixedState, PureState, bell_state

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
    """One outcome of a two-outcome measurement: probability and the
    normalized post-measurement state of the surviving registers. A
    measurement returns (trivial, complement): the position is the parity."""

    probability: float
    post_state: MixedState


def _branches(
    num0: np.ndarray, total: np.ndarray, layout: RegisterLayout
) -> tuple[BinaryBranch, BinaryBranch]:
    """The trivial branch of numerator ``num0`` and the complement
    ``total`` - ``num0``, formed in ``total``'s buffer, each normalized in
    place by its trace, on ``layout``: the caller passes both arrays fresh."""
    branches = []
    for parity, num in enumerate((num0, np.subtract(total, num0, out=total))):
        prob = float(np.trace(num).real)
        if prob < 1e-14:
            raise BranchError(f"branch {parity} has probability {prob}")
        branches.append(BinaryBranch(prob, MixedState.formed(layout, np.divide(num, prob, out=num))))
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
    if not isinstance(inject, PureState):
        inject = PureState(layout_of(((SYS, np.size(inject)),)), inject)
    if inject.dim != program.in_dim:
        raise DimensionError(
            f"inject dim {inject.dim} does not match program in-port {program.in_dim}"
        )
    psi, (d, i) = inject.amplitudes, (program.out_dim, program.in_dim)
    num0 = np.einsum("oipj,i,j->op", program.density().reshape(d, i, d, i), psi, psi.conj())
    return _branches(num0, program.marginal(OUT), layout_of(((SYS, d),)))


def _bell_link(p1: ChoiProgram, p2: ChoiProgram) -> tuple[np.ndarray, np.ndarray]:
    """One pair's trivial numerator and traced total on (p2 out, p1 in).

    With p1's state read as J1[x, i, y, j] and p2's as J2[o, x, p, y], the
    trivial numerator is einsum("xiyj,oxpy->oipj", J1, J2) / d for the linked
    dimension d: one matrix product over the linked indices (x, y). The
    traced total contracts them with vec(1) on each side instead, which is
    p2's out-port marginal ox p1's in-port marginal.
    """
    x, i, o = p1.out_dim, p1.in_dim, p2.out_dim
    j1 = p1.density().reshape(x, i, x, i).transpose(1, 3, 0, 2).reshape(i * i, x * x)
    j2 = p2.density().reshape(o, x, o, x).transpose(1, 3, 0, 2).reshape(x * x, o * o)
    trace = np.eye(x).reshape(-1)
    links = (j1 @ j2) / x, np.outer(j1 @ trace, trace @ j2)
    return tuple(m.reshape(i, i, o, o).transpose(2, 0, 3, 1).reshape(o * i, o * i) for m in links)


def _bell_layer(
    pairs: Sequence[tuple[ChoiProgram, ChoiProgram]], names: Sequence[str]
) -> tuple[BinaryBranch, BinaryBranch]:
    """Binary Bell measurement of each pair (p1, p2)'s p1 out port against
    its p2 in port: the link product of program states. The trivial outcome,
    every pair's |omega><omega| at once, leaves each composite (p2 after p1)
    on (p2 out, p1 in), renamed to ``names``; an in port of dimension 1 is
    dropped. Both the projector and the state factor by pair, so each branch
    is the Kronecker product of the pairs' `_bell_link` results: no product
    of the pairs' states and no projector on it is formed. The kept layout's
    capacity is checked before any array is.
    """
    dims = []
    for k, (p1, p2) in enumerate(pairs):
        if p1.out_dim != p2.in_dim:
            raise DimensionError(f"cannot join pair {k}: out {p1.out_dim} vs in {p2.in_dim}")
        dims += [p2.out_dim, p1.in_dim] if p1.in_dim > 1 else [p2.out_dim]
    layout = layout_of(tuple(zip(names, dims)))
    _check_entries(layout.total_dim**2)
    links = [_bell_link(p1, p2) for p1, p2 in pairs]
    num0, total = (functools.reduce(np.kron, parts) for parts in zip(*links))
    return _branches(num0, total, layout)


def _as_program(state: PureState | MixedState | np.ndarray) -> ChoiProgram:
    """``state`` as a program with a 1-dimensional in port. A raw vector v is
    held to |<v|v> - 1| <= 1e-8 (`MixedState`'s trace bound), a raw matrix is
    checked as `MixedState` checks it, and a state was checked when made."""
    if isinstance(state, (PureState, MixedState)):
        mat = state.density() if isinstance(state, PureState) else state.matrix
        return ChoiProgram(MixedState.formed(program_layout(len(mat), 1), mat))
    mat = as_complex(state)
    if mat.ndim == 1:
        norm2 = float(np.vdot(mat, mat).real)
        if not abs(norm2 - 1.0) <= 1e-8:
            raise StateValidationError(f"state vector squared norm {norm2} is not 1")
        return ChoiProgram(MixedState.formed(program_layout(len(mat), 1), projector(mat)))
    return ChoiProgram(MixedState(program_layout(len(mat), 1), mat))


def oqt_step(
    program: ChoiProgram, system: PureState | MixedState | np.ndarray
) -> tuple[BinaryBranch, BinaryBranch]:
    """One oblivious teleportation step.

    The binary Bell measurement {|omega><omega|, complement} on (system,
    in port) either teleports the system through the program (the first
    branch, parity 0, probability 1/d^2) or leaves the complement state
    (d - U rho U^dag) / (d^2 - 1) on the out port (parity 1).
    """
    return _bell_layer([(_as_program(system), program)], [SYS])


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


def parity_weights(d: int, n: int) -> np.ndarray:
    """c_s = (-1)^s / (d^2-1)^s for s = 0..n, the target's weight in the
    chain closed form alpha_s * I + c_s * target with alpha_s = (1 - c_s) / d.
    It underflows to 0 where (d^2-1)^s would overflow."""
    return (-1.0 / (d * d - 1)) ** np.arange(n + 1)


def parity_inverted(values: np.ndarray, s: np.ndarray, d: int, trace: float = 1.0) -> np.ndarray:
    """(-1)^s (d^2-1)^s (m - alpha_s tr O) per record: the chain closed form
    inverted for tr(O target), with ``values`` the records' m (an
    expectation or an eigenvalue of O) and ``trace`` tr O. Raises
    EstimationError where (d^2-1)^s is not a finite float64."""
    counts = np.arange(int(s.max(initial=0)) + 1)
    with np.errstate(over="ignore"):
        base = ((-1.0) ** counts) * float(d * d - 1) ** counts
    if not np.isfinite(base[-1]):
        raise EstimationError(
            f"no finite estimate: (d^2-1)^s overflows float64 at s = {counts[-1]}, d = {d}"
        )
    alpha = np.array([parity_mix_alpha(int(v), d) for v in counts])
    return base[s] * (values - alpha[s] * trace)


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of ``values`` (one per shot or record) and its standard
    error (0 for one value; NaN and 0 for none)."""
    n = len(values)
    if n == 0:
        return np.nan, 0.0
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), stderr


def _law_patterns(cdfs, rng: np.random.Generator, shots: int) -> np.ndarray:
    """``shots`` outcome patterns of steps whose laws are fixed whatever came
    before, ``cdfs[t]`` being step t's CDF without its final 1 (a binary
    step's is its edge, the probability of 0). Step t draws its own
    ``rng.random(shots)``, in step order, and each shot takes the number of
    the step's edges at or below its uniform: ``rng.choice(n_t, size=shots,
    p=law_t)`` per step, for a CDF formed as ``rng.choice`` forms it. A
    binary step compares its uniforms with its edge: four binary steps of
    25,000 shots took 3.9x as long through ``np.searchsorted`` (numpy 2.4)."""
    cdfs = [np.atleast_1d(c) for c in cdfs]
    top = max((len(c) for c in cdfs), default=1)
    patterns = np.empty((shots, len(cdfs)), dtype=np.promote_types(np.int16, np.min_scalar_type(top)))
    for t, c in enumerate(cdfs):
        u = rng.random(shots)
        patterns[:, t] = u >= c[0] if len(c) == 1 else np.searchsorted(c, u, side="right")
    return patterns


@dataclass(frozen=True)
class OqtRecordBatch:
    """Vectorized stand-in for a list of OqtRecords sharing one chain."""

    parity_bits: np.ndarray  # (shots, n) int8
    s: np.ndarray  # (shots,) int
    states_by_s: dict[int, MixedState]

    def __len__(self) -> int:
        return int(self.s.shape[0])


def check_square_ports(programs: Sequence[ChoiProgram], d: int) -> None:
    """Refuse a program whose in or out port is not ``d``-dimensional."""
    if any(prog.in_dim != d or prog.out_dim != d for prog in programs):
        raise DimensionError(f"program ports must match the system dimension {d}")


def check_unital(programs: Sequence[ChoiProgram], d: int) -> None:
    """Refuse a program without square ``d``-dimensional ports
    (DimensionError) or whose out-port marginal is further than 1e-8 from
    I/d, the in-port bound of `ChoiProgram` (StateValidationError): the
    parity law holds for unital programs only."""
    check_square_ports(programs, d)
    for k, prog in enumerate(programs):
        if np.abs(prog.marginal(OUT) - np.eye(d) / d).max() > 1e-8:
            raise StateValidationError(
                f"program {k} is not unital: branch states with equal parity sum diverged"
            )


def oqt_sample_records(
    programs: Sequence[ChoiProgram],
    system: PureState | MixedState | np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> OqtRecordBatch:
    """Draw many parity trails of a chain of unital programs at once.

    Each program must pass `check_unital` at the system's dimension d. A
    link's trivial outcome then has probability 1/d^2 for any input, so
    one `oqt_step` per link simulates the all-trivial path only, and
    `_law_patterns` draws each link's bits with the edge of its CDF as
    ``rng.choice`` forms it. The state after s odd parities is the closed
    form of `parity_mix_alpha` on that path's state.
    """
    if shots < 1:
        raise EstimationError(f"shots must be positive, got {shots}")
    rho = _as_program(system).state
    d = rho.dim
    check_unital(programs, d)
    edges = np.empty(len(programs))
    for k, prog in enumerate(programs):
        b0, b1 = oqt_step(prog, rho)
        total = b0.probability + b1.probability
        head, tail = b0.probability / total, b1.probability / total
        edges[k] = head / (head + tail)
        rho = b0.post_state
    bits = _law_patterns(edges, rng, shots).astype(np.int8)
    states = {
        s: MixedState.formed(layout_of(((SYS, d),)), (1.0 - c) / d * np.eye(d) + c * rho.matrix)
        for s, c in enumerate(parity_weights(d, len(programs)).tolist())
    }
    return OqtRecordBatch(bits, bits.sum(axis=1), states)


def oqt_estimate_observable(
    batch: OqtRecordBatch,
    observable: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Unbiased estimate of tr(O U rho U^dag) from the parity records of
    `oqt_sample_records`.

    Each record contributes `parity_inverted` of its m. With ``rng`` the
    value m is a sampled eigenvalue of O measured on the record's final
    state; without it m is the exact expectation (a zero-variance variant).
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
    return mean_stderr(parity_inverted(values, batch.s, d, tr_obs))


# ---------------------------------------------------------------------------
# Multi-party binary Bell measurement and local parity statistics.
# ---------------------------------------------------------------------------


def multiparty_binary_bell(
    parts: Sequence[tuple[ChoiProgram, PureState | MixedState | np.ndarray]],
) -> tuple[BinaryBranch, BinaryBranch]:
    """Joint binary Bell measurement across several (program, system) pairs.

    The trivial outcome is the product of all local trivial projectors; its
    branch teleports system k onto ``out{k}``, all at once. The complement
    lumps every other local pattern into a single parity-1 branch.
    """
    if not parts:
        raise DimensionError("need at least one (program, system) part")
    pairs = [(_as_program(system), prog) for prog, system in parts]
    return _bell_layer(pairs, [f"out{k}" for k in range(len(parts))])


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
    """Sample each part's local binary Bell outcome independently per shot
    (`_law_patterns`, one step per part).

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
    bits = _law_patterns(p0s, rng, shots)
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
    """SWAP on two dim-dimensional registers: the identity with its row factors exchanged."""
    return np.eye(dim * dim).reshape((dim,) * 4).transpose(1, 0, 2, 3).reshape(dim * dim, dim * dim)


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
