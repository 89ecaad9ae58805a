"""Multi-party protocol simulation with explicit resource accounting.

Parties own registers; the engine refuses any operation that would couple
registers held by different parties, so entanglement can only spread through
explicitly distributed ebits.  Every run produces a ResourceLedger counting
ebits, broadcast bits, oblivious-teleportation events, byproduct corrections
and forced temporal layers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import ChoiProgram, unitary_of_choi
from .errors import (
    BranchError,
    CapacityError,
    DimensionError,
    DuplicateLabelError,
    EstimationError,
    LocalityError,
    ResourceError,
    StateValidationError,
)
from .gates import CNOT, X, Z
from .oblivious import (
    GeneralizedPauliBasis,
    OqtRecord,
    bell_projector,
    parity_mix_alpha,
)
from .qmath import (
    MAX_STATE_DIM,
    RegisterLayout,
    apply_on_targets,
    as_complex,
    embed_operator,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    is_hermitian,
    is_unitary,
    partial_trace,
    projector,
)
from .states import MixedState, PureState, bell_state

# Knowledge sets per protocol (metadata tags only; no security assertions).
# "|x>" marks a held quantum object, "[x]" a classical description.
PROTOCOL_KNOWLEDGE = {
    "OT": {
        "user": ("|psi_in>", "[psi_in]", "|psi_o>", "[psi_o]"),
        "server": ("U", "[U]"),
    },
    "BQC": {
        "user": ("|psi_in>", "[psi_in]", "|psi_o>", "[psi_o]", "[U]"),
        "server": ("U",),
    },
    "QvN": {
        "user": ("|psi_in>", "[psi_in]", "|psi_o>", "[psi_o]", "|U>"),
        "server": ("U", "[U]"),
    },
    "DBQC": {
        "user": ("|psi_in>", "[psi_in]", "|U_in>"),
        "server": ("|psi_o>", "[psi_o]", "|U_o>"),
    },
    "DQC": {
        "user": ("|psi_in>", "[psi_in]", "|U_in>", "[U_in]"),
        "server": ("|psi_o>", "[psi_o]", "|U_o>", "[U_o]"),
    },
}


@dataclass
class Party:
    """A protocol participant and what it holds at the start of a run.

    ``programs`` and ``states`` are ordered holdings consumed by the runners;
    ``descriptions`` and ``knowledge`` are classical metadata tags (see
    PROTOCOL_KNOWLEDGE).  ``ebit_endpoints`` lists resource ids endowed before
    the run; the engine tracks ids it creates itself separately.
    """

    name: str
    programs: list = field(default_factory=list)
    states: list = field(default_factory=list)
    descriptions: tuple = ()
    knowledge: tuple = ()
    ebit_endpoints: tuple = ()


@dataclass
class ResourceLedger:
    """Aggregated protocol cost counters.

    ``qt_corrections`` counts byproduct-correction events; an event is counted
    even when the sampled byproduct happens to be the identity, so the ledger
    does not depend on measurement outcomes.  ``depth`` counts temporally
    ordered layers: order is forced only by corrections or by sequential
    block reuse, never by parity announcements.
    """

    ebits_consumed: int = 0
    classical_bits_sent: int = 0
    oqt_ops: int = 0
    qt_corrections: int = 0
    knit_overhead: float = 1.0
    max_live_registers: int = 0
    depth: int = 0

    def validate(self) -> None:
        counters = (
            self.ebits_consumed,
            self.classical_bits_sent,
            self.oqt_ops,
            self.qt_corrections,
            self.max_live_registers,
            self.depth,
        )
        if any(c < 0 for c in counters) or self.knit_overhead < 1.0:
            raise ResourceError(f"invalid ledger {self}")

    def as_dict(self) -> dict:
        return {
            "ebits_consumed": self.ebits_consumed,
            "classical_bits_sent": self.classical_bits_sent,
            "oqt_ops": self.oqt_ops,
            "qt_corrections": self.qt_corrections,
            "knit_overhead": self.knit_overhead,
            "max_live_registers": self.max_live_registers,
            "depth": self.depth,
        }


# --- protocol script (structured step descriptions) ---


@dataclass(frozen=True)
class PrepareState:
    party: str
    label: str
    dim: int


@dataclass(frozen=True)
class PrepareProgram:
    party: str
    out_label: str
    in_label: str


@dataclass(frozen=True)
class DistributeEbit:
    party_a: str
    party_b: str
    resource: int
    dim: int = 2


@dataclass(frozen=True)
class IsiInject:
    party: str
    in_label: str


@dataclass(frozen=True)
class OqtLink:
    party_from: str
    party_to: str
    resource: int | None = None


@dataclass(frozen=True)
class BellMeasureQT:
    party: str
    resource: int


@dataclass(frozen=True)
class PauliCorrect:
    party: str
    label: str


@dataclass(frozen=True)
class RemoteCnot:
    control_party: str
    target_party: str
    resource: int


@dataclass(frozen=True)
class LocalGate:
    party: str
    labels: tuple


@dataclass(frozen=True)
class KnitCut:
    gate_index: int


@dataclass(frozen=True)
class FinalMeasure:
    party: str
    labels: tuple


@dataclass(frozen=True)
class Broadcast:
    party: str
    bits: int


@dataclass(frozen=True)
class ProtocolScript:
    """Ordered step description of a protocol run.

    Validation checks resource bookkeeping only; execution is done by the
    dedicated runners, which emit the script they actually followed.
    """

    steps: tuple

    def validate(self, holdings: dict[str, tuple] | None = None) -> None:
        distributed: set[int] = set()
        used: set[int] = set()
        held = {p: set(labs) for p, labs in (holdings or {}).items()}
        for step in self.steps:
            if isinstance(step, DistributeEbit):
                if step.resource in distributed:
                    raise ResourceError(f"ebit {step.resource} distributed twice")
                distributed.add(step.resource)
            elif isinstance(step, (BellMeasureQT, RemoteCnot)) or (
                isinstance(step, OqtLink) and step.resource is not None
            ):
                rid = step.resource
                if rid not in distributed:
                    raise ResourceError(f"ebit {rid} was never distributed")
                if rid in used:
                    raise ResourceError(f"ebit {rid} already consumed")
                used.add(rid)
            elif isinstance(step, (PrepareState, PrepareProgram)):
                labs = (
                    (step.label,)
                    if isinstance(step, PrepareState)
                    else (step.out_label, step.in_label)
                )
                held.setdefault(step.party, set()).update(labs)
            elif isinstance(step, FinalMeasure):
                missing = [l for l in step.labels if l not in held.get(step.party, set())]
                if missing:
                    raise LocalityError(
                        f"{step.party} does not hold measured registers {missing}"
                    )


class _EbitEntry:
    __slots__ = ("regs", "used")

    def __init__(self, regs):
        self.regs = tuple(regs)
        self.used = False


class ProtocolEngine:
    """Density-matrix simulator with per-party register ownership.

    All multi-register operations require a single owner.  Cross-party
    correlations can only be created by `distribute_ebit` or `transport`,
    which move a register to a new owner and register an entanglement
    resource id for the ledger's conservation check.
    """

    def __init__(self, *parties: Party | str):
        self.parties: dict[str, Party] = {}
        for p in parties:
            party = p if isinstance(p, Party) else Party(str(p))
            if party.name in self.parties:
                raise DuplicateLabelError(f"duplicate party {party.name!r}")
            self.parties[party.name] = party
        self._layout = RegisterLayout(())
        self._owner: dict[str, str] = {}
        self._state = np.ones((1, 1), dtype=complex)
        self._ebits: dict[int, _EbitEntry] = {}
        self._distributed = 0
        self.ledger = ResourceLedger()

    # -- layout plumbing --

    @property
    def layout(self) -> RegisterLayout:
        return self._layout

    @property
    def live_registers(self) -> int:
        return len(self._layout)

    def owner(self, label: str) -> str:
        if label not in self._owner:
            raise LocalityError(f"no live register {label!r}")
        return self._owner[label]

    def state(self) -> np.ndarray:
        return self._state.copy()

    def reduced(self, labels) -> np.ndarray:
        return partial_trace(self._state, list(labels), self.layout)

    def _probabilities(self, party: Party | str, ops, labels) -> np.ndarray:
        """tr(P rho_labels) for each operator P on the registers ``labels``."""
        self._check_owned(party, labels)
        reduced = self.reduced(labels)
        if any(p.shape != reduced.shape for p in ops):
            raise DimensionError(f"operator shapes do not match the registers {list(labels)}")
        return np.array([np.einsum("ij,ji->", p, reduced).real for p in ops])

    def _touch(self) -> None:
        if self.ledger.depth == 0:
            self.ledger.depth = 1

    def force_layer(self) -> None:
        self._touch()
        self.ledger.depth += 1

    def _party(self, party: Party | str) -> str:
        name = party.name if isinstance(party, Party) else party
        if name not in self.parties:
            raise LocalityError(f"unknown party {name!r}")
        return name

    def _check_owned(self, party: Party | str, labels) -> str:
        name = self._party(party)
        for lab in labels:
            own = self.owner(lab)
            if own != name:
                raise LocalityError(f"register {lab!r} is held by {own!r}, not {name!r}")
        return name

    def _append_block(self, regs_with_owner, block: np.ndarray) -> None:
        for lab, _, _ in regs_with_owner:
            if lab in self._owner:
                raise DuplicateLabelError(f"register {lab!r} already live")
        new_dim = self._state.shape[0] * block.shape[0]
        if new_dim > MAX_STATE_DIM:
            raise CapacityError(
                f"joint dimension {new_dim} exceeds the cap {MAX_STATE_DIM}"
            )
        self._state = np.kron(self._state, as_complex(block))
        self._layout = RegisterLayout(
            self._layout.regs + tuple((lab, dim) for lab, dim, _ in regs_with_owner)
        )
        for lab, _, owner in regs_with_owner:
            self._owner[lab] = owner
        self.ledger.max_live_registers = max(
            self.ledger.max_live_registers, len(self._layout)
        )
        self._touch()

    # -- allocation and movement --

    def alloc(self, party: Party | str, label: str, state) -> None:
        name = self._party(party)
        if isinstance(state, PureState):
            block = projector(state.amplitudes)
        elif isinstance(state, MixedState):
            block = state.matrix
        else:
            arr = as_complex(np.asarray(state))
            block = projector(arr) if arr.ndim == 1 else arr
        self._append_block([(label, block.shape[0], name)], block)

    def alloc_program(
        self,
        party: Party | str,
        program: ChoiProgram,
        out_label: str,
        in_labels,
    ) -> None:
        """Allocate a program state; in_labels is a label or (label, dim) list."""
        name = self._party(party)
        if isinstance(in_labels, str):
            in_regs = [(in_labels, program.in_dim)]
        else:
            in_regs = [(lab, dim) for lab, dim in in_labels]
        if math.prod(d for _, d in in_regs) != program.in_dim:
            raise DimensionError("in-port register dims do not factor the in dimension")
        regs = [(out_label, program.out_dim, name)]
        regs += [(lab, dim, name) for lab, dim in in_regs]
        self._append_block(regs, program.density())

    def distribute_ebit(
        self, party_a: Party | str, party_b: Party | str, label_a: str, label_b: str, d: int = 2
    ) -> int:
        na, nb = self._party(party_a), self._party(party_b)
        pair = bell_state(d)
        block = projector(pair.amplitudes)
        self._append_block([(label_a, d, na), (label_b, d, nb)], block)
        return self._register_ebit((label_a, label_b))

    def transport(self, label: str, to_party: Party | str, count_as_ebit: bool = True) -> int | None:
        """Physically send a live register to another party.

        Sending one half of an entangled pair is the generic way entanglement
        gets distributed, so by default the move registers an ebit resource.
        """
        self.owner(label)
        self._owner[label] = self._party(to_party)
        if count_as_ebit:
            return self._register_ebit((label,))
        return None

    def _register_ebit(self, regs) -> int:
        eid = self._distributed
        self._distributed += 1
        self._ebits[eid] = _EbitEntry(regs)
        return eid

    def consume_ebit(self, eid: int) -> None:
        entry = self._ebits.get(eid)
        if entry is None:
            raise ResourceError(f"ebit {eid} was never distributed")
        if entry.used:
            raise ResourceError(f"ebit {eid} already consumed")
        entry.used = True
        self.ledger.ebits_consumed += 1

    @property
    def ebits_distributed(self) -> int:
        return self._distributed

    @property
    def ebits_unused(self) -> int:
        return sum(1 for e in self._ebits.values() if not e.used)

    def ebits_conserved(self) -> bool:
        return self.ledger.ebits_consumed == self._distributed - self.ebits_unused

    def discard(self, labels) -> None:
        labels = list(labels)
        layout = self.layout
        for lab in labels:
            layout.index(lab)
        keep = [lab for lab in layout.labels if lab not in set(labels)]
        if keep:
            self._state = partial_trace(self._state, keep, layout)
        else:
            self._state = np.array([[np.trace(self._state)]], dtype=complex)
        self._layout = layout.subset(keep)
        for lab in labels:
            del self._owner[lab]

    # -- dynamics --

    def apply_local(self, party: Party | str, matrix: np.ndarray, labels) -> None:
        self._check_owned(party, labels)
        self._state = apply_on_targets(
            matrix, self._state, list(labels), self.layout, conjugate=True
        )
        self._touch()

    def broadcast(self, bits: int) -> None:
        self.ledger.classical_bits_sent += int(bits)
        self._touch()

    def record_oqt(self) -> None:
        self.ledger.oqt_ops += 1

    def measure_binary(
        self,
        party: Party | str,
        p0: np.ndarray,
        labels,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """Two-outcome measurement {p0, 1-p0} on co-located registers.

        Returns (bit, probability of that bit).  Exactly one of rng / forced
        selects the branch.
        """
        p0 = as_complex(p0)
        if p0.ndim != 2 or p0.shape[0] != p0.shape[1]:
            raise DimensionError(f"projector shape {p0.shape} is not square")
        return self._project(party, [p0, np.eye(p0.shape[0]) - p0], labels, rng, forced)

    def probability(self, party: Party | str, p0: np.ndarray, labels) -> float:
        """Branch-0 probability of {p0, 1-p0} without collapsing the state."""
        prob = self._probabilities(party, [as_complex(p0)], labels)[0]
        return float(np.clip(prob, 0.0, 1.0))

    def measure_projective(
        self,
        party: Party | str,
        projectors,
        labels,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        return self._project(party, [as_complex(p) for p in projectors], labels, rng, forced)

    def _project(self, party, projectors, labels, rng, forced) -> tuple[int, float]:
        """Outcome probabilities come from the state reduced to ``labels``;
        the chosen projector then acts on those registers' axes only."""
        if (rng is None) == (forced is None):
            raise EstimationError("pass exactly one of rng or forced")
        probs = np.clip(self._probabilities(party, projectors, labels), 0.0, None)
        total = probs.sum()
        if abs(total - 1.0) > 1e-8:
            raise StateValidationError(f"measurement probabilities sum to {total}")
        if forced is not None:
            idx = int(forced)
        else:
            idx = int(rng.choice(len(probs), p=probs / total))
        prob = probs[idx]
        if prob < 1e-14:
            raise BranchError(f"measurement branch {idx} has vanishing probability")
        p = projectors[idx]
        self._state = apply_on_targets(p, self._state, list(labels), self.layout, conjugate=True)
        self._state /= prob
        self._touch()
        return idx, float(prob)


# --- teleportation primitives ---


def teleport_state(
    engine: ProtocolEngine,
    state_label: str,
    ebit: int,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[str, int]:
    """Teleport a register through a distributed ebit.

    The joint measurement uses the basis (sigma_i x I)|omega>, after which the
    destination holds sigma_i^dag psi; the correction is sigma_i.  Returns
    (destination label, byproduct index).
    """
    entry = engine._ebits.get(ebit)
    if entry is None:
        raise ResourceError(f"ebit {ebit} was never distributed")
    if entry.used:
        raise ResourceError(f"ebit {ebit} already consumed")
    if len(entry.regs) != 2:
        raise ResourceError("teleportation needs a two-register ebit")
    ea, eb = entry.regs
    source = engine.owner(state_label)
    if engine.owner(ea) != source:
        ea, eb = eb, ea
    engine._check_owned(source, [state_label, ea])
    dest = engine.owner(eb)
    d = engine.layout.dim(state_label)
    if engine.layout.dim(ea) != d:
        raise DimensionError("ebit dimension does not match the state register")
    basis = GeneralizedPauliBasis(d)
    omega = bell_state(d).amplitudes
    projs = [projector(np.kron(sig, np.eye(d)) @ omega) for sig in basis.operators]
    idx, _ = engine.measure_projective(source, projs, [state_label, ea], rng, forced)
    engine.consume_ebit(ebit)
    engine.broadcast(2 * math.ceil(math.log2(d)))
    engine.discard([state_label, ea])
    engine.apply_local(dest, basis.operators[idx], [eb])
    engine.ledger.qt_corrections += 1
    engine.force_layer()
    return eb, idx


def remote_controlled_gate(
    engine: ProtocolEngine,
    control_label: str,
    target_label: str,
    ebit: int,
    gate: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    forced: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Apply a controlled gate across two parties through one ebit.

    Cat-entangler construction: CNOT the control onto the local ebit half,
    Z-measure it (outcome m1, correction X^m1 on the remote half), apply the
    controlled gate locally at the target side, X-measure the remote half
    (outcome m2, correction Z^m2 on the control).  Both corrections count as
    byproduct events regardless of outcome.
    """
    gate = X if gate is None else as_complex(gate)
    entry = engine._ebits.get(ebit)
    if entry is None:
        raise ResourceError(f"ebit {ebit} was never distributed")
    if entry.used:
        raise ResourceError(f"ebit {ebit} already consumed")
    ea, eb = entry.regs
    pa = engine.owner(control_label)
    if engine.owner(ea) != pa:
        ea, eb = eb, ea
    pa = engine._check_owned(pa, [control_label, ea])
    pb = engine._check_owned(engine.owner(target_label), [target_label, eb])
    if engine.layout.dim(control_label) != 2 or engine.layout.dim(ea) != 2:
        raise DimensionError("the cat-entangler control and ebit must be qubits")
    if gate.shape != (engine.layout.dim(target_label),) * 2 or not is_unitary(gate):
        raise StateValidationError("the controlled gate must be unitary on the target")
    f1 = f2 = None
    if forced is not None:
        f1, f2 = forced
    rng1 = rng if forced is None else None

    engine.apply_local(pa, CNOT, [control_label, ea])
    m1, _ = engine.measure_binary(pa, np.diag([1.0, 0.0]), [ea], rng1, f1)
    engine.broadcast(1)
    engine.apply_local(pb, np.linalg.matrix_power(X, m1), [eb])
    engine.ledger.qt_corrections += 1
    engine.force_layer()

    ctrl = np.block(
        [
            [np.eye(gate.shape[0]), np.zeros_like(gate)],
            [np.zeros_like(gate), gate],
        ]
    ).astype(complex)
    engine.apply_local(pb, ctrl, [eb, target_label])

    plus = np.full((2, 2), 0.5, dtype=complex)
    m2, _ = engine.measure_binary(pb, plus, [eb], rng1, f2)
    engine.broadcast(1)
    engine.apply_local(pa, np.linalg.matrix_power(Z, m2), [control_label])
    engine.ledger.qt_corrections += 1
    engine.force_layer()

    engine.consume_ebit(ebit)
    engine.discard([ea, eb])
    return m1, m2


def remote_cnot(
    engine: ProtocolEngine,
    control_label: str,
    target_label: str,
    ebit: int,
    rng: np.random.Generator | None = None,
    forced: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Nonlocal CNOT consuming one ebit and two broadcast bits."""
    return remote_controlled_gate(engine, control_label, target_label, ebit, X, rng, forced)


# --- distributed black-box quantum computing ---


def check_path_probabilities(probs: np.ndarray) -> np.ndarray:
    """The branch-pattern distribution `probs`, after checking it sums to 1.

    The division only absorbs rounding. A sum further than 1e-9 from 1 means
    a forced pass reported a wrong path probability, so it raises instead of
    renormalizing the error away.
    """
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise BranchError(f"branch path probabilities sum to {total:.12g}, not 1")
    return probs / total


@dataclass(frozen=True)
class DbqcResult:
    estimate: float
    stderr: float
    ledger: ResourceLedger
    shots: int
    isi_bits: np.ndarray
    parity_bits: np.ndarray
    readout_bits: np.ndarray
    per_shot: np.ndarray


def _dbqc_forced(alice: Party, bob: Party, pattern) -> tuple[float, float, ProtocolEngine]:
    """One fully forced pipeline pass; returns (path probability, P(y=0), engine)."""
    psi_in: PureState = alice.states[0]
    psi_o: PureState = bob.states[0]
    d = psi_in.dim
    eng = ProtocolEngine(alice.name, bob.name)
    bits = iter(pattern)
    path_prob = 1.0

    eng.alloc_program(alice.name, alice.programs[0], "a_out_0", "a_in_0")
    p0 = projector(np.conj(psi_in.amplitudes))
    b, pb = eng.measure_binary(alice.name, p0, ["a_in_0"], forced=next(bits))
    path_prob *= pb
    eng.broadcast(1)
    eng.discard(["a_in_0"])
    current = "a_out_0"

    def link(party: str, other_label: str) -> None:
        nonlocal path_prob, current
        t, pt = eng.measure_binary(
            party, bell_projector(d), [other_label, current], forced=next(bits)
        )
        path_prob *= pt
        eng.broadcast(1)
        eng.record_oqt()
        eng.discard([other_label, current])

    for k, prog in enumerate(alice.programs[1:], start=1):
        eng.alloc_program(alice.name, prog, f"a_out_{k}", f"a_in_{k}")
        link(alice.name, f"a_in_{k}")
        current = f"a_out_{k}"

    eid = eng.distribute_ebit(alice.name, bob.name, "e_a", "e_b", d)
    t, pt = eng.measure_binary(
        alice.name, bell_projector(d), [current, "e_a"], forced=next(bits)
    )
    path_prob *= pt
    eng.broadcast(1)
    eng.record_oqt()
    eng.consume_ebit(eid)
    eng.discard([current, "e_a"])
    current = "e_b"

    for k, prog in enumerate(bob.programs):
        eng.alloc_program(bob.name, prog, f"b_out_{k}", f"b_in_{k}")
        link(bob.name, f"b_in_{k}")
        current = f"b_out_{k}"

    q = eng.probability(bob.name, projector(psi_o.amplitudes), [current])
    eng.broadcast(1)
    return path_prob, q, eng


def run_dbqc(
    alice: Party, bob: Party, shots: int, rng: np.random.Generator
) -> DbqcResult:
    """Two-party black-box pipeline: ISI at Alice, ebit OQT link, Bob's programs.

    Estimates |<psi_o| U_bob... U_alice... |psi_in>|^2 without either party
    learning the other's program.  The per-shot estimator inverts the parity
    mixing exactly, so the average is unbiased over every branch pattern.
    """
    if shots < 1:
        raise EstimationError("shots must be positive")
    if not alice.programs or not bob.programs:
        raise ResourceError("both parties need at least one program")
    if not alice.states or not bob.states:
        raise ResourceError("alice needs an input state, bob a readout state")
    d = alice.states[0].dim
    for prog in alice.programs + bob.programs:
        if prog.in_dim != d or prog.out_dim != d:
            raise DimensionError("program ports must match the input dimension")

    n_links = len(alice.programs) + len(bob.programs)
    n_bits = 1 + n_links
    patterns = list(itertools.product((0, 1), repeat=n_bits))
    probs = np.empty(len(patterns))
    qvals = np.empty(len(patterns))
    ledger = None
    for i, pat in enumerate(patterns):
        p, q, eng = _dbqc_forced(alice, bob, pat)
        probs[i] = p
        qvals[i] = q
        if not eng.ebits_conserved():
            raise ResourceError("ebit conservation violated")
        if ledger is None:
            ledger = eng.ledger
    probs = check_path_probabilities(probs)

    pat_arr = np.array(patterns, dtype=np.int8)
    svec = pat_arr[:, 1:].sum(axis=1)
    base = ((-1.0) ** svec) * float(d * d - 1) ** svec
    alpha = np.array([parity_mix_alpha(int(s), d) for s in svec])

    idx = rng.choice(len(patterns), size=shots, p=probs)
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    hit = (y == 0).astype(float)
    inv = base[idx] * (hit - alpha[idx])
    b = pat_arr[idx, 0]
    t_hat = np.where(b == 0, inv, 1.0 - (d - 1) * inv)

    estimate = float(t_hat.mean())
    stderr = float(t_hat.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return DbqcResult(
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        isi_bits=b.copy(),
        parity_bits=pat_arr[idx, 1:].copy(),
        readout_bits=y,
        per_shot=t_hat,
    )


# --- tri-party schemes ---


@dataclass(frozen=True)
class TripartyResult:
    scheme: str
    estimate: float
    stderr: float
    ledger: ResourceLedger
    shots: int
    kept: int
    bits: dict


def _triparty_scheme1_forced(
    a: Party, b: Party, c: Party, pattern
) -> tuple[float, float, ProtocolEngine]:
    psi_a: PureState = a.states[0]
    psi_b: PureState = b.states[0]
    psi_o: PureState = c.states[0]
    da, db = psi_a.dim, psi_b.dim
    ba, bb, i, j = pattern
    eng = ProtocolEngine(a.name, b.name, c.name)
    path_prob = 1.0

    eng.alloc_program(
        c.name, c.programs[0], "c_out", [("c_in1", da), ("c_in2", db)]
    )
    e1 = eng.transport("c_in1", a.name)
    e2 = eng.transport("c_in2", b.name)

    def isi(party: Party, psi: PureState, out: str, inp: str, bit: int) -> float:
        eng.alloc_program(party.name, party.programs[0], out, inp)
        p0 = projector(np.conj(psi.amplitudes))
        _, pb = eng.measure_binary(party.name, p0, [inp], forced=bit)
        eng.broadcast(1)
        eng.discard([inp])
        return pb

    path_prob *= isi(a, psi_a, "a_out", "a_in", ba)
    path_prob *= isi(b, psi_b, "b_out", "b_in", bb)

    _, pi = eng.measure_binary(a.name, bell_projector(da), ["a_out", "c_in1"], forced=i)
    path_prob *= pi
    eng.broadcast(1)
    eng.record_oqt()
    eng.consume_ebit(e1)
    eng.discard(["a_out", "c_in1"])

    _, pj = eng.measure_binary(b.name, bell_projector(db), ["b_out", "c_in2"], forced=j)
    path_prob *= pj
    eng.broadcast(1)
    eng.record_oqt()
    eng.consume_ebit(e2)
    eng.discard(["b_out", "c_in2"])

    q = eng.probability(c.name, projector(psi_o.amplitudes), ["c_out"])
    eng.broadcast(1)
    return path_prob, q, eng


def _run_triparty_scheme1(
    a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator
) -> TripartyResult:
    da, db = a.states[0].dim, b.states[0].dim
    patterns = list(itertools.product((0, 1), repeat=4))
    probs = np.empty(len(patterns))
    qvals = np.empty(len(patterns))
    ledger = None
    for n, pat in enumerate(patterns):
        p, q, eng = _triparty_scheme1_forced(a, b, c, pat)
        probs[n] = p
        qvals[n] = q
        if not eng.ebits_conserved():
            raise ResourceError("ebit conservation violated")
        if ledger is None:
            ledger = eng.ledger
    probs = check_path_probabilities(probs)

    pat_arr = np.array(patterns, dtype=np.int8)
    idx = rng.choice(len(patterns), size=shots, p=probs)
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    ba, bb = pat_arr[idx, 0], pat_arr[idx, 1]
    i, j = pat_arr[idx, 2], pat_arr[idx, 3]
    k = np.maximum(i, j)

    keep = k == 0
    kept = int(keep.sum())
    if kept == 0:
        raise EstimationError("no all-zero parity shots; increase the shot budget")
    eta = np.where((ba == 0) & (bb == 0), 1.0, -1.0)
    t_hat = 0.5 * (1.0 + eta * da * db * (y == 0))
    t_kept = t_hat[keep]
    estimate = float(t_kept.mean())
    stderr = float(t_kept.std(ddof=1) / np.sqrt(kept)) if kept > 1 else 0.0
    return TripartyResult(
        scheme="I",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=kept,
        bits={"b_a": ba, "b_b": bb, "i": i, "j": j, "k": k.astype(np.int8), "y": y},
    )


def _controlled_block(program: ChoiProgram, db: int) -> np.ndarray:
    """Extract V from a controlled-gate program [[I, 0], [0, V]]."""
    u = unitary_of_choi(program)
    if u.shape[0] != 2 * db:
        raise DimensionError("nonlocal program does not act on control x target")
    top = u[:db, :db]
    off1 = u[:db, db:]
    off2 = u[db:, :db]
    if (
        np.abs(top - np.eye(db)).max() > 1e-9
        or np.abs(off1).max() > 1e-12
        or np.abs(off2).max() > 1e-12
    ):
        raise StateValidationError("scheme II expects a controlled nonlocal gate")
    return u[db:, db:]


def _triparty_scheme2_forced(
    a: Party, b: Party, gate: np.ndarray, psi_o: PureState, pattern
) -> tuple[float, float, ProtocolEngine]:
    m1, m2, tele = pattern
    eng = ProtocolEngine(a.name, b.name)
    eng.alloc(a.name, "qa", a.states[0])
    eng.alloc(b.name, "qb", b.states[0])
    for prog in a.programs:
        eng.apply_local(a.name, unitary_of_choi(prog), ["qa"])
    for prog in b.programs:
        eng.apply_local(b.name, unitary_of_choi(prog), ["qb"])

    e1 = eng.distribute_ebit(a.name, b.name, "e1a", "e1b")
    remote_controlled_gate(eng, "qa", "qb", e1, gate, forced=(m1, m2))

    e2 = eng.distribute_ebit(a.name, b.name, "e2a", "e2b")
    dest, _ = teleport_state(eng, "qa", e2, forced=tele)

    q = eng.probability(b.name, projector(psi_o.amplitudes), [dest, "qb"])
    eng.broadcast(1)
    return 0.5 * 0.5 * 0.25, q, eng


def _run_triparty_scheme2(
    a: Party, b: Party, c: Party | None, shots: int, rng: np.random.Generator
) -> TripartyResult:
    if c is not None and c.programs:
        nonlocal_prog = c.programs[0]
        psi_o = c.states[0]
    elif len(b.programs) >= 2:
        nonlocal_prog = b.programs[-1]
        psi_o = b.states[-1]
    else:
        raise ResourceError("scheme II needs the controlled-gate program at B or C")
    db = b.states[0].dim
    gate = _controlled_block(nonlocal_prog, db)
    b_local = replace(b, programs=b.programs[:-1]) if (c is None or not c.programs) else b

    patterns = list(itertools.product((0, 1), (0, 1), range(4)))
    qvals = np.empty(len(patterns))
    ledger = None
    for n, pat in enumerate(patterns):
        _, q, eng = _triparty_scheme2_forced(a, b_local, gate, psi_o, pat)
        qvals[n] = q
        if not eng.ebits_conserved():
            raise ResourceError("ebit conservation violated")
        if ledger is None:
            ledger = eng.ledger
    if np.ptp(qvals) > 1e-10:
        raise StateValidationError("byproduct paths disagree after correction")
    q = float(qvals.mean())

    pat_arr = np.array(patterns, dtype=np.int8)
    idx = rng.choice(len(patterns), size=shots)
    y = (rng.random(shots) >= q).astype(np.int8)
    t_hat = (y == 0).astype(float)
    estimate = float(t_hat.mean())
    stderr = float(t_hat.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return TripartyResult(
        scheme="II",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=shots,
        bits={
            "m1": pat_arr[idx, 0],
            "m2": pat_arr[idx, 1],
            "teleport": pat_arr[idx, 2],
            "y": y,
        },
    )


def run_triparty(
    scheme: str,
    a: Party,
    b: Party,
    c: Party | None,
    shots: int,
    rng: np.random.Generator,
) -> TripartyResult:
    """Distributed estimate of |<psi_o| U_c (U_a x U_b) |psi_a psi_b>|^2.

    Scheme I keeps the nonlocal program at station C and links both local
    branches to it with parity measurements; only all-zero total parity shots
    enter the estimate.  Scheme II declares the nonlocal gate as a controlled
    gate, realizes it with a cat-entangler and finishes with a teleportation,
    so every shot counts but byproduct corrections force temporal order.
    """
    if shots < 1:
        raise EstimationError("shots must be positive")
    if scheme == "I":
        if c is None or not c.programs:
            raise ResourceError("scheme I needs the nonlocal program at C")
        return _run_triparty_scheme1(a, b, c, shots, rng)
    if scheme == "II":
        return _run_triparty_scheme2(a, b, c, shots, rng)
    raise EstimationError(f"unknown scheme {scheme!r}")


# --- circuit knitting ---


@dataclass(frozen=True)
class KnitDecomposition:
    """Two-qudit gate expanded over the generalized Pauli product basis."""

    coefficients: np.ndarray
    one_norm: float
    overhead: float
    local_dim: int


def knit_decompose(u: np.ndarray, local_dim: int | None = None) -> KnitDecomposition:
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError("gate must be a square matrix")
    n = u.shape[0]
    d = int(round(math.sqrt(n))) if local_dim is None else int(local_dim)
    if d * d != n:
        raise DimensionError(f"dimension {n} is not a two-qudit product d*d")
    if not is_unitary(u):
        raise StateValidationError("knit decomposition expects a unitary gate")
    basis = GeneralizedPauliBasis(d)
    coeff = np.empty((d * d, d * d), dtype=complex)
    recon = np.zeros_like(u)
    for i, si in enumerate(basis.operators):
        for j, sj in enumerate(basis.operators):
            pair = np.kron(si, sj)
            coeff[i, j] = np.vdot(pair, u) / (d * d)
            recon = recon + coeff[i, j] * pair
    if np.abs(recon - u).max() > 1e-12:
        raise StateValidationError("basis reconstruction failed")
    one_norm = float(np.abs(coeff).sum())
    return KnitDecomposition(
        coefficients=coeff, one_norm=one_norm, overhead=one_norm**2, local_dim=d
    )


@dataclass(frozen=True)
class KnitGate:
    matrix: np.ndarray
    targets: tuple[int, ...]
    cut: bool = False


@dataclass(frozen=True)
class KnitCircuit:
    num_qudits: int
    gates: tuple[KnitGate, ...]
    local_dim: int = 2
    input_state: np.ndarray | None = None

    @property
    def layout(self) -> RegisterLayout:
        return RegisterLayout.of(
            *[(f"q{k}", self.local_dim) for k in range(self.num_qudits)]
        )

    def initial_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, lam) with the input state rho = R diag(lam) R^dag: R is the
        input vector itself, or the eigenbasis of an input density matrix."""
        dim = self.local_dim**self.num_qudits
        if self.input_state is None:
            r = np.zeros((dim, 1), dtype=complex)
            r[0, 0] = 1.0
            return r, np.ones(1)
        arr = as_complex(np.asarray(self.input_state))
        if arr.shape not in ((dim,), (dim, dim)):
            raise DimensionError("input state does not match the circuit width")
        if arr.ndim == 1:
            return arr.reshape(dim, 1), np.ones(1)
        if not is_hermitian(arr):
            raise StateValidationError("input density matrix must be Hermitian")
        lam, vecs = np.linalg.eigh(arr)
        return vecs, lam


@dataclass(frozen=True)
class KnitEstimate:
    estimate: float
    stderr: float
    overhead: float
    mode: str
    shots: int | None = None
    term_indices: np.ndarray | None = None
    per_shot: np.ndarray | None = None


def _knit_propagate(circuit: KnitCircuit, factor: np.ndarray):
    """Push the input factor through every cut assignment's gates.

    Each cut gate branches every partial term into its weighted Pauli pairs,
    so terms sharing a prefix share its propagation. Returns the weights w_K
    (ordered as itertools.product over the cuts), the propagated factors
    A_K R stacked on a leading axis, the uncut circuit's U R, and each cut's
    decomposition.
    """
    layout = circuit.layout
    d = circuit.local_dim
    basis = GeneralizedPauliBasis(d)
    weights, factors = [1.0 + 0.0j], [factor]
    exact = factor
    decomps = []
    for g in circuit.gates:
        labels = [f"q{t}" for t in g.targets]
        exact = apply_on_targets(g.matrix, exact, labels, layout)
        if not g.cut:
            factors = [apply_on_targets(g.matrix, f, labels, layout) for f in factors]
            continue
        if len(g.targets) != 2:
            raise DimensionError("cut gates must touch exactly two qudits")
        if g.matrix.shape != (d * d, d * d) or not is_unitary(g.matrix):
            raise StateValidationError("cut gates must be two-qudit unitaries")
        dec = knit_decompose(g.matrix, d)
        decomps.append(dec)
        pairs = [
            (dec.coefficients[i, j], np.kron(basis.operators[i], basis.operators[j]))
            for i in range(d * d)
            for j in range(d * d)
            if abs(dec.coefficients[i, j]) > 1e-14
        ]
        weights = [w * wc for w in weights for wc, _ in pairs]
        factors = [apply_on_targets(pair, f, labels, layout) for f in factors for _, pair in pairs]
    return np.array(weights), np.stack(factors), exact, decomps


def knit_estimate(
    circuit: KnitCircuit,
    observable: np.ndarray,
    mode: str = "exact_sum",
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> KnitEstimate:
    """Estimate tr(O circuit(rho)) with marked gates expanded by knitting.

    exact_sum evaluates the full paired double sum over cut assignments and
    matches the uncut expectation exactly.  sampled draws the ket-side
    assignment with probability proportional to |weight| while keeping the
    bra side summed exactly, so the standard error carries one factor of
    sqrt(overhead) as the quasi-probability mass.

    With rho = R diag(lam) R^dag, every term tr(A_l^dag O A_k rho) is the
    inner product of the propagated factors A_l R and O A_k R weighted by
    lam, so no circuit-sized matrix is formed.
    """
    observable = as_complex(observable)
    dim = circuit.local_dim**circuit.num_qudits
    if observable.shape != (dim, dim):
        raise DimensionError("observable does not match the circuit width")
    if not is_hermitian(observable):
        raise StateValidationError("observable must be Hermitian")
    factor, lam = circuit.initial_factor()
    weights, factors, exact, decomps = _knit_propagate(circuit, factor)
    flat = factors.reshape(len(weights), -1)
    flat_o = ((observable @ factors) * lam).reshape(len(weights), -1)
    overhead = float(np.prod([dec.overhead for dec in decomps])) if decomps else 1.0

    if mode == "exact_sum":
        gram = flat.conj() @ flat_o.T
        value = np.einsum("l,k,lk->", weights.conj(), weights, gram)
        return KnitEstimate(
            estimate=float(value.real), stderr=0.0, overhead=overhead, mode=mode
        )

    if mode != "sampled":
        raise EstimationError(f"unknown knit mode {mode!r}")
    if shots is None or shots < 1 or rng is None:
        raise EstimationError("sampled mode needs shots and rng")

    mass = float(np.prod([dec.one_norm for dec in decomps])) if decomps else 1.0
    sandwich = flat_o @ exact.conj().ravel()
    phases = np.where(np.abs(weights) > 0, weights / np.abs(weights), 1.0)
    values = mass * (phases * sandwich).real
    probs = np.abs(weights)
    probs = probs / probs.sum()
    idx = rng.choice(len(weights), size=shots, p=probs)
    per_shot = values[idx]
    estimate = float(per_shot.mean())
    stderr = float(per_shot.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return KnitEstimate(
        estimate=estimate,
        stderr=stderr,
        overhead=overhead,
        mode=mode,
        shots=shots,
        term_indices=idx,
        per_shot=per_shot,
    )


# --- ping-pong register reuse ---


def pingpong_run(
    programs,
    system,
    blocks: int = 2,
    rng: np.random.Generator | None = None,
    forced_bits=None,
) -> tuple[OqtRecord, ResourceLedger]:
    """Chain programs through OQT while alternating between two register blocks.

    The measured block is reset and re-prepared with the next program before
    each hop, so the number of live registers never grows with the program
    count; each hop is a forced temporal layer.
    """
    if blocks != 2:
        raise DimensionError("the minimal ping-pong construction uses two blocks")
    programs = list(programs)
    if not programs:
        raise DimensionError("pingpong_run needs at least one program")
    if (rng is None) == (forced_bits is None):
        raise EstimationError("pass exactly one of rng or forced_bits")
    if forced_bits is not None:
        forced_bits = list(forced_bits)
        if len(forced_bits) != len(programs):
            raise EstimationError("one forced bit per program is required")

    if isinstance(system, PureState):
        d = system.dim
    elif isinstance(system, MixedState):
        d = system.dim
    else:
        d = np.asarray(system).shape[0]
    for prog in programs:
        if prog.in_dim != d or prog.out_dim != d:
            raise DimensionError("program ports must match the system dimension")

    eng = ProtocolEngine("device")
    eng.alloc("device", "blk0_state", system)
    current = "blk0_state"
    bits = []
    for k, prog in enumerate(programs):
        side = "blk1" if k % 2 == 0 else "blk0"
        out_lab, in_lab = f"{side}_out", f"{side}_in"
        eng.alloc_program("device", prog, out_lab, in_lab)
        forced = forced_bits[k] if forced_bits is not None else None
        t, _ = eng.measure_binary(
            "device", bell_projector(d), [in_lab, current], rng=rng, forced=forced
        )
        bits.append(int(t))
        eng.record_oqt()
        eng.discard([in_lab, current])
        current = out_lab
        if k > 0:
            eng.force_layer()

    final = MixedState(RegisterLayout.of(("s", d)), eng.reduced([current]))
    record = OqtRecord(parity_bits=tuple(bits), s=sum(bits), final_state=final)
    return record, eng.ledger


# --- hybrid classical-quantum optimization ---


@dataclass(frozen=True)
class OptimizerConfig:
    iterations: int = 6
    initial_step: float = 0.5
    shrink: float = 0.5


@dataclass(frozen=True)
class HybridResult:
    theta: np.ndarray
    objective: float
    trace: tuple[float, ...]


def hybrid_optimize(
    evaluate,
    objective,
    theta0,
    config: OptimizerConfig | None = None,
    rng: np.random.Generator | None = None,
) -> HybridResult:
    """Minimize objective(evaluate(theta, rng)) by coordinate descent.

    Deterministic given the seed: candidate offsets are scanned in a fixed
    order on a grid whose step shrinks once per sweep, and a move is accepted
    only when strictly better, so the final objective never exceeds the
    initial one.
    """
    config = config or OptimizerConfig()
    theta = np.array(theta0, dtype=float).reshape(-1)

    def child_rng():
        if rng is None:
            return None
        return np.random.default_rng(int(rng.integers(2**63)))

    def score(point: np.ndarray) -> float:
        val = float(objective(evaluate(point, child_rng())))
        if not np.isfinite(val):
            raise EstimationError("objective is not finite")
        return val

    best = score(theta)
    trace = [best]
    step = config.initial_step
    for _ in range(config.iterations):
        for k in range(theta.size):
            for offset in (-step, -step / 2, step / 2, step):
                cand = theta.copy()
                cand[k] += offset
                val = score(cand)
                if val < best:
                    best = val
                    theta = cand
        trace.append(best)
        step *= config.shrink
    return HybridResult(theta=theta, objective=best, trace=tuple(trace))
