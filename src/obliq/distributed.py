"""Multi-party protocol simulation with explicit resource accounting.

Parties own registers; the engine knows each party by name and refuses any
operation that would couple registers held by different parties, so
entanglement can only spread through explicitly distributed ebits.  Every
run produces a ResourceLedger counting ebits, broadcast bits,
oblivious-teleportation events, byproduct corrections and forced temporal
layers. `Party` bundles a name with the programs and states a runner
consumes.

A measurement consumes the registers it measures, as every primitive of the
paper does (injection, the OQT link, the teleportation Bell measurement):
outcome k leaves tr_M((P_k ox 1) rho) / p_k, one weighted `partial_trace`,
and the measured labels leave the layout and the owner map. A forced
outcome outside the measurement's outcomes is refused before the state
changes.

The dbqc, tri-party and ping-pong runners need every outcome pattern of
their measurements. Each protocol is defined once as a list of steps, and
`_branch_leaves` walks its outcome tree depth first, forking the engine
(`ProtocolEngine.fork`) at each measurement, so each outcome prefix is
simulated at most once. A step's measurement may have any number of
outcomes: two for a binary measurement, d**2 for a teleportation.
`teleport_state`, `remote_controlled_gate` and `pingpong_run` follow one
path of the same steps; `pingpong_run` is the library's one single-path OQT
chain. `_announced` is the one announced binary measurement (measure,
broadcast, count an OQT link, consume an ebit), shared by the runners and
the CLI's script ops.

dbqc and ping-pong also pass the walker a merge key, the parity lattice: a
unital program's branch state depends only on the ISI bit b and the
number s of odd parities (`oblivious.parity_mix_alpha`), so branches with
the same (b, s), or s, merge when their engines agree
(`ProtocolEngine.agrees_with`). Tri-party schemes I and II pass none.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import asdict, dataclass, field, replace

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

@dataclass
class Party:
    """A protocol participant and what it holds at the start of a run.

    ``programs`` and ``states`` are ordered holdings consumed by the runners.
    """

    name: str
    programs: list = field(default_factory=list)
    states: list = field(default_factory=list)


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
        counters = asdict(self)
        overhead = counters.pop("knit_overhead")
        if any(c < 0 for c in counters.values()) or overhead < 1.0:
            raise ResourceError(f"invalid ledger {self}")

    def as_dict(self) -> dict:
        return asdict(self)


class ProtocolEngine:
    """Density-matrix simulator with per-party register ownership.

    A party is a name: the constructor takes the parties' names, and every
    method that acts for a party takes its name. All multi-register
    operations require a single owner. Raw vector and matrix states are
    checked on allocation, and a forced measurement outcome must be one of
    the measurement's outcomes. Cross-party correlations can only be
    created by `distribute_ebit` or `transport`, which move a register to a
    new owner and register an entanglement resource id for the ledger's
    conservation check.
    """

    def __init__(self, *parties: str):
        self.parties: set[str] = set()
        for name in parties:
            if name in self.parties:
                raise DuplicateLabelError(f"duplicate party {name!r}")
            self.parties.add(name)
        self._layout = RegisterLayout(())
        self._owner: dict[str, str] = {}
        self._state = np.ones((1, 1), dtype=complex)
        # Ebit id -> its registers; ids count up from 0.
        self._ebits: dict[int, tuple[str, ...]] = {}
        self._used: set[int] = set()
        self.ledger = ResourceLedger()

    # -- layout plumbing --

    @property
    def layout(self) -> RegisterLayout:
        return self._layout

    def owner(self, label: str) -> str:
        if label not in self._owner:
            raise LocalityError(f"no live register {label!r}")
        return self._owner[label]

    def state(self) -> np.ndarray:
        return self._state.copy()

    def fork(self) -> ProtocolEngine:
        """An independent copy, to continue a run down another branch.

        The state array is shared: every operation rebinds ``_state`` to a
        new array and none writes into the one it replaces. The owner map,
        the ebit registry with its used ids, and the ledger are copied.
        """
        twin = object.__new__(ProtocolEngine)
        twin.parties = self.parties
        twin._layout = self._layout
        twin._owner = dict(self._owner)
        twin._state = self._state
        twin._ebits = dict(self._ebits)
        twin._used = set(self._used)
        twin.ledger = replace(self.ledger)
        return twin

    def agrees_with(self, other: ProtocolEngine) -> bool:
        """Whether ``other`` holds the same layout, owners, ebit registry,
        used ebits and ledger, and a state within 1e-12 (max abs)."""
        return (
            self._layout == other._layout
            and self._owner == other._owner
            and self._ebits == other._ebits
            and self._used == other._used
            and self.ledger == other.ledger
            and np.abs(self._state - other._state).max() <= 1e-12
        )

    def reduced(self, labels) -> np.ndarray:
        return partial_trace(self._state, list(labels), self.layout)

    def _probabilities(self, party: str, ops, labels) -> np.ndarray:
        """tr(P rho_labels) for each operator P on the registers ``labels``."""
        self.check_owned(party, labels)
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

    def _party(self, name: str) -> str:
        if name not in self.parties:
            raise LocalityError(f"unknown party {name!r}")
        return name

    def check_owned(self, party: str, labels) -> str:
        """The name of ``party``, after checking that it holds every register
        in ``labels``; raises LocalityError otherwise."""
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

    def alloc(self, party: str, label: str, state) -> None:
        """Allocate ``state`` on a new register. A raw vector or matrix is
        checked as `PureState` or `MixedState` checks it."""
        name = self._party(party)
        if not isinstance(state, (PureState, MixedState)):
            arr = as_complex(np.asarray(state))
            if arr.ndim not in (1, 2):
                raise DimensionError(f"a state of shape {arr.shape} is not a vector or a matrix")
            layout = RegisterLayout.of((label, arr.shape[0]))
            state = PureState(layout, arr) if arr.ndim == 1 else MixedState(layout, arr)
        block = projector(state.amplitudes) if isinstance(state, PureState) else state.matrix
        self._append_block([(label, block.shape[0], name)], block)

    def alloc_program(
        self,
        party: str,
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
        self, party_a: str, party_b: str, label_a: str, label_b: str, d: int = 2
    ) -> int:
        na, nb = self._party(party_a), self._party(party_b)
        pair = bell_state(d)
        block = projector(pair.amplitudes)
        self._append_block([(label_a, d, na), (label_b, d, nb)], block)
        return self._register_ebit((label_a, label_b))

    def transport(self, label: str, to_party: str) -> int:
        """Physically send a live register to another party.

        Sending one half of an entangled pair is the generic way entanglement
        gets distributed, so the move registers an ebit resource.
        """
        self.owner(label)
        self._owner[label] = self._party(to_party)
        return self._register_ebit((label,))

    def _register_ebit(self, regs) -> int:
        eid = len(self._ebits)
        self._ebits[eid] = tuple(regs)
        return eid

    def consume_ebit(self, eid: int) -> None:
        if eid not in self._ebits:
            raise ResourceError(f"ebit {eid} was never distributed")
        if eid in self._used:
            raise ResourceError(f"ebit {eid} already consumed")
        self._used.add(eid)
        self.ledger.ebits_consumed += 1

    def is_consumed(self, eid: int) -> bool:
        return eid in self._used

    @property
    def ebits_unused(self) -> int:
        return len(self._ebits) - len(self._used)

    def ebits_conserved(self) -> bool:
        return self.ledger.ebits_consumed == len(self._used)

    def discard(self, labels, weight: np.ndarray | None = None) -> None:
        """Trace out the registers ``labels``. With ``weight``, an operator W
        on those registers in the order of ``labels``, the state becomes
        tr_labels((W ox 1) rho) instead."""
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise DuplicateLabelError(f"repeated register in {labels}")
        layout = self.layout
        pos = [layout.index(lab) for lab in labels]
        if weight is not None:
            # partial_trace takes W in layout order: permute its tensor factors.
            dims = [layout.dims[p] for p in pos]
            order = np.argsort(pos).tolist()
            axes = order + [len(pos) + k for k in order]
            weight = as_complex(weight).reshape(dims + dims).transpose(axes).reshape(weight.shape)
        keep = [lab for lab in layout.labels if lab not in set(labels)]
        self._state = partial_trace(self._state, keep, layout, weight)
        self._layout = layout.subset(keep)
        for lab in labels:
            del self._owner[lab]

    # -- dynamics --

    def apply_local(self, party: str, matrix: np.ndarray, labels) -> None:
        self.check_owned(party, labels)
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
        party: str,
        p0: np.ndarray,
        labels,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """Two-outcome measurement {p0, 1-p0} on co-located registers.

        The measurement consumes ``labels``: they leave the layout and the
        owner map, and the state becomes tr_labels((P_bit ox 1) rho) / p_bit.
        Returns (bit, p_bit). Exactly one of rng / forced selects the branch.
        """
        p0 = as_complex(p0)
        if p0.ndim != 2 or p0.shape[0] != p0.shape[1]:
            raise DimensionError(f"projector shape {p0.shape} is not square")
        return self._project(party, [p0, np.eye(p0.shape[0]) - p0], labels, rng, forced)

    def probability(self, party: str, p0: np.ndarray, labels) -> float:
        """Branch-0 probability of {p0, 1-p0} without collapsing the state."""
        prob = self._probabilities(party, [as_complex(p0)], labels)[0]
        return float(np.clip(prob, 0.0, 1.0))

    def measure_projective(
        self,
        party: str,
        projectors,
        labels,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """One outcome per projector; consumes ``labels`` as `measure_binary` does."""
        return self._project(party, [as_complex(p) for p in projectors], labels, rng, forced)

    def _project(self, party, projectors, labels, rng, forced) -> tuple[int, float]:
        """Outcome probabilities come from the state reduced to ``labels``;
        the chosen projector then weights the trace that consumes them."""
        if (rng is None) == (forced is None):
            raise EstimationError("pass exactly one of rng or forced")
        if forced is not None and forced not in range(len(projectors)):
            raise BranchError(f"forced outcome {forced} is not one of 0..{len(projectors) - 1}")
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
        self.discard(labels, projectors[idx])
        self._state /= prob
        self._touch()
        return idx, float(prob)


# --- protocols as steps ---

# A protocol is a list of steps. A step does the outcome-free work before its
# measurement (allocating a program, distributing an ebit, a local gate) on
# the engine it is given, and returns (number of outcomes, measure):
# measure(engine, rng, forced) -> (outcome, probability of the outcome), which
# also does the work that follows the measurement (broadcast, correction);
# the measurement itself consumes the registers it measures. A finish
# function reads the run's result off the engine at the end.


def _follow(engine: ProtocolEngine, steps, rng, forced) -> list[int]:
    """Run one path of ``steps`` on ``engine``; each outcome is drawn with
    ``rng``, or taken from ``forced``. Returns the outcomes."""
    forced = [None] * len(steps) if forced is None else forced
    outcomes = []
    for step, f in zip(steps, forced):
        _, measure = step(engine)
        outcome, _ = measure(engine, rng, f)
        outcomes.append(int(outcome))
    return outcomes


def _branch_leaves(engine: ProtocolEngine, steps, finish, key=None):
    """Every outcome pattern of a protocol, each distinct branch simulated once.

    Walks the outcome tree depth first: each step's outcome-free work runs
    once per node, and the engine is forked at its measurement, once for
    each outcome but the last. Returns the leaves' outcome patterns (one row
    each, in lexicographic order), their path probabilities and finish
    values, and the first leaf's ledger. Each path probability is multiplied
    in step order from 1.0. A step's number of outcomes must not depend on
    earlier outcomes.

    ``key``, a function of an outcome prefix, merges equal branches (the
    reduction rule of ordered decision diagrams). The first node walked at
    a (depth, key) is held as its representative; a later node there whose
    engine agrees with it (`ProtocolEngine.agrees_with`) takes the
    representative's subtree instead of walking its own, and any other node
    is walked as in the tree. Each node is compared with that one
    representative only, so a walk in which nothing merges costs one state
    comparison per node beyond the tree, and holds one engine per
    (depth, key) beyond the one fork per depth a walk keeps alive. A walked
    node keeps only its outcomes' probabilities and child indices (16 bytes
    an outcome), from which the leaves are expanded at the end. Without
    ``key`` the walk is the tree.
    """
    held = {}  # (depth, key) -> (representative engine, its node index)
    # Per depth, node after node: each outcome's probability and the index
    # of its node at the next depth.
    probs_at = [array("d") for _ in steps]
    children_at = [array("q") for _ in steps]
    widths = [0] * len(steps)
    values, ledgers = array("d"), []

    def visit(eng: ProtocolEngine, pattern: tuple) -> int:
        """Walk the node at ``pattern``; returns its index among the nodes of its depth."""
        depth = len(pattern)
        slot = None if key is None else (depth, key(pattern))
        rep = held.get(slot)
        if rep is not None and rep[0].agrees_with(eng):
            return rep[1]
        snapshot = eng.fork() if slot is not None and rep is None else None
        if depth == len(steps):
            values.append(finish(eng))
            if not eng.ebits_conserved():
                raise ResourceError("ebit conservation violated")
            if not ledgers:
                ledgers.append(eng.ledger)
            index = len(values) - 1
        else:
            outcomes, measure = steps[depth](eng)
            row = []
            for k in range(outcomes):
                branch = eng.fork() if k < outcomes - 1 else eng
                _, p = measure(branch, None, k)
                row.append((p, visit(branch, pattern + (k,))))
            widths[depth] = outcomes
            index = len(probs_at[depth]) // outcomes
            for p, child in row:
                probs_at[depth].append(p)
                children_at[depth].append(child)
        if snapshot is not None:
            held[slot] = (snapshot, index)
        return index

    visit(engine, ())
    # Expand the walked nodes into every leaf, one depth at a time: ``ids``
    # holds each prefix's node, in lexicographic order of the prefixes. The
    # first leaf walked is the all-zero one, so ``ledgers[0]`` is the first
    # leaf's ledger.
    ids, probs = np.zeros(1, dtype=np.intp), np.ones(1)
    for p_at, c_at, width in zip(probs_at, children_at, widths):
        probs = (probs[:, None] * np.frombuffer(p_at).reshape(-1, width)[ids]).ravel()
        ids = np.frombuffer(c_at, dtype=np.int64).reshape(-1, width)[ids].ravel()
    patterns = np.indices(widths, dtype=np.int8).reshape(len(widths), len(ids)).T.copy()
    return patterns, probs, np.frombuffer(values)[ids], ledgers[0]


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


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of per-shot values and its standard error (0 for one shot;
    NaN and 0 for none)."""
    n = len(values)
    if n == 0:
        return math.nan, 0.0
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), stderr


# --- teleportation primitives ---


@functools.lru_cache(maxsize=None)
def _bell_basis(d: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The d^2 Pauli operators sigma_i and the projectors onto
    (sigma_i x I)|omega>, built once per d; read-only."""
    sigmas = GeneralizedPauliBasis(d).operators
    omega = bell_state(d).amplitudes
    projs = [projector(np.kron(sig, np.eye(d)) @ omega) for sig in sigmas]
    for arr in sigmas + projs:
        arr.flags.writeable = False
    return tuple(sigmas), tuple(projs)


def _ebit_ends(engine: ProtocolEngine, ebit: int, near_label: str) -> tuple[str, str]:
    """The two registers of an unused ebit, the one held with ``near_label`` first."""
    regs = engine._ebits.get(ebit)
    if regs is None:
        raise ResourceError(f"ebit {ebit} was never distributed")
    if engine.is_consumed(ebit):
        raise ResourceError(f"ebit {ebit} already consumed")
    if len(regs) != 2:
        raise ResourceError(f"ebit {ebit} is not a two-register ebit")
    ea, eb = regs
    if engine.owner(ea) != engine.owner(near_label):
        ea, eb = eb, ea
    return ea, eb


def _teleport(state_label: str, ebit: int):
    """The step that teleports ``state_label`` through ``ebit``: a joint
    measurement with d^2 outcomes, then the byproduct correction."""

    def step(eng: ProtocolEngine):
        ea, eb = _ebit_ends(eng, ebit, state_label)
        source = eng.check_owned(eng.owner(state_label), [state_label, ea])
        dest = eng.owner(eb)
        d = eng.layout.dim(state_label)
        if eng.layout.dim(ea) != d:
            raise DimensionError("ebit dimension does not match the state register")
        corrections, projs = _bell_basis(d)

        def measure(eng: ProtocolEngine, rng, forced) -> tuple[int, float]:
            idx, prob = eng.measure_projective(source, projs, [state_label, ea], rng, forced)
            eng.consume_ebit(ebit)
            eng.broadcast(2 * math.ceil(math.log2(d)))
            eng.apply_local(dest, corrections[idx], [eb])
            eng.ledger.qt_corrections += 1
            eng.force_layer()
            return idx, prob

        return len(projs), measure

    return step


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
    _, dest = _ebit_ends(engine, ebit, state_label)
    (idx,) = _follow(engine, [_teleport(state_label, ebit)], rng, [forced])
    return dest, idx


def _cat_entangler(control_label: str, target_label: str, ebit: int, gate: np.ndarray):
    """The two steps of a controlled ``gate`` across two parties through one
    ebit: the Z measurement of the control side's ebit half, then the X
    measurement of the target side's half (see `remote_controlled_gate`)."""
    ctrl = np.block(
        [
            [np.eye(gate.shape[0]), np.zeros_like(gate)],
            [np.zeros_like(gate), gate],
        ]
    ).astype(complex)

    def z_step(eng: ProtocolEngine):
        ea, eb = _ebit_ends(eng, ebit, control_label)
        pa = eng.check_owned(eng.owner(control_label), [control_label, ea])
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        if eng.layout.dim(control_label) != 2 or eng.layout.dim(ea) != 2:
            raise DimensionError("the cat-entangler control and ebit must be qubits")
        if gate.shape != (eng.layout.dim(target_label),) * 2 or not is_unitary(gate):
            raise StateValidationError("the controlled gate must be unitary on the target")
        eng.apply_local(pa, CNOT, [control_label, ea])

        def measure(eng: ProtocolEngine, rng, forced) -> tuple[int, float]:
            m1, prob = eng.measure_binary(pa, np.diag([1.0, 0.0]), [ea], rng, forced)
            eng.broadcast(1)
            eng.apply_local(pb, np.linalg.matrix_power(X, m1), [eb])
            eng.ledger.qt_corrections += 1
            eng.force_layer()
            return m1, prob

        return 2, measure

    def x_step(eng: ProtocolEngine):
        # The Z measurement consumed the control side's half.
        (eb,) = [lab for lab in eng._ebits[ebit] if lab in eng._owner]
        pa = eng.owner(control_label)
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        eng.apply_local(pb, ctrl, [eb, target_label])

        def measure(eng: ProtocolEngine, rng, forced) -> tuple[int, float]:
            plus = np.full((2, 2), 0.5, dtype=complex)
            m2, prob = eng.measure_binary(pb, plus, [eb], rng, forced)
            eng.broadcast(1)
            eng.apply_local(pa, np.linalg.matrix_power(Z, m2), [control_label])
            eng.ledger.qt_corrections += 1
            eng.force_layer()
            eng.consume_ebit(ebit)
            return m2, prob

        return 2, measure

    return [z_step, x_step]


def remote_controlled_gate(
    engine: ProtocolEngine,
    control_label: str,
    target_label: str,
    ebit: int,
    gate: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    forced: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Apply a controlled ``gate`` (default X, a nonlocal CNOT) across two
    parties through one ebit and two broadcast bits.

    Cat-entangler construction: CNOT the control onto the local ebit half,
    Z-measure it (outcome m1, correction X^m1 on the remote half), apply the
    controlled gate locally at the target side, X-measure the remote half
    (outcome m2, correction Z^m2 on the control).  Both corrections count as
    byproduct events regardless of outcome. Exactly one of ``rng`` and
    ``forced`` (the pair (m1, m2)) selects the path. Returns (m1, m2).
    """
    gate = X if gate is None else as_complex(gate)
    steps = _cat_entangler(control_label, target_label, ebit, gate)
    m1, m2 = _follow(engine, steps, rng, forced)
    return m1, m2


# --- distributed black-box quantum computing ---


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


def _announced(party: str, p0: np.ndarray, labels, oqt: bool = False, ebit: int | None = None):
    """The measurement {p0, 1-p0} on ``labels``, which it consumes, and the
    broadcast of its bit; ``oqt`` counts it as an OQT link and
    ``ebit`` is the ebit it consumes."""

    def measure(eng: ProtocolEngine, rng, forced) -> tuple[int, float]:
        bit, prob = eng.measure_binary(party, p0, labels, rng, forced)
        eng.broadcast(1)
        if oqt:
            eng.record_oqt()
        if ebit is not None:
            eng.consume_ebit(ebit)
        return bit, prob

    return 2, measure


def _isi(party: str, program: ChoiProgram, psi: PureState, out: str, inp: str):
    """Allocate ``program`` and inject ``psi`` into its in port (ISI)."""

    def step(eng: ProtocolEngine):
        eng.alloc_program(party, program, out, inp)
        return _announced(party, projector(np.conj(psi.amplitudes)), [inp])

    return step


def _program_link(party: str, program: ChoiProgram, out: str, inp: str, current: str, bell):
    """Allocate ``program`` and link ``current`` into its in port by OQT."""

    def step(eng: ProtocolEngine):
        eng.alloc_program(party, program, out, inp)
        return _announced(party, bell, [inp, current], oqt=True)

    return step


def _readout(party: str, psi_o: PureState, labels):
    """Finish: P(readout 0) of ``psi_o`` on ``labels``, then its broadcast bit."""
    p0 = projector(psi_o.amplitudes)

    def finish(eng: ProtocolEngine) -> float:
        q = eng.probability(party, p0, labels)
        eng.broadcast(1)
        return q

    return finish


def _dbqc_protocol(alice: Party, bob: Party):
    """The pipeline's engine, steps (ISI bit, then one parity bit per link)
    and finish."""
    a, b = alice.name, bob.name
    psi_in: PureState = alice.states[0]
    d = psi_in.dim
    bell = bell_projector(d)

    def ebit_link(current: str):
        def step(eng: ProtocolEngine):
            eid = eng.distribute_ebit(a, b, "e_a", "e_b", d)
            return _announced(a, bell, [current, "e_a"], oqt=True, ebit=eid)

        return step

    steps = [_isi(a, alice.programs[0], psi_in, "a_out_0", "a_in_0")]
    current = "a_out_0"
    for k, prog in enumerate(alice.programs[1:], start=1):
        steps.append(_program_link(a, prog, f"a_out_{k}", f"a_in_{k}", current, bell))
        current = f"a_out_{k}"
    steps.append(ebit_link(current))
    current = "e_b"
    for k, prog in enumerate(bob.programs):
        steps.append(_program_link(b, prog, f"b_out_{k}", f"b_in_{k}", current, bell))
        current = f"b_out_{k}"
    return ProtocolEngine(a, b), steps, _readout(b, bob.states[0], [current])


def _isi_bit_and_parity_count(pattern: tuple) -> tuple:
    """dbqc's merge key: a unital pipeline's branch state depends only on
    the ISI bit b and the number s of odd parities (`parity_mix_alpha`)."""
    return pattern[:1], sum(pattern[1:])


def parity_inverted_shots(
    parities: np.ndarray,
    probs: np.ndarray,
    qvals: np.ndarray,
    d: int,
    shots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``shots`` leaves and their readouts, and invert the parity mixing.

    Leaf k has the OQT parity bits ``parities[k]``, path probability
    ``probs[k]`` and readout-0 probability ``qvals[k]``. With s the number of
    odd parities, (-1)^s (d^2 - 1)^s (hit - alpha_s) is an unbiased per-shot
    estimate of the unmixed readout-0 probability. Returns the drawn leaf
    indices, the readout bits and these estimates.
    """
    s = parities.sum(axis=1)
    base = ((-1.0) ** s) * float(d * d - 1) ** s
    alpha = np.array([parity_mix_alpha(int(v), d) for v in s])
    idx = rng.choice(len(probs), size=shots, p=probs)
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    return idx, y, base[idx] * ((y == 0) - alpha[idx])


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

    protocol = _dbqc_protocol(alice, bob)
    patterns, probs, qvals, ledger = _branch_leaves(*protocol, _isi_bit_and_parity_count)
    probs = check_path_probabilities(probs)
    idx, y, inv = parity_inverted_shots(patterns[:, 1:], probs, qvals, d, shots, rng)
    b = patterns[idx, 0]
    t_hat = np.where(b == 0, inv, 1.0 - (d - 1) * inv)
    estimate, stderr = mean_stderr(t_hat)
    return DbqcResult(
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        isi_bits=b,
        parity_bits=patterns[idx, 1:],
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


def _triparty_scheme1_protocol(a: Party, b: Party, c: Party):
    """Scheme I's engine, steps (ISI bits b_a, b_b, then parities i, j) and
    finish."""
    da, db = a.states[0].dim, b.states[0].dim
    eng = ProtocolEngine(a.name, b.name, c.name)
    eng.alloc_program(c.name, c.programs[0], "c_out", [("c_in1", da), ("c_in2", db)])
    e1 = eng.transport("c_in1", a.name)
    e2 = eng.transport("c_in2", b.name)

    steps = [
        _isi(a.name, a.programs[0], a.states[0], "a_out", "a_in"),
        _isi(b.name, b.programs[0], b.states[0], "b_out", "b_in"),
        lambda eng: _announced(a.name, bell_projector(da), ["a_out", "c_in1"], oqt=True, ebit=e1),
        lambda eng: _announced(b.name, bell_projector(db), ["b_out", "c_in2"], oqt=True, ebit=e2),
    ]
    return eng, steps, _readout(c.name, c.states[0], ["c_out"])


def _run_triparty_scheme1(
    a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator
) -> TripartyResult:
    da, db = a.states[0].dim, b.states[0].dim
    patterns, probs, qvals, ledger = _branch_leaves(*_triparty_scheme1_protocol(a, b, c))
    probs = check_path_probabilities(probs)

    idx = rng.choice(len(probs), size=shots, p=probs)
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    ba, bb = patterns[idx, 0], patterns[idx, 1]
    i, j = patterns[idx, 2], patterns[idx, 3]
    k = np.maximum(i, j)

    keep = k == 0
    kept = int(keep.sum())
    eta = np.where((ba == 0) & (bb == 0), 1.0, -1.0)
    t_hat = 0.5 * (1.0 + eta * da * db * (y == 0))
    estimate, stderr = mean_stderr(t_hat[keep])
    return TripartyResult(
        scheme="I",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=kept,
        bits={"b_a": ba, "b_b": bb, "i": i, "j": j, "k": k.astype(np.int8), "y": y},
    )


def controlled_block(u: np.ndarray, db: int) -> np.ndarray:
    """Extract V from a controlled gate [[I, 0], [0, V]] on a qubit control
    and a target of dimension ``db``."""
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


def _triparty_scheme2_protocol(a: Party, b: Party, gate: np.ndarray, psi_o: PureState):
    """Scheme II's engine, steps (the cat-entangler's m1 and m2, then the
    teleportation of A's register to B) and finish."""
    eng = ProtocolEngine(a.name, b.name)
    eng.alloc(a.name, "qa", a.states[0])
    eng.alloc(b.name, "qb", b.states[0])
    for prog in a.programs:
        eng.apply_local(a.name, unitary_of_choi(prog), ["qa"])
    for prog in b.programs:
        eng.apply_local(b.name, unitary_of_choi(prog), ["qb"])
    e1 = eng.distribute_ebit(a.name, b.name, "e1a", "e1b")

    def teleport_to_b(eng: ProtocolEngine):
        e2 = eng.distribute_ebit(a.name, b.name, "e2a", "e2b")
        return _teleport("qa", e2)(eng)

    steps = [*_cat_entangler("qa", "qb", e1, gate), teleport_to_b]
    return eng, steps, _readout(b.name, psi_o, ["e2b", "qb"])


def _run_triparty_scheme2(
    a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator
) -> TripartyResult:
    gate = controlled_block(unitary_of_choi(c.programs[0]), b.states[0].dim)
    protocol = _triparty_scheme2_protocol(a, b, gate, c.states[0])
    patterns, probs, qvals, ledger = _branch_leaves(*protocol)
    probs = check_path_probabilities(probs)
    # Every (m1, m2, teleport) path has the same probability, so shots draw
    # their pattern uniformly.
    if np.abs(probs - 1.0 / len(probs)).max() > 1e-9:
        raise BranchError("scheme II path probabilities are not uniform")
    if np.ptp(qvals) > 1e-10:
        raise StateValidationError("byproduct paths disagree after correction")
    q = float(qvals.mean())

    idx = rng.choice(len(probs), size=shots)
    y = (rng.random(shots) >= q).astype(np.int8)
    estimate, stderr = mean_stderr((y == 0).astype(float))
    return TripartyResult(
        scheme="II",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=shots,
        bits={
            "m1": patterns[idx, 0],
            "m2": patterns[idx, 1],
            "teleport": patterns[idx, 2],
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
    enter the estimate, which is NaN (stderr 0) when no shot has them.
    Scheme II declares the nonlocal gate as a controlled gate, realizes it
    with a cat-entangler and finishes with a teleportation, so every shot
    counts but byproduct corrections force temporal order.
    Both schemes take the nonlocal program and the readout state from C.
    """
    if shots < 1:
        raise EstimationError("shots must be positive")
    if scheme not in ("I", "II"):
        raise EstimationError(f"unknown scheme {scheme!r}")
    if c is None or not c.programs:
        raise ResourceError(f"scheme {scheme} needs the nonlocal program at C")
    if scheme == "I":
        return _run_triparty_scheme1(a, b, c, shots, rng)
    return _run_triparty_scheme2(a, b, c, shots, rng)


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
        return KnitEstimate(estimate=float(value.real), stderr=0.0, overhead=overhead)

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
    estimate, stderr = mean_stderr(per_shot)
    return KnitEstimate(
        estimate=estimate,
        stderr=stderr,
        overhead=overhead,
        shots=shots,
        term_indices=idx,
        per_shot=per_shot,
    )


# --- ping-pong register reuse ---


def _pingpong_protocol(programs: list, system):
    """The chain's engine, its steps (one parity bit per hop) and the label
    that holds the output at the end."""
    if not programs:
        raise DimensionError("pingpong_run needs at least one program")
    eng = ProtocolEngine("device")
    eng.alloc("device", "blk0_state", system)
    d = eng.layout.dim("blk0_state")
    for prog in programs:
        if prog.in_dim != d or prog.out_dim != d:
            raise DimensionError("program ports must match the system dimension")
    bell = bell_projector(d)

    def hop(k: int, prog: ChoiProgram, out: str, inp: str, current: str):
        def measure(eng: ProtocolEngine, rng, forced) -> tuple[int, float]:
            bit, prob = eng.measure_binary("device", bell, [inp, current], rng, forced)
            eng.record_oqt()
            if k > 0:
                eng.force_layer()
            return bit, prob

        def step(eng: ProtocolEngine):
            eng.alloc_program("device", prog, out, inp)
            return 2, measure

        return step

    steps = []
    current = "blk0_state"
    for k, prog in enumerate(programs):
        side = "blk1" if k % 2 == 0 else "blk0"
        steps.append(hop(k, prog, f"{side}_out", f"{side}_in", current))
        current = f"{side}_out"
    return eng, steps, current


def pingpong_run(
    programs,
    system,
    rng: np.random.Generator | None = None,
    forced_bits=None,
) -> tuple[OqtRecord, ResourceLedger]:
    """The single-path OQT chain: teleport ``system`` through ``programs`` in
    application order, with no corrections, alternating between two
    register blocks.

    The measured block is reset and re-prepared with the next program before
    each hop, so the number of live registers never grows with the program
    count; each hop is a forced temporal layer. One run follows one path of
    the outcome tree: exactly one of ``rng`` (draw each parity) and
    ``forced_bits`` (one bit per program, each 0 or 1) must be given. The
    final state mixes the target U_n ... U_1 rho with identity noise
    according to the number s of odd parities (`parity_mix_alpha`).
    ``system`` is a `PureState`, a `MixedState`, or a vector or density
    matrix, which is checked as those classes check it.
    """
    programs = list(programs)
    if (rng is None) == (forced_bits is None):
        raise EstimationError("pass exactly one of rng or forced_bits")
    if forced_bits is not None:
        forced_bits = list(forced_bits)
        if len(forced_bits) != len(programs):
            raise EstimationError("one forced bit per program is required")
    eng, steps, current = _pingpong_protocol(programs, system)
    bits = _follow(eng, steps, rng, forced_bits)
    final = MixedState(RegisterLayout.of(("s", eng.layout.dim(current))), eng.reduced([current]))
    record = OqtRecord(parity_bits=tuple(bits), s=sum(bits), final_state=final)
    return record, eng.ledger


def _pingpong_readout_protocol(programs, system, readout: np.ndarray):
    """The chain's engine and steps, and a finish that reads P(``readout``)
    of its output."""
    eng, steps, current = _pingpong_protocol(list(programs), system)

    def finish(eng: ProtocolEngine) -> float:
        return float(np.real(np.conj(readout) @ eng.reduced([current]) @ readout))

    return eng, steps, finish


def pingpong_branches(programs, system, readout: np.ndarray):
    """Every parity pattern of a ping-pong chain: the patterns, their path
    probabilities and P(``readout``) of the output, and the ledger (see
    `_branch_leaves`). A unital chain's state depends only on the number of
    odd parities so far, so branches merge on it."""
    return _branch_leaves(*_pingpong_readout_protocol(programs, system, readout), sum)
