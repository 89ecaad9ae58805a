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

Every protocol is defined once as a list of steps, and `_walk` is the one
sampler of their outcomes. It goes level by level: every branch of a depth
runs the same step on the same registers, so one `ProtocolEngine` holds
them all as rows of a (B, D, D) stack and each engine operation acts on
every row at once. A measurement gives a (B, outcomes) table, a fork is a
row selection, a correction is applied to the rows that took its outcome,
and the descent rule assigns every shot of a level its outcome at once.
The layout, owners, ebits and ledger are the engine's, shared by its rows;
outcome-dependent work that would make them differ is refused. A step whose
stack would outgrow `ROW_BUDGET` complex entries runs on chunks of rows, so
D <= 16 is batched whole and D = 343 goes one row at a time. A measurement
may have any number of outcomes: two for a binary one, d**2 for a
teleportation. `teleport_state`, `remote_controlled_gate`, `pingpong_run`
(the one single-path OQT chain) and the engine's own measurements follow
one path on an engine of one row (`_follow`, one ``rng.choice`` per
measurement). `_announced` is the one announced binary measurement
(measure, broadcast, count an OQT link, consume an ebit), shared by the
runners and the CLI's script ops.

dbqc and ping-pong pass the walk a merge key, the parity lattice: a unital
program's branch state depends only on the ISI bit b and the number s of
odd parities (`oblivious.parity_mix_alpha`), so rows with the same (b, s),
or s, merge when their states agree within 1e-12.
"""
from __future__ import annotations

import functools
import itertools
import math
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
    kron_rows,
    layout_of,
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

    An engine holds a stack of B branch states, its rows, on one register
    layout: a (B, D, D) array. The layout, the owners, the ebit registry and
    the ledger belong to the engine and so to every row; each operation acts
    on every row, and each reading (`state`, `reduced`, `probability`)
    returns one entry per row. A fresh engine has one row; `_walk` makes
    more, one per live branch of a depth.

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
        self._layout = layout_of(())
        self._owner: dict[str, str] = {}
        self._state = np.ones((1, 1, 1), dtype=complex)
        # Ebit id -> its registers; ids count up from 0.
        self._ebits: dict[int, tuple[str, ...]] = {}
        self._used: set[int] = set()
        self.ledger = ResourceLedger()

    # -- layout plumbing --

    def __len__(self) -> int:
        return len(self._state)

    @property
    def layout(self) -> RegisterLayout:
        return self._layout

    def owner(self, label: str) -> str:
        if label not in self._owner:
            raise LocalityError(f"no live register {label!r}")
        return self._owner[label]

    def state(self) -> np.ndarray:
        """A copy of the stacked states, (rows, D, D)."""
        return self._state.copy()

    def fork(self) -> ProtocolEngine:
        """An independent copy. The state array is shared: every operation
        rebinds ``_state`` to a new array and none writes into the one it
        replaces. The owner map, the ebit registry with its used ids, and
        the ledger are copied."""
        twin = object.__new__(ProtocolEngine)
        twin.parties = self.parties
        twin._layout = self._layout
        twin._owner = dict(self._owner)
        twin._state = self._state
        twin._ebits = dict(self._ebits)
        twin._used = set(self._used)
        twin.ledger = replace(self.ledger)
        return twin

    def select(self, rows) -> ProtocolEngine:
        """An independent copy holding the rows ``rows`` (increasing indices).
        A run of rows shares the state array, as `fork` does."""
        twin = self.fork()
        a, b = rows[0], rows[-1] + 1
        twin._state = self._state[a:b] if b - a == len(rows) else self._state[rows]
        return twin

    @staticmethod
    def stack(parts) -> ProtocolEngine:
        """One engine of the rows ``(engine, row)`` in ``parts``, whose
        engines must share their layout, owners, ebits and ledger."""
        first = parts[0][0]
        if any(eng is not first and not first._same_frame(eng) for eng, _ in parts):
            raise BranchError("rows of one depth hold different registers, ebits or ledgers")
        twin = first.fork()
        twin._state = np.stack([eng._state[row] for eng, row in parts])
        return twin

    def _same_frame(self, other: ProtocolEngine) -> bool:
        """Whether ``other`` holds the same layout, owners, ebit registry,
        used ebits and ledger."""
        return (
            self._layout == other._layout
            and self._owner == other._owner
            and self._ebits == other._ebits
            and self._used == other._used
            and self.ledger == other.ledger
        )

    def reduced(self, labels) -> np.ndarray:
        return partial_trace(self._state, list(labels), self.layout)

    def _probabilities(self, party: str, ops, labels) -> np.ndarray:
        """tr(P rho_labels) for each row and each operator P on the registers
        ``labels``: a (rows, len(ops)) table."""
        self.check_owned(party, labels)
        reduced = self.reduced(labels)
        m = reduced.shape[-1]
        if any(p.shape != (m, m) for p in ops):
            raise DimensionError(f"operator shapes do not match the registers {list(labels)}")
        # Column k is vec(P_k^T), so each row's entries are one vector-matrix product.
        columns = np.stack([p.T for p in ops], axis=-1).reshape(m * m, len(ops))
        return (reduced.reshape(len(reduced), 1, m * m) @ columns)[:, 0].real

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
        new_dim = self._layout.total_dim * block.shape[0]
        if new_dim > MAX_STATE_DIM:
            raise CapacityError(
                f"joint dimension {new_dim} exceeds the cap {MAX_STATE_DIM}"
            )
        if len(self) > 1 and len(self) * new_dim**2 > ROW_BUDGET:
            raise _Split(max(1, ROW_BUDGET // new_dim**2))
        self._state = kron_rows(self._state, block)
        self._layout = layout_of(
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
        return self._project(party, _binary(p0), labels, rng, forced)

    def probability(self, party: str, p0: np.ndarray, labels) -> np.ndarray:
        """Each row's branch-0 probability of {p0, 1-p0}, without collapsing."""
        return np.clip(self._probabilities(party, [as_complex(p0)], labels)[:, 0], 0.0, 1.0)

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
        """One path of a one-step protocol (`_follow`): the outcome, drawn
        with ``rng`` or taken from ``forced``, and its probability."""
        measured = _measured(self, party, projectors, labels)
        (idx,) = _follow(self, [lambda eng: measured], rng, None if forced is None else [forced])
        return idx, float(measured[0][0, idx])

    def _outcomes(self, party, projectors, labels) -> np.ndarray:
        """Each row's probability of each projector on ``labels``, clipped at
        0; raises unless every row sums to 1 within 1e-8, and never
        renormalizes."""
        probs = np.clip(self._probabilities(party, projectors, labels), 0.0, None)
        total = probs.sum(axis=1)
        off = np.abs(total - 1.0) > 1e-8
        if off.any():
            raise StateValidationError(f"measurement probabilities sum to {total[off][0]}")
        return probs

    def _branch(self, rows, ks, labels, projectors, table, after=None) -> ProtocolEngine:
        """The rows ``rows`` collapsed on the outcomes ``ks`` (pairs sorted by
        row, then outcome), as one engine in that order. Outcome k's
        projector weights the trace of ``labels`` on the rows that took it,
        which are divided by their probabilities in ``table``, and then
        ``after(engine, k)`` does its follow-up work on them. That work may
        not leave the outcomes with different registers, ebits or ledgers.
        A single outcome taken by every row collapses this engine itself."""
        twins = []
        for k in sorted(set(ks.tolist())):
            sel = rows[ks == k]
            twin = self if len(sel) == len(ks) == len(self) else self.select(sel)
            probs = table[sel, k]
            if probs.min() < 1e-14:
                raise BranchError(f"measurement branch {k} has vanishing probability")
            twin.discard(labels, projectors[k])
            twin._state /= probs[:, None, None]
            twin._touch()
            if after is not None:
                after(twin, k)
            twins.append(twin)
        first = twins[0]
        if len(twins) > 1:
            if not all(first._same_frame(twin) for twin in twins[1:]):
                raise BranchError(
                    "outcome-dependent work left rows of one depth with different "
                    "registers, ebits or ledgers"
                )
            stacked = np.concatenate([twin._state for twin in twins])
            first._state = np.empty_like(stacked)
            first._state[np.argsort(ks, kind="stable")] = stacked
        return first


def _binary(p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projectors (p0, 1 - p0) of a binary measurement."""
    p0 = as_complex(p0)
    return p0, np.eye(p0.shape[0]) - p0


# --- protocols as steps: the one walk ---

# A protocol is a list of steps. A step does the outcome-free work before its
# measurement on the level it is given (a `ProtocolEngine` holding one row
# per live branch; an array of parity counts in
# `oblivious.oqt_sample_records`) and returns None if it measures nothing,
# else the (rows, outcomes) probability table and branch(rows, ks): the
# level of the rows ``rows`` after the outcomes ``ks``, with their
# follow-up work (broadcast, correction) done. A finish reads each row of a
# leaf level.

# Stacked states one step may hold, in complex entries: an engine whose rows
# would outgrow it raises `_Split`, and the walk reruns the step on fewer
# rows. A depth at D <= 16 runs as one stack; at D = 343, one row at a time.
ROW_BUDGET = 1 << 16


class _Split(Exception):
    """The step outgrew `ROW_BUDGET`; rerun it on chunks of ``rows`` rows."""

    def __init__(self, rows: int):
        super().__init__(rows)
        self.rows = rows


def _measured(eng: ProtocolEngine, party: str, projectors, labels, after=None):
    """A step's measurement of ``labels``: the table of every row's
    outcome probabilities, formed once, and branch(rows, ks) (see
    `ProtocolEngine._branch`, with ``after`` its follow-up work)."""
    table = eng._outcomes(party, projectors, labels)

    def branch(rows: np.ndarray, ks: np.ndarray) -> ProtocolEngine:
        return eng._branch(rows, ks, labels, projectors, table, after)

    return table, branch


def _walk(root, steps, finish, uniforms=None, patterns=None, key=None, tol=None):
    """Walk the shots of ``uniforms`` or ``patterns`` through ``steps`` from
    ``root`` (a level of one row) and return each shot's outcomes (a column
    per draw), path probability (multiplied in step order from 1.0) and
    finish value; finish(level) returns one value per row, or None.

    Level by level: a step runs once on a level holding every live branch
    of its depth, one row each, and its table gives every row's outcome
    row; with ``tol``, a row further than ``tol`` from summing to 1 raises
    BranchError. The next level is branch(rows, ks) of the (row, outcome)
    pairs some shot takes, in that order. The descent rule runs once per
    level: a shot on row r takes outcome k when e[k] <= u < e[k+1] for
    e = lo + mass cdf (the CDF of r's row as ``rng.choice`` forms it),
    ties going right, and [lo, lo + mass) narrows to the outcome's
    interval. ``uniforms`` of shape (shots,) carry one uniform per shot
    down the whole path from [0, 1), so a shot takes the leaf
    ``rng.choice(leaves, size=shots, p=path probabilities)`` takes with the
    same ``rng.random(shots)``, up to rounding at an edge; an interval's
    shots are a run of the sorted uniforms, cut at its edges, so a level
    costs its intervals, not its shots. Shape (shots, draws) gives each
    draw a fresh uniform at lo = 0, mass = 1: exactly ``rng.choice(k,
    p=row)``. ``patterns`` (a row per shot) give the outcomes; one that is
    not a measurement's is refused before the state changes.

    An engine whose step would stack more than `ROW_BUDGET` entries raises
    `_Split`, and the step reruns on chunks of rows that fit, walked depth
    first. ``key``, a function of an outcome prefix, merges equal branches
    of an engine walk (the reduction rule of ordered decision diagrams):
    the first row placed at a (depth, key) is held until every level above
    that depth is walked, and a later row there whose state is within
    1e-12 of it (max abs) hands it its shots; any other row is walked at
    once. Rows are placed in the order a node-by-node depth-first walk
    would place them, so the same rows merge.
    """
    shots = len(uniforms if patterns is None else patterns)
    carried = patterns is None and uniforms.ndim == 1
    order = np.argsort(uniforms) if carried else None
    ordered = uniforms[order] if carried else None
    outcomes = np.zeros((shots, len(steps)), dtype=np.int16)
    probs, values, width = np.empty(shots), np.zeros(shots), [0]
    held = [{} for _ in range(len(steps) + 1)]  # per depth: key -> [engine, row, prefix, parts]
    # A chunk's shots come in parts: one per interval of the sorted uniforms
    # when they are carried, else one per shot. The columns: row, lo, mass,
    # path probability, first and end position in ``order`` and the outcomes
    # so far; a part of one shot is the shot's index, and its outcomes go
    # straight to ``outcomes``.
    if carried:
        root_parts = (np.zeros(1, dtype=np.intp), np.zeros(1), np.ones(1), np.ones(1),
                      np.zeros(1, dtype=np.intp), np.full(1, shots), np.zeros((1, len(steps)), np.int16))
    else:
        root_parts = (np.zeros(shots, dtype=np.intp), None, None, np.ones(shots), np.arange(shots),
                      None, None)

    def take(parts, idx) -> tuple:
        return tuple(None if col is None else col[idx] for col in parts)

    def descend(table: np.ndarray, draw: int, parts: tuple) -> tuple:
        """The parts after the draw-th measurement: each outcome's share of
        each part, with the pair (row, outcome) it took in place of its row."""
        total = table.sum(axis=1)
        if tol is not None:
            off = ~(np.abs(total - 1.0) <= tol)
            if off.any():
                raise BranchError(f"branch outcome probabilities sum to {total[off][0]:.12g}, not 1")
        n = table.shape[1]
        cdf = np.cumsum(table / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        edges = np.concatenate((np.zeros((len(cdf), 1)), cdf), axis=1)
        row, lo, mass, prob, first, end, seen = parts
        if carried:
            cuts = lo[:, None] + mass[:, None] * edges[row]
            at = np.searchsorted(ordered, cuts[:, 1:-1])
            bounds = np.concatenate(
                (first[:, None], np.clip(at, first[:, None], end[:, None]), end[:, None]), axis=1
            )
            src, ks = np.nonzero(np.diff(bounds, axis=1))
            lo, high = cuts[src, ks], cuts[src, ks + 1]
            first, end, mass = bounds[src, ks], bounds[src, ks + 1], high - lo
            row, prob, seen = row[src], prob[src], seen[src]
            seen[:, draw] = ks
        elif patterns is not None:  # a part per shot, which the chunk owns
            ks = np.take(patterns[:, draw], first)
            if ks.min() < 0 or ks.max() >= n:
                bad = ks[(ks < 0) | (ks >= n)][0]
                raise BranchError(f"forced outcome {bad} is not one of 0..{n - 1}")
            outcomes[first, draw] = ks
        else:  # a fresh uniform: lo = 0 and mass = 1
            u = np.take(uniforms[:, draw], first)
            ks = np.zeros(len(u), dtype=np.intp)
            for j in range(1, n):
                ks += u >= np.take(edges[:, j], row)
            outcomes[first, draw] = ks
        codes = row * n + ks
        prob *= np.take(table, codes)
        return codes, lo, mass, prob, first, end, seen

    def place(level, depth: int, prefixes: list, parts: tuple, stack: list) -> None:
        """Push the rows of ``level`` at ``depth`` to be walked, or, with
        ``key``, hold each row first at its key and hand a later row's
        parts to its holder when their states agree."""
        if key is None:
            stack.append((level, depth, prefixes, parts))
            return
        by_row = np.argsort(parts[0], kind="stable")
        bounds = np.cumsum(np.bincount(parts[0], minlength=len(prefixes)))
        parts_of = [take(parts, by_row[a:b]) for a, b in zip([0, *bounds[:-1]], bounds)]
        slots, later = held[depth], []
        for i, prefix in enumerate(prefixes):
            slot = slots.setdefault(key(prefix), [level, i, prefix, []])
            if slot[0] is level and slot[1] == i:
                slot[3].append(parts_of[i])
            else:
                later.append((i, slot))
        if not later:
            return
        rows = np.array([i for i, _ in later])
        reps = np.stack([slot[0]._state[slot[1]] for _, slot in later])
        agree = np.abs(level._state[rows] - reps).max(axis=(1, 2)) <= 1e-12
        walked = []
        for (i, slot), same in zip(later, agree.tolist()):
            if same and (slot[0] is level or level._same_frame(slot[0])):
                slot[3].append(parts_of[i])
            else:
                walked.append(i)
        if walked:
            chunk = level.select(walked) if len(walked) < len(level) else level
            stack.append((chunk, depth, [prefixes[i] for i in walked], regrouped(
                [[parts_of[i]] for i in walked])))

    def regrouped(groups: list) -> tuple:
        """One chunk's parts: group g's parts on its row g."""
        cols = [None if col[0] is None else np.concatenate(col)
                for col in zip(*(p for group in groups for p in group))]
        sizes = [len(p[0]) for group in groups for p in group]
        rows = [g for g, group in enumerate(groups) for _ in group]
        cols[0] = np.repeat(rows, sizes)
        return tuple(cols)

    def run(stack: list) -> None:
        """Walk the chunks on ``stack`` depth first."""
        while stack:
            level, start, prefixes, parts = stack.pop()
            work = level.fork() if isinstance(level, ProtocolEngine) else level
            try:
                for depth in range(start, len(steps)):
                    measurement = steps[depth](work)
                    if measurement is not None:
                        break
                else:
                    found = finish(work)
                    row, _, _, prob, shot, end, seen = parts
                    if carried:  # each part's run of shots
                        sizes = end - shot
                        at = np.repeat(shot - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
                        row, prob, seen, shot = (*(np.repeat(c, sizes, axis=0) for c in (row, prob, seen)),
                                                 order[at])
                        outcomes[shot] = seen
                    probs[shot] = prob
                    if found is not None:
                        values[shot] = np.asarray(found)[row]
                    width[0] = max(width[0], len(prefixes[0]))
                    continue
            except _Split as split:
                for a in reversed(range(0, len(level), split.rows)):
                    rows = np.arange(a, min(a + split.rows, len(level)))
                    mine = take(parts, (parts[0] >= a) & (parts[0] < a + split.rows))
                    chunk = (level.select(rows), start, prefixes[a : a + split.rows])
                    stack.append((*chunk, (mine[0] - a, *mine[1:])))
                continue
            table, branch = measurement
            codes, *rest = descend(table, len(prefixes[0]), parts)
            n = table.shape[1]
            taken = np.bincount(codes, minlength=len(table) * n) > 0
            pairs = np.flatnonzero(taken)
            rows, kids = pairs // n, pairs % n
            child = branch(rows, kids)
            kids_prefixes = [prefixes[r] + (k,) for r, k in zip(rows.tolist(), kids.tolist())]
            place(child, depth + 1, kids_prefixes, ((np.cumsum(taken) - 1)[codes], *rest), stack)

    run([(root, 0, [()], root_parts)])
    for depth, slots in enumerate(held):
        reps = list(slots.values())
        slots.clear()
        size = max(1, ROW_BUDGET // reps[0][0].layout.total_dim ** 2) if reps else 1
        for a in range(0, len(reps), size):
            part = reps[a : a + size]
            level = ProtocolEngine.stack([(slot[0], slot[1]) for slot in part])
            run([(level, depth, [slot[2] for slot in part], regrouped([slot[3] for slot in part]))])
    return outcomes[:, : width[0]], probs, values


def _sample(engine: ProtocolEngine, steps, finish, key=None, **draws):
    """`_walk` a protocol with each row within 1e-9 / len(steps) of 1 (a full expansion within
    1e-9): each shot's outcomes, path probability and finish value, and the leaves' ledger."""
    ledgers = []

    def leaf(eng: ProtocolEngine):
        if not eng.ebits_conserved():
            raise ResourceError("ebit conservation violated")
        values = finish(eng)
        ledgers.append(eng.ledger)
        return values

    out, probs, values = _walk(engine, steps, leaf, key=key, tol=1e-9 / len(steps), **draws)
    return out, probs, values, ledgers[0]


def _follow(engine: ProtocolEngine, steps, rng, forced) -> list[int]:
    """The outcomes of one path of ``steps`` run on ``engine`` itself (one
    row), each drawn as ``rng.choice(k, p=row)`` (the engine's single-path
    draw), or taken from ``forced``."""
    if (rng is None) == (forced is None):
        raise EstimationError("pass exactly one of rng or forced")
    if len(engine) != 1:
        raise EstimationError("one path is followed on an engine of one row")
    outcomes = []
    for step in steps:
        measurement = step(engine)
        if measurement is None:
            continue
        (row,), branch = measurement
        if forced is None:
            k = int(rng.choice(len(row), p=row / row.sum()))
        else:
            k = forced[len(outcomes)]
            if k not in range(len(row)):
                raise BranchError(f"forced outcome {k} is not one of 0..{len(row) - 1}")
        branch(np.zeros(1, dtype=np.intp), np.array([k]))
        outcomes.append(k)
    return outcomes


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

        def correct(eng: ProtocolEngine, idx: int) -> None:
            eng.consume_ebit(ebit)
            eng.broadcast(2 * math.ceil(math.log2(d)))
            eng.apply_local(dest, corrections[idx], [eb])
            eng.ledger.qt_corrections += 1
            eng.force_layer()

        return _measured(eng, source, projs, [state_label, ea], correct)

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
    forced = None if forced is None else [forced]
    (idx,) = _follow(engine, [_teleport(state_label, ebit)], rng, forced)
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
    z_basis, x_basis = _binary(np.diag([1.0, 0.0])), _binary(np.full((2, 2), 0.5))

    def z_step(eng: ProtocolEngine):
        ea, eb = _ebit_ends(eng, ebit, control_label)
        pa = eng.check_owned(eng.owner(control_label), [control_label, ea])
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        if eng.layout.dim(control_label) != 2 or eng.layout.dim(ea) != 2:
            raise DimensionError("the cat-entangler control and ebit must be qubits")
        if gate.shape != (eng.layout.dim(target_label),) * 2 or not is_unitary(gate):
            raise StateValidationError("the controlled gate must be unitary on the target")
        eng.apply_local(pa, CNOT, [control_label, ea])

        def correct(eng: ProtocolEngine, m1: int) -> None:
            eng.broadcast(1)
            eng.apply_local(pb, np.linalg.matrix_power(X, m1), [eb])
            eng.ledger.qt_corrections += 1
            eng.force_layer()

        return _measured(eng, pa, z_basis, [ea], correct)

    def x_step(eng: ProtocolEngine):
        # The Z measurement consumed the control side's half.
        (eb,) = [lab for lab in eng._ebits[ebit] if lab in eng._owner]
        pa = eng.owner(control_label)
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        eng.apply_local(pb, ctrl, [eb, target_label])

        def correct(eng: ProtocolEngine, m2: int) -> None:
            eng.broadcast(1)
            eng.apply_local(pa, np.linalg.matrix_power(Z, m2), [control_label])
            eng.ledger.qt_corrections += 1
            eng.force_layer()
            eng.consume_ebit(ebit)

        return _measured(eng, pb, x_basis, [eb], correct)

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


def _announced(
    eng: ProtocolEngine, party: str, basis, labels, oqt: bool = False, ebit: int | None = None
):
    """The binary measurement ``basis`` = (p0, 1 - p0) on ``labels``, which
    it consumes, and the broadcast of its bit; ``oqt`` counts it as an OQT
    link and ``ebit`` is the ebit it consumes."""

    def announce(eng: ProtocolEngine, bit: int) -> None:
        eng.broadcast(1)
        if oqt:
            eng.record_oqt()
        if ebit is not None:
            eng.consume_ebit(ebit)

    return _measured(eng, party, basis, labels, announce)


def _isi(party: str, program: ChoiProgram, psi: PureState, out: str, inp: str):
    """Allocate ``program`` and inject ``psi`` into its in port (ISI)."""
    basis = _binary(projector(np.conj(psi.amplitudes)))

    def step(eng: ProtocolEngine):
        eng.alloc_program(party, program, out, inp)
        return _announced(eng, party, basis, [inp])

    return step


def _program_link(party: str, program: ChoiProgram, out: str, inp: str, current: str, bell):
    """Allocate ``program`` and link ``current`` into its in port by OQT;
    ``bell`` is the link's binary basis."""

    def step(eng: ProtocolEngine):
        eng.alloc_program(party, program, out, inp)
        return _announced(eng, party, bell, [inp, current], oqt=True)

    return step


def _readout(party: str, psi_o: PureState, labels):
    """Finish: each row's P(readout 0) of ``psi_o`` on ``labels``, then its
    broadcast bit."""
    p0 = projector(psi_o.amplitudes)

    def finish(eng: ProtocolEngine) -> np.ndarray:
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
    bell = _binary(bell_projector(d))

    def ebit_link(current: str):
        def step(eng: ProtocolEngine):
            eid = eng.distribute_ebit(a, b, "e_a", "e_b", d)
            return _announced(eng, a, bell, [current, "e_a"], oqt=True, ebit=eid)

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


def _parity_inverted_shots(parities: np.ndarray, qvals: np.ndarray, d: int, rng):
    """Each shot's readout bit, drawn from its readout-0 probability
    ``qvals[i]``, and (-1)^s (d^2 - 1)^s (hit - alpha_s), an unbiased
    estimate of the unmixed readout-0 probability, with s the number of odd
    parities among ``parities[i]``."""
    s = parities.sum(axis=1)
    counts = np.arange(parities.shape[1] + 1)
    base = ((-1.0) ** counts) * float(d * d - 1) ** counts
    alpha = np.array([parity_mix_alpha(int(v), d) for v in counts])
    y = (rng.random(len(qvals)) >= qvals).astype(np.int8)
    return y, base[s] * ((y == 0) - alpha[s])


def run_dbqc(alice: Party, bob: Party, shots: int, rng: np.random.Generator) -> DbqcResult:
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
    key, uniforms = _isi_bit_and_parity_count, rng.random(shots)
    patterns, _, qvals, ledger = _sample(*protocol, key, uniforms=uniforms)
    y, inv = _parity_inverted_shots(patterns[:, 1:], qvals, d, rng)
    b = patterns[:, 0]
    t_hat = np.where(b == 0, inv, 1.0 - (d - 1) * inv)
    estimate, stderr = mean_stderr(t_hat)
    return DbqcResult(
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        isi_bits=b,
        parity_bits=patterns[:, 1:],
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
    bell_a, bell_b = _binary(bell_projector(da)), _binary(bell_projector(db))

    steps = [
        _isi(a.name, a.programs[0], a.states[0], "a_out", "a_in"),
        _isi(b.name, b.programs[0], b.states[0], "b_out", "b_in"),
        lambda eng: _announced(eng, a.name, bell_a, ["a_out", "c_in1"], oqt=True, ebit=e1),
        lambda eng: _announced(eng, b.name, bell_b, ["b_out", "c_in2"], oqt=True, ebit=e2),
    ]
    return eng, steps, _readout(c.name, c.states[0], ["c_out"])


def _run_triparty_scheme1(a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator):
    da, db = a.states[0].dim, b.states[0].dim
    protocol = _triparty_scheme1_protocol(a, b, c)
    patterns, _, qvals, ledger = _sample(*protocol, uniforms=rng.random(shots))
    y = (rng.random(shots) >= qvals).astype(np.int8)
    ba, bb, i, j = patterns.T
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


def _run_triparty_scheme2(a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator):
    gate = controlled_block(unitary_of_choi(c.programs[0]), b.states[0].dim)
    protocol = _triparty_scheme2_protocol(a, b, gate, c.states[0])
    # Every (m1, m2, teleport) path, each walked once, has the same
    # probability, so shots draw their pattern uniformly.
    patterns = np.array(list(itertools.product((0, 1), (0, 1), range(4))))
    _, probs, qvals, ledger = _sample(*protocol, patterns=patterns)
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
        bits={"m1": patterns[idx, 0], "m2": patterns[idx, 1], "teleport": patterns[idx, 2], "y": y},
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
    bell = _binary(bell_projector(d))

    def hop(k: int, prog: ChoiProgram, out: str, inp: str, current: str):
        def count(eng: ProtocolEngine, bit: int) -> None:
            eng.record_oqt()
            if k > 0:
                eng.force_layer()

        def step(eng: ProtocolEngine):
            eng.alloc_program("device", prog, out, inp)
            return _measured(eng, "device", bell, [inp, current], count)

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
    final = MixedState(RegisterLayout.of(("s", eng.layout.dim(current))), eng.reduced([current])[0])
    record = OqtRecord(parity_bits=tuple(bits), s=sum(bits), final_state=final)
    return record, eng.ledger


def _pingpong_readout_protocol(programs, system, readout: np.ndarray):
    """The chain's engine and steps, and a finish that reads each row's
    P(``readout``) of its output."""
    eng, steps, current = _pingpong_protocol(list(programs), system)

    def finish(eng: ProtocolEngine) -> np.ndarray:
        bra = np.conj(readout) @ eng.reduced([current])
        return np.real(bra[:, None, :] @ readout)[:, 0]

    return eng, steps, finish


def pingpong_shots(programs, system, readout: np.ndarray, shots: int, rng: np.random.Generator):
    """``shots`` runs of a ping-pong chain read out on the vector
    ``readout``: each shot's parity bits, readout bit and unbiased estimate
    of |<readout| U_n ... U_1 |system>|^2, and the ledger. A unital chain's
    state depends only on the number of odd parities, so branches merge on
    it."""
    if shots < 1:
        raise EstimationError("shots must be positive")
    engine, steps, finish = _pingpong_readout_protocol(programs, system, readout)
    d = engine.layout.dim("blk0_state")
    patterns, _, qvals, ledger = _sample(engine, steps, finish, sum, uniforms=rng.random(shots))
    y, t_hat = _parity_inverted_shots(patterns, qvals, d, rng)
    return patterns, y, t_hat, ledger
