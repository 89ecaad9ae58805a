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
outcome k leaves tr_M((P_k ox 1) rho) / p_k, one weighted trace
(`qmath.traced_rows`), and the measured labels leave the layout and the
owner map. A forced outcome outside the measurement's outcomes is refused
before the state changes.

What the caller gives is checked once, where the engine takes it: a raw
vector or matrix state (as `PureState` and `MixedState` check theirs), a
projector that must fit the measured registers, a forced outcome, a party
and its registers. What the engine forms itself is never checked again:
its stacked states, and what a measurement contracts them with. A `_Plan`
(positions, trace plans, the layout after) is built once per (layout,
labels), and a `_Basis` forms its projectors' columns and weights once, so
at D <= 16 an operation is a few numpy calls. Only the outcome rows keep
their sum checks, which no rounding of valid input reaches: 1e-8 per
engine measurement, 1e-9 over a runner's path.

Every protocol is defined once as a list of steps, and `_walk` is the one
walk of their outcomes. It goes level by level: every branch of a depth
runs the same step on the same registers, so one `ProtocolEngine` holds
them all as rows of a (B, D, D) stack and each engine operation acts on
every row at once. A measurement gives a (B, outcomes) table, a fork is a
row selection, and every shot of a level takes its outcome at once, from
its own row of fresh uniforms (scripts) or of given patterns (every runner).
The walk returns a row table: its leaves' paths, once each, and each shot's leaf.
The layout, owners, ebits and ledger are the engine's, shared by its rows.
As in the paper, a primitive's classical side (the bits it broadcasts, the
ebit it uses, the layer it forces) does not depend on its outcome; only
the byproduct correction does. So a measurement's follow-up is data: the
outcome-free bookkeeping ``after(engine)``, run once per level, and an
optional correction (party, operators, labels), operators[k] acting on the
rows that took outcome k. A step whose stack would outgrow `ROW_BUDGET`
complex entries runs on chunks of rows, so D <= 16 is batched whole and
D = 343 goes one row at a time. A measurement may have any number of
outcomes: two for a binary one, d**2 for a teleportation.
`teleport_state`, `remote_controlled_gate`, `pingpong_run` (the one
single-path OQT chain) and the engine's own measurements follow one path
on an engine of one row (`_follow`, one ``rng.choice`` per measurement).
`_announced` is the one announced measurement (measure, broadcast, count
an OQT link, consume an ebit, correct the byproduct), shared by the
runners and the CLI's script ops.

The runners walk a few patterns and then draw their shots from a law. An
oblivious primitive's outcomes say nothing of the program, so their laws
are fixed: an ISI bit is 0 with probability 1/d, an OQT parity with 1/d^2.
`oblivious._law_patterns` draws such bits, one fresh ``rng.random(shots)``
per step, as ``rng.choice`` over the step's law would. It takes one CDF per
step (a bit's is its edge), so it also draws sampled knitting's Pauli pair
at each cut, whose law |c_i| / sum |c| is fixed too. Tri-party
scheme I walks its 16 patterns once and draws from that law; scheme II
walks its 16 equally likely paths. dbqc and ping-pong take unital programs
only (`oblivious.check_unital`) and read their readout probabilities off
the paper's parity law: after ISI bit b and s odd parities the branch
state is alpha_s I + c_s rho(b, 0), with c_s = (-1)^s / (d^2-1)^s, and
rho(1, 0) = (I - rho(0, 0)) / (d - 1). So `_unital_shots` simulates the
all-trivial path alone, following it as `_follow` does, and forms every
other branch's readout probability from it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    _law_patterns,
    bell_projector,
    check_square_ports,
    check_unital,
    controlled_gate,
    mean_stderr,
    parity_inverted,
    parity_weights,
)
from .qmath import (
    MAX_STATE_DIM,
    RegisterLayout,
    _trace_plan,
    apply_on_targets,
    as_complex,
    embed_operator,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    is_hermitian,
    is_unitary,
    kron_rows,
    layout_of,
    partial_trace,
    projector,
    traced_rows,
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
        counters = self.as_dict()
        overhead = counters.pop("knit_overhead")
        if any(c < 0 for c in counters.values()) or overhead < 1.0:
            raise ResourceError(f"invalid ledger {self}")

    def as_dict(self) -> dict:
        return dict(vars(self))  # the fields, in order; all are numbers


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
    new owner and register an entanglement resource id; a runner refuses a
    leaf that leaves one unconsumed (`ebits_unused`).
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
        twin.ledger = ResourceLedger(**vars(self.ledger))
        return twin

    def _rows(self, rows) -> np.ndarray:
        """The states of the rows ``rows`` (increasing indices); a run of
        rows is a view of the state array."""
        a, b = rows[0], rows[-1] + 1
        return self._state[a:b] if b - a == len(rows) else self._state[rows]

    def select(self, rows) -> ProtocolEngine:
        """An independent copy holding the rows ``rows`` (increasing indices),
        sharing the state array as `fork` does."""
        twin = self.fork()
        twin._state = self._rows(rows)
        return twin

    def reduced(self, labels) -> np.ndarray:
        return partial_trace(self._state, list(labels), self.layout)

    def _probabilities(self, party: str, basis: _Basis, labels) -> np.ndarray:
        """tr(P rho_labels) for each row and each projector P of ``basis`` on
        the registers ``labels``: a (rows, outcomes) table."""
        self.check_owned(party, labels)
        plan = _plan(self._layout, tuple(labels))
        m = plan.dim
        if basis.dim != m:
            raise DimensionError(f"operator shapes do not match the registers {list(labels)}")
        reduced = traced_rows(self._state, self._layout.dims, plan.reduce)
        # Column k is vec(P_k^T), so each row's entries are one vector-matrix product.
        return (reduced.reshape(len(reduced), 1, m * m) @ basis.columns)[:, 0].real

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
        regs = [(out_label, program.out_dim, name)]
        if isinstance(in_labels, str):
            regs.append((in_labels, program.in_dim, name))
        else:
            regs += [(lab, dim, name) for lab, dim in in_labels]
            if math.prod(dim for _, dim, _ in regs[1:]) != program.in_dim:
                raise DimensionError("in-port register dims do not factor the in dimension")
        self._append_block(regs, program.density())

    def distribute_ebit(
        self, party_a: str, party_b: str, label_a: str, label_b: str, d: int = 2
    ) -> int:
        na, nb = self._party(party_a), self._party(party_b)
        self._append_block([(label_a, d, na), (label_b, d, nb)], bell_projector(d))
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

    def discard(self, labels) -> None:
        """Trace out the registers ``labels``."""
        plan = _plan(self._layout, tuple(labels))
        self._state = traced_rows(self._state, self._layout.dims, plan.collapse)
        self._drop(plan)

    def _drop(self, plan: _Plan) -> None:
        """Take the registers a measurement consumed out of the layout and
        the owner map."""
        self._layout = plan.after
        for lab in plan.labels:
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
        return self._probabilities(party, _Basis([p0]), labels)[:, 0].clip(0.0, 1.0)

    def measure_projective(
        self,
        party: str,
        projectors,
        labels,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """One outcome per projector; consumes ``labels`` as `measure_binary` does."""
        return self._project(party, _Basis(projectors), labels, rng, forced)

    def _project(self, party, basis, labels, rng, forced) -> tuple[int, float]:
        """One path of a one-step protocol (`_follow`): the outcome, drawn
        with ``rng`` or taken from ``forced``, and its probability."""
        measured = _measured(self, party, basis, labels)
        (idx,) = _follow(self, [lambda eng: measured], rng, None if forced is None else [forced])
        return idx, float(measured[0][0, idx])

    def _outcomes(self, party, basis, labels) -> np.ndarray:
        """Each row's probability of each projector of ``basis`` on
        ``labels``, clipped at 0; raises unless every row sums to 1 within
        1e-8, and never renormalizes."""
        probs = np.maximum(self._probabilities(party, basis, labels), 0.0)
        total = probs.sum(axis=1)
        off = np.abs(total - 1.0) > 1e-8
        if off.any():
            raise StateValidationError(f"measurement probabilities sum to {total[off][0]}")
        return probs

    def _branch(self, rows, ks, plan, basis, table, after=None, correct=None) -> ProtocolEngine:
        """This engine's rows ``rows`` collapsed on the outcomes ``ks`` (pairs
        sorted by row, then outcome), in that order. Outcome k's projector
        weights the trace of the measured registers on the rows that took
        it, which are divided by their probabilities in ``table`` and, with
        ``correct`` = (party, operators, labels), conjugated by operators[k]
        on ``labels``. The layout and the owner map then change once, and
        ``after(engine)`` does the outcome-free follow-up once for every row.
        The engine is consumed."""
        weights = basis.weights(plan)
        dims = self._layout.dims
        taken = sorted(set(ks.tolist()))
        whole = len(taken) == 1  # every row took one outcome: nothing to scatter
        out = None if whole else np.empty((len(rows), *(plan.after.total_dim,) * 2), dtype=complex)
        for k in taken:
            mine = slice(None) if whole else ks == k
            sel = rows[mine]
            probs = table[sel, k]
            if probs.min() < 1e-14:
                raise BranchError(f"measurement branch {k} has vanishing probability")
            state = traced_rows(self._rows(sel), dims, plan.collapse, weights[k])
            state /= probs[:, None, None]
            if correct is not None:
                state = apply_on_targets(correct[1][k], state, correct[2], plan.after, conjugate=True)
            if whole:
                out = state
            else:
                out[mine] = state
        self._state = out
        self._drop(plan)
        self._touch()
        if after is not None:
            after(self)
        return self


class _Basis(tuple):
    """A measurement's projectors, with what the engine contracts: the
    columns vec(P_k^T) of its outcome tables, and per plan each projector
    as its collapse's weight vec(W^T), W's factors in layout order. A
    protocol builds its bases once (`_binary`, `_parity_basis`,
    `_bell_basis`), so every run reuses what they formed."""

    def __new__(cls, projectors):
        basis = super().__new__(cls, [as_complex(p) for p in projectors])
        m = basis[0].shape[0] if basis and basis[0].ndim == 2 else 0
        fits = all(p.shape == (m, m) for p in basis)
        basis.dim = m if fits else 0  # the dimension of the registers they fit; 0 for none
        basis.columns = np.empty((basis.dim**2, len(basis)), dtype=complex)
        for k, proj in enumerate(basis if fits else ()):
            basis.columns[:, k] = proj.T.reshape(-1)
        basis._weights = {}
        return basis

    def weights(self, plan: _Plan) -> tuple[np.ndarray, ...]:
        """Each projector's vec(W^T), its tensor factors (in label order)
        permuted into layout order for the collapse."""
        key = (plan.dims, plan.axes)
        if key not in self._weights:
            shape = plan.dims * 2
            self._weights[key] = tuple(
                p.reshape(shape).transpose(plan.axes).reshape(p.shape).T.reshape(-1) for p in self
            )
        return self._weights[key]


class _Plan(NamedTuple):
    """How a measurement of ``labels`` reads and collapses a stack on one
    layout, built once per (layout, labels) by `_plan`."""

    labels: tuple
    dims: tuple  # of the measured registers, in label order
    dim: int
    axes: tuple  # the transpose that puts an operator's factors in layout order
    reduce: tuple  # the outcome table's trace plan, keeping ``labels``
    collapse: tuple  # the collapse's trace plan, keeping the rest
    after: RegisterLayout


@functools.lru_cache(maxsize=4096)
def _plan(layout: RegisterLayout, labels: tuple) -> _Plan:
    """The `_Plan` of measuring ``labels`` on ``layout``; unknown or
    repeated labels are refused."""
    pos = tuple(layout.index(lab) for lab in labels)
    if len(set(pos)) != len(pos):
        raise DuplicateLabelError(f"repeated register in {list(labels)}")
    keep = tuple(k for k in range(len(layout)) if k not in pos)
    dims, order = tuple(layout.dims[p] for p in pos), np.argsort(pos).tolist()
    axes = (*order, *(len(pos) + k for k in order))
    after = layout_of(tuple(layout.regs[k] for k in keep))
    return _Plan(labels, dims, math.prod(dims), axes, _trace_plan(layout.dims, pos),
                 _trace_plan(layout.dims, keep), after)


def _binary(p0: np.ndarray) -> _Basis:
    """The basis (p0, 1 - p0) of a binary measurement."""
    p0 = as_complex(p0)
    return _Basis((p0, np.eye(p0.shape[0]) - p0))


@functools.lru_cache(maxsize=None)
def _parity_basis(d: int) -> _Basis:
    """An OQT link's binary Bell basis on a pair of d-dimensional registers,
    built once per d."""
    return _binary(bell_projector(d))


# --- protocols as steps: the one walk ---

# A protocol is a list of steps. A step does the outcome-free work before its
# measurement on the level it is given (a `ProtocolEngine` holding one row
# per live branch) and returns None if it measures nothing, else the
# (rows, outcomes) probability table and branch(rows, ks): the level of the
# rows ``rows`` after the outcomes ``ks``, corrected and with its
# bookkeeping (broadcast, ebit, layer) done. A finish reads each row of a
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


def _measured(eng: ProtocolEngine, party: str, basis: _Basis, labels, after=None, correct=None):
    """A step's measurement of ``labels`` in ``basis``: the table of every
    row's outcome probabilities, formed once, and branch(rows, ks) (see
    `ProtocolEngine._branch`, with ``after`` its bookkeeping and
    ``correct`` its correction, whose party must hold its registers)."""
    table = eng._outcomes(party, basis, labels)
    plan = _plan(eng.layout, tuple(labels))
    if correct is not None:
        eng.check_owned(correct[0], correct[2])

    def branch(rows: np.ndarray, ks: np.ndarray) -> ProtocolEngine:
        return eng._branch(rows, ks, plan, basis, table, after, correct)

    return table, branch


def _ranked(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes in [0, ``n``) that some entry of ``codes`` takes, in
    increasing order, and each entry's rank among them: a table of every
    code, ranked by its cumsum, no sort."""
    taken = np.zeros(n, dtype=bool)
    taken[codes] = True
    return np.flatnonzero(taken), np.cumsum(taken)[codes] - 1


def _pattern_rows(columns, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The distinct patterns that ``columns`` (column t in range(sizes[t]),
    one entry per shot) hold, as rows in increasing mixed-radix order, and
    each shot's index among them."""
    codes = np.zeros(len(columns[0]), dtype=np.intp)
    for column, size in zip(columns, sizes):
        codes *= size
        codes += column
    kept, row_of_shot = _ranked(codes, math.prod(sizes))
    return np.stack(np.unravel_index(kept, sizes), axis=1), row_of_shot


def _walk(root, steps, finish, uniforms=None, patterns=None, tol=None):
    """Walk the shots of ``uniforms`` or ``patterns`` through ``steps`` from
    ``root`` (an engine of one row) and return its leaves as a row table:
    one row per leaf some shot reaches, numbered in the order their levels
    finish, with its outcomes (a column per draw), path probability
    (multiplied in step order from 1.0) and finish value; and each shot's
    leaf. finish(level) returns one value per row, or None.

    Level by level: a step runs once on a level, an engine holding every
    live branch of its depth, one row each, and its table gives every row's
    outcome row; with ``tol``, a row further than ``tol`` from summing to 1
    raises BranchError. The next level is branch(rows, ks) of the (row,
    outcome) pairs some shot takes, in that order: a child's path is its
    parent's with k appended, its probability its parent's times
    table[parent, k]. ``uniforms`` (a row per shot, a column per draw) give
    each draw a fresh uniform u, and a shot on row r takes outcome k when
    cdf[k-1] <= u < cdf[k] for the CDF of r's row as ``rng.choice`` forms
    it: exactly ``rng.choice(k, p=row)``, as a script draws. ``patterns`` (a
    row per shot) give the outcomes; one that is not a measurement's is
    refused before the state changes.

    An engine whose step would stack more than `ROW_BUDGET` entries raises
    `_Split`, and the step reruns on chunks of rows that fit, walked depth
    first.
    """
    shots = len(uniforms if patterns is None else patterns)
    leaf_of_shot = np.empty(shots, dtype=np.intp)
    leaves, count = [], 0  # each finished level's (paths, probabilities, values), and their rows

    def descend(table: np.ndarray, draw: int, row: np.ndarray, shot: np.ndarray) -> np.ndarray:
        """The (row, outcome) code each shot of a chunk takes at the draw-th
        measurement, for the chunk's columns row and shot index."""
        total = table.sum(axis=1)
        if tol is not None:
            off = ~(np.abs(total - 1.0) <= tol)
            if off.any():
                raise BranchError(f"branch outcome probabilities sum to {total[off][0]:.12g}, not 1")
        n = table.shape[1]
        if patterns is not None:
            ks = np.take(patterns[:, draw], shot)
            if ks.min() < 0 or ks.max() >= n:
                bad = ks[(ks < 0) | (ks >= n)][0]
                raise BranchError(f"forced outcome {bad} is not one of 0..{n - 1}")
        else:
            cdf = np.cumsum(table / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            u = np.take(uniforms[:, draw], shot)
            ks = np.zeros(len(u), dtype=np.intp)
            for j in range(n - 1):
                ks += u >= np.take(cdf[:, j], row)
        return row * n + ks

    # Chunks to walk, depth first: (level, depth, each row's outcome path and
    # path probability, each shot's row and shot index).
    path, prob = np.zeros((1, 0), dtype=np.int16), np.ones(1)
    stack = [(root, 0, path, prob, np.zeros(shots, dtype=np.intp), np.arange(shots))]
    while stack:
        level, start, path, prob, row, shot = stack.pop()
        work = level.fork()
        try:
            for depth in range(start, len(steps)):
                measurement = steps[depth](work)
                if measurement is not None:
                    break
            else:
                found = finish(work)
                values = np.zeros(len(prob)) if found is None else np.asarray(found, dtype=float)
                leaves.append((path, prob, values))
                leaf_of_shot[shot] = count + row
                count += len(prob)
                continue
        except _Split as split:
            for a in reversed(range(0, len(level), split.rows)):
                b = min(a + split.rows, len(level))
                mine = (row >= a) & (row < b)
                chunk = (path[a:b], prob[a:b], row[mine] - a, shot[mine])
                stack.append((level.select(np.arange(a, b)), start, *chunk))
            continue
        table, branch = measurement
        n = table.shape[1]
        pairs, row = _ranked(descend(table, path.shape[1], row, shot), len(table) * n)
        parents, ks = pairs // n, pairs % n
        grown = np.empty((len(pairs), path.shape[1] + 1), dtype=np.int16)
        grown[:, :-1] = path[parents]
        grown[:, -1] = ks
        stack.append((branch(parents, ks), depth + 1, grown, prob[parents] * np.take(table, pairs), row, shot))
    outcomes, probs, values = (np.concatenate(column) for column in zip(*leaves))
    return outcomes, probs, values, leaf_of_shot


def _sample(engine: ProtocolEngine, steps, finish, patterns):
    """`_walk` the outcome ``patterns`` of a protocol with each row within 1e-9 / len(steps) of 1
    (a full expansion within 1e-9): each pattern's path probability and finish value, read from
    the walk's leaves at each pattern's leaf, and the leaves' ledger."""
    ledgers = []

    def leaf(eng: ProtocolEngine):
        ledgers.append(eng.ledger)
        return _finished(eng, finish)

    _, probs, values, leaf_of_shot = _walk(engine, steps, leaf, patterns=patterns, tol=1e-9 / len(steps))
    return probs[leaf_of_shot], values[leaf_of_shot], ledgers[0]


def _finished(eng: ProtocolEngine, finish):
    """``finish`` read on a leaf, after checking that it consumed every ebit
    it was given."""
    if eng.ebits_unused:
        raise ResourceError(f"{eng.ebits_unused} ebit(s) distributed and never consumed (leaked)")
    return finish(eng)


def _parity_law(q0: float, d: int, patterns: np.ndarray, s: np.ndarray, isi: bool) -> np.ndarray:
    """Each pattern's q by the parity law: q(b, s) = (1 - c_s)/d + c_s q_b,
    with s its number of odd parities (in ``s``), b its ISI bit (its first
    column when ``isi``, else 0), q_0 = ``q0`` (the all-trivial path's) and
    q_1 = (1 - q_0)/(d - 1)."""
    c = parity_weights(d, patterns.shape[1])[s]
    qb = np.where(patterns[:, 0] == 1, (1.0 - q0) / (d - 1), q0) if isi else q0
    return (1.0 - c) / d + c * qb


def _unital_shots(protocol, d: int, isi: bool, shots: int, rng: np.random.Generator):
    """``shots`` draws of a unital pipeline (engine, steps, finish) whose
    steps are an ISI bit (with ``isi``) and then one parity bit per link,
    each followed by its readout bit y, 0 with probability q: the distinct
    rows of (outcomes, y) the shots take, each row's number s of odd
    parities, each shot's row, and the ledger.

    Only the all-trivial path is simulated, by `_follow` with the row and
    ebit checks of `_sample`; every other q comes from `_parity_law`. An
    ISI bit is 0 with probability 1/d and a parity 0 with 1/d^2 for any
    input, so `_law_patterns` draws the bits with those edges, one
    ``rng.random(shots)`` per bit, and y one more."""
    engine, steps, finish = protocol
    _follow(engine, steps, None, [0] * len(steps), tol=1e-9 / len(steps))
    (q0,) = _finished(engine, finish)
    edges = [1.0 / d if isi and t == 0 else 1.0 / (d * d) for t in range(len(steps))]
    patterns = _law_patterns(edges, rng, shots)
    s = patterns[:, int(isi):] @ np.ones(len(steps) - int(isi), dtype=int)
    q = _parity_law(float(q0), d, patterns, s, isi)
    y = rng.random(shots) >= q
    rows, row_of_shot = _pattern_rows([*patterns.T, y], (2,) * (len(steps) + 1))
    return rows, rows[:, int(isi):-1].sum(axis=1), row_of_shot, engine.ledger


def _follow(engine: ProtocolEngine, steps, rng, forced, tol=None) -> list[int]:
    """The outcomes of one path of ``steps`` run on ``engine`` itself (one
    row), each drawn as ``rng.choice(k, p=row)`` (the engine's single-path
    draw), or taken from ``forced``. With ``tol``, a row further than
    ``tol`` from summing to 1 raises BranchError, as in `_walk`."""
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
        if tol is not None and not abs(row.sum() - 1.0) <= tol:
            raise BranchError(f"branch outcome probabilities sum to {row.sum():.12g}, not 1")
        if forced is None:
            k = int(rng.choice(len(row), p=row / row.sum()))
        else:
            k = forced[len(outcomes)]
            if k not in range(len(row)):
                raise BranchError(f"forced outcome {k} is not one of 0..{len(row) - 1}")
        branch(np.zeros(1, dtype=np.intp), np.array([k]))
        outcomes.append(k)
    return outcomes


# --- teleportation primitives ---


@functools.lru_cache(maxsize=None)
def _paulis(d: int) -> np.ndarray:
    """The (d^2, d, d) stack of the Pauli operators sigma_i, built once per
    d; read-only. Read as (d^2, d^2), row i holds sigma_i's entries."""
    stack = np.array(GeneralizedPauliBasis(d).operators)
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=None)
def _bell_basis(d: int) -> _Basis:
    """The projectors onto (sigma_i x I)|omega> for the `_paulis` sigma_i,
    built once per d; read-only."""
    omega = bell_state(d).amplitudes
    projs = [projector(np.kron(sig, np.eye(d)) @ omega) for sig in _paulis(d)]
    for proj in projs:
        proj.flags.writeable = False
    return _Basis(projs)


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
        bits = 2 * math.ceil(math.log2(d))
        return _announced(eng, source, _bell_basis(d), [state_label, ea], bits, ebit=ebit,
                          correct=(dest, _paulis(d), [eb]))

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


_Z_BASIS, _X_BASIS = _binary(np.diag([1.0, 0.0])), _binary(np.full((2, 2), 0.5))
_X_POWERS, _Z_POWERS = (np.eye(2), X), (np.eye(2), Z)  # X^m and Z^m for m = 0, 1


def _cat_entangler(control_label: str, target_label: str, ebit: int, gate: np.ndarray):
    """The two steps of a controlled ``gate`` across two parties through one
    ebit: the Z measurement of the control side's ebit half, then the X
    measurement of the target side's half (see `remote_controlled_gate`)."""
    ctrl = controlled_gate(gate)

    def z_step(eng: ProtocolEngine):
        ea, eb = _ebit_ends(eng, ebit, control_label)
        pa = eng.check_owned(eng.owner(control_label), [control_label, ea])
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        if eng.layout.dim(control_label) != 2 or eng.layout.dim(ea) != 2:
            raise DimensionError("the cat-entangler control and ebit must be qubits")
        if gate.shape != (eng.layout.dim(target_label),) * 2 or not is_unitary(gate):
            raise StateValidationError("the controlled gate must be unitary on the target")
        eng.apply_local(pa, CNOT, [control_label, ea])
        return _announced(eng, pa, _Z_BASIS, [ea], correct=(pb, _X_POWERS, [eb]))

    def x_step(eng: ProtocolEngine):
        # The Z measurement consumed the control side's half.
        (eb,) = [lab for lab in eng._ebits[ebit] if lab in eng._owner]
        pa = eng.owner(control_label)
        pb = eng.check_owned(eng.owner(target_label), [target_label, eb])
        eng.apply_local(pb, ctrl, [eb, target_label])
        return _announced(eng, pb, _X_BASIS, [eb], ebit=ebit, correct=(pa, _Z_POWERS, [control_label]))

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
    """``rows`` maps each record key to one entry per distinct record the
    shots take, and ``row_of_shot`` gives each shot's record."""

    estimate: float
    stderr: float
    ledger: ResourceLedger
    shots: int
    rows: dict
    row_of_shot: np.ndarray


def _announced(
    eng: ProtocolEngine, party: str, basis, labels, bits: int = 1, oqt: bool = False,
    ebit: int | None = None, correct=None,
):
    """The measurement ``basis`` on ``labels``, which it consumes, and the
    broadcast of ``bits`` bits of its outcome; ``oqt`` counts it as an OQT
    link, ``ebit`` is the ebit it consumes, and ``correct`` = (party,
    operators, labels) is its byproduct correction, a counted event and a
    forced layer whatever the outcome."""

    def announce(eng: ProtocolEngine) -> None:
        eng.broadcast(bits)
        if oqt:
            eng.record_oqt()
        if ebit is not None:
            eng.consume_ebit(ebit)
        if correct is not None:
            eng.ledger.qt_corrections += 1
            eng.force_layer()

    return _measured(eng, party, basis, labels, announce, correct)


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
    bell = _parity_basis(d)

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


def run_dbqc(alice: Party, bob: Party, shots: int, rng: np.random.Generator) -> DbqcResult:
    """Two-party black-box pipeline: ISI at Alice, ebit OQT link, Bob's programs.

    Estimates |<psi_o| U_bob... U_alice... |psi_in>|^2 without either party
    learning the other's program.  The per-shot estimator inverts the parity
    mixing exactly, so the average is unbiased over every branch pattern.
    Every program must pass `oblivious.check_unital`: the shots are drawn
    by the parity law (`_unital_shots`), which simulates one path.
    """
    if shots < 1:
        raise EstimationError("shots must be positive")
    if not alice.programs or not bob.programs:
        raise ResourceError("both parties need at least one program")
    if not alice.states or not bob.states:
        raise ResourceError("alice needs an input state, bob a readout state")
    d = alice.states[0].dim
    check_unital(alice.programs + bob.programs, d)

    bits, s, row_of_shot, ledger = _unital_shots(_dbqc_protocol(alice, bob), d, True, shots, rng)
    b, y = bits[:, 0], bits[:, -1]
    inv = parity_inverted(y == 0, s, d)
    t_hat = np.where(b == 0, inv, 1.0 - (d - 1) * inv)
    estimate, stderr = mean_stderr(t_hat[row_of_shot])
    return DbqcResult(
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        rows={"isi_bit": b, "parity_bits": bits[:, 1:-1], "readout": y, "estimate": t_hat},
        row_of_shot=row_of_shot,
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
    rows: dict  # as in `DbqcResult`
    row_of_shot: np.ndarray


def _triparty_scheme1_protocol(a: Party, b: Party, c: Party):
    """Scheme I's engine, steps (ISI bits b_a, b_b, then parities i, j) and
    finish."""
    da, db = a.states[0].dim, b.states[0].dim
    eng = ProtocolEngine(a.name, b.name, c.name)
    eng.alloc_program(c.name, c.programs[0], "c_out", [("c_in1", da), ("c_in2", db)])
    e1 = eng.transport("c_in1", a.name)
    e2 = eng.transport("c_in2", b.name)
    bell_a, bell_b = _parity_basis(da), _parity_basis(db)

    steps = [
        _isi(a.name, a.programs[0], a.states[0], "a_out", "a_in"),
        _isi(b.name, b.programs[0], b.states[0], "b_out", "b_in"),
        lambda eng: _announced(eng, a.name, bell_a, ["a_out", "c_in1"], oqt=True, ebit=e1),
        lambda eng: _announced(eng, b.name, bell_b, ["b_out", "c_in2"], oqt=True, ebit=e2),
    ]
    return eng, steps, _readout(c.name, c.states[0], ["c_out"])


def _run_triparty_scheme1(a: Party, b: Party, c: Party, shots: int, rng: np.random.Generator):
    da, db = a.states[0].dim, b.states[0].dim
    # The bits' law is fixed whatever the programs: an ISI bit is 0 with
    # probability 1/d (a Choi state's in-port marginal is I/d), a parity bit
    # with 1/d^2 (C's in-ports are halves of a Choi state). So the 16
    # patterns are walked once, checked against the law, and drawn from it.
    edges = np.array([1.0 / da, 1.0 / db, 1.0 / (da * da), 1.0 / (db * db)])
    leaves = np.array(list(itertools.product((0, 1), repeat=4)))
    probs, qvals, ledger = _sample(*_triparty_scheme1_protocol(a, b, c), leaves)
    law = np.where(leaves == 0, edges, 1.0 - edges).prod(axis=1)
    if np.abs(probs - law).max() > 1e-9:
        raise BranchError("scheme I path probabilities are off the law of its bits")
    patterns = _law_patterns(edges, rng, shots)
    y = rng.random(shots) >= qvals[patterns @ (8, 4, 2, 1)]
    bits, row_of_shot = _pattern_rows([*patterns.T, y], (2,) * 5)
    ba, bb, i, j, y = bits.T
    k = np.maximum(i, j)

    keep = (k == 0)[row_of_shot]
    eta = np.where((ba == 0) & (bb == 0), 1.0, -1.0)
    t_hat = 0.5 * (1.0 + eta * da * db * (y == 0))
    estimate, stderr = mean_stderr(t_hat[row_of_shot][keep])
    return TripartyResult(
        scheme="I",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=int(keep.sum()),
        rows={"b_a": ba, "b_b": bb, "i": i, "j": j, "k": k, "y": y},
        row_of_shot=row_of_shot,
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
    probs, qvals, ledger = _sample(*protocol, patterns)
    if np.abs(probs - 1.0 / len(probs)).max() > 1e-9:
        raise BranchError("scheme II path probabilities are not uniform")
    if np.ptp(qvals) > 1e-10:
        raise StateValidationError("byproduct paths disagree after correction")
    q = float(qvals.mean())

    idx = rng.choice(len(probs), size=shots)
    y = rng.random(shots) >= q
    drawn, row_of_shot = _pattern_rows([idx, y], (len(probs), 2))
    path, y = drawn.T
    estimate, stderr = mean_stderr((y == 0).astype(float)[row_of_shot])
    return TripartyResult(
        scheme="II",
        estimate=estimate,
        stderr=stderr,
        ledger=ledger,
        shots=shots,
        kept=shots,
        rows={"m1": patterns[path, 0], "m2": patterns[path, 1], "teleport": patterns[path, 2], "y": y},
        row_of_shot=row_of_shot,
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


def _regrouped(m: np.ndarray, d: int) -> np.ndarray:
    """M[(a c), (b e)] as M'[(a b), (c e)], so kron(A, B)' = outer(A, B); its own inverse."""
    return m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _pauli_pair(d: int, i: int) -> np.ndarray:
    """kron(sigma_a, sigma_b), i = a d^2 + b, as np.kron's broadcast product (the same bytes)."""
    sigmas, (a, b) = _paulis(d), divmod(i, d * d)
    return (sigmas[a][:, None, :, None] * sigmas[b][None, :, None, :]).reshape(d * d, d * d)


def knit_decompose(u: np.ndarray, local_dim: int | None = None) -> KnitDecomposition:
    """U = sum_ij c_ij sigma_i x sigma_j: with S the `_paulis` stack read as
    rows, C = conj(S) U' conj(S)^T / d^2 and U' = S^T C S (U' `_regrouped`)."""
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError("gate must be a square matrix")
    n = u.shape[0]
    d = int(round(math.sqrt(n))) if local_dim is None else int(local_dim)
    if d * d != n:
        raise DimensionError(f"dimension {n} is not a two-qudit product d*d")
    if not is_unitary(u):
        raise StateValidationError("knit decomposition expects a unitary gate")
    sigmas = _paulis(d).reshape(n, n)
    coeff = sigmas.conj() @ _regrouped(u, d) @ sigmas.conj().T / n
    if np.abs(_regrouped(sigmas.T @ coeff @ sigmas, d) - u).max() > 1e-12:
        raise StateValidationError("basis reconstruction failed")
    one_norm = float(np.abs(coeff).sum())
    return KnitDecomposition(coefficients=coeff, one_norm=one_norm, overhead=one_norm**2)


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
    rows: dict | None = None  # sampled: as in `DbqcResult`, one row per drawn term
    row_of_shot: np.ndarray | None = None


def _knit_propagate(circuit: KnitCircuit, factor: np.ndarray, ops, patterns: np.ndarray):
    """``factor`` pushed through the circuit once per distinct term that the
    rows of ``patterns`` take, the t-th cut gate replaced by ops[t](k) (formed
    when applied; a lone operator m is passed as [m].__getitem__) for the
    row's k in column t: the stack of propagated terms, and each row's index
    in it. Terms that share a prefix share its propagation: at each cut only
    the (prefix, k) pairs some row takes go on, ranked by `_ranked` as
    `_walk` ranks its taken (row, outcome) pairs while its table holds at
    most 4 codes per row, and by `np.unique` of the rows' codes past that."""
    layout, row, f, t = circuit.layout, np.zeros(len(patterns), dtype=np.intp), factor[None], 0
    for g in circuit.gates:
        labels = [f"q{q}" for q in g.targets]
        if not g.cut:
            f = apply_on_targets(g.matrix, f, labels, layout)
            continue
        n = int(patterns[:, t].max()) + 1
        codes = row * n + patterns[:, t]
        if len(f) * n <= 4 * len(codes):
            kept, row = _ranked(codes, len(f) * n)
        else:
            kept, row = np.unique(codes, return_inverse=True)
        parent, k = np.divmod(kept, n)
        child = np.empty((len(k),) + f.shape[1:], dtype=complex)
        for o in np.flatnonzero(np.bincount(k, minlength=n)):
            mine = np.flatnonzero(k == o)
            child[mine] = apply_on_targets(ops[t](o), f[parent[mine]], labels, layout)
        f, t = child, t + 1
    return f, row


def knit_estimate(
    circuit: KnitCircuit,
    observable: np.ndarray,
    mode: str = "exact_sum",
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> KnitEstimate:
    """Estimate tr(O circuit(rho)) with marked gates expanded by knitting.

    A cut gate is sum_i c_i P_i over its nonzero Pauli pairs. exact_sum
    evaluates the paired double sum over the terms by linearity: one factor
    goes through the circuit, each cut gate replaced by sum_i c_i P_i.
    sampled draws each cut's pair with probability |c_i| / sum |c| (the
    ket-side term with |weight| / sum |w|) while keeping the bra side summed
    exactly, so the standard error carries one factor of sqrt(overhead) as
    the quasi-probability mass; only the distinct drawn prefixes are
    propagated, at most min(shots, terms) per cut.

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
    return _knit_estimate(circuit, observable, mode, shots, rng)


def _knit_estimate(circuit: KnitCircuit, observable: np.ndarray, mode: str, shots, rng) -> KnitEstimate:
    """`knit_estimate` of a complex Hermitian observable of the circuit's
    width, which it does not check again."""
    factor, lam = circuit.initial_factor()
    cuts, d = [], circuit.local_dim  # each cut's decomposition and nonzero pairs
    for g in (g for g in circuit.gates if g.cut):
        if len(g.targets) != 2:
            raise DimensionError("cut gates must touch exactly two qudits")
        dec = knit_decompose(g.matrix, circuit.local_dim)  # refuses a gate that is not unitary
        cuts.append((dec, np.flatnonzero(np.abs(dec.coefficients.ravel()) > 1e-14)))
    overhead = float(np.prod([dec.overhead for dec, _ in cuts]))
    one = np.zeros((1, len(cuts)), dtype=np.intp)  # the one term of one operator per cut

    if mode == "exact_sum":  # sum_lk conj(w_l) w_k <A_l R, O A_k R>, by linearity
        s = _paulis(d).reshape(d * d, d * d)  # sum_nz c_i P_i is S^T C S regrouped, C zero off nz
        kept = (np.where(np.abs(dec.coefficients) > 1e-14, dec.coefficients, 0) for dec, _ in cuts)
        ops = [[_regrouped(s.T @ c @ s, d)].__getitem__ for c in kept]
        (f,), _ = _knit_propagate(circuit, factor, ops, one)
        value = np.vdot(f, (observable @ f) * lam)
        return KnitEstimate(estimate=float(value.real), stderr=0.0, overhead=overhead)

    if mode != "sampled":
        raise EstimationError(f"unknown knit mode {mode!r}")
    if shots is None or shots < 1 or rng is None:
        raise EstimationError("sampled mode needs shots and rng")
    terms = math.prod(len(nz) for _, nz in cuts)
    if terms >= 2**63:
        raise CapacityError(f"sampled knitting has {terms} terms, past the int64 term index (2**63)")
    laws = [np.cumsum(np.abs(dec.coefficients.flat[nz])) for dec, nz in cuts]
    patterns = _law_patterns([c[:-1] / c[-1] for c in laws], rng, shots)
    drawn, row = _knit_propagate(circuit, factor, [lambda k, nz=nz: _pauli_pair(d, nz[k]) for _, nz in cuts], patterns)
    (exact,), _ = _knit_propagate(circuit, factor, [[g.matrix].__getitem__ for g in circuit.gates if g.cut], one)
    first = np.empty(len(drawn), dtype=np.intp)
    first[row] = np.arange(shots)  # a shot that drew each term
    idx, weights = np.zeros(len(drawn), dtype=np.int64), np.ones(len(drawn), dtype=complex)
    for t, (dec, nz) in enumerate(cuts):  # mixed radix in itertools.product order; w_K from 1 in cut order
        k = patterns[first, t]
        idx, weights = idx * len(nz) + k, weights * dec.coefficients.flat[nz[k]]
    mass = float(np.prod([dec.one_norm for dec, _ in cuts]))
    sandwich = ((observable @ drawn) * lam).reshape(len(drawn), -1) @ exact.conj().ravel()
    phases = np.where(np.abs(weights) > 0, weights / np.abs(weights), 1.0)
    values = mass * (phases * sandwich).real
    estimate, stderr = mean_stderr(values[row])
    rows = {"knit_term_index": idx, "value": values}
    return KnitEstimate(estimate=estimate, stderr=stderr, overhead=overhead, rows=rows, row_of_shot=row)


# --- ping-pong register reuse ---


def _pingpong_protocol(programs: list, system):
    """The chain's engine, its steps (one parity bit per hop) and the label
    that holds the output at the end."""
    if not programs:
        raise DimensionError("pingpong_run needs at least one program")
    eng = ProtocolEngine("device")
    eng.alloc("device", "blk0_state", system)
    d = eng.layout.dim("blk0_state")
    check_square_ports(programs, d)
    bell = _parity_basis(d)

    def hop(k: int, prog: ChoiProgram, out: str, inp: str, current: str):
        def count(eng: ProtocolEngine) -> None:
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
    final = MixedState.formed(layout_of((("s", eng.layout.dim(current)),)), eng.reduced([current])[0])
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
    ``readout``: the mean and standard error of the shots' unbiased
    estimates of |<readout| U_n ... U_1 |system>|^2, the ledger, and the
    records as in `DbqcResult`: ``rows`` (parity bits, number s of odd
    parities, readout bit and estimate) and ``row_of_shot``. Every program
    must pass `oblivious.check_unital`: the shots are drawn by the parity
    law (`_unital_shots`), which simulates one path."""
    if shots < 1:
        raise EstimationError("shots must be positive")
    programs = list(programs)
    protocol = _pingpong_readout_protocol(programs, system, readout)
    d = protocol[0].layout.dim("blk0_state")
    check_unital(programs, d)
    bits, s, row_of_shot, ledger = _unital_shots(protocol, d, False, shots, rng)
    y = bits[:, -1]
    t_hat = parity_inverted(y == 0, s, d)
    rows = {"parity_bits": bits[:, :-1], "s": s, "readout": y, "estimate": t_hat}
    estimate, stderr = mean_stderr(t_hat[row_of_shot])
    return estimate, stderr, ledger, rows, row_of_shot
