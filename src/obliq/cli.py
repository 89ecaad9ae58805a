"""Scenario-driven command line: validate and run protocol scenarios.

Scenarios are JSON files with an explicit version.  `validate` reports every
violation it can find; `run` executes the scenario with a seeded generator
and writes three artifacts into the output directory: `records.jsonl` (one
record per shot), `summary.csv` (estimate, stderr, ledger counters), and
`resolved-scenario` (the scenario after flag overrides).
Reruns with identical inputs are byte-identical.

Each runner returns its records as columns: record key -> per-shot numpy
array (1-D for a scalar, 2-D for a list) or a nested mapping of columns (for
an object). `_write_records` turns them into `records.jsonl`, one canonical
JSON line per shot (`json.dumps(sort_keys=True, separators=(",", ":"))`, so
keys are sorted at every level) with `shot` the 0-based shot index. These
bytes are stable across versions unless CHANGES.md says otherwise.

The dbqc, tri-party and ping-pong runners enumerate every branch pattern,
then sample shots from the patterns' probabilities. They walk the outcome
tree, so each outcome prefix is simulated once (see `distributed`). A
`script` run memoizes its outcome tree: each shot walks it from the root,
drawing with the same generator calls a fresh script run would make, and
runs the script only at a prefix not seen before. `MAX_BRANCH_BITS` caps
the branch bits of dbqc and ping-pong runs.

Exit codes: 0 success, 2 parse error, 3 schema error, 4 semantic error,
5 capacity error, 6 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channels import ChoiProgram, KrausChannel, choi_of
from .distributed import (
    KnitCircuit,
    KnitGate,
    Party,
    ProtocolEngine,
    ResourceLedger,
    check_path_probabilities,
    controlled_block,
    knit_estimate,
    mean_stderr,
    parity_inverted_shots,
    pingpong_branches,
    pingpong_run,  # noqa: F401  (a binding the layer probes in bench/ wrap)
    remote_cnot,
    run_dbqc,
    run_triparty,
    teleport_state,
)
from .errors import (
    CapacityError,
    ObliqError,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioSemanticError,
)
from .gates import gate_from_literal, kraus_from_literal, matrix_from_json
from .oblivious import bell_projector
from .qmath import MAX_STATE_DIM, RegisterLayout, is_hermitian, projector
from .states import PureState
from .superchannel import oqt_compose_choi

SCENARIO_VERSION = 1
KINDS = (
    "dbqc",
    "triparty",
    "pingpong",
    "knitting",
    "channel_composition",
    "script",
)


# --- literal helpers ---


def _is_int(value) -> bool:
    """JSON integers only: `true` and `false` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _amplitude(entry, where: str) -> complex:
    if _is_real(entry):
        return complex(entry, 0.0)
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_real, entry)):
        return complex(entry[0], entry[1])
    raise ScenarioSchemaError(f"{where}: amplitude {entry!r} is not a number or [re, im] pair")


def state_from_literal(obj, where: str) -> np.ndarray:
    """Resolve a state literal to a normalized vector."""
    if isinstance(obj, dict) and "basis" in obj:
        dim = obj.get("dim")
        if not _is_int(dim) or not 2 <= dim <= MAX_STATE_DIM:
            raise ScenarioSchemaError(
                f"{where}: basis state needs an integer dim from 2 to {MAX_STATE_DIM}"
            )
        idx = obj["basis"]
        if not _is_int(idx) or not 0 <= idx < dim:
            raise ScenarioSchemaError(f"{where}: basis index {idx} out of range")
        vec = np.zeros(dim, dtype=complex)
        vec[idx] = 1.0
        return vec
    if isinstance(obj, dict) and "vector" in obj:
        entries = obj["vector"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioSchemaError(f"{where}: vector must be a non-empty list of amplitudes")
        vec = np.array([_amplitude(c, where) for c in entries], dtype=complex)
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= 1e-6:
            raise ScenarioSchemaError(f"{where}: state vector norm {norm:.6g} is not 1")
        return vec / norm
    raise ScenarioSchemaError(f"{where}: unrecognized state literal")


def channel_from_literal(obj, where: str) -> KrausChannel:
    from .channels import amplitude_damping_channel, dephasing_channel, depolarizing_channel

    if isinstance(obj, dict) and "channel" in obj:
        name = obj["channel"]
        if name == "dephasing":
            return dephasing_channel()
        if name == "depolarizing":
            dim = obj.get("dim", 2)
            if not _is_int(dim) or dim < 2 or dim * dim > MAX_STATE_DIM:
                top = math.isqrt(MAX_STATE_DIM)
                raise ScenarioSchemaError(
                    f"{where}: depolarizing dim {dim!r} is not an integer from 2 to {top}"
                )
            return depolarizing_channel(dim)
        if name == "amplitude_damping":
            gamma = obj.get("gamma", 0.5)
            if not _is_real(gamma):
                raise ScenarioSchemaError(f"{where}: damping rate {gamma!r} is not a number")
            return amplitude_damping_channel(float(gamma))
        raise ScenarioSchemaError(f"{where}: unknown channel name {name!r}")
    if isinstance(obj, dict) and "kraus" in obj:
        try:
            return KrausChannel(kraus_from_literal(obj))
        except ObliqError as exc:
            raise ScenarioSchemaError(f"{where}: {exc}") from exc
    raise ScenarioSchemaError(f"{where}: unrecognized channel literal")


# --- validation ---


def load_scenario(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    return data


def _schema_violations(sc: dict) -> list[str]:
    out = []
    if sc.get("version") != SCENARIO_VERSION:
        out.append(f"version must be {SCENARIO_VERSION}")
    seed = sc.get("seed")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        out.append("seed must be a 64-bit unsigned integer")
    shots = sc.get("shots")
    if not _is_int(shots) or shots < 1:
        out.append("shots must be an integer >= 1")
    tol = sc.get("tolerance", 1e-9)
    if not _is_real(tol) or not tol > 0:
        out.append("tolerance must be a positive number")
    kind = sc.get("kind")
    if kind not in KINDS:
        out.append(f"kind must be one of {KINDS}")
        return out

    def check_gate(obj, where):
        try:
            gate_from_literal(obj)
        except ObliqError as exc:
            out.append(f"{where}: {exc}")

    def check_state(obj, where):
        try:
            state_from_literal(obj, where)
        except ObliqError as exc:
            out.append(str(exc))

    def need_states(*keys):
        for key in keys:
            if key not in sc:
                out.append(f"{kind} scenario needs {key}")
            else:
                check_state(sc[key], key)

    def need_gate_lists(*keys):
        for key in keys:
            progs = sc.get(key)
            if not isinstance(progs, list) or not progs:
                out.append(f"{key} must be a non-empty list of gate literals")
            else:
                for n, g in enumerate(progs):
                    check_gate(g, f"{key}[{n}]")

    if kind == "dbqc":
        need_states("input_state", "readout_state")
        need_gate_lists("alice_programs", "bob_programs")
    elif kind == "triparty":
        if sc.get("scheme") not in ("I", "II"):
            out.append("scheme must be 'I' or 'II'")
        need_states("psi_a", "psi_b", "readout_state")
        for key in ("a_program", "b_program", "nonlocal_program"):
            if key not in sc:
                out.append(f"triparty scenario needs {key}")
            else:
                check_gate(sc[key], key)
    elif kind == "pingpong":
        need_states("input_state", "readout_state")
        need_gate_lists("programs")
        if sc.get("blocks", 2) != 2:
            out.append("blocks must be 2")
    elif kind == "knitting":
        if sc.get("mode", "exact_sum") not in ("exact_sum", "sampled"):
            out.append("mode must be exact_sum or sampled")
        nq = sc.get("num_qudits")
        if not _is_int(nq) or nq < 1:
            out.append("num_qudits must be an integer >= 1")
        ld = sc.get("local_dim", 2)
        if not _is_int(ld) or ld < 2:
            out.append("local_dim must be an integer >= 2")
        gates = sc.get("gates")
        if not isinstance(gates, list):
            out.append("gates must be a list")
        else:
            for n, g in enumerate(gates):
                if not isinstance(g, dict) or not isinstance(g.get("targets"), list):
                    out.append(f"gates[{n}] needs a targets list")
                    continue
                check_gate(g, f"gates[{n}]")
        if "observable" not in sc:
            out.append("knitting scenario needs an observable")
        else:
            try:
                obs = matrix_from_json(sc["observable"])
                if not is_hermitian(obs):
                    out.append("observable must be Hermitian")
            except ObliqError as exc:
                out.append(f"observable: {exc}")
        if "input_state" in sc:
            check_state(sc["input_state"], "input_state")
    elif kind == "channel_composition":
        chans = sc.get("channels")
        if not isinstance(chans, list) or len(chans) != 2:
            out.append("channels must be a list of exactly two channel literals")
        else:
            for n, ch in enumerate(chans):
                try:
                    channel_from_literal(ch, f"channels[{n}]")
                except ObliqError as exc:
                    out.append(str(exc))
    elif kind == "script":
        steps = sc.get("steps")
        if not isinstance(steps, list) or not steps:
            out.append("script scenario needs a non-empty steps list")
        else:
            for n, step in enumerate(steps):
                if not isinstance(step, dict) or "op" not in step:
                    out.append(f"steps[{n}]: each step needs an op")
        parties = sc.get("parties")
        if (
            not isinstance(parties, list)
            or not parties
            or not all(isinstance(p, str) for p in parties)
            or len(set(parties)) != len(parties)
        ):
            out.append("script scenario needs a list of distinct party names")
    return out


_SCRIPT_OPS = (
    "prepare_state",
    "prepare_program",
    "distribute_ebit",
    "local_gate",
    "isi_inject",
    "oqt_link",
    "bell_measure_qt",
    "remote_cnot",
    "final_measure",
    "broadcast",
)


def _script_semantic_violations(sc: dict) -> list[str]:
    out = []
    parties = list(sc.get("parties", []))
    held: dict[str, str] = {}
    dims: dict[str, int] = {}
    ebits: dict[int, dict] = {}

    def need_register(step_no, label, party=None):
        if not isinstance(label, str):
            out.append(f"step {step_no}: register label {label!r} is not a string")
            return False
        if label not in held:
            out.append(f"step {step_no}: register {label!r} is not live")
            return False
        if party is not None and held[label] != party:
            out.append(
                f"step {step_no}: register {label!r} belongs to {held[label]!r}, not {party!r}"
            )
            return False
        return True

    def new_label(step_no, step, key):
        """``step[key]``, a label for a new register, or None if it is not one."""
        label = step.get(key)
        if not isinstance(label, str):
            out.append(f"step {step_no}: {key} {label!r} is not a string")
            return None
        if label in held:
            out.append(f"step {step_no}: register {label!r} already live")
        return label

    def label_list(step_no, step):
        labels = step.get("labels", [])
        if isinstance(labels, list):
            return labels
        out.append(f"step {step_no}: labels must be a list of register labels")
        return []

    for n, step in enumerate(sc.get("steps", [])):
        op = step.get("op")
        if op not in _SCRIPT_OPS:
            out.append(f"step {n}: unknown op {op!r}")
            continue
        if not isinstance(step.get("record", ""), str):
            out.append(f"step {n}: record must be a string")
        rid = step.get("resource")
        if rid is not None and not (_is_int(rid) or isinstance(rid, str)):
            out.append(f"step {n}: resource {rid!r} is not an integer or a string")
            continue
        party = step.get("party") or step.get("party_a") or step.get("control_party")
        if party is not None and party not in parties:
            out.append(f"step {n}: unknown party {party!r}")
            continue
        if op == "prepare_state":
            label = new_label(n, step, "label")
            try:
                vec = state_from_literal(step.get("state"), f"step {n}")
                if label is not None:
                    held[label] = party
                    dims[label] = vec.shape[0]
            except ObliqError as exc:
                out.append(str(exc))
        elif op == "prepare_program":
            labels = [new_label(n, step, key) for key in ("out_label", "in_label")]
            try:
                gate = gate_from_literal(step.get("gate"))
                for label in labels:
                    if label is not None:
                        held[label] = party
                        dims[label] = gate.shape[0]
            except ObliqError as exc:
                out.append(f"step {n}: {exc}")
        elif op == "distribute_ebit":
            if rid in ebits:
                out.append(f"step {n}: ebit {rid} distributed twice")
            pb = step.get("party_b")
            if pb not in parties:
                out.append(f"step {n}: unknown party {pb!r}")
                continue
            d = step.get("dim", 2)
            if not _is_int(d) or d < 2 or d * d > MAX_STATE_DIM:
                top = math.isqrt(MAX_STATE_DIM)
                out.append(f"step {n}: ebit dim {d!r} is not an integer from 2 to {top}")
                continue
            ebits[rid] = {"used": False}
            for key, owner in (("label_a", party), ("label_b", pb)):
                label = new_label(n, step, key)
                if label is not None:
                    held[label] = owner
                    dims[label] = d
        elif op in ("oqt_link", "bell_measure_qt", "remote_cnot"):
            # A local OQT link (no resource) consumes no ebit.
            if op != "oqt_link" or rid is not None:
                if rid not in ebits:
                    out.append(f"step {n}: ebit {rid} was never distributed")
                elif ebits[rid]["used"]:
                    out.append(f"step {n}: ebit {rid} already consumed")
                else:
                    ebits[rid]["used"] = True
            for key in ("labels", "state_label", "control", "target"):
                val = step.get(key)
                labs = val if isinstance(val, list) else [val] if val else []
                for lab in labs:
                    need_register(n, lab)
        elif op == "local_gate":
            try:
                gate_from_literal(step.get("gate"))
            except ObliqError as exc:
                out.append(f"step {n}: {exc}")
            for lab in label_list(n, step):
                need_register(n, lab, party)
        elif op == "isi_inject":
            if need_register(n, step.get("in_label"), party):
                try:
                    state_from_literal(step.get("state"), f"step {n}")
                except ObliqError as exc:
                    out.append(str(exc))
        elif op == "final_measure":
            for lab in label_list(n, step):
                need_register(n, lab, party)
            try:
                state_from_literal(step.get("state"), f"step {n}")
            except ObliqError as exc:
                out.append(str(exc))
        elif op == "broadcast":
            if not _is_int(step.get("bits")) or step.get("bits") < 0:
                out.append(f"step {n}: bits must be a non-negative integer")
    return out


def _semantic_violations(sc: dict) -> list[str]:
    out = []
    kind = sc.get("kind")
    if kind in ("dbqc", "pingpong"):
        d = len(state_from_literal(sc["input_state"], "input_state"))
        if len(state_from_literal(sc["readout_state"], "readout_state")) != d:
            out.append("readout_state dimension differs from input_state")
        keys = ("alice_programs", "bob_programs") if kind == "dbqc" else ("programs",)
        for key in keys:
            for n, g in enumerate(sc[key]):
                if gate_from_literal(g).shape[0] != d:
                    out.append(f"{key}[{n}] does not act on dimension {d}")
    elif kind == "triparty":
        da = len(state_from_literal(sc["psi_a"], "psi_a"))
        db = len(state_from_literal(sc["psi_b"], "psi_b"))
        do = len(state_from_literal(sc["readout_state"], "readout_state"))
        if do != da * db:
            out.append("readout_state must live on the joint A x B space")
        if gate_from_literal(sc["a_program"]).shape[0] != da:
            out.append("a_program does not act on psi_a")
        if gate_from_literal(sc["b_program"]).shape[0] != db:
            out.append("b_program does not act on psi_b")
        u = gate_from_literal(sc["nonlocal_program"])
        if u.shape[0] != da * db:
            out.append("nonlocal_program must act on the joint A x B space")
        elif sc.get("scheme") == "II":
            try:
                controlled_block(u, db)
            except ObliqError:
                out.append("scheme II needs a qubit-controlled nonlocal gate [[I,0],[0,V]]")
    elif kind == "knitting":
        nq, ld = sc["num_qudits"], sc.get("local_dim", 2)
        dim = _knit_dim(sc)
        if dim is None:
            return out  # width checks are meaningless; the capacity stage reports it
        for n, g in enumerate(sc.get("gates", [])):
            targets = g.get("targets", [])
            if not all(_is_int(t) and 0 <= t < nq for t in targets):
                out.append(f"gates[{n}]: targets out of range")
                continue
            if len(set(targets)) != len(targets):
                out.append(f"gates[{n}]: repeated target")
                continue
            mat = gate_from_literal(g)
            if mat.shape[0] != ld ** len(targets):
                out.append(f"gates[{n}]: matrix does not match its targets")
            if g.get("cut") and len(targets) != 2:
                out.append(f"gates[{n}]: cut gates must touch exactly two qudits")
        obs = matrix_from_json(sc["observable"])
        if obs.shape[0] != dim:
            out.append("observable does not match the circuit width")
        if "input_state" in sc:
            if len(state_from_literal(sc["input_state"], "input_state")) != dim:
                out.append("input_state does not match the circuit width")
    elif kind == "channel_composition":
        c1 = channel_from_literal(sc["channels"][0], "channels[0]")
        c2 = channel_from_literal(sc["channels"][1], "channels[1]")
        if c1.out_dim != c2.in_dim:
            out.append("channels cannot be chained: dimensions mismatch")
    elif kind == "script":
        out.extend(_script_semantic_violations(sc))
    return out


# The dbqc and ping-pong runners simulate the outcome tree of every binary
# measurement, 2**(bits + 1) - 1 engine segments; at this cap that is about
# half a minute (README).
MAX_BRANCH_BITS = 16


def _knit_dim(sc: dict) -> int | None:
    """local_dim ** num_qudits of a knitting circuit, or None above
    MAX_STATE_DIM; a large power is never formed."""
    dim = 1
    for _ in range(sc["num_qudits"]):
        dim *= sc.get("local_dim", 2)
        if dim > MAX_STATE_DIM:
            return None
    return dim


def _capacity_violations(sc: dict) -> list[str]:
    kind = sc.get("kind")
    if kind == "knitting" and _knit_dim(sc) is None:
        ld, nq = sc.get("local_dim", 2), sc["num_qudits"]
        return [f"circuit dimension {ld}**{nq} exceeds the cap {MAX_STATE_DIM}"]
    if kind == "dbqc":
        bits = 1 + len(sc["alice_programs"]) + len(sc["bob_programs"])
        if bits > MAX_BRANCH_BITS:
            return [f"dbqc has {bits} branch bits (1 + links), over the cap {MAX_BRANCH_BITS}"]
    if kind == "pingpong":
        bits = len(sc["programs"])
        if bits > MAX_BRANCH_BITS:
            return [f"pingpong has {bits} programs, over the cap {MAX_BRANCH_BITS}"]
    return []


def validate_scenario(path: str | Path) -> dict:
    """Parse and fully validate a scenario file; raises staged errors."""
    sc = load_scenario(path)
    schema = _schema_violations(sc)
    if schema:
        raise ScenarioSchemaError("; ".join(schema))
    semantic = _semantic_violations(sc)
    if semantic:
        raise ScenarioSemanticError("; ".join(semantic))
    capacity = _capacity_violations(sc)
    if capacity:
        raise CapacityError("; ".join(capacity))
    return sc


# --- runners ---


def _state(obj, label: str = "s") -> PureState:
    vec = state_from_literal(obj, label)
    return PureState(RegisterLayout.of((label, vec.shape[0])), vec)


def _programs(literals) -> list[ChoiProgram]:
    return [choi_of(gate_from_literal(g)) for g in literals]


def _run_dbqc(sc: dict, rng: np.random.Generator):
    alice = Party("alice", programs=_programs(sc["alice_programs"]), states=[_state(sc["input_state"])])
    bob = Party("bob", programs=_programs(sc["bob_programs"]), states=[_state(sc["readout_state"])])
    res = run_dbqc(alice, bob, sc["shots"], rng)
    columns = {
        "isi_bit": res.isi_bits,
        "parity_bits": res.parity_bits,
        "readout": res.readout_bits,
        "estimate": res.per_shot,
    }
    return res.estimate, res.stderr, res.ledger, columns


def _run_triparty(sc: dict, rng: np.random.Generator):
    a = Party("a", programs=_programs([sc["a_program"]]), states=[_state(sc["psi_a"])])
    b = Party("b", programs=_programs([sc["b_program"]]), states=[_state(sc["psi_b"])])
    c = Party("c", programs=_programs([sc["nonlocal_program"]]), states=[_state(sc["readout_state"])])
    res = run_triparty(sc["scheme"], a, b, c, sc["shots"], rng)
    columns = dict(res.bits)
    if res.scheme == "I":
        columns["kept"] = res.bits["k"] == 0
    return res.estimate, res.stderr, res.ledger, columns


def _run_pingpong(sc: dict, rng: np.random.Generator):
    programs = _programs(sc["programs"])
    psi_in = _state(sc["input_state"])
    psi_o = state_from_literal(sc["readout_state"], "readout_state")

    patterns, probs, qvals, ledger = pingpong_branches(programs, psi_in, psi_o)
    probs = check_path_probabilities(probs)
    idx, y, t_hat = parity_inverted_shots(patterns, probs, qvals, psi_in.dim, sc["shots"], rng)
    estimate, stderr = mean_stderr(t_hat)
    columns = {
        "parity_bits": patterns[idx],
        "s": patterns[idx].sum(axis=1),
        "readout": y,
        "estimate": t_hat,
    }
    return estimate, stderr, ledger, columns


def _run_knitting(sc: dict, rng: np.random.Generator):
    ld = sc.get("local_dim", 2)
    gates = tuple(
        KnitGate(
            matrix=gate_from_literal(g),
            targets=tuple(g["targets"]),
            cut=bool(g.get("cut", False)),
        )
        for g in sc["gates"]
    )
    input_state = (
        state_from_literal(sc["input_state"], "input_state") if "input_state" in sc else None
    )
    circuit = KnitCircuit(
        num_qudits=sc["num_qudits"], gates=gates, local_dim=ld, input_state=input_state
    )
    observable = matrix_from_json(sc["observable"])
    mode = sc.get("mode", "exact_sum")
    shots = sc["shots"]
    if mode == "sampled":
        res = knit_estimate(circuit, observable, mode="sampled", shots=shots, rng=rng)
        columns = {"knit_term_index": res.term_indices, "value": res.per_shot}
    else:
        res = knit_estimate(circuit, observable, mode="exact_sum")
        columns = {"mode": _constant("exact_sum", shots), "estimate": _constant(res.estimate, shots)}
    ledger = ResourceLedger(knit_overhead=res.overhead, max_live_registers=sc["num_qudits"], depth=1)
    return res.estimate, res.stderr, ledger, columns


def _run_channel_composition(sc: dict, rng: np.random.Generator):
    e1 = channel_from_literal(sc["channels"][0], "channels[0]")
    e2 = channel_from_literal(sc["channels"][1], "channels[1]")
    p1, p2 = choi_of(e1), choi_of(e2)
    branch0, _ = oqt_compose_choi(p1, p2)
    composed = KrausChannel([b @ a for b in e2.kraus for a in e1.kraus])
    direct = choi_of(composed)
    distance = float(np.linalg.norm(branch0.post_state.matrix - direct.density()))
    tol = float(sc.get("tolerance", 1e-9))
    ledger = ResourceLedger(oqt_ops=1, max_live_registers=4, depth=1)
    shots = sc["shots"]
    columns = {
        "branch": _constant(0, shots),
        "branch_probability": _constant(float(branch0.probability), shots),
        "frobenius_distance": _constant(distance, shots),
        "within_tolerance": _constant(distance <= tol, shots),
    }
    return distance, 0.0, ledger, columns


class _TreeDraws:
    """The generator one script run draws from: it replays the outcomes in
    ``known``, then draws from ``rng`` and records each new draw's
    distribution in ``tree`` under the outcome prefix before it."""

    def __init__(self, tree: dict, rng: np.random.Generator, known: tuple):
        self.tree, self.rng, self.known = tree, rng, known
        self.prefix: tuple = ()

    def choice(self, a: int, p: np.ndarray) -> int:
        depth = len(self.prefix)
        if depth < len(self.known):
            outcome = self.known[depth]
        else:
            self.tree[self.prefix] = p
            outcome = int(self.rng.choice(a, p=p))
        self.prefix += (outcome,)
        return outcome


def _run_script(sc: dict, rng: np.random.Generator):
    """Shots walk the script's outcome tree, memoized on the outcome prefix.

    `tree` maps a prefix to the distribution of the next draw, or to the
    index of the finished run in `leaves`. A shot draws each outcome it
    finds in the tree with the call `ProtocolEngine` makes, so the
    generator sees the same calls as with one script run per shot. At a
    prefix the tree does not hold yet, the shot runs the script once,
    replaying the prefix and drawing the rest from `rng`.
    """
    shots = sc["shots"]
    tree: dict[tuple, np.ndarray | int] = {}
    leaves = []
    leaf_of_shot = np.empty(shots, dtype=np.int64)
    ledger = None
    for shot in range(shots):
        prefix = ()
        node = tree.get(prefix)
        while isinstance(node, np.ndarray):
            prefix += (int(rng.choice(len(node), p=node)),)
            node = tree.get(prefix)
        if node is None:
            draws = _TreeDraws(tree, rng, prefix)
            bits, final_bit, run_ledger = _execute_script_once(sc, draws)
            if ledger is None:
                ledger = run_ledger
            node = tree[draws.prefix] = len(leaves)
            leaves.append((bits, final_bit))
        leaf_of_shot[shot] = node
    # Every shot runs the same steps, so every shot records the same keys.
    columns = {
        "bits": {
            key: np.array([bits[key] for bits, _ in leaves])[leaf_of_shot] for key in leaves[0][0]
        }
    }
    if leaves[0][1] is None:
        return math.nan, 0.0, ledger, columns
    readout = np.array([final_bit for _, final_bit in leaves])[leaf_of_shot]
    columns["readout"] = readout
    estimate, stderr = mean_stderr((readout == 0).astype(float))
    return estimate, stderr, ledger, columns


def _execute_script_once(sc: dict, rng: np.random.Generator):
    eng = ProtocolEngine(*sc["parties"])
    ebit_ids: dict = {}
    bits: dict[str, int] = {}
    final_bit = None
    for n, step in enumerate(sc["steps"]):
        op = step["op"]
        if op == "prepare_state":
            eng.alloc(step["party"], step["label"], state_from_literal(step["state"], f"step {n}"))
        elif op == "prepare_program":
            eng.alloc_program(
                step["party"],
                choi_of(gate_from_literal(step["gate"])),
                step["out_label"],
                step["in_label"],
            )
        elif op == "distribute_ebit":
            ebit_ids[step["resource"]] = eng.distribute_ebit(
                step["party_a"], step["party_b"], step["label_a"], step["label_b"], step.get("dim", 2)
            )
        elif op == "local_gate":
            eng.apply_local(step["party"], gate_from_literal(step["gate"]), step["labels"])
        elif op == "isi_inject":
            vec = state_from_literal(step["state"], f"step {n}")
            bit, _ = eng.measure_binary(
                step["party"], projector(np.conj(vec)), [step["in_label"]], rng=rng
            )
            bits[step.get("record", f"isi_{n}")] = int(bit)
            eng.broadcast(1)
            eng.discard([step["in_label"]])
        elif op == "oqt_link":
            d = eng.layout.dim(step["labels"][0])
            bit, _ = eng.measure_binary(
                step["party"], bell_projector(d), step["labels"], rng=rng
            )
            bits[step.get("record", f"parity_{n}")] = int(bit)
            eng.broadcast(1)
            eng.record_oqt()
            if step.get("resource") is not None:
                eng.consume_ebit(ebit_ids[step["resource"]])
            eng.discard(step["labels"])
        elif op == "bell_measure_qt":
            _, byproduct = teleport_state(eng, step["state_label"], ebit_ids[step["resource"]], rng=rng)
            bits[step.get("record", f"teleport_{n}")] = int(byproduct)
        elif op == "remote_cnot":
            m1, m2 = remote_cnot(eng, step["control"], step["target"], ebit_ids[step["resource"]], rng=rng)
            bits[step.get("record", f"cnot_{n}")] = int(2 * m1 + m2)
        elif op == "broadcast":
            eng.broadcast(step["bits"])
        elif op == "final_measure":
            vec = state_from_literal(step["state"], f"step {n}")
            bit, _ = eng.measure_binary(step["party"], projector(vec), step["labels"], rng=rng)
            eng.broadcast(1)
            final_bit = int(bit)
    return bits, final_bit, eng.ledger


_RUNNERS = {
    "dbqc": _run_dbqc,
    "triparty": _run_triparty,
    "pingpong": _run_pingpong,
    "knitting": _run_knitting,
    "channel_composition": _run_channel_composition,
    "script": _run_script,
}


# --- artifact writing ---


# Lines of `records.jsonl` joined in memory before each write.
_WRITE_CHUNK = 1 << 13


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _constant(value, shots: int) -> np.ndarray:
    """A column that holds `value` for every shot, without a copy per shot."""
    return np.broadcast_to(np.asarray(value), (shots,))


def _leaf_columns(columns: dict):
    """Every 1-D column: nested mappings are walked, 2-D columns split."""
    for col in columns.values():
        if isinstance(col, dict):
            yield from _leaf_columns(col)
        elif col.ndim == 2:
            yield from col.T
        else:
            yield col


def _codes(col: np.ndarray):
    """Integer codes in [0, n) for `col`, and n; equal codes mean equal values."""
    kind = col.dtype.kind
    if kind in "bi" or (kind == "u" and col.dtype.itemsize < 8):
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < col.shape[0]:
            return col.astype(np.int64) - lo, hi - lo + 1
    uniq, codes = np.unique(col, return_inverse=True)
    return codes, len(uniq)


def _one_shot_per_key(key: np.ndarray, n: int) -> np.ndarray:
    """For each value in [0, n), some shot whose key has it (-1 if none)."""
    shot = np.full(n, -1, dtype=np.int64)
    shot[key] = np.arange(len(key))
    return shot


def _row_keys(columns: dict, shots: int):
    """A key per shot in [0, n), equal exactly where rows are equal, and n.

    Column codes are folded in as mixed-radix digits. A column that the key
    so far already fixes (a constant, or an estimate computed from the bits
    before it) is skipped, so the runners' columns need no sort. Floats are
    compared by bit pattern, so 0.0 and -0.0 differ. The key is re-coded to
    its distinct values whenever its range passes `shots`, so the next fold
    stays below shots**2.
    """
    key, n = np.zeros(shots, dtype=np.int64), 1
    for col in _leaf_columns(columns):
        if col.shape != (shots,):
            raise ObliqError("internal: a record column does not have one entry per shot")
        if col.dtype.kind == "f":
            col = col.view(f"u{col.dtype.itemsize}")
        if (col == col[_one_shot_per_key(key, n)[key]]).all():
            continue
        codes, width = _codes(col)
        key, n = key * width + codes, n * width
        if n > shots:
            key, n = _codes(key)
    return key, n


def _row(columns: dict, i: int) -> dict:
    return {
        k: _row(col, i) if isinstance(col, dict) else col[i].tolist()
        for k, col in columns.items()
    }


def _line_around_shot(row: dict) -> tuple[str, str]:
    """The canonical JSON line of `row` before and after its `shot` value."""
    before = _canonical_json({k: v for k, v in row.items() if k < "shot"})
    after = _canonical_json({k: v for k, v in row.items() if k > "shot"})
    head = '{"shot":' if before == "{}" else before[:-1] + ',"shot":'
    tail = "}\n" if after == "{}" else "," + after[1:] + "\n"
    return head, tail


def _write_records(path: Path, columns: dict, shots: int) -> None:
    """Write `records.jsonl`: one canonical JSON object per shot, in order.

    `columns` maps each record key to a per-shot array (1-D for a scalar,
    2-D for a list) or to a nested mapping of such columns (for an object).
    The writer adds `shot`, the 0-based index. Shots with equal rows share
    one rendering: each distinct row goes through `_canonical_json` once,
    split around its `shot` value, and each line is head + shot + tail.
    """
    key, n = _row_keys(columns, shots)
    heads, tails = [""] * n, [""] * n
    # Any shot of a row stands for all of them.
    for g, i in enumerate(_one_shot_per_key(key, n).tolist()):
        if i >= 0:
            heads[g], tails[g] = _line_around_shot(_row(columns, i))
    with open(path, "w") as fh:
        for start in range(0, shots, _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, shots)
            fh.write(
                "".join(
                    [
                        f"{heads[g]}{i}{tails[g]}"
                        for i, g in zip(range(start, stop), key[start:stop].tolist())
                    ]
                )
            )


def _resolved_scenario(path: str | Path, overrides: dict) -> dict:
    """The validated scenario with the flag overrides applied and re-checked."""
    sc = validate_scenario(path)
    for key in ("seed", "shots", "tolerance"):
        if overrides.get(key) is not None:
            sc[key] = overrides[key]
    schema = _schema_violations(sc)
    if schema:
        raise ScenarioSchemaError("; ".join(schema))
    return sc


def run_scenario(path: str | Path, overrides: dict | None = None) -> Path:
    """Validate, run, and write artifacts; returns the output directory."""
    overrides = overrides or {}
    sc = _resolved_scenario(path, overrides)

    out_dir = overrides.get("out") or sc.get("out") or f"runs/{Path(path).stem}"
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(sc["seed"])
    estimate, stderr, ledger, columns = _RUNNERS[sc["kind"]](sc, rng)

    resolved = dict(sc)
    (out_path / "resolved-scenario").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n"
    )

    _write_records(out_path / "records.jsonl", columns, sc["shots"])

    ledger = ledger or ResourceLedger()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["kind", "seed", "shots", "estimate", "stderr"] + list(ledger.as_dict())
    row = [
        sc["kind"],
        sc["seed"],
        sc["shots"],
        repr(float(estimate)),
        repr(float(stderr)),
    ] + [repr(v) if isinstance(v, float) else v for v in ledger.as_dict().values()]
    writer.writerow(header)
    writer.writerow(row)
    (out_path / "summary.csv").write_text(buf.getvalue())
    return out_path


# --- entry point ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obliq", description="validate and run protocol scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("file")

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--shots", type=int, default=None)
    run.add_argument("--out", type=str, default=None)
    run.add_argument("--tolerance", type=float, default=None)
    run.add_argument(
        "--validate-only",
        action="store_true",
        help="validate (with overrides applied) and exit without running",
    )
    return parser


_EXIT_CODES = (
    (ScenarioParseError, 2),
    (ScenarioSchemaError, 3),
    (ScenarioSemanticError, 4),
    (CapacityError, 5),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            validate_scenario(args.file)
            print(f"{args.file}: valid")
            return 0
        overrides = {
            "seed": args.seed,
            "shots": args.shots,
            "out": args.out,
            "tolerance": args.tolerance,
        }
        if args.validate_only:
            _resolved_scenario(args.file, overrides)
            print(f"{args.file}: valid")
            return 0
        out = run_scenario(args.file, overrides)
        print(f"wrote {out}/records.jsonl, {out}/summary.csv, {out}/resolved-scenario")
        return 0
    except ObliqError as exc:
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 6
    except Exception as exc:  # I/O failures and unexpected faults
        print(f"runtime error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
