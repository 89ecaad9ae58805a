"""Scenario-driven command line: validate and run protocol scenarios.

Scenarios are JSON files with an explicit version.  `validate` reports every
violation it can find; `run` executes the scenario with a seeded generator
and writes three artifacts into the output directory: `records.jsonl` (one
record per shot), `summary.csv` (estimate, stderr, ledger counters), and
`resolved-scenario` (the scenario after flag overrides, as
`json.dumps(sort_keys=True, indent=2)` and a newline, from `_indented_json`,
which encodes a list of scalars, or of rows whose first entry is a scalar and
whose text shows no nested "[" or "{", in one C-encoder call and any other
list item by item). Reruns with identical inputs are byte-identical.

`run` applies the `--seed`/`--shots`/`--tolerance` flags to the loaded JSON;
`validate_scenario` then parses every literal once and returns the resolved
scenario (the same mapping, each literal swapped for its parsed value and
each script step for its walker steps), which the checks and the runners
read. Arrays of literals (vectors, matrices) go through the array parsers
of `gates`, which defer to `real_from_literal`. The knitting observable is
checked for Hermiticity here, once: its runner calls
`distributed._knit_estimate`, which does not check it again. A script is
validated by a dry run that follows one path of its steps
(`distributed._follow`) on a real `ProtocolEngine`: its locality, dimension
and resource errors exit 4 (5 for capacity) as `step n: ...`. Script steps
never branch on outcomes, so every path meets the registers, owners and
ebits of the dry run. A
measurement consumes its registers, so a step that names a register after
it was measured (also by `final_measure`) is refused this way. The ops are
built from the runners' steps: `isi_inject`, `oqt_link` and `final_measure`
from `distributed._announced` (an `oqt_link` through an ebit looks the ebit
up before it measures), `bell_measure_qt` from `_teleport`, and
`remote_cnot` from the two steps of `_cat_entangler`.

Every gate literal must be within `gates.UNITARY_TOL` of unitary; a gate
further off exits 3.

Each runner returns its records as columns: record key -> per-shot numpy
array (1-D for a scalar, 2-D for a list) or a nested mapping of columns (for
an object). `_write_records` turns them into `records.jsonl`, one canonical
JSON line per shot (`json.dumps(sort_keys=True, separators=(",", ":"))`, so
keys are sorted at every level) with `shot` the 0-based shot index. These
bytes are stable across versions unless CHANGES.md says otherwise.

The tri-party and script runners walk only the outcome prefixes their
shots draw (`distributed._walk`); a script's ops are walker steps. The
dbqc and ping-pong runners simulate one path and draw every shot by the
parity law (`distributed._unital_shots`). `MAX_BRANCH_BITS` caps the
branch bits of dbqc and ping-pong runs.

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
    _announced,
    _binary,
    _cat_entangler,
    _follow,
    _knit_estimate,
    _parity_basis,
    _teleport,
    _walk,
    controlled_block,
    knit_estimate,  # noqa: F401  (a binding the layer probes in bench/ wrap)
    mean_stderr,
    pingpong_run,  # noqa: F401  (a binding the layer probes in bench/ wrap)
    pingpong_shots,
    run_dbqc,
    run_triparty,
)
from .errors import (
    CapacityError,
    ObliqError,
    ResourceError,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioSemanticError,
)
from .gates import (
    X,
    complexes_from_literal,
    gate_from_literal,
    kraus_from_literal,
    matrix_from_json,
    real_from_literal,
)
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


# --- literal parsers ---


def _is_int(value) -> bool:
    """JSON integers only: `true` and `false` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def state_from_literal(obj) -> np.ndarray:
    """Resolve a state literal to a normalized vector."""
    if isinstance(obj, dict) and "basis" in obj:
        dim = obj.get("dim")
        if not _is_int(dim) or not 2 <= dim <= MAX_STATE_DIM:
            raise ScenarioSchemaError(f"basis state needs an integer dim from 2 to {MAX_STATE_DIM}")
        idx = obj["basis"]
        if not _is_int(idx) or not 0 <= idx < dim:
            raise ScenarioSchemaError(f"basis index {idx} out of range")
        vec = np.zeros(dim, dtype=complex)
        vec[idx] = 1.0
        return vec
    if isinstance(obj, dict) and "vector" in obj:
        entries = obj["vector"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioSchemaError("vector must be a non-empty list of amplitudes")
        if not 2 <= len(entries) <= MAX_STATE_DIM:
            raise ScenarioSchemaError(f"vector needs 2 to {MAX_STATE_DIM} amplitudes")
        vec = complexes_from_literal(entries)
        with np.errstate(over="ignore"):  # amplitudes near the float maximum: norm inf, refused
            norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= 1e-6:
            raise ScenarioSchemaError(f"state vector norm {norm:.6g} is not 1")
        return vec / norm
    raise ScenarioSchemaError("unrecognized state literal")


def channel_from_literal(obj) -> KrausChannel:
    from .channels import amplitude_damping_channel, dephasing_channel, depolarizing_channel

    if isinstance(obj, dict) and "channel" in obj:
        name = obj["channel"]
        if name == "dephasing":
            return dephasing_channel()
        if name == "depolarizing":
            dim = obj.get("dim", 2)
            if not _is_int(dim) or dim < 2 or dim * dim > MAX_STATE_DIM:
                top = math.isqrt(MAX_STATE_DIM)
                raise ScenarioSchemaError(f"depolarizing dim {dim!r} is not an integer from 2 to {top}")
            return depolarizing_channel(dim)
        if name == "amplitude_damping":
            return amplitude_damping_channel(real_from_literal(obj.get("gamma", 0.5)))
        raise ScenarioSchemaError(f"unknown channel name {name!r}")
    if isinstance(obj, dict) and "kraus" in obj:
        return KrausChannel(kraus_from_literal(obj))
    raise ScenarioSchemaError("unrecognized channel literal")


def _observable(rows) -> np.ndarray:
    obs = matrix_from_json(rows)
    if not is_hermitian(obs):
        raise ScenarioSchemaError("observable must be Hermitian")
    return obs


def _knit_gate(obj) -> KnitGate:
    if not isinstance(obj, dict) or not isinstance(obj.get("targets"), list):
        raise ScenarioSchemaError("needs a targets list")
    return KnitGate(
        matrix=gate_from_literal(obj), targets=tuple(obj["targets"]), cut=bool(obj.get("cut", False))
    )


# --- script steps ---


def _ebit(eng: ProtocolEngine, rid, known) -> int:
    """The engine's id of the unused ebit a script distributed as ``rid``;
    ``known`` is (engine id, registers) from its distribute step, or None.
    Its errors name ``rid``, the id the script uses."""
    if known is None or eng._ebits.get(known[0]) != known[1]:
        raise ResourceError(f"ebit {rid} was never distributed")
    if eng.is_consumed(known[0]):
        raise ResourceError(f"ebit {rid} already consumed")
    return known[0]


def _script_step(n: int, step, parties: list, resources: dict):
    """Step ``n`` of a script, parsed: (record, walker steps), where record
    is ("bits", name), ("readout",) for a `final_measure`, or () for a step
    that draws nothing. ``resources`` maps the ebit ids distributed so far
    to (engine id, registers): every path runs the same steps, so the n-th
    distributed ebit has engine id n.

    A malformed literal raises ScenarioSchemaError here. A malformed field
    gives a step that raises its ScenarioSemanticError when it runs, so the
    dry run reports it together with the errors of the other steps.
    """
    if not isinstance(step, dict) or "op" not in step:
        raise ScenarioSchemaError("each step needs an op")
    try:
        return _parse_step(n, step, parties, resources)
    except ScenarioSemanticError as exc:
        error = exc

        def refused(eng):
            raise error

        return (), [refused]


def _parse_step(n: int, step: dict, parties: list, resources: dict):
    op = step["op"]

    def party(key="party"):
        name = step.get(key)
        if name not in parties:
            raise ScenarioSemanticError(f"{key} {name!r} is not one of the parties")
        return name

    def label(key):
        value = step.get(key)
        if not isinstance(value, str):
            raise ScenarioSemanticError(f"{key} {value!r} is not a string")
        return value

    def labels():
        value = step.get("labels")
        if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
            raise ScenarioSemanticError("labels must be a non-empty list of register labels")
        return value

    def record(prefix):
        return "bits", step.get("record", f"{prefix}_{n}")

    # Literals first, so that no field error hides a schema error.
    if op in ("prepare_state", "isi_inject", "final_measure"):
        state = state_from_literal(step.get("state"))
    if op in ("prepare_program", "local_gate"):
        gate = gate_from_literal(step.get("gate"))
    for key in ("party", "party_a", "party_b"):
        if key in step:
            party(key)
    rid = step.get("resource")
    if rid is not None and not (_is_int(rid) or isinstance(rid, str)):
        raise ScenarioSemanticError(f"resource {rid!r} is not an integer or a string")
    if not isinstance(step.get("record", ""), str):
        raise ScenarioSemanticError("record must be a string")
    known = resources.get(rid)

    if op == "prepare_state":
        who, lab = party(), label("label")
        return (), [lambda eng: eng.alloc(who, lab, state)]
    if op == "prepare_program":
        program = choi_of(gate)
        who, out, inp = party(), label("out_label"), label("in_label")
        return (), [lambda eng: eng.alloc_program(who, program, out, inp)]
    if op == "local_gate":
        who, labs = party(), labels()
        return (), [lambda eng: eng.apply_local(who, gate, labs)]
    if op == "broadcast":
        count = step.get("bits")
        if not _is_int(count) or count < 0:
            raise ScenarioSemanticError("bits must be a non-negative integer")
        return (), [lambda eng: eng.broadcast(count)]
    if op == "distribute_ebit":
        d = step.get("dim", 2)
        if not _is_int(d) or d < 2 or d * d > MAX_STATE_DIM:
            top = math.isqrt(MAX_STATE_DIM)
            raise ScenarioSemanticError(f"ebit dim {d!r} is not an integer from 2 to {top}")
        if rid is None:
            raise ScenarioSemanticError("distribute_ebit needs a resource id")
        pa, pb, la, lb = party("party_a"), party("party_b"), label("label_a"), label("label_b")
        if known is not None:
            raise ScenarioSemanticError(f"ebit {rid} distributed twice")
        resources[rid] = (len(resources), (la, lb))

        def distribute(eng):
            eng.distribute_ebit(pa, pb, la, lb, d)

        return (), [distribute]
    if op == "isi_inject":
        who, inp, rec = party(), label("in_label"), record("isi")
        basis = _binary(projector(np.conj(state)))
        return rec, [lambda eng: _announced(eng, who, basis, [inp])]
    if op == "oqt_link":
        # Without a resource it is a local link inside one party: no ebit.
        who, labs, rec = party(), labels(), record("parity")

        def link(eng):
            bell = _parity_basis(eng.layout.dim(labs[0]))
            ebit = None if rid is None else _ebit(eng, rid, known)
            return _announced(eng, who, bell, labs, oqt=True, ebit=ebit)

        return rec, [link]
    if op == "bell_measure_qt":
        who, lab, rec = party(), label("state_label"), record("teleport")

        def teleport(eng):
            eng.check_owned(who, [lab])
            return _teleport(lab, _ebit(eng, rid, known))(eng)

        return rec, [teleport]
    if op == "remote_cnot":
        # Its two measurements, m1 and m2, are recorded as 2 * m1 + m2.
        who, ctrl, tgt, rec = party(), label("control"), label("target"), record("cnot")

        def z_step(eng):
            eng.check_owned(who, [ctrl])
            return _cat_entangler(ctrl, tgt, _ebit(eng, rid, known), X)[0](eng)

        def x_step(eng):
            return _cat_entangler(ctrl, tgt, _ebit(eng, rid, known), X)[1](eng)

        return rec, [z_step, x_step]
    if op == "final_measure":
        who, basis, labs = party(), _binary(projector(state)), labels()
        return ("readout",), [lambda eng: _announced(eng, who, basis, labs)]
    raise ScenarioSemanticError(f"unknown op {op!r}")


def _dry_run(sc: dict) -> list[str]:
    """Follow one path of a parsed script and return the errors of its steps.

    It continues past a failing step. A CapacityError stops it and is raised.
    """
    eng = ProtocolEngine(*sc["parties"])
    rng = np.random.default_rng(sc["seed"])
    out = []
    for n, (_, steps) in enumerate(sc["steps"]):
        try:
            _follow(eng, steps, rng, None)
        except CapacityError as exc:
            raise CapacityError(f"step {n}: {exc}") from exc
        except ObliqError as exc:
            out.append(f"step {n}: {exc}")
    return out


# --- validation ---


def load_scenario(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON, or too many digits
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path}: top level must be an object")
    return data


def _parsed(raw: dict) -> tuple[dict, list[str]]:
    """A copy of ``raw`` with each literal swapped for its parsed value, and
    the schema violations met on the way."""
    sc, out = dict(raw), []
    if raw.get("version") != SCENARIO_VERSION:
        out.append(f"version must be {SCENARIO_VERSION}")
    seed = raw.get("seed")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        out.append("seed must be a 64-bit unsigned integer")
    shots = raw.get("shots")
    if not _is_int(shots) or shots < 1:
        out.append("shots must be an integer >= 1")
    if not isinstance(raw.get("out", ""), str):
        out.append("out must be a string")
    try:
        tol = real_from_literal(raw.get("tolerance", 1e-9))
    except ScenarioSchemaError:
        tol = math.nan
    if not tol > 0:
        out.append("tolerance must be a positive number")
    sc["tolerance"] = tol
    kind = raw.get("kind")
    if kind not in KINDS:
        out.append(f"kind must be one of {KINDS}")
        return sc, out

    def parse(key, parser):
        if key not in raw:
            out.append(f"{kind} scenario needs {key}")
            return
        try:
            sc[key] = parser(raw[key])
        except ObliqError as exc:
            out.append(f"{key}: {exc}")

    def parse_each(key, parser, what="a non-empty list", fits=len):
        items = raw.get(key)
        if not isinstance(items, list) or not fits(items):
            out.append(f"{key} must be {what}")
            return
        sc[key] = []
        for n, item in enumerate(items):
            try:
                sc[key].append(parser(item))
            except ObliqError as exc:
                out.append(f"{key}[{n}]: {exc}")

    if kind == "dbqc":
        parse("input_state", state_from_literal)
        parse("readout_state", state_from_literal)
        parse_each("alice_programs", gate_from_literal)
        parse_each("bob_programs", gate_from_literal)
    elif kind == "triparty":
        if raw.get("scheme") not in ("I", "II"):
            out.append("scheme must be 'I' or 'II'")
        for key in ("psi_a", "psi_b", "readout_state"):
            parse(key, state_from_literal)
        for key in ("a_program", "b_program", "nonlocal_program"):
            parse(key, gate_from_literal)
    elif kind == "pingpong":
        parse("input_state", state_from_literal)
        parse("readout_state", state_from_literal)
        parse_each("programs", gate_from_literal)
        if raw.get("blocks", 2) != 2:
            out.append("blocks must be 2")
    elif kind == "knitting":
        if raw.get("mode", "exact_sum") not in ("exact_sum", "sampled"):
            out.append("mode must be exact_sum or sampled")
        nq = raw.get("num_qudits")
        if not _is_int(nq) or nq < 1:
            out.append("num_qudits must be an integer >= 1")
        ld = raw.get("local_dim", 2)
        if not _is_int(ld) or ld < 2:
            out.append("local_dim must be an integer >= 2")
        parse_each("gates", _knit_gate, "a list", fits=lambda items: True)
        parse("observable", _observable)
        if "input_state" in raw:
            parse("input_state", state_from_literal)
    elif kind == "channel_composition":
        parse_each("channels", channel_from_literal, "a list of two", fits=lambda items: len(items) == 2)
    elif kind == "script":
        parties = raw.get("parties")
        if (
            not isinstance(parties, list)
            or not parties
            or not all(isinstance(p, str) for p in parties)
            or len(set(parties)) != len(parties)
        ):
            out.append("script scenario needs a list of distinct party names")
            parties = []
        steps = raw.get("steps")
        if not isinstance(steps, list) or not steps:
            out.append("script scenario needs a non-empty steps list")
        else:
            sc["steps"], resources = [], {}
            for n, step in enumerate(steps):
                try:
                    sc["steps"].append(_script_step(n, step, parties, resources))
                except ObliqError as exc:
                    out.append(f"step {n}: {exc}")
    return sc, out


def _semantic_violations(sc: dict) -> list[str]:
    out = []
    kind = sc["kind"]
    if kind in ("dbqc", "pingpong"):
        d = len(sc["input_state"])
        if len(sc["readout_state"]) != d:
            out.append("readout_state dimension differs from input_state")
        keys = ("alice_programs", "bob_programs") if kind == "dbqc" else ("programs",)
        for key in keys:
            for n, g in enumerate(sc[key]):
                if g.shape[0] != d:
                    out.append(f"{key}[{n}] does not act on dimension {d}")
    elif kind == "triparty":
        da, db = len(sc["psi_a"]), len(sc["psi_b"])
        if len(sc["readout_state"]) != da * db:
            out.append("readout_state must live on the joint A x B space")
        if sc["a_program"].shape[0] != da:
            out.append("a_program does not act on psi_a")
        if sc["b_program"].shape[0] != db:
            out.append("b_program does not act on psi_b")
        u = sc["nonlocal_program"]
        if u.shape[0] != da * db:
            out.append("nonlocal_program must act on the joint A x B space")
        elif sc["scheme"] == "II":
            try:
                controlled_block(u, db)
            except ObliqError:
                out.append("scheme II needs a qubit-controlled nonlocal gate [[I,0],[0,V]]")
    elif kind == "knitting":
        nq, ld = sc["num_qudits"], sc.get("local_dim", 2)
        dim = _knit_dim(sc)
        if dim is None:
            return out  # width checks are meaningless; the capacity stage reports it
        for n, g in enumerate(sc["gates"]):
            if not all(_is_int(t) and 0 <= t < nq for t in g.targets):
                out.append(f"gates[{n}]: targets out of range")
                continue
            if len(set(g.targets)) != len(g.targets):
                out.append(f"gates[{n}]: repeated target")
                continue
            if g.matrix.shape[0] != ld ** len(g.targets):
                out.append(f"gates[{n}]: matrix does not match its targets")
            if g.cut and len(g.targets) != 2:
                out.append(f"gates[{n}]: cut gates must touch exactly two qudits")
        if sc["observable"].shape[0] != dim:
            out.append("observable does not match the circuit width")
        elif not _knit_estimates_finite(sc["observable"], ld, sum(g.cut for g in sc["gates"])):
            out.append("observable entries are so large that an estimate could overflow")
        if "input_state" in sc and len(sc["input_state"]) != dim:
            out.append("input_state does not match the circuit width")
    elif kind == "channel_composition":
        c1, c2 = sc["channels"]
        if c1.out_dim != c2.in_dim:
            out.append("channels cannot be chained: dimensions mismatch")
    elif kind == "script":
        out.extend(_dry_run(sc))
    return out


# The dbqc and ping-pong runners simulate one path, so their time no longer
# grows with the bits. The cap stays for their checks: each simulated
# outcome row must sum to 1 within 1e-9 / len(steps), which gates within
# `gates.UNITARY_TOL` = 5e-11 of unitary meet up to 16 steps, and the
# estimator multiplies each readout by (d^2-1)^s, which must stay a finite
# float64 (`oblivious.parity_inverted`) and sets the standard error.
MAX_BRANCH_BITS = 16


def _knit_estimates_finite(observable: np.ndarray, d: int, cuts: int) -> bool:
    """Whether every quantity `knit_estimate` forms stays finite: each is
    at most max |O_ij| dim^2 (one-norm of a cut)^2 per cut, and a cut's
    one-norm is at most d^4 coefficients of modulus <= 1/d."""
    with np.errstate(over="ignore"):
        largest = float(np.abs(observable).max())
    if largest == 0.0:
        return True
    dim = observable.shape[0]
    log_bound = math.log(largest) + 2 * math.log(dim) + 6 * cuts * math.log(d)
    return log_bound < math.log(sys.float_info.max)


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
    kind = sc["kind"]
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
    # A run's widest joint dimension. A dbqc or pingpong link holds a
    # register beside a program (d^3). Scheme I holds C's program
    # (d_a d_b)^2 beside A's (d_a^2), then B's (d_b^2) beside A's out port;
    # scheme II's widest is its nonlocal program's state. A composition
    # holds both channels' programs. Knitting is capped above, a script by
    # its dry run.
    peak = 1
    if kind in ("dbqc", "pingpong"):
        peak = len(sc["input_state"]) ** 3
    elif kind == "triparty":
        da, db = len(sc["psi_a"]), len(sc["psi_b"])
        peak = max(da**4 * db**2, da**3 * db**4) if sc["scheme"] == "I" else (da * db) ** 2
    elif kind == "channel_composition":
        peak = math.prod(c.in_dim * c.out_dim for c in sc["channels"])
    if peak > MAX_STATE_DIM:
        return [f"joint dimension {peak} exceeds the cap {MAX_STATE_DIM}"]
    return []


def validate_scenario(scenario: str | Path | dict) -> dict:
    """Validate a scenario and return it resolved: a copy with each literal
    swapped for its parsed value. ``scenario`` is a file path, or a loaded
    scenario with any flag overrides applied. Raises staged errors."""
    raw = scenario if isinstance(scenario, dict) else load_scenario(scenario)
    sc, schema = _parsed(raw)
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


def _state(vec: np.ndarray) -> PureState:
    return PureState(RegisterLayout.of(("s", vec.shape[0])), vec)


def _programs(gates) -> list[ChoiProgram]:
    return [choi_of(g) for g in gates]


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
    programs, psi_in = _programs(sc["programs"]), _state(sc["input_state"])
    patterns, s, y, t_hat, ledger = pingpong_shots(programs, psi_in, sc["readout_state"], sc["shots"], rng)
    estimate, stderr = mean_stderr(t_hat)
    columns = {"parity_bits": patterns, "s": s, "readout": y, "estimate": t_hat}
    return estimate, stderr, ledger, columns


def _run_knitting(sc: dict, rng: np.random.Generator):
    circuit = KnitCircuit(
        num_qudits=sc["num_qudits"],
        gates=tuple(sc["gates"]),
        local_dim=sc.get("local_dim", 2),
        input_state=sc.get("input_state"),
    )
    mode, shots = sc.get("mode", "exact_sum"), sc["shots"]
    # `_observable` and the semantic checks have checked the observable.
    res = _knit_estimate(circuit, sc["observable"], mode, shots, rng)
    if mode == "sampled":
        columns = {"knit_term_index": res.term_indices, "value": res.per_shot}
    else:
        columns = {"mode": _constant("exact_sum", shots), "estimate": _constant(res.estimate, shots)}
    ledger = ResourceLedger(knit_overhead=res.overhead, max_live_registers=sc["num_qudits"], depth=1)
    return res.estimate, res.stderr, ledger, columns


def _run_channel_composition(sc: dict, rng: np.random.Generator):
    e1, e2 = sc["channels"]
    p1, p2 = choi_of(e1), choi_of(e2)
    branch0, _ = oqt_compose_choi(p1, p2)
    composed = KrausChannel([b @ a for b in e2.kraus for a in e1.kraus])
    direct = choi_of(composed)
    distance = float(np.linalg.norm(branch0.post_state.matrix - direct.density()))
    ledger = ResourceLedger(oqt_ops=1, max_live_registers=4, depth=1)
    shots = sc["shots"]
    columns = {
        "branch": _constant(0, shots),
        "branch_probability": _constant(float(branch0.probability), shots),
        "frobenius_distance": _constant(distance, shots),
        "within_tolerance": _constant(distance <= sc["tolerance"], shots),
    }
    return distance, 0.0, ledger, columns


def _run_script(sc: dict, rng: np.random.Generator):
    """Shots walk the script's steps (`distributed._walk`). Shot i draws from
    row i of ``rng.random((shots, draws))`` as one ``rng.choice`` per draw
    would, so outcomes and generator state are those of a run per shot."""
    shots = sc["shots"]
    steps = [s for _, op_steps in sc["steps"] for s in op_steps]
    draws = sum(len(op_steps) for record, op_steps in sc["steps"] if record)
    uniforms = rng.random((shots, draws))
    root, ledgers = ProtocolEngine(*sc["parties"]), []
    patterns, _, _ = _walk(root, steps, lambda eng: ledgers.append(eng.ledger), uniforms)
    columns, col = {"bits": {}}, 0
    for record, op_steps in sc["steps"]:
        if not record:
            continue
        value = np.zeros(shots, dtype=np.int64)
        for outcome in patterns[:, col : col + len(op_steps)].T:
            value = 2 * value + outcome
        col += len(op_steps)
        if record[0] == "bits":
            columns["bits"][record[1]] = value
        else:
            columns["readout"] = value
    ledger = ledgers[0]
    if "readout" not in columns:
        return math.nan, 0.0, ledger, columns
    estimate, stderr = mean_stderr((columns["readout"] == 0).astype(float))
    return estimate, stderr, ledger, columns


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


# One encoder: `json.dumps` with options builds a new one per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _indented_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, with each list of
    scalars, or of non-empty lists of scalars, written by one call of the C
    encoder (``indent`` selects the pure-Python one). No raw newline occurs
    inside an encoded scalar, so the separators are found by text; nor does
    JSON escape "[" or "{", so rows (whose first entry is a scalar) hold only
    scalars iff their text holds no "{" and no "[" but each row's own."""
    inner, deeper = pad + "  ", pad + "    "
    if isinstance(obj, dict) and obj:
        items = [f"{json.dumps(k)}: {_indented_json(obj[k], inner)}" for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not (isinstance(obj, list) and obj):
        return json.dumps(obj)
    kinds, nested = set(map(type, obj)), {list, dict}
    if not kinds & nested:
        return "[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] + pad + "]"
    if kinds == {list} and all(obj) and type(obj[0][0]) not in nested:
        rows = json.dumps(obj, separators=("," + deeper, ": "))[2:-2]
        if rows.count("[") == len(obj) - 1 and "{" not in rows:
            body = rows.replace("]," + deeper + "[", f"{inner}],{inner}[{deeper}")
            return f"[{inner}[{deeper}{body}{inner}]{pad}]"
    return "[" + inner + ("," + inner).join([_indented_json(v, inner) for v in obj]) + pad + "]"


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


def _values(col, idx: np.ndarray) -> list[str]:
    """The canonical JSON of `col` at each shot in `idx`. No encoded bool,
    int or float holds a comma or a bracket, so a numeric column is encoded
    by one call and split by text; strings may, so each is encoded alone.
    A 2-D integer column (bit rows) encodes each of its distinct rows once."""
    if isinstance(col, dict):
        keys = sorted(col)
        prefixes = [_canonical_json(k) + ":" for k in keys]
        members = zip(*[_values(col[k], idx) for k in keys]) if keys else [()] * len(idx)
        return ["{" + ",".join(map(str.__add__, prefixes, m)) + "}" for m in members]
    rows = col[idx]
    if col.dtype.kind not in "biuf":
        return [_canonical_json(v) for v in rows.tolist()]
    if col.ndim == 1:
        return _canonical_json(rows.tolist())[1:-1].split(",")
    inverse = None
    if col.dtype.kind in "biu" and rows.size:
        # Each row's digits above the least entry, read in one radix, key it.
        digits = rows.astype(np.int64) - rows.min()
        radix = int(digits.max()) + 1
        if radix ** rows.shape[1] < 1 << 62:
            key = digits @ radix ** np.arange(rows.shape[1], dtype=np.int64)
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            rows = rows[first]
    # A width-0 column reads "[[],[]]": its pieces are empty, as they should be.
    texts = [f"[{v}]" for v in _canonical_json(rows.tolist())[2:-2].split("],[")]
    return texts if inverse is None else [texts[i] for i in inverse.tolist()]


def _write_records(path: Path, columns: dict, shots: int) -> None:
    """Write `records.jsonl`: one canonical JSON object per shot, in order.

    `columns` maps each record key to a per-shot array (1-D for a scalar,
    2-D for a list) or to a nested mapping of such columns (for an object).
    The writer adds `shot`, the 0-based index. Shots with equal rows share
    one rendering, built by column (`_values`, one encoder call per numeric
    column at one shot per row): the keys before `shot` and those after it
    each render as an object, split open, and each line is head + shot + tail.
    """
    key, n = _row_keys(columns, shots)
    # Any shot of a row stands for all of them; some codes in [0, n) have none.
    shot_of = _one_shot_per_key(key, n)
    rows = np.flatnonzero(shot_of >= 0)
    before = _values({k: c for k, c in columns.items() if k < "shot"}, shot_of[rows])
    after = _values({k: c for k, c in columns.items() if k > "shot"}, shot_of[rows])
    heads, tails = [""] * n, [""] * n
    for g, b, a in zip(rows.tolist(), before, after):
        heads[g] = '{"shot":' if b == "{}" else b[:-1] + ',"shot":'
        tails[g] = "}\n" if a == "{}" else "," + a[1:] + "\n"
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


def _with_overrides(raw: dict, overrides: dict) -> dict:
    """The loaded scenario with the --seed/--shots/--tolerance flags applied."""
    flags = {key: overrides[key] for key in ("seed", "shots", "tolerance") if overrides.get(key) is not None}
    return dict(raw, **flags)


def run_scenario(path: str | Path, overrides: dict | None = None) -> Path:
    """Validate, run, and write artifacts; returns the output directory.

    The directory is created only after the run succeeds."""
    overrides = overrides or {}
    raw = _with_overrides(load_scenario(path), overrides)
    sc = validate_scenario(raw)

    rng = np.random.default_rng(sc["seed"])
    estimate, stderr, ledger, columns = _RUNNERS[sc["kind"]](sc, rng)

    out_dir = overrides.get("out") or raw.get("out") or f"runs/{Path(path).stem}"
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "resolved-scenario").write_text(_indented_json(raw) + "\n")

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


# Built once: parsing leaves a parser unchanged.
_PARSER = _build_parser()

_EXIT_CODES = (
    (ScenarioParseError, 2),
    (ScenarioSchemaError, 3),
    (ScenarioSemanticError, 4),
    (CapacityError, 5),
)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
            validate_scenario(_with_overrides(load_scenario(args.file), overrides))
            print(f"{args.file}: valid")
            return 0
        out = run_scenario(args.file, overrides)
        print(f"wrote {out}/records.jsonl, {out}/summary.csv, {out}/resolved-scenario")
        return 0
    except Exception as exc:  # input errors by `_EXIT_CODES`; anything else, I/O included, exits 6
        code = next((code for klass, code in _EXIT_CODES if isinstance(exc, klass)), 6)
        kind = "runtime error" if code == 6 else "error"
        print(f"{kind}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
