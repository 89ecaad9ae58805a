import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliq
from obliq.cli import main, run_scenario, state_from_literal, validate_scenario
from obliq.errors import ObliqError, ScenarioSchemaError
from obliq.gates import CNOT, CZ, H, gate_from_literal, matrix_to_json, real_from_literal
from obliq.qmath import random_statevector, random_unitary

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


def _minimal_dbqc(**over):
    sc = {
        "version": 1,
        "kind": "dbqc",
        "seed": 11,
        "shots": 200,
        "input_state": {"basis": 0, "dim": 2},
        "readout_state": {"basis": 0, "dim": 2},
        "alice_programs": ["H"],
        "bob_programs": ["H"],
    }
    sc.update(over)
    return sc


def test_goldens_exist():
    assert len(SCENARIOS) >= 7


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_golden_validates(path):
    assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_golden_runs(path, tmp_path):
    out = tmp_path / path.stem
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "records.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "resolved-scenario").exists()
    shots = json.loads((out / "resolved-scenario").read_text())["shots"]
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == shots
    for line in lines[:5]:
        json.loads(line)


def test_golden_runs_never_import_numpy_ma(tmp_path):
    # The first `np.unique` of a process imports numpy.ma, about 5.5 ms of
    # every run that calls it: no shipped scenario's run needs it.
    code = (
        "import sys\n"
        "from obliq.cli import main\n"
        "for k, path in enumerate(sys.argv[2:]):\n"
        "    assert main(['run', path, '--out', f'{sys.argv[1]}/{k}']) == 0, path\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(obliq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-c", code, str(tmp_path), *map(str, SCENARIOS)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout
    assert out.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("*/records.jsonl"))) == len(SCENARIOS)


def test_exit_code_parse_error(tmp_path):
    path = _write(tmp_path, "broken.json", "{ this is not json")
    assert main(["validate", path]) == 2


@pytest.mark.parametrize(
    "payload",
    [b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "integer-past-digit-limit"],
)
def test_unreadable_text_is_a_parse_error(tmp_path, payload):
    path = tmp_path / "unreadable.json"
    path.write_bytes(payload)
    assert main(["validate", str(path)]) == 2


def test_exit_code_schema_error(tmp_path):
    sc = _minimal_dbqc(alice_programs=[{"matrix": [[1, 1], [0, 1]]}])
    path = _write(tmp_path, "nonunitary.json", sc)
    assert main(["validate", path]) == 3


def test_exit_code_semantic_error(tmp_path):
    sc = {
        "version": 1,
        "kind": "script",
        "seed": 1,
        "shots": 5,
        "parties": ["a", "b"],
        "steps": [
            {"op": "prepare_state", "party": "a", "label": "x",
             "state": {"basis": 0, "dim": 2}},
            {"op": "bell_measure_qt", "party": "a", "state_label": "x", "resource": 3},
        ],
    }
    path = _write(tmp_path, "undeclared-ebit.json", sc)
    assert main(["validate", path]) == 4


def test_exit_code_capacity_error(tmp_path):
    sc = {
        "version": 1,
        "kind": "knitting",
        "seed": 1,
        "shots": 1,
        "mode": "exact_sum",
        "num_qudits": 20,
        "local_dim": 2,
        "gates": [],
        "observable": [[1, 0], [0, 1]],
    }
    path = _write(tmp_path, "too-big.json", sc)
    assert main(["validate", path]) == 5


def test_an_error_without_a_message_names_its_type(tmp_path, monkeypatch, capsys):
    from obliq import cli

    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_scenario", out_of_memory)
    path = _write(tmp_path, "dbqc.json", _minimal_dbqc())
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 6
    assert capsys.readouterr().err == "runtime error: MemoryError\n"


def _minimal_pingpong(programs):
    return {
        "version": 1,
        "kind": "pingpong",
        "seed": 3,
        "shots": 100,
        "input_state": {"basis": 0, "dim": 2},
        "readout_state": {"basis": 1, "dim": 2},
        "programs": programs,
    }


@pytest.mark.parametrize(
    "at_cap, over_cap",
    [
        (_minimal_dbqc(alice_programs=["H"] * 7, bob_programs=["H"] * 8),
         _minimal_dbqc(alice_programs=["H"] * 8, bob_programs=["H"] * 8)),
        (_minimal_pingpong(["H"] * 16), _minimal_pingpong(["H"] * 17)),
    ],
    ids=["dbqc", "pingpong"],
)
def test_branch_bit_cap_is_a_capacity_error(tmp_path, at_cap, over_cap):
    # 16 branch bits (dbqc: 1 + links; ping-pong: one per program) pass.
    assert main(["validate", _write(tmp_path, "at-cap.json", at_cap)]) == 0
    path = _write(tmp_path, "over-cap.json", over_cap)
    assert main(["validate", path]) == 5
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 5
    assert not out.exists()


def _identity(d):
    return {"matrix": [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]}


def _triparty(scheme, da, db):
    return {
        "version": 1,
        "kind": "triparty",
        "scheme": scheme,
        "seed": 5,
        "shots": 20,
        "psi_a": {"basis": 0, "dim": da},
        "psi_b": {"basis": 0, "dim": db},
        "readout_state": {"basis": 0, "dim": da * db},
        "a_program": _identity(da),
        "b_program": _identity(db),
        "nonlocal_program": _identity(da * db),
    }


def _pingpong(d):
    state = {"basis": 0, "dim": d}
    return {"version": 1, "kind": "pingpong", "seed": 5, "shots": 20, "input_state": state,
            "readout_state": state, "programs": [_identity(d)]}


def _composition(d):
    return {"version": 1, "kind": "channel_composition", "seed": 5, "shots": 3,
            "channels": [{"kraus": [_identity(d)["matrix"]]}] * 2}


@pytest.mark.parametrize(
    "at_cap, over_cap, peak",
    [
        # Scheme I peaks at max(d_a^4 d_b^2, d_a^3 d_b^4): 648, and 2,187 for qutrits.
        (_triparty("I", 2, 3), _triparty("I", 3, 3), 2187),
        # Scheme II at (d_a d_b)^2, its nonlocal program's state: 1,024 and 1,156.
        (_triparty("II", 2, 16), _triparty("II", 2, 17), 1156),
        # A dbqc or ping-pong link holds a register beside a program: d^3.
        (_minimal_dbqc(input_state={"basis": 0, "dim": 10}, readout_state={"basis": 0, "dim": 10},
                       alice_programs=[_identity(10)], bob_programs=[_identity(10)]),
         _minimal_dbqc(input_state={"basis": 0, "dim": 11}, readout_state={"basis": 0, "dim": 11},
                       alice_programs=[_identity(11)], bob_programs=[_identity(11)]), 1331),
        (_pingpong(10), _pingpong(11), 1331),
        # A composition holds both channels' programs: d^4.
        (_composition(5), _composition(6), 1296),
    ],
    ids=["triparty-I", "triparty-II", "dbqc", "pingpong", "channel-composition"],
)
def test_peak_joint_dimension_is_refused_at_validation(tmp_path, capsys, at_cap, over_cap, peak):
    """A scenario whose run would pass the joint-dimension cap is refused
    at validation with the engine's message (exit 5), not at run time; one
    at the cap validates and runs."""
    path = _write(tmp_path, "at-cap.json", at_cap)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 0
    path = _write(tmp_path, "over-cap.json", over_cap)
    capsys.readouterr()
    assert main(["validate", path]) == 5
    assert f"joint dimension {peak} exceeds the cap 1024" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 5
    assert not out.exists()


def test_validate_reports_every_violation(tmp_path, capsys):
    sc = _minimal_dbqc(seed=-4, shots=0)
    path = _write(tmp_path, "double-bad.json", sc)
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert "seed" in err
    assert "shots" in err


def test_semantic_messages_carry_step_index(tmp_path, capsys):
    sc = {
        "version": 1,
        "kind": "script",
        "seed": 1,
        "shots": 5,
        "parties": ["a"],
        "steps": [
            {"op": "prepare_state", "party": "a", "label": "x",
             "state": {"basis": 0, "dim": 2}},
            {"op": "local_gate", "party": "a", "gate": "H", "labels": ["y"]},
        ],
    }
    path = _write(tmp_path, "bad-step.json", sc)
    assert main(["validate", path]) == 4
    assert "step 1" in capsys.readouterr().err


def test_run_determinism(tmp_path):
    sc = _minimal_dbqc()
    path = _write(tmp_path, "det.json", sc)
    out_a = run_scenario(path, {"out": str(tmp_path / "a")})
    out_b = run_scenario(path, {"out": str(tmp_path / "b")})
    for name in ("records.jsonl", "summary.csv", "resolved-scenario"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_flag_overrides_reach_resolved_scenario(tmp_path):
    sc = _minimal_dbqc()
    path = _write(tmp_path, "ovr.json", sc)
    out = tmp_path / "o"
    assert main(["run", path, "--seed", "77", "--shots", "13", "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved-scenario").read_text())
    assert resolved["seed"] == 77
    assert resolved["shots"] == 13
    assert len((out / "records.jsonl").read_text().splitlines()) == 13


def test_the_shared_parser_keeps_no_flags_between_calls(tmp_path, capsys):
    sc = _minimal_dbqc()
    path = _write(tmp_path, "shared.json", sc)
    flags = ["--seed", "5", "--shots", "3", "--tolerance", "0.25", "--out", str(tmp_path / "a")]
    assert main(["run", path, *flags]) == 0
    assert main(["run", path, "--validate-only", "--out", str(tmp_path / "never")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
    resolved = json.loads((tmp_path / "b" / "resolved-scenario").read_text())
    assert (resolved["seed"], resolved["shots"]) == (sc["seed"], sc["shots"])
    assert "tolerance" not in resolved
    assert len((tmp_path / "b" / "records.jsonl").read_text().splitlines()) == sc["shots"]
    capsys.readouterr()
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == f"{path}: valid\n"


def test_shot_override_must_stay_valid(tmp_path):
    path = _write(tmp_path, "bad-override.json", _minimal_dbqc())
    out = tmp_path / "o2"
    assert main(["run", path, "--shots", "0", "--out", str(out)]) == 3


def test_validate_only_skips_artifacts(tmp_path):
    path = _write(tmp_path, "vo.json", _minimal_dbqc())
    out = tmp_path / "never"
    assert main(["run", path, "--validate-only", "--out", str(out)]) == 0
    assert not out.exists()


def test_summary_columns(tmp_path):
    path = _write(tmp_path, "cols.json", _minimal_dbqc())
    out = run_scenario(path, {"out": str(tmp_path / "s")})
    header = (out / "summary.csv").read_text().splitlines()[0].split(",")
    assert header == [
        "kind",
        "seed",
        "shots",
        "estimate",
        "stderr",
        "ebits_consumed",
        "classical_bits_sent",
        "oqt_ops",
        "qt_corrections",
        "knit_overhead",
        "max_live_registers",
        "depth",
    ]


def test_knitting_exact_single_record(tmp_path):
    # exact mode still writes one record per requested shot
    golden = [p for p in SCENARIOS if p.stem == "knitting-exact"][0]
    out = tmp_path / "ke"
    assert main(["run", str(golden), "--out", str(out)]) == 0
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["mode"] == "exact_sum"


@pytest.mark.parametrize("name", ["knitting-exact", "knitting-sampled"])
def test_a_run_checks_the_observable_once(tmp_path, monkeypatch, name):
    """Validation checks the observable; the runner does not check it again."""
    import obliq

    golden = SCENARIO_DIR / f"{name}.json"
    observable = np.array(json.loads(golden.read_text())["observable"], dtype=complex)
    checked = []
    for module in (obliq.cli, obliq.distributed, obliq.oblivious, obliq.qmath):
        real = module.is_hermitian

        def counting(a, *args, _real=real, **kwargs):
            if np.shape(a) == observable.shape and np.array_equal(a, observable):
                checked.append(a)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, "is_hermitian", counting)
    assert main(["run", str(golden), "--out", str(tmp_path / "out")]) == 0
    assert len(checked) == 1


def test_scheme2_controlled_form_checked(tmp_path):
    sc = {
        "version": 1,
        "kind": "triparty",
        "scheme": "II",
        "seed": 3,
        "shots": 10,
        "psi_a": {"basis": 0, "dim": 2},
        "psi_b": {"basis": 0, "dim": 2},
        "readout_state": {"basis": 0, "dim": 4},
        "a_program": "I",
        "b_program": "I",
        "nonlocal_program": "SWAP",
    }
    path = _write(tmp_path, "swap-nonlocal.json", sc)
    assert main(["validate", path]) == 4


def test_validate_scenario_api(tmp_path):
    path = _write(tmp_path, "ok.json", _minimal_dbqc())
    sc = validate_scenario(path)
    assert sc["kind"] == "dbqc"
    bad = _write(tmp_path, "bad.json", _minimal_dbqc(shots=0))
    with pytest.raises(ScenarioSchemaError):
        validate_scenario(bad)


@pytest.mark.parametrize(
    "over",
    [
        {"shots": True},
        {"seed": True},
        {"input_state": {"vector": None}},
        {"input_state": {"vector": [["a", 0], [0, 0]]}},
    ],
    ids=["shots-true", "seed-true", "vector-null", "vector-string-amplitude"],
)
def test_non_numbers_are_schema_errors(tmp_path, over):
    path = _write(tmp_path, "not-a-number.json", _minimal_dbqc(**over))
    assert main(["validate", path]) == 3
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 3
    assert not out.exists()


def _script_teleport():
    return json.loads((SCENARIO_DIR / "script-teleport.json").read_text())


def _script_with(step_no, **fields):
    sc = _script_teleport()
    sc["steps"][step_no].update(fields)
    return sc


def _minimal_knitting(**over):
    sc = {
        "version": 1,
        "kind": "knitting",
        "seed": 1,
        "shots": 1,
        "mode": "exact_sum",
        "num_qudits": 2,
        "local_dim": 2,
        "gates": [{"name": "CNOT", "targets": [0, 1], "cut": True}],
        "observable": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }
    sc.update(over)
    return sc


def _minimal_channel_composition(first):
    return {
        "version": 1,
        "kind": "channel_composition",
        "seed": 5,
        "shots": 1,
        "channels": [first, {"channel": "dephasing"}],
    }


@pytest.mark.parametrize(
    "sc",
    [
        _minimal_dbqc(alice_programs=[{"name": "RY", "theta": "x"}]),
        _minimal_dbqc(alice_programs=[{"name": "RY", "theta": True}]),
        _minimal_dbqc(alice_programs=[{"name": 5}]),
        _minimal_channel_composition({"channel": "amplitude_damping", "gamma": "x"}),
        _minimal_channel_composition({"channel": "amplitude_damping", "gamma": True}),
        _minimal_channel_composition({"channel": "depolarizing", "dim": "x"}),
        _minimal_channel_composition({"channel": "depolarizing", "dim": True}),
        _minimal_channel_composition({"channel": "depolarizing", "dim": 33}),
        _minimal_knitting(gates=[{"name": "CNOT", "targets": 1}]),
        _minimal_dbqc(input_state={"basis": 0, "dim": 10**30}),
        _minimal_dbqc(input_state={"vector": [10**400, 0]}),
        _script_with(0, state={"vector": [10**400, 0]}),
        _minimal_dbqc(alice_programs=[{"name": "RY", "theta": 10**400}]),
        _minimal_channel_composition({"channel": "amplitude_damping", "gamma": 10**400}),
        _minimal_dbqc(tolerance=10**400),
        _minimal_dbqc(alice_programs=[{"matrix": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}]),
        _minimal_dbqc(alice_programs=[{"matrix": [[[True, False], [False, False]],
                                                  [[False, False], [True, False]]]}]),
    ],
    ids=[
        "theta-string",
        "theta-true",
        "gate-name-number",
        "gamma-string",
        "gamma-true",
        "dim-string",
        "dim-true",
        "dim-over-capacity",
        "knit-targets-int",
        "basis-dim-huge",
        "amplitude-400-digits",
        "script-amplitude-400-digits",
        "theta-400-digits",
        "gamma-400-digits",
        "tolerance-400-digits",
        "matrix-cells-strings",
        "matrix-cells-bools",
    ],
)
def test_malformed_gate_and_channel_parameters_are_schema_errors(tmp_path, sc):
    path = _write(tmp_path, "bad-parameter.json", sc)
    assert main(["validate", path]) == 3
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 3
    assert not out.exists()


def _minimal_triparty_scheme1():
    return {
        "version": 1,
        "kind": "triparty",
        "scheme": "I",
        "seed": 5,
        "shots": 200,
        "psi_a": {"basis": 0, "dim": 2},
        "psi_b": {"basis": 0, "dim": 2},
        "readout_state": {"basis": 0, "dim": 4},
        "a_program": "H",
        "b_program": "I",
        "nonlocal_program": "CNOT",
    }


def _minimal_triparty_scheme2():
    return dict(_minimal_triparty_scheme1(), scheme="II")


@pytest.mark.parametrize(
    "sc", [_minimal_dbqc(), _minimal_triparty_scheme1()], ids=["dbqc", "triparty-I"]
)
def test_bad_path_probability_is_not_renormalized(tmp_path, monkeypatch, capsys, sc):
    from obliq.distributed import ProtocolEngine

    real = ProtocolEngine._outcomes
    calls = []

    def halved(self, *args):
        """The engine's outcome row, halved at the first node walked."""
        calls.append(1)
        row = real(self, *args)
        return 0.5 * row if len(calls) == 1 else row

    path = _write(tmp_path, "bad-path.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(ProtocolEngine, "_outcomes", halved)
    assert main(["run", path, "--out", str(tmp_path / "bad")]) == 6
    assert "sum to 0.5" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [3, 5, 6, 7, 8])
def test_triparty_scheme1_without_kept_shots_estimates_nan(tmp_path, seed):
    # At these seeds neither of 2 shots has all-zero parities.
    golden = SCENARIO_DIR / "triparty-scheme1.json"
    out = tmp_path / "few"
    assert main(["run", str(golden), "--shots", "2", "--seed", str(seed), "--out", str(out)]) == 0
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[3:5] == ["nan", "0.0"]
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert [r["kept"] for r in records] == [False, False]


def _scaled(u, delta):
    """The matrix literal of the gate ``u * (1 + delta)``."""
    return {"matrix": matrix_to_json(np.asarray(u) * (1 + delta))}


def _haar_pipelines(delta):
    """A 16-program ping-pong and a 7+8 dbqc of Haar gates scaled by 1 + delta."""
    rng = np.random.default_rng(0)
    gates = [_scaled(random_unitary(2, rng), delta) for _ in range(16)]
    return [_minimal_pingpong(gates), _minimal_dbqc(alice_programs=gates[:7], bob_programs=gates[7:15])]


def _knitting_cut(gate):
    sc = json.loads((SCENARIO_DIR / "knitting-exact.json").read_text())
    sc["gates"][2] = dict(gate, targets=[0, 1], cut=True)
    return sc


@pytest.mark.parametrize(
    "sc",
    [
        _minimal_dbqc(alice_programs=[_scaled(H, 4e-9)], bob_programs=[_scaled(H, 4e-9)]),
        _minimal_pingpong([_scaled(H, 4e-9)] * 2),
        dict(_minimal_triparty_scheme1(), a_program=_scaled(H, 4e-9),
             b_program=_scaled(np.eye(2), 4e-9), nonlocal_program=_scaled(CNOT, 4e-9)),
        dict(_minimal_triparty_scheme2(), a_program=_scaled(H, 4e-9), b_program=_scaled(np.eye(2), 4e-9)),
        _knitting_cut(_scaled(CZ, 4e-10)),
        *_haar_pipelines(2.5e-10),
    ],
    ids=["dbqc", "pingpong", "triparty-I", "triparty-II", "knitting-cut", "pingpong-16", "dbqc-7+8"],
)
def test_gates_outside_the_unitary_tolerance_are_schema_errors(tmp_path, sc):
    # Each validated at the old tolerance (1e-8) and then failed its run.
    path = _write(tmp_path, "near-unitary.json", sc)
    assert main(["validate", path]) == 3
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("sc", _haar_pipelines(2.4e-11), ids=["pingpong-16", "dbqc-7+8"])
def test_gates_at_the_unitary_tolerance_run(tmp_path, sc):
    # |U^dag U - I| is 4.8e-11, so 16 programs keep the path probabilities
    # within 1e-9 of summing to 1.
    path = _write(tmp_path, "at-tolerance.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


def _script_near_the_gate_tolerance(draws):
    """A script whose state passes through ``draws`` local OQT links, each
    after a local gate 2.4e-11 from unitary."""
    steps = [{"op": "prepare_state", "party": "alice", "label": "s0", "state": {"basis": 0, "dim": 2}}]
    for k in range(draws):
        steps += [
            {"op": "local_gate", "party": "alice", "gate": _scaled(H, 2.4e-11), "labels": [f"s{k}"]},
            {"op": "prepare_program", "party": "alice", "gate": "T",
             "out_label": f"s{k + 1}", "in_label": f"in{k}"},
            {"op": "oqt_link", "party": "alice", "labels": [f"in{k}", f"s{k}"]},
        ]
    steps.append({"op": "final_measure", "party": "alice", "labels": [f"s{draws}"],
                  "state": {"basis": 0, "dim": 2}})
    return {"version": 1, "kind": "script", "seed": 9, "shots": 200, "parties": ["alice"],
            "steps": steps}


def test_script_near_the_gate_tolerance_runs(tmp_path):
    path = _write(tmp_path, "near-tolerance-script.json", _script_near_the_gate_tolerance(12))
    assert main(["validate", path]) == 0
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    assert len((out / "records.jsonl").read_text().splitlines()) == 200


HUGE = [[1e308, 0], [1e308, 0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sc",
    [
        _minimal_dbqc(input_state={"vector": HUGE}),
        dict(_minimal_pingpong(["H"]), input_state={"vector": [[1e308, 0]] * 1024},
             readout_state={"basis": 0, "dim": 1024}),
        _script_with(0, state={"vector": HUGE}),
        _minimal_dbqc(alice_programs=[{"matrix": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]}]),
        _minimal_channel_composition({"kraus": [[[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]]}),
    ],
    ids=["dbqc-input-state", "pingpong-1024-input", "script-prepare-state", "gate", "kraus"],
)
def test_literals_near_the_float_maximum_are_schema_errors(tmp_path, sc):
    path = _write(tmp_path, "huge.json", sc)
    assert main(["validate", path]) == 3
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_knitting_observable_that_could_overflow_is_refused(tmp_path, capsys):
    plus = {"vector": [[2**-0.5, 0], [2**-0.5, 0]]}
    sc = _minimal_knitting(num_qudits=1, gates=[], input_state=plus,
                           observable=[[1e308, 1e308], [1e308, 1e308]])
    path = _write(tmp_path, "huge-observable.json", sc)
    assert main(["validate", path]) == 4
    assert "estimate could overflow" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 4
    assert not out.exists()
    sc["observable"] = [[1e300, 1e300], [1e300, 1e300]]
    path = _write(tmp_path, "large-observable.json", sc)
    assert main(["run", path, "--out", str(out)]) == 0


def test_script_over_the_dimension_cap_is_refused_at_validation(tmp_path, capsys):
    sc = _script_teleport()
    sc["steps"].insert(0, {"op": "prepare_state", "party": "bob", "label": "big",
                           "state": {"basis": 0, "dim": 512}})
    path = _write(tmp_path, "too-wide.json", sc)
    assert main(["validate", path]) == 5
    assert "step 2: joint dimension" in capsys.readouterr().err


# --- scripts: local OQT links and malformed step fields ---


def _local_oqt_script(**link):
    return {
        "version": 1,
        "kind": "script",
        "seed": 2,
        "shots": 50,
        "parties": ["alice"],
        "steps": [
            {"op": "prepare_state", "party": "alice", "label": "psi",
             "state": {"basis": 0, "dim": 2}},
            {"op": "prepare_program", "party": "alice", "gate": "H",
             "out_label": "out", "in_label": "in"},
            dict({"op": "oqt_link", "party": "alice", "labels": ["in", "psi"]}, **link),
            {"op": "final_measure", "party": "alice", "labels": ["out"],
             "state": {"basis": 0, "dim": 2}},
        ],
    }


def test_local_oqt_link_validates_and_runs(tmp_path):
    path = _write(tmp_path, "local-link.json", _local_oqt_script())
    assert main(["validate", path]) == 0
    out = tmp_path / "local"
    assert main(["run", path, "--out", str(out)]) == 0
    assert len((out / "records.jsonl").read_text().splitlines()) == 50


def test_oqt_link_through_an_undistributed_ebit_is_refused(tmp_path, capsys):
    path = _write(tmp_path, "no-ebit.json", _local_oqt_script(resource=4))
    assert main(["validate", path]) == 4
    assert "ebit 4 was never distributed" in capsys.readouterr().err


def _reused_ebit_script(op):
    """The teleport golden with its ebit renamed 7, and a second step that
    uses the consumed ebit 7 again: a teleportation or an OQT link."""
    sc = _script_teleport()
    sc["steps"][1]["resource"] = sc["steps"][2]["resource"] = 7
    again = (
        {"op": "bell_measure_qt", "party": "alice", "state_label": "psi2", "resource": 7}
        if op == "bell_measure_qt"
        else {"op": "oqt_link", "party": "alice", "labels": ["psi2", "psi3"], "resource": 7}
    )
    sc["steps"][3:3] = [
        {"op": "prepare_state", "party": "alice", "label": "psi2", "state": {"basis": 0, "dim": 2}},
        {"op": "prepare_state", "party": "alice", "label": "psi3", "state": {"basis": 0, "dim": 2}},
        again,
    ]
    return sc


@pytest.mark.parametrize("op", ["bell_measure_qt", "oqt_link"])
def test_script_errors_name_the_scripts_resource_id(tmp_path, capsys, op):
    path = _write(tmp_path, "reused-ebit.json", _reused_ebit_script(op))
    assert main(["validate", path]) == 4
    assert "step 5: ebit 7 already consumed" in capsys.readouterr().err


def _leaked_ebit_script():
    """A state prepared, an ebit distributed as "spare" and never used, and
    the prepared register measured."""
    sc = _script_teleport()
    sc["steps"] = [
        {"op": "prepare_state", "party": "alice", "label": "psi", "state": {"basis": 0, "dim": 2}},
        {"op": "distribute_ebit", "party_a": "alice", "party_b": "bob",
         "label_a": "ea", "label_b": "eb", "resource": "spare"},
        {"op": "final_measure", "party": "alice", "labels": ["psi"], "state": {"basis": 0, "dim": 2}},
    ]
    return sc


def test_a_script_that_leaks_an_ebit_is_refused(tmp_path, capsys):
    path = _write(tmp_path, "leaked-ebit.json", _leaked_ebit_script())
    out = tmp_path / "never"
    for args in (["run", path, "--validate-only"], ["run", path, "--out", str(out)]):
        assert main(args) == 4
        assert "ebit spare distributed and never consumed (leaked)" in capsys.readouterr().err
    assert not out.exists()
    teleport = _write(tmp_path, "teleport.json", _script_teleport())
    assert main(["run", teleport, "--validate-only"]) == 0
    assert main(["run", teleport, "--out", str(tmp_path / "teleport")]) == 0


def _touched_ebit_script(op, half):
    """An ebit distributed as "link", its half ``half`` ("ea" at alice,
    "eb" at bob) rotated by its holder, and then a teleportation or a remote
    CNOT through it."""
    holder = {"ea": "alice", "eb": "bob"}[half]
    steps = [
        {"op": "prepare_state", "party": "alice", "label": "psi", "state": {"basis": 0, "dim": 2}},
        {"op": "prepare_state", "party": "bob", "label": "t", "state": {"basis": 0, "dim": 2}},
        {"op": "distribute_ebit", "party_a": "alice", "party_b": "bob",
         "label_a": "ea", "label_b": "eb", "resource": "link"},
        {"op": "local_gate", "party": holder, "gate": "H", "labels": [half]},
    ]
    if op == "bell_measure_qt":
        steps.append({"op": op, "party": "alice", "state_label": "psi", "resource": "link"})
    else:
        steps.append({"op": op, "party": "alice", "control": "psi", "target": "t", "resource": "link"})
    return dict(_script_teleport(), steps=steps)


@pytest.mark.parametrize("half", ["ea", "eb"])
@pytest.mark.parametrize("op", ["bell_measure_qt", "remote_cnot"])
def test_a_script_through_a_touched_ebit_is_refused(tmp_path, capsys, op, half):
    """A teleportation or remote CNOT is simulated as its channel, which it
    is only through a fresh ebit: one whose half a gate touched since its
    distribute step is refused with exit 4, naming its resource id."""
    path = _write(tmp_path, "touched-ebit.json", _touched_ebit_script(op, half))
    out = tmp_path / "never"
    for args in (["validate", path], ["run", path, "--validate-only"], ["run", path, "--out", str(out)]):
        assert main(args) == 4
        assert "step 4: ebit link was touched since it was distributed" in capsys.readouterr().err
    assert not out.exists()


def test_a_measured_register_is_gone(tmp_path, capsys):
    sc = _script_teleport()
    sc["steps"].append({"op": "local_gate", "party": "bob", "gate": "H", "labels": ["eb"]})
    path = _write(tmp_path, "after-final-measure.json", sc)
    assert main(["validate", path]) == 4
    assert "step 4: no live register 'eb'" in capsys.readouterr().err


def _remote_cnot_script(party):
    """A remote CNOT from alice's control to bob's target, acted on by ``party``."""
    return {
        "version": 1,
        "kind": "script",
        "seed": 4,
        "shots": 20,
        "parties": ["alice", "bob"],
        "steps": [
            {"op": "prepare_state", "party": "alice", "label": "c", "state": {"basis": 1, "dim": 2}},
            {"op": "prepare_state", "party": "bob", "label": "t", "state": {"basis": 0, "dim": 2}},
            {"op": "distribute_ebit", "party_a": "alice", "party_b": "bob",
             "label_a": "ea", "label_b": "eb", "resource": 0},
            {"op": "remote_cnot", "party": party, "control": "c", "target": "t", "resource": 0},
        ],
    }


def _script_without(step_no, key):
    sc = _script_teleport()
    del sc["steps"][step_no][key]
    return sc


@pytest.mark.parametrize(
    "sc",
    [
        _script_with(0, label=["psi"]),
        _script_with(0, label={"psi": 1}),
        _script_with(3, labels=7),
        _script_with(1, resource=[0]),
        _script_with(2, resource={"id": 0}),
        _script_with(1, dim="x"),
        _script_with(3, state={"basis": 0, "dim": 3}),
        _script_without(0, "party"),
        _script_with(1, dim=3),
        _script_with(2, party="bob"),
        _remote_cnot_script("bob"),
    ],
    ids=[
        "label-list",
        "label-dict",
        "labels-int",
        "resource-list",
        "resource-dict",
        "ebit-dim-string",
        "final-measure-dim-3",
        "step-without-party",
        "teleport-through-dim-3-ebit",
        "teleport-by-non-holder",
        "remote-cnot-by-non-holder",
    ],
)
def test_malformed_script_fields_are_semantic_errors(tmp_path, sc):
    path = _write(tmp_path, "bad-step.json", sc)
    assert main(["validate", path]) == 4
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("num_qudits", [5000, 10**6])
def test_knitting_width_cap_names_the_cap(tmp_path, capsys, num_qudits):
    path = _write(tmp_path, "wide.json", _minimal_knitting(num_qudits=num_qudits))
    assert main(["validate", path]) == 5
    err = capsys.readouterr().err
    assert f"2**{num_qudits} exceeds the cap 1024" in err
    assert len(err) < 200


def _haar_cuts(cuts, mode, shots=1000):
    """A 2-qubit knitting scenario of ``cuts`` cut copies of one Haar gate
    (16 nonzero Pauli pairs each) and its uncut expectation."""
    rng = np.random.default_rng(cuts)
    u = random_unitary(4, rng)
    a = rng.normal(size=(4, 4))
    obs = (a + a.T) / 2
    psi = np.linalg.matrix_power(u, cuts)[:, 0]
    sc = _minimal_knitting(mode=mode, shots=shots, observable=obs.tolist(),
                           gates=[{"matrix": matrix_to_json(u), "targets": [0, 1], "cut": True}] * cuts)
    return sc, float(np.vdot(psi, obs @ psi).real)


@pytest.mark.parametrize("cuts", [6, 8])
@pytest.mark.parametrize("mode", ["exact_sum", "sampled"])
def test_knitting_of_many_haar_cuts_runs_by_cut(tmp_path, cuts, mode):
    # 16^6 and 16^8 terms: both modes exited 6 with a MemoryError when
    # every term was formed.
    sc, want = _haar_cuts(cuts, mode)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "cuts.json", sc), "--out", str(out)]) == 0
    estimate, stderr = map(float, (out / "summary.csv").read_text().splitlines()[1].split(",")[3:5])
    if mode == "exact_sum":
        assert abs(estimate - want) <= 1e-10
    else:
        assert abs(estimate - want) <= 5 * stderr


@pytest.mark.parametrize("mode", ["exact_sum", "sampled"])
def test_knitting_of_a_haar_cut_at_local_dim_16_runs(tmp_path, mode):
    # The 65,536 Pauli pairs of a cut at d = 16 as dense 256 x 256 matrices
    # would take 69 GB; the scenario validates, so it must run.
    rng = np.random.default_rng(16)
    u = random_unitary(256, rng)
    a = rng.normal(size=(256, 256))
    sc = _minimal_knitting(mode=mode, shots=5, local_dim=16, observable=((a + a.T) / 2).tolist(),
                           gates=[{"matrix": matrix_to_json(u), "targets": [0, 1], "cut": True}])
    path = _write(tmp_path, "d16.json", sc)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("shots", [1, 10])
def test_sampled_knitting_of_a_pauli_product_cut_after_a_haar_cut_runs(tmp_path, shots):
    # The X (x) Z cut has one nonzero pair; the Haar cut before it has more
    # pairs than there are shots.
    sc, _ = _haar_cuts(1, "sampled", shots=shots)
    xz = np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]])
    sc["gates"] = sc["gates"] + [{"matrix": matrix_to_json(xz), "targets": [0, 1], "cut": True}]
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "cuts.json", sc), "--out", str(out)]) == 0


def test_sampled_knitting_past_the_int64_term_index_exits_5_before_it_allocates(tmp_path, capsys):
    # 16 generic cuts at d = 2 index up to 2**64 terms; a knit_term_index
    # is an int64. The exact sum has no term index and validates.
    sc, _ = _haar_cuts(16, "sampled", shots=10**6)
    path = _write(tmp_path, "cuts.json", sc)
    out = tmp_path / "never"
    tracemalloc.start()
    try:
        assert main(["run", path, "--out", str(out)]) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert not out.exists()
    assert "local_dim**(4*cuts) = 2**64" in capsys.readouterr().err
    assert main(["validate", _write(tmp_path, "exact.json", _haar_cuts(16, "exact_sum")[0])]) == 0


ONE = {"vector": [[1, 0]]}
ONE_BY_ONE = {"matrix": [[[1, 0]]]}
KRAUS_ONE = {"kraus": [[[[1, 0]]]]}


@pytest.mark.parametrize(
    "sc",
    [
        _minimal_dbqc(input_state=ONE, readout_state=ONE, alice_programs=[ONE_BY_ONE],
                      bob_programs=[ONE_BY_ONE]),
        dict(_minimal_pingpong([ONE_BY_ONE]), input_state=ONE, readout_state=ONE),
        dict(_minimal_triparty_scheme1(), psi_a=ONE, psi_b=ONE, readout_state=ONE,
             a_program=ONE_BY_ONE, b_program=ONE_BY_ONE, nonlocal_program=ONE_BY_ONE),
        dict(_minimal_channel_composition(KRAUS_ONE), channels=[KRAUS_ONE] * 2),
    ],
    ids=["dbqc", "pingpong", "triparty-I", "channel-composition"],
)
def test_one_dimensional_literals_are_schema_errors(tmp_path, sc):
    # Each validated and then exited 6 at run ("ebit dimension must be >= 2").
    path = _write(tmp_path, "one-dim.json", sc)
    assert main(["validate", path]) == 3
    out = tmp_path / "never"
    assert main(["run", path, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("bad", [True, "1", 10**400, math.inf], ids=["true", "string", "10**400", "Infinity"])
def test_one_bad_entry_in_a_large_observable_is_the_scalar_error(tmp_path, capsys, bad):
    observable = np.eye(256, dtype=int).tolist()
    observable[200][100] = bad
    path = _write(tmp_path, "bad-entry.json", _minimal_knitting(num_qudits=8, observable=observable))
    with pytest.raises(ScenarioSchemaError) as scalar:
        real_from_literal(bad)
    assert main(["validate", path]) == 3
    assert f"observable: {scalar.value}" in capsys.readouterr().err


# --- validate never fails at run time on mutated goldens ---

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    """The path of every value below ``obj``: dict keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return copy


def _assert_input_codes_only(sc):
    """``validate`` exits 0 or with an input code, and a validated scenario
    then runs without exit 6."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "mutated.json", sc)
        code = main(["validate", path])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            shots = str(min(sc["shots"], 500))
            assert main(["run", path, "--shots", shots, "--out", str(Path(tmp) / "out")]) != 6


@settings(max_examples=400, deadline=None)
@given(data=st.data(), golden=st.sampled_from(SCENARIOS), fields=st.integers(1, 2))
def test_validate_exits_only_with_input_codes(data, golden, fields):
    sc = json.loads(golden.read_text())
    for _ in range(fields):
        path = data.draw(st.sampled_from(list(_paths(sc))), label="path")
        sc = _replaced(sc, path, data.draw(JSON_VALUES, label="value"))
    _assert_input_codes_only(sc)


# Typed mutations keep each field's type and draw within its range (gates
# and states of the field's size), so that many mutated goldens validate and
# the run check above is exercised.
GATE_FIELDS = {"alice_programs", "bob_programs", "programs", "a_program", "b_program",
               "nonlocal_program", "gate"}
STATE_FIELDS = {"input_state", "readout_state", "psi_a", "psi_b", "state"}
INT_RANGES = {"shots": (1, 500), "seed": (0, 2**32 - 1), "dim": (1, 4), "basis": (0, 3),
              "num_qudits": (1, 3), "local_dim": (1, 3), "targets": (0, 2), "resource": (0, 2),
              "blocks": (1, 3), "version": (0, 2)}
FLOAT_RANGES = {"gamma": (0.0, 1.0), "tolerance": (1e-12, 1e-3), "theta": (-7.0, 7.0)}
GATE_NAMES = ["I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP"]


def _strings(obj, field=None):
    """(field, string) for every string below ``obj``; list items belong to
    the list's field."""
    if isinstance(obj, str):
        yield field, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _strings(value, key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _strings(value, field)


WORDS: dict = {}
for _golden in SCENARIOS:
    for _field, _word in _strings(json.loads(_golden.read_text())):
        WORDS.setdefault(_field, set()).add(_word)


def _seeded(build):
    return st.integers(0, 2**32 - 1).map(lambda seed: build(np.random.default_rng(seed)))


def _gate_values(n):
    """Gate names, and random unitaries of size n as matrix literals, some
    scaled by 1 + delta with delta log-uniform in [1e-12, 1e-7]. At n = 1
    only the matrix literals, since every gate name is of size 2 or 4."""
    unitary = _seeded(lambda rng: {"matrix": matrix_to_json(random_unitary(n, rng))})
    scaled = _seeded(lambda rng: _scaled(random_unitary(n, rng), 10 ** rng.uniform(-12, -7)))
    return (st.sampled_from(GATE_NAMES) if n > 1 else st.nothing()) | unitary | scaled


def _state_values(dim):
    return _seeded(lambda rng: {"vector": matrix_to_json([random_statevector(dim, rng)])[0]})


def _typed_values(field, old, size=None):
    """A strategy for values of ``old``'s type in ``field``, or None when
    ``old`` is a container with no field type of its own. Gates and states
    are drawn of ``old``'s size, or of ``size`` if it is given. A gate or a
    state that an earlier mutation broke has no size, and is left to the
    scalar types below."""
    try:
        if field in GATE_FIELDS and isinstance(old, list):
            n = size or gate_from_literal(old[0]).shape[0]
            return st.lists(_gate_values(n), min_size=1, max_size=6)
        if field in GATE_FIELDS:
            return _gate_values(size or gate_from_literal(old).shape[0])
        if field in STATE_FIELDS:
            return _state_values(size or len(state_from_literal(old)))
    except ObliqError:
        pass
    if isinstance(old, bool):
        return st.booleans()
    if isinstance(old, int):
        return st.integers(*INT_RANGES.get(field, (-2, 2)))
    if isinstance(old, float):
        return st.floats(*FLOAT_RANGES.get(field, (-1.0, 1.0)))
    if isinstance(old, str):
        return st.sampled_from(sorted(WORDS[field] | (set(GATE_NAMES) if field == "name" else set())))
    return None


def _field(path):
    return next((key for key in reversed(path) if isinstance(key, str)), None)


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@settings(max_examples=400, deadline=None)
@given(data=st.data(), golden=st.sampled_from(SCENARIOS), fields=st.integers(1, 2), size_one=st.booleans())
def test_validate_exits_only_with_input_codes_on_typed_mutations(data, golden, fields, size_one):
    sc = json.loads(golden.read_text())
    if size_one:
        # Every gate and state of size 1 at once, so that their sizes agree;
        # then one typed mutation fewer.
        for path in [p for p in _paths(sc) if p[-1] in GATE_FIELDS | STATE_FIELDS]:
            values = _typed_values(path[-1], _at(sc, path), size=1)
            sc = _replaced(sc, path, data.draw(values, label="size 1"))
    for _ in range(fields - size_one):
        typed = {}
        for path in _paths(sc):
            values = _typed_values(_field(path), _at(sc, path))
            if values is not None:
                typed[path] = values
        path = data.draw(st.sampled_from(list(typed)), label="path")
        sc = _replaced(sc, path, data.draw(typed[path], label="value"))
    _assert_input_codes_only(sc)

