import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq.cli import main, run_scenario, validate_scenario
from obliq.errors import ScenarioSchemaError

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
        "observable": [[1]],
    }
    path = _write(tmp_path, "too-big.json", sc)
    assert main(["validate", path]) == 5


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
    "sc",
    [_minimal_dbqc(), _minimal_triparty_scheme1(), _minimal_triparty_scheme2()],
    ids=["dbqc", "triparty-I", "triparty-II"],
)
def test_bad_path_probability_is_not_renormalized(tmp_path, monkeypatch, capsys, sc):
    import obliq.distributed as dist

    real = dist._branch_leaves

    def halved(*args):
        patterns, probs, qvals, ledger = real(*args)
        return patterns, 0.5 * probs, qvals, ledger

    path = _write(tmp_path, "bad-path.json", sc)
    assert main(["run", path, "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(dist, "_branch_leaves", halved)
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


@settings(max_examples=400, deadline=None)
@given(data=st.data(), golden=st.sampled_from(SCENARIOS), fields=st.integers(1, 2))
def test_validate_exits_only_with_input_codes(data, golden, fields):
    sc = json.loads(golden.read_text())
    for _ in range(fields):
        path = data.draw(st.sampled_from(list(_paths(sc))), label="path")
        sc = _replaced(sc, path, data.draw(JSON_VALUES, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), "mutated.json", sc)
        code = main(["validate", path])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            shots = str(min(sc["shots"], 500))
            assert main(["run", path, "--shots", shots, "--out", str(Path(tmp) / "out")]) != 6
