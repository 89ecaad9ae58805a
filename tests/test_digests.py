"""Pinned sha256 digests of every shipped scenario's artifacts.

Each file in `scenarios/` runs at its shipped seed and shot count, and the
bytes of `records.jsonl`, `summary.csv` and `resolved-scenario` must hash
to the values below.
A rerun-equality check cannot see drift between versions; these digests
can. A change that alters sampling or formatting on purpose updates the
table and says which digests changed, and why, in CHANGES.md.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from obliq import cli
from obliq import distributed as dist
from obliq.channels import KrausChannel, choi_of
from obliq.cli import main
from obliq.distributed import Party, run_triparty
from obliq.qmath import RegisterLayout
from obliq.states import PureState

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# stem: sha256 of (records.jsonl, summary.csv, resolved-scenario)
DIGESTS = {
    "channel-composition": (
        "6ba9085d558be01e7c6c6787388efc5c435f2143d5e356f974730c0280a53f77",
        "605e8a1e0f970f1e0f72e4a4b8653adb9d2cac2305c55dba76c1c77d203e8da6",
        "4fa7e8dd8c6dce0e5be0421e9f4568942b5448c0fba7fa964ead0717fce3e72f",
    ),
    "dbqc": (
        "c9256015bc532b33363a9f6df5f6a264442739ba8441f1482fc86f91b87bbbe2",
        "a8eaf8d385514d73db3cde5d96ba130301464de69073577cbdd9f45a68449a3a",
        "8d27e607370b7df51897e15f3b9a0bea70663f1389224204e96f8878db55a68d",
    ),
    "knitting-exact": (
        "549d2ab7b01b7b4fe850a623f13118c24f109dadf1fa1a956dbaaed6305bb6e5",
        "9433af465c0c0421f7bfb1953de78570d6a5af9de5e51d5b2480e6aec68d4da7",
        "6f1c8f7544a72d5ed3777d2536a3150af614a35f9ad64884ccbd6c83ba7c0766",
    ),
    "knitting-sampled": (
        "43b417dcf7b2d090051b3056690a1b661b296a1f0fbdef124cf86d1428ae7809",
        "7a7d1269c089fa5c6cfc01f703983c4ca09e5ffe99fb4dc19e3860d15e5c5a38",
        "f397136883b54efb080e8e97cf5d2b02b1653e6f5c020a4074789f56e13076d1",
    ),
    "pingpong": (
        "e44c2854859ba60dc1de54acc16b88c249118329cc619f39e32975f66dfbde9c",
        "c3eda57ad5418e731662c7e67b31b52ebab80e6c25caec3376d612ae72715622",
        "8ad6bfd16c632d0d764770b4d322ef50adfdcdfe1692f8361938b960d4c0cea4",
    ),
    "script-teleport": (
        "c868bbc99eb6ae1e06abb4684d57365d5930b4909e68ccc65f0acfb8d4da41bf",
        "467e077db818a869f2babc2057da337ffe8a067010e34ca66cd3ddc3dac27f8a",
        "6fcf0116871a04a2f7eab69b16eb8903a5e69210cc47a1f61f296ac30d369696",
    ),
    "triparty-scheme1": (
        "df9d13ad3bf0c64d3126a5bd313c3d09f3695d15fcc0c5d924bf21993c60e6e9",
        "74e0b292f713b290ed27163453b34769cb453f624f0211f6f9d79154aae4aa1c",
        "319555b968fa4400749ac5371605dacdee85304ef52cdbae1401814218a2e02f",
    ),
    "triparty-scheme2": (
        "1ec8676f1d864a46f17a47fd7d4ef6be7afc6150a65eaf7b05bf0a8ed71c31b2",
        "ceb771486bbdf8456a32acd2e7d060c30b16be98f459fdc748ba4e3e36c5c033",
        "30db626fb805e8debfd8486f5e67139ca8f700faa427f5ab9fecc18c17496037",
    ),
}

# sha256 of the `resolved-scenario` that `_wide_knitting` writes.
WIDE_RESOLVED_SCENARIO = "0ed2215bb34ab85f652b08c81638126b36b2d716fbdb8349ced573ba50dcb632"

# sha256 of (records.jsonl, summary.csv, resolved-scenario) of `_wide_dbqc`.
WIDE_DBQC = (
    "6637068505bf444b16df06eb081cae7dbdc2d315ae0d509c3e3e3ef700c62f43",
    "50900de8f8fe808e1357b1922660982fa69b0b17d36972519e92bc4781c54389",
    "65dd73bed781f936897b003cf1de1ec5e8ddba212ffccff3230d408b103aebfa",
)

# sha256 of (records.jsonl, summary.csv, resolved-scenario) of
# `_near_unitary_dbqc` and `_near_unitary_pingpong`: the digests that
# simulating every drawn branch densely gives too.
NEAR_UNITARY = {
    "dbqc": (
        "9c7189a3d735b0b1e4f89db2136b6114831955b35ffa396e21e470d445694ca7",
        "8baeb0cbd4f354a7bcf18acc4922be97c6db0013f9f78ebb09e4b176a00afc16",
        "e24057a2aa7a3f147c3910b3ec5c184d0ea231c4aec0d22fb7a108ae0c888251",
    ),
    "pingpong": (
        "87e76ec24d1652bf25be191eb0a03e98967d9b5efbfd3b683f962cb2523a3033",
        "ceafcf05fad907394245fe0b948f1f4f6372286c12b697d5df72c7e193487e73",
        "70e35a0a0945e046394fc2b4153b1cb47ed7d19c7c5b17e3364de6636e256be0",
    ),
}


def _artifact_digests(out: Path) -> tuple:
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("records.jsonl", "summary.csv", "resolved-scenario")
    )


def test_every_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_artifact_digests(stem, tmp_path):
    out = tmp_path / stem
    assert main(["run", str(SCENARIO_DIR / f"{stem}.json"), "--out", str(out)]) == 0
    assert _artifact_digests(out) == DIGESTS[stem]


def _wide_knitting() -> dict:
    """An 8-qubit knitting scenario with a 256 x 256 real observable and a
    16 x 16 gate in ``[re, im]`` pairs, drawn with integer draws only (no
    LAPACK or libm), so the bytes do not depend on the platform."""
    rng = np.random.default_rng(20261018)
    a = rng.integers(-(2**20), 2**20, size=(256, 256)) / 1024
    observable = (a + a.T) / 2
    # A 16 x 16 Walsh-Hadamard matrix / 4, with rows permuted and phases
    # from {1, i, -1, -i}: exactly unitary in floating point.
    walsh = np.array([[(-1) ** bin(i & j).count("1") for j in range(16)] for i in range(16)]) / 4
    phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=16)]
    gate = phases[:, None] * walsh[rng.permutation(16)]
    return {
        "version": 1,
        "kind": "knitting",
        "mode": "exact_sum",
        "seed": 8,
        "shots": 1,
        "num_qudits": 8,
        "local_dim": 2,
        "gates": [
            {"matrix": [[[c.real, c.imag] for c in row] for row in gate.tolist()], "targets": [0, 1, 2, 3]},
            {"name": "CZ", "targets": [3, 4], "cut": True},
        ],
        "observable": observable.tolist(),
    }


def _wide_dbqc() -> dict:
    """A dbqc 3+3 run at d = 2 with 2,000 shots and about 200 distinct
    records. Gates and states are Pythagorean rotations with phases from
    {1, i, -1, -i}, drawn with integer draws only."""
    rng = np.random.default_rng(20261019)
    triples = np.array([[3, 4, 5], [5, 12, 13], [8, 15, 17], [7, 24, 25]])

    def rotation():
        a, b, c = triples[rng.integers(0, 4)]
        phases = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=2)]
        return phases[:, None] * np.array([[a, -b], [b, a]]) / c

    def literal(m):
        return [[c.real, c.imag] for c in m.tolist()]

    return {
        "version": 1,
        "kind": "dbqc",
        "seed": 19,
        "shots": 2000,
        "tolerance": 1e-9,
        "input_state": {"vector": literal(rotation()[:, 0])},
        "readout_state": {"vector": literal(rotation()[:, 1])},
        "alice_programs": [{"matrix": [literal(row) for row in rotation()]} for _ in range(3)],
        "bob_programs": [{"matrix": [literal(row) for row in rotation()]} for _ in range(3)],
    }


def test_wide_resolved_scenario_digest(tmp_path):
    # Computed with json.dumps(raw, sort_keys=True, indent=2) + "\n", the
    # writer of the previous version, which this one must match byte for byte.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_knitting()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    got = hashlib.sha256((tmp_path / "out" / "resolved-scenario").read_bytes()).hexdigest()
    assert got == WIDE_RESOLVED_SCENARIO


def test_many_row_digests(tmp_path):
    # The shipped scenarios write at most 32 distinct records; this one
    # writes 214, with estimates such as 122.00000000000001.
    path = tmp_path / "wide-dbqc.json"
    path.write_text(json.dumps(_wide_dbqc()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert _artifact_digests(out) == WIDE_DBQC


# Pythagorean triples (a, b, c): a rotation [[a, -b], [b, a]] / c.
TRIPLES = np.array([[3, 4, 5], [5, 12, 13], [8, 15, 17], [7, 24, 25]])
PHASES = np.array([1, 1j, -1, -1j])


def _literal(m):
    return [[c.real, c.imag] for c in m.tolist()]


def _rotations(rng, d):
    """Pythagorean rotations on disjoint pairs of a random permutation of
    the d levels, after phases from {1, i, -1, -i}, drawn with integer draws
    only."""
    g = np.diag(PHASES[rng.integers(0, 4, size=d)])
    perm = rng.permutation(d)
    for i, j in zip(perm[0::2], perm[1::2]):
        a, b, c = TRIPLES[rng.integers(0, 4)]
        rot = np.eye(d, dtype=complex)
        rot[[i, i, j, j], [i, j, i, j]] = np.array([a, -b, b, a]) / c
        g = rot @ g
    return g


def _near_unitary(rng, d):
    """Two layers of rotations plus 1e-11 times a third: max |U^dag U - I|
    is up to 2e-11, inside `gates.UNITARY_TOL`."""
    return _rotations(rng, d) @ _rotations(rng, d) + 1e-11 * _rotations(rng, d)


def _near_unitary_dbqc() -> dict:
    """A 16-bit dbqc (7 + 8 programs) at d = 7 with 2,000 shots."""
    rng = np.random.default_rng(20261020)
    d = 7
    return {
        "version": 1,
        "kind": "dbqc",
        "seed": 20,
        "shots": 2000,
        "tolerance": 1e-9,
        "input_state": {"vector": _literal((_rotations(rng, d) @ _rotations(rng, d))[:, 0])},
        "readout_state": {"vector": _literal((_rotations(rng, d) @ _rotations(rng, d))[:, 0])},
        "alice_programs": [{"matrix": [_literal(r) for r in _near_unitary(rng, d)]} for _ in range(7)],
        "bob_programs": [{"matrix": [_literal(r) for r in _near_unitary(rng, d)]} for _ in range(8)],
    }


def _near_unitary_pingpong() -> dict:
    """A 16-program qubit ping-pong with 2,000 shots."""
    rng = np.random.default_rng(20261021)
    return {
        "version": 1,
        "kind": "pingpong",
        "seed": 21,
        "shots": 2000,
        "tolerance": 1e-9,
        "input_state": {"vector": _literal(_rotations(rng, 2)[:, 0])},
        "readout_state": {"vector": _literal(_rotations(rng, 2)[:, 1])},
        "programs": [{"matrix": [_literal(r) for r in _near_unitary(rng, 2)]} for _ in range(16)],
        "blocks": 2,
    }


@pytest.mark.parametrize("kind, scenario", [("dbqc", _near_unitary_dbqc), ("pingpong", _near_unitary_pingpong)])
def test_near_unitary_digests(kind, scenario, tmp_path):
    # Gates validation accepts but that are not unitary to rounding: the
    # parity law draws the records the dense walk of every branch drew.
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(scenario()))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert _artifact_digests(tmp_path / "out") == NEAR_UNITARY[kind]


def _qutrit_damping():
    """Amplitude damping of levels 1 and 2 into 0 at rate 16/25."""
    k0 = np.diag([1.0, 0.6, 0.6])
    k1, k2 = np.zeros((3, 3)), np.zeros((3, 3))
    k1[0, 1] = k2[0, 2] = 0.8
    return KrausChannel((k0, k1, k2))


def _scheme1_parties(damped: bool):
    """Scheme I with a qutrit at A and a qubit at B: rotations drawn with
    integer draws only, and amplitude damping at A when ``damped``."""
    rng = np.random.default_rng(20261022)

    def pure(vec):
        return PureState(RegisterLayout.of(("s", len(vec))), vec)

    ua, ub = _rotations(rng, 3), _rotations(rng, 2)
    uc = _rotations(rng, 6) @ _rotations(rng, 6)
    a = Party("a", programs=[choi_of(_qutrit_damping() if damped else ua)], states=[pure(ua[1].conj())])
    b = Party("b", programs=[choi_of(ub)], states=[pure(ub[0].conj())])
    psi_o = uc @ np.kron(ua[:, 1], _rotations(rng, 2)[:, 0])
    c = Party("c", programs=[choi_of(uc)], states=[pure(psi_o)])
    return a, b, c


# sha256 of `_scheme1_digest` for 4,000 shots of `_scheme1_parties`, keyed
# by ``damped``: edges 1/3 and 1/9 are not exact in binary.
SCHEME1_QUTRIT = {
    False: "c1099cca064ec484d744394d934ed9ee206c4bfef62da4372bb8fdc89de93eb4",
    True: "4dd22dede83d5409ede51d4a98f752caa2f73b0ce7db0a2d9ea04a713feac6c5",
}


def _scheme1_digest(res, rng) -> str:
    h = hashlib.sha256()
    for name in sorted(res.rows):
        h.update(name.encode() + np.asarray(res.rows[name][res.row_of_shot], dtype=np.int8).tobytes())
    h.update(np.array([res.estimate, res.stderr, res.kept], dtype=float).tobytes())
    h.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("damped", [False, True])
def test_scheme1_qutrit_digests(damped):
    rng = np.random.default_rng(22)
    res = run_triparty("I", *_scheme1_parties(damped), 4000, rng)
    assert _scheme1_digest(res, rng) == SCHEME1_QUTRIT[damped]


# --- the walk of multi-outcome levels, leaf by leaf ---


def _walk_digest(protocol, **draws) -> str:
    """sha256 of `_walk` on ``protocol`` (engine, steps): each shot's
    outcomes and path probability, then the state bytes of every leaf
    level's rows in the order the walk finishes them."""
    engine, steps = protocol
    leaves = []

    def leaf(eng):
        leaves.append(eng.state().tobytes())

    outcomes, probs, _, leaf_of_shot = dist._walk(engine, steps, leaf, **draws)
    h = hashlib.sha256(outcomes[leaf_of_shot].tobytes() + probs[leaf_of_shot].tobytes())
    for state in leaves:
        h.update(state)
    return h.hexdigest()


def _scheme2_walk() -> tuple:
    """Scheme II with a qutrit at B, drawn over its 16 patterns: each is a
    law outcome, so the walk holds one row."""
    rng = np.random.default_rng(20261023)

    def pure(vec):
        return PureState(RegisterLayout.of(("s", len(vec))), vec)

    ua, ub = _rotations(rng, 2), _rotations(rng, 3)
    a = Party("a", programs=[choi_of(ua)], states=[pure(_rotations(rng, 2)[:, 0])])
    b = Party("b", programs=[choi_of(ub)], states=[pure(_rotations(rng, 3)[:, 1])])
    psi_o = pure(_rotations(rng, 6)[:, 2])
    engine, steps, _ = dist._triparty_scheme2_protocol(a, b, _rotations(rng, 3), psi_o)
    patterns = np.array(list(itertools.product((0, 1), (0, 1), range(4))))
    return (engine, steps), {"patterns": patterns}


def _script_walk() -> tuple:
    """A script that teleports a qutrit from alice to bob and back, runs a
    remote CNOT between fresh qubits and measures the qutrit: 300 shots of
    fresh uniforms, five draws each."""
    rng = np.random.default_rng(20261024)

    def vector(d):
        return {"vector": _literal(_rotations(rng, d)[:, 0])}

    def ebit(rid, pa, pb, d):
        return {"op": "distribute_ebit", "party_a": pa, "party_b": pb, "label_a": f"e{rid}a",
                "label_b": f"e{rid}b", "resource": rid, "dim": d}

    steps = [
        {"op": "prepare_state", "party": "alice", "label": "s", "state": vector(3)},
        {"op": "local_gate", "party": "alice", "labels": ["s"],
         "gate": {"matrix": [_literal(r) for r in _rotations(rng, 3)]}},
        ebit(1, "alice", "bob", 3),
        {"op": "bell_measure_qt", "party": "alice", "state_label": "s", "resource": 1},
        ebit(2, "bob", "alice", 3),
        {"op": "bell_measure_qt", "party": "bob", "state_label": "e1b", "resource": 2},
        {"op": "prepare_state", "party": "alice", "label": "c", "state": vector(2)},
        {"op": "prepare_state", "party": "bob", "label": "t", "state": vector(2)},
        ebit(3, "alice", "bob", 2),
        {"op": "remote_cnot", "party": "alice", "control": "c", "target": "t", "resource": 3},
        {"op": "final_measure", "party": "alice", "labels": ["e2b"], "state": vector(3)},
    ]
    sc = cli.validate_scenario({"version": 1, "kind": "script", "seed": 24, "shots": 300,
                                "parties": ["alice", "bob"], "steps": steps})
    walker = [step for _, op_steps in sc["steps"] for step in op_steps]
    engine = dist.ProtocolEngine(*sc["parties"])
    return (engine, walker), {"uniforms": rng.random((300, 5))}


# sha256 of `_walk_digest`, computed when teleportations and remote CNOTs
# through fresh ebits became their channels (law outcomes that fork no row),
# after the script walk matched the dense reference (`dense`).
WALKS = {
    "scheme2": "575ffbbcd4d3aef719e0f8a798934c1c8e1c9e7560ef024440effbe3084ca5fd",
    "script": "3ae27532eb110b39d292f5a60c4973ea714306c1fe9ef17398c09c5a94291e05",
}


@pytest.mark.parametrize("case", sorted(WALKS))
def test_multi_outcome_walk_digests(case):
    protocol, draws = {"scheme2": _scheme2_walk, "script": _script_walk}[case]()
    assert _walk_digest(protocol, **draws) == WALKS[case]
