"""Seeded generation of the benchmark's jobs.

A workload is a list of jobs. Each job is one input file: either a scenario
for ``obliq run`` (kind ``cli``) or the arrays of one oblivious-teleportation
chain for the library calls ``oqt_sample_records`` and
``oqt_estimate_observable`` (kind ``oqt``). The same workload name and seed
always render byte-identical files; the program under test sees only those
files.

Every gate, state and channel is drawn here with plain numpy, so nothing in
the inputs depends on the package being measured.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Shot counts of the shipped scenarios divided by SHOTS_SCALE, so one pass of
# the `shots` workload stays near half a second and a run holds tens of passes.
SHOTS_SCALE = 8


@dataclass(frozen=True)
class Job:
    """One unit of work in a pass.

    ``kind`` is "cli" (``inputs`` is a scenario dict) or "oqt" (``inputs``
    holds the chain's unitaries, input state and observable). ``shots`` is
    the number of records the job must produce.
    """

    name: str
    kind: str
    shots: int
    inputs: dict

    def render(self) -> str:
        return json.dumps(self.inputs, sort_keys=True) + "\n"


# --- random objects in plain numpy ---


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(a)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def random_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_kraus(d: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators cut from a Haar isometry, so they sum to the identity."""
    iso = haar_unitary(d * count, rng)[:, :d]
    return [iso[k * d : (k + 1) * d] for k in range(count)]


def random_diagonal_gate(d: int, rng: np.random.Generator) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * rng.random(d)))


# --- literal rendering (the scenario file format) ---


def mat_lit(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def gate_lit(m: np.ndarray) -> dict:
    return {"matrix": mat_lit(m)}


def state_lit(v: np.ndarray) -> dict:
    return {"vector": [[float(c.real), float(c.imag)] for c in v]}


def _scenario(kind: str, rng: np.random.Generator, shots: int, **fields) -> dict:
    sc = {
        "version": 1,
        "kind": kind,
        "seed": int(rng.integers(0, 2**31)),
        "shots": shots,
        "tolerance": 1e-9,
    }
    sc.update(fields)
    return sc


# --- job builders ---


def dbqc_job(name, rng, d, n_alice, n_bob, shots) -> Job:
    sc = _scenario(
        "dbqc",
        rng,
        shots,
        input_state=state_lit(random_vector(d, rng)),
        readout_state=state_lit(random_vector(d, rng)),
        alice_programs=[gate_lit(haar_unitary(d, rng)) for _ in range(n_alice)],
        bob_programs=[gate_lit(haar_unitary(d, rng)) for _ in range(n_bob)],
    )
    return Job(name, "cli", shots, sc)


def pingpong_job(name, rng, d, n, shots) -> Job:
    sc = _scenario(
        "pingpong",
        rng,
        shots,
        input_state=state_lit(random_vector(d, rng)),
        readout_state=state_lit(random_vector(d, rng)),
        programs=[gate_lit(haar_unitary(d, rng)) for _ in range(n)],
    )
    return Job(name, "cli", shots, sc)


def triparty_job(name, rng, scheme, shots) -> Job:
    if scheme == "I":
        nonlocal_gate = haar_unitary(4, rng)
    else:  # scheme II needs the controlled form [[I, 0], [0, V]]
        nonlocal_gate = np.eye(4, dtype=complex)
        nonlocal_gate[2:, 2:] = haar_unitary(2, rng)
    sc = _scenario(
        "triparty",
        rng,
        shots,
        scheme=scheme,
        psi_a=state_lit(random_vector(2, rng)),
        psi_b=state_lit(random_vector(2, rng)),
        readout_state=state_lit(random_vector(4, rng)),
        a_program=gate_lit(haar_unitary(2, rng)),
        b_program=gate_lit(haar_unitary(2, rng)),
        nonlocal_program=gate_lit(nonlocal_gate),
    )
    return Job(name, "cli", shots, sc)


def knitting_job(name, rng, num_qubits, cuts, mode, shots) -> Job:
    """One-qubit gates on the first 2 * cuts qubits, then `cuts` diagonal
    two-qubit gates on neighbouring pairs, all marked as cut; a random input
    state and a Z-string observable."""
    gates = [
        {"matrix": mat_lit(haar_unitary(2, rng)), "targets": [q]} for q in range(min(num_qubits, 2 * cuts))
    ]
    for c in range(cuts):
        q = (2 * c) % (num_qubits - 1)
        gates.append(
            {"matrix": mat_lit(random_diagonal_gate(4, rng)), "targets": [q, q + 1], "cut": True}
        )
    dim = 2**num_qubits
    mask = int(rng.integers(1, dim))
    signs = [1 - 2 * (bin(i & mask).count("1") % 2) for i in range(dim)]
    observable = [[signs[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    sc = _scenario(
        "knitting",
        rng,
        shots,
        mode=mode,
        num_qudits=num_qubits,
        local_dim=2,
        input_state=state_lit(random_vector(dim, rng)),
        gates=gates,
        observable=observable,
    )
    return Job(name, "cli", shots, sc)


def channel_composition_job(name, rng, d, kraus_count) -> Job:
    sc = _scenario(
        "channel_composition",
        rng,
        1,
        channels=[
            {"kraus": [mat_lit(k) for k in random_kraus(d, kraus_count, rng)]} for _ in range(2)
        ],
    )
    return Job(name, "cli", 1, sc)


def script_job(name, rng, shots) -> Job:
    """A state prepared at alice, rotated, teleported to bob, rotated again,
    teleported to carol and measured there against a readout vector."""
    steps = [
        {"op": "prepare_state", "party": "alice", "label": "psi",
         "state": state_lit(random_vector(2, rng))},
        {"op": "local_gate", "party": "alice", "labels": ["psi"],
         "gate": gate_lit(haar_unitary(2, rng))},
        {"op": "distribute_ebit", "party_a": "alice", "party_b": "bob",
         "label_a": "e1a", "label_b": "e1b", "resource": 0, "dim": 2},
        {"op": "bell_measure_qt", "party": "alice", "state_label": "psi",
         "resource": 0, "record": "hop1"},
        {"op": "local_gate", "party": "bob", "labels": ["e1b"],
         "gate": gate_lit(haar_unitary(2, rng))},
        {"op": "distribute_ebit", "party_a": "bob", "party_b": "carol",
         "label_a": "e2a", "label_b": "e2b", "resource": 1, "dim": 2},
        {"op": "bell_measure_qt", "party": "bob", "state_label": "e1b",
         "resource": 1, "record": "hop2"},
        {"op": "final_measure", "party": "carol", "labels": ["e2b"],
         "state": state_lit(random_vector(2, rng))},
    ]
    sc = _scenario("script", rng, shots, parties=["alice", "bob", "carol"], steps=steps)
    return Job(name, "cli", shots, sc)


def oqt_chain_job(name, rng, d, n, shots) -> Job:
    seed = int(rng.integers(0, 2**31))
    unitaries = [haar_unitary(d, rng) for _ in range(n)]
    psi = random_vector(d, rng)
    readout = random_vector(d, rng)
    inputs = {
        "seed": seed,
        "shots": shots,
        "unitaries": [mat_lit(u) for u in unitaries],
        "input_state": state_lit(psi),
        "observable": mat_lit(np.outer(readout, readout.conj())),
    }
    return Job(name, "oqt", shots, inputs)


# --- workloads ---


# Why each workload exists (see README.md for the metrics each should move):
# `shots` is dominated by per-shot record building and JSON writing and barely
# touches the engine; `deep-links` by hundreds of tiny engine passes at joint
# dimension <= 16; `wide-qudits` by dense kernels at D from 216 to 625 with the
# record writer idle. An optimisation of one layer is exercised by one of them
# and bypassed by another.


def _shots(rng):
    s = SHOTS_SCALE
    return [
        triparty_job("triparty-scheme1", rng, "I", 200_000 // s),
        triparty_job("triparty-scheme2", rng, "II", 50_000 // s),
        knitting_job("knitting-sampled", rng, 2, 1, "sampled", 100_000 // s),
        pingpong_job("pingpong-3", rng, 2, 3, 50_000 // s),
        dbqc_job("dbqc-1+1", rng, 2, 1, 1, 20_000 // s),
    ]


def _deep_links(rng):
    return [
        dbqc_job("dbqc-3+3", rng, 2, 3, 3, 2_000),
        pingpong_job("pingpong-6", rng, 2, 6, 2_000),
        script_job("script-two-hop", rng, 300),
    ]


def _wide_qudits(rng):
    return [
        dbqc_job("dbqc-d7", rng, 7, 1, 1, 2_000),
        channel_composition_job("channel-composition-d5", rng, 5, 2),
        knitting_job("knitting-exact-8q", rng, 8, 2, "exact_sum", 1),
        oqt_chain_job("oqt-chain-d6", rng, 6, 6, 20_000),
    ]


WORKLOADS = {
    "shots": _shots,
    "deep-links": _deep_links,
    "wide-qudits": _wide_qudits,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload`` for ``seed``; the same pair gives the same jobs."""
    tag = zlib.crc32(workload.encode())
    return WORKLOADS[workload](np.random.default_rng([seed, tag]))


def write_inputs(jobs: list[Job], directory: Path) -> dict[str, Path]:
    """Render every job into ``directory``; returns the file of each job."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(job.render())
        paths[job.name] = path
    return paths
