"""Outcome-tree runners against one straight-line run per outcome pattern.

The forced runners (dbqc, tri-party schemes I and II, ping-pong) walk the
tree of measurement outcomes and fork the engine at each measurement; the
script kind walks a memoized outcome tree shot by shot. The references kept here
simulate every pattern, or every shot, from scratch, and the results must
be equal exactly, not approximately.

dbqc and ping-pong merge equal branches on a key (the parity lattice); the
merged walk is checked against the unmerged tree.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq import cli
from obliq import distributed as dist
from obliq.channels import KrausChannel, choi_of, unitary_of_choi
from obliq.distributed import Party, ProtocolEngine
from obliq.gates import CNOT, X, Z, matrix_to_json
from obliq.oblivious import GeneralizedPauliBasis, bell_projector
from obliq.qmath import RegisterLayout, projector, random_statevector, random_unitary
from obliq.states import PureState, bell_state

SEEDS = st.integers(0, 2**32 - 1)
TREE = settings(max_examples=25, deadline=None)


def _pure(vec, label="s"):
    return PureState(RegisterLayout.of((label, vec.shape[0])), vec)


def _program(rng, d, kraus):
    """A unitary program, or a channel program with 2-3 random Kraus operators."""
    if not kraus:
        return choi_of(random_unitary(d, rng))
    k = int(rng.integers(2, 4))
    iso = random_unitary(d * k, rng)[:, :d]
    return choi_of(KrausChannel([iso[i * d : (i + 1) * d] for i in range(k)]))


# --- straight-line references: one fresh engine per forced pattern ---


def _dbqc_reference(alice, bob, pattern):
    psi_in, psi_o = alice.states[0], bob.states[0]
    d = psi_in.dim
    eng = ProtocolEngine(alice.name, bob.name)
    bits = iter(pattern)
    path_prob = 1.0

    eng.alloc_program(alice.name, alice.programs[0], "a_out_0", "a_in_0")
    _, pb = eng.measure_binary(
        alice.name, projector(np.conj(psi_in.amplitudes)), ["a_in_0"], forced=next(bits)
    )
    path_prob *= pb
    eng.broadcast(1)
    current = "a_out_0"

    def link(party, other_label):
        nonlocal path_prob
        _, pt = eng.measure_binary(
            party, bell_projector(d), [other_label, current], forced=next(bits)
        )
        path_prob *= pt
        eng.broadcast(1)
        eng.record_oqt()

    for k, prog in enumerate(alice.programs[1:], start=1):
        eng.alloc_program(alice.name, prog, f"a_out_{k}", f"a_in_{k}")
        link(alice.name, f"a_in_{k}")
        current = f"a_out_{k}"
    eid = eng.distribute_ebit(alice.name, bob.name, "e_a", "e_b", d)
    _, pt = eng.measure_binary(alice.name, bell_projector(d), [current, "e_a"], forced=next(bits))
    path_prob *= pt
    eng.broadcast(1)
    eng.record_oqt()
    eng.consume_ebit(eid)
    current = "e_b"
    for k, prog in enumerate(bob.programs):
        eng.alloc_program(bob.name, prog, f"b_out_{k}", f"b_in_{k}")
        link(bob.name, f"b_in_{k}")
        current = f"b_out_{k}"

    q = eng.probability(bob.name, projector(psi_o.amplitudes), [current])
    eng.broadcast(1)
    assert eng.ebits_conserved()
    return path_prob, q, eng.ledger


def _triparty_reference(a, b, c, pattern):
    da, db = a.states[0].dim, b.states[0].dim
    ba, bb, i, j = pattern
    eng = ProtocolEngine(a.name, b.name, c.name)
    path_prob = 1.0
    eng.alloc_program(c.name, c.programs[0], "c_out", [("c_in1", da), ("c_in2", db)])
    e1 = eng.transport("c_in1", a.name)
    e2 = eng.transport("c_in2", b.name)

    def isi(party, out, inp, bit):
        eng.alloc_program(party.name, party.programs[0], out, inp)
        p0 = projector(np.conj(party.states[0].amplitudes))
        _, pb = eng.measure_binary(party.name, p0, [inp], forced=bit)
        eng.broadcast(1)
        return pb

    path_prob *= isi(a, "a_out", "a_in", ba)
    path_prob *= isi(b, "b_out", "b_in", bb)
    for party, dim, labels, eid, bit in (
        (a, da, ["a_out", "c_in1"], e1, i),
        (b, db, ["b_out", "c_in2"], e2, j),
    ):
        _, p = eng.measure_binary(party.name, bell_projector(dim), labels, forced=bit)
        path_prob *= p
        eng.broadcast(1)
        eng.record_oqt()
        eng.consume_ebit(eid)

    q = eng.probability(c.name, projector(c.states[0].amplitudes), ["c_out"])
    eng.broadcast(1)
    assert eng.ebits_conserved()
    return path_prob, q, eng.ledger


def _pingpong_reference(programs, system, readout, pattern):
    d = system.dim
    eng = ProtocolEngine("device")
    eng.alloc("device", "blk0_state", system)
    current = "blk0_state"
    path_prob = 1.0
    for k, (prog, bit) in enumerate(zip(programs, pattern)):
        side = "blk1" if k % 2 == 0 else "blk0"
        out_lab, in_lab = f"{side}_out", f"{side}_in"
        eng.alloc_program("device", prog, out_lab, in_lab)
        _, p = eng.measure_binary("device", bell_projector(d), [in_lab, current], forced=bit)
        path_prob *= p
        eng.record_oqt()
        current = out_lab
        if k > 0:
            eng.force_layer()
    q = float(np.real(np.conj(readout) @ eng.reduced([current]) @ readout))
    return path_prob, q, eng.ledger


def _triparty_scheme2_reference(a, b, gate, psi_o, pattern):
    """Scheme II along one (m1, m2, teleport) pattern: the cat-entangler and
    the teleportation written out with engine operations."""
    m1, m2, tele = pattern
    eng = ProtocolEngine(a.name, b.name)
    path_prob = 1.0
    eng.alloc(a.name, "qa", a.states[0])
    eng.alloc(b.name, "qb", b.states[0])
    for prog in a.programs:
        eng.apply_local(a.name, unitary_of_choi(prog), ["qa"])
    for prog in b.programs:
        eng.apply_local(b.name, unitary_of_choi(prog), ["qb"])

    e1 = eng.distribute_ebit(a.name, b.name, "e1a", "e1b")
    eng.apply_local(a.name, CNOT, ["qa", "e1a"])
    _, p = eng.measure_binary(a.name, np.diag([1.0, 0.0]), ["e1a"], forced=m1)
    path_prob *= p
    eng.broadcast(1)
    eng.apply_local(b.name, np.linalg.matrix_power(X, m1), ["e1b"])
    eng.ledger.qt_corrections += 1
    eng.force_layer()
    ctrl = np.block([[np.eye(len(gate)), np.zeros_like(gate)], [np.zeros_like(gate), gate]])
    eng.apply_local(b.name, ctrl.astype(complex), ["e1b", "qb"])
    _, p = eng.measure_binary(b.name, np.full((2, 2), 0.5), ["e1b"], forced=m2)
    path_prob *= p
    eng.broadcast(1)
    eng.apply_local(a.name, np.linalg.matrix_power(Z, m2), ["qa"])
    eng.ledger.qt_corrections += 1
    eng.force_layer()
    eng.consume_ebit(e1)

    e2 = eng.distribute_ebit(a.name, b.name, "e2a", "e2b")
    sigmas = GeneralizedPauliBasis(2).operators
    omega = bell_state(2).amplitudes
    projs = [projector(np.kron(sig, np.eye(2)) @ omega) for sig in sigmas]
    _, p = eng.measure_projective(a.name, projs, ["qa", "e2a"], forced=tele)
    path_prob *= p
    eng.consume_ebit(e2)
    eng.broadcast(2)
    eng.apply_local(b.name, sigmas[tele], ["e2b"])
    eng.ledger.qt_corrections += 1
    eng.force_layer()

    q = eng.probability(b.name, projector(psi_o.amplitudes), ["e2b", "qb"])
    eng.broadcast(1)
    assert eng.ebits_conserved()
    return path_prob, q, eng.ledger


def _assert_leaves_equal(leaves, patterns, references):
    got_patterns, probs, qvals, ledger = leaves
    assert got_patterns.tolist() == [list(pat) for pat in patterns]
    assert probs.tolist() == [p for p, _, _ in references]
    assert qvals.tolist() == [q for _, q, _ in references]
    assert all(ledger == led for _, _, led in references)


@TREE
@given(
    seed=SEEDS,
    d=st.integers(2, 3),
    n_alice=st.integers(1, 3),
    n_bob=st.integers(1, 3),
    kraus=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_dbqc_tree_matches_one_pass_per_pattern(seed, d, n_alice, n_bob, kraus):
    n_bob = min(n_bob, 4 - n_alice)  # at most 4 links
    rng = np.random.default_rng(seed)
    alice = Party(
        "alice",
        programs=[_program(rng, d, kraus[k]) for k in range(n_alice)],
        states=[_pure(random_statevector(d, rng))],
    )
    bob = Party(
        "bob",
        programs=[_program(rng, d, kraus[-1 - k]) for k in range(n_bob)],
        states=[_pure(random_statevector(d, rng))],
    )
    leaves = dist._branch_leaves(*dist._dbqc_protocol(alice, bob))
    patterns = list(itertools.product((0, 1), repeat=1 + n_alice + n_bob))
    _assert_leaves_equal(
        leaves, patterns, [_dbqc_reference(alice, bob, pat) for pat in patterns]
    )


@TREE
@given(
    seed=SEEDS,
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    kraus=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_triparty_scheme1_tree_matches_one_pass_per_pattern(seed, dims, kraus):
    rng = np.random.default_rng(seed)
    da, db = dims
    a = Party("a", programs=[_program(rng, da, kraus[0])], states=[_pure(random_statevector(da, rng))])
    b = Party("b", programs=[_program(rng, db, kraus[1])], states=[_pure(random_statevector(db, rng))])
    c = Party(
        "c",
        programs=[_program(rng, da * db, kraus[2])],
        states=[_pure(random_statevector(da * db, rng))],
    )
    leaves = dist._branch_leaves(*dist._triparty_scheme1_protocol(a, b, c))
    patterns = list(itertools.product((0, 1), repeat=4))
    _assert_leaves_equal(
        leaves, patterns, [_triparty_reference(a, b, c, pat) for pat in patterns]
    )


@TREE
@given(seed=SEEDS, db=st.integers(2, 3), n_local=st.integers(0, 2))
def test_triparty_scheme2_tree_matches_one_pass_per_pattern(seed, db, n_local):
    rng = np.random.default_rng(seed)
    a = Party(
        "a",
        programs=[choi_of(random_unitary(2, rng)) for _ in range(n_local)],
        states=[_pure(random_statevector(2, rng))],
    )
    b = Party(
        "b",
        programs=[choi_of(random_unitary(db, rng)) for _ in range(n_local)],
        states=[_pure(random_statevector(db, rng))],
    )
    gate = random_unitary(db, rng)
    psi_o = _pure(random_statevector(2 * db, rng))
    leaves = dist._branch_leaves(*dist._triparty_scheme2_protocol(a, b, gate, psi_o))
    patterns = list(itertools.product((0, 1), (0, 1), range(4)))
    references = [_triparty_scheme2_reference(a, b, gate, psi_o, pat) for pat in patterns]
    _assert_leaves_equal(leaves, patterns, references)
    assert all(abs(p - 1 / 16) <= 1e-9 for p, _, _ in references)


@TREE
@given(
    seed=SEEDS,
    d=st.integers(2, 3),
    kraus=st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_pingpong_tree_matches_one_pass_per_pattern(seed, d, kraus):
    rng = np.random.default_rng(seed)
    programs = [_program(rng, d, k) for k in kraus]
    system = _pure(random_statevector(d, rng))
    readout = random_statevector(d, rng)
    leaves = dist._branch_leaves(*dist._pingpong_readout_protocol(programs, system, readout))
    patterns = list(itertools.product((0, 1), repeat=len(programs)))
    references = [_pingpong_reference(programs, system, readout, pat) for pat in patterns]
    _assert_leaves_equal(leaves, patterns, references)


# --- parity lattice: the merged walk against the tree ---

PROGRAM_KINDS = st.sampled_from(["unitary", "kraus", "near-unitary"])


def _program_of_kind(rng, d, kind):
    """A unitary or random Kraus program, or a unitary perturbed so that
    ||U^dag U - I|| is about 1e-10, which validation accepts."""
    if kind == "near-unitary":
        return choi_of(random_unitary(d, rng) + 1e-10 * random_unitary(d, rng))
    return _program(rng, d, kind == "kraus")


def _counting_finish(protocol, calls):
    """Wrap a protocol function so that its finish counts its calls."""

    def wrapped(*args):
        engine, steps, finish = protocol(*args)
        return engine, steps, lambda eng: (calls.append(1), finish(eng))[1]

    return wrapped


def _assert_lattice_matches_tree(protocol, args, key):
    """The walk merged on ``key`` against the tree: equal patterns and
    ledgers, and probabilities and values within 1e-12, or equal when
    nothing merged (finish ran on every leaf). Returns the number of
    leaves the merged walk ran finish on."""
    tree = dist._branch_leaves(*protocol(*args))
    calls = []
    lattice = dist._branch_leaves(*_counting_finish(protocol, calls)(*args), key)
    assert lattice[0].tolist() == tree[0].tolist()
    assert lattice[3] == tree[3]
    if len(calls) == len(tree[0]):
        assert lattice[1].tolist() == tree[1].tolist()
        assert lattice[2].tolist() == tree[2].tolist()
    else:
        assert np.abs(lattice[1] - tree[1]).max() <= 1e-12
        assert np.abs(lattice[2] - tree[2]).max() <= 1e-12
    return len(calls)


def _dbqc_parties(rng, d, n_alice, n_bob, kind):
    alice = Party(
        "alice",
        programs=[_program_of_kind(rng, d, kind) for _ in range(n_alice)],
        states=[_pure(random_statevector(d, rng))],
    )
    bob = Party(
        "bob",
        programs=[_program_of_kind(rng, d, kind) for _ in range(n_bob)],
        states=[_pure(random_statevector(d, rng))],
    )
    return alice, bob


@TREE
@given(
    seed=SEEDS,
    d=st.integers(2, 3),
    n_alice=st.integers(1, 3),
    n_bob=st.integers(1, 3),
    kind=PROGRAM_KINDS,
)
def test_dbqc_lattice_matches_tree(seed, d, n_alice, n_bob, kind):
    n_bob = min(n_bob, 4 - n_alice)  # at most 4 links
    alice, bob = _dbqc_parties(np.random.default_rng(seed), d, n_alice, n_bob, kind)
    # With Kraus programs, branches still merge across the ebit link: it is
    # an identity channel, so its parity flip commutes with its neighbours'.
    key = dist._isi_bit_and_parity_count
    _assert_lattice_matches_tree(dist._dbqc_protocol, (alice, bob), key)


@TREE
@given(seed=SEEDS, d=st.integers(2, 3), n=st.integers(1, 5), kind=PROGRAM_KINDS)
def test_pingpong_lattice_matches_tree(seed, d, n, kind):
    rng = np.random.default_rng(seed)
    programs = [_program_of_kind(rng, d, kind) for _ in range(n)]
    system = _pure(random_statevector(d, rng))
    readout = random_statevector(d, rng)
    protocol = dist._pingpong_readout_protocol
    finished = _assert_lattice_matches_tree(protocol, (programs, system, readout), sum)
    if kind == "kraus":  # a non-unital program does not commute with a parity flip
        assert finished == 2**n


def test_unitary_runs_finish_once_per_isi_bit_and_parity_count(monkeypatch):
    rng = np.random.default_rng(5)
    alice, bob = _dbqc_parties(rng, 2, 3, 3, "unitary")
    tree_calls, calls = [], []
    dist._branch_leaves(*_counting_finish(dist._dbqc_protocol, tree_calls)(alice, bob))
    monkeypatch.setattr(dist, "_dbqc_protocol", _counting_finish(dist._dbqc_protocol, calls))
    dist.run_dbqc(alice, bob, 10, rng)
    assert (len(tree_calls), len(calls)) == (128, 14)  # (b, s) in {0, 1} x {0..6}

    programs = [_program_of_kind(rng, 2, "unitary") for _ in range(6)]
    system, readout = _pure(random_statevector(2, rng)), random_statevector(2, rng)
    protocol = dist._pingpong_readout_protocol
    tree_calls, calls = [], []
    dist._branch_leaves(*_counting_finish(protocol, tree_calls)(programs, system, readout))
    monkeypatch.setattr(dist, "_pingpong_readout_protocol", _counting_finish(protocol, calls))
    dist.pingpong_branches(programs, system, readout)
    assert (len(tree_calls), len(calls)) == (64, 7)  # s in {0..6}


# --- script kind: memoized outcome tree against one script run per shot ---


def _per_shot_run_script(sc, rng):
    """The script runner with one `_execute_script_once` per shot, on a
    resolved scenario."""
    shots = sc["shots"]
    runs = [cli._execute_script_once(sc, rng) for _ in range(shots)]
    ledger = runs[0][2]
    columns = {"bits": {key: np.array([bits[key] for bits, _, _ in runs]) for key in runs[0][0]}}
    if runs[0][1] is None:
        return math.nan, 0.0, ledger, columns
    readout = np.array([final_bit for _, final_bit, _ in runs])
    columns["readout"] = readout
    arr = (readout == 0).astype(float)
    estimate = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return estimate, stderr, ledger, columns


def _vector(rng, d):
    return {"vector": [[float(c.real), float(c.imag)] for c in random_statevector(d, rng)]}


def _gate(rng, d):
    return {"matrix": matrix_to_json(random_unitary(d, rng))}


def _script(rng, d, blocks, final, shots):
    """A script that starts with an ISI at alice and passes its output along
    ``blocks``: an OQT link or a teleportation through an ebit (four
    outcomes), each of which moves the output to the other party, a local
    OQT link into a fresh program at the same party, or a remote CNOT
    between two fresh qubits (two draws in one step)."""
    parties = ["alice", "bob"]
    steps = [
        {"op": "prepare_program", "party": "alice", "gate": _gate(rng, d),
         "out_label": "p0_out", "in_label": "p0_in"},
        {"op": "isi_inject", "party": "alice", "in_label": "p0_in", "state": _vector(rng, d)},
    ]
    cur, holder = "p0_out", 0
    for k, block in enumerate(blocks, start=1):
        me, other = parties[holder], parties[1 - holder]
        ebit = {"op": "distribute_ebit", "party_a": me, "party_b": other,
                "label_a": f"e{k}a", "label_b": f"e{k}b", "resource": k,
                "dim": 2 if block == "cnot" else d}
        if block == "oqt":
            steps += [ebit, {"op": "oqt_link", "party": me, "labels": [cur, f"e{k}a"], "resource": k}]
            cur, holder = f"e{k}b", 1 - holder
        elif block == "local":
            steps += [
                {"op": "prepare_program", "party": me, "gate": _gate(rng, d),
                 "out_label": f"p{k}_out", "in_label": f"p{k}_in"},
                {"op": "oqt_link", "party": me, "labels": [f"p{k}_in", cur]},
            ]
            cur = f"p{k}_out"
        elif block == "teleport":
            steps += [ebit, {"op": "bell_measure_qt", "party": me, "state_label": cur, "resource": k}]
            cur, holder = f"e{k}b", 1 - holder
        else:
            steps += [
                {"op": "prepare_state", "party": me, "label": f"c{k}", "state": _vector(rng, 2)},
                {"op": "prepare_state", "party": other, "label": f"t{k}", "state": _vector(rng, 2)},
                ebit,
                {"op": "remote_cnot", "party": me, "control": f"c{k}", "target": f"t{k}",
                 "resource": k},
            ]
    if final:
        steps.append({"op": "final_measure", "party": parties[holder], "labels": [cur],
                      "state": _vector(rng, d)})
    return {"version": 1, "kind": "script", "seed": 0, "shots": shots, "parties": parties,
            "steps": steps}


def _assert_same_columns(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], dict):
            _assert_same_columns(got[key], want[key])
        else:
            assert got[key].dtype == want[key].dtype
            assert np.array_equal(got[key], want[key])


@TREE
@given(
    seed=SEEDS,
    d=st.integers(2, 3),
    blocks=st.lists(
        st.sampled_from(["oqt", "local", "teleport", "cnot"]), max_size=3
    ).filter(lambda b: b.count("cnot") <= 2),
    final=st.booleans(),
    shots=st.integers(1, 60),
)
def test_script_tree_matches_one_run_per_shot(seed, d, blocks, final, shots):
    sc = cli.validate_scenario(_script(np.random.default_rng(seed), d, blocks, final, shots))
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    estimate, stderr, ledger, columns = cli._run_script(sc, rng)
    want_estimate, want_stderr, want_ledger, want_columns = _per_shot_run_script(sc, ref_rng)
    if final:
        assert (estimate, stderr) == (want_estimate, want_stderr)
    else:
        assert math.isnan(estimate) and math.isnan(want_estimate) and stderr == want_stderr
    assert ledger == want_ledger
    _assert_same_columns(columns, want_columns)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
