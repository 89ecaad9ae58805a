"""The one walk (`distributed._walk`) against straight-line references.

Every runner walks its protocol's outcome prefixes level by level, one
engine row per live branch, forking rows only where its shots draw. Walked
over every outcome pattern, a protocol
must give what one fresh engine per pattern gives; drawn for shots, it must
give what expanding every pattern and calling ``rng.choice`` gives; a
script must give what one fresh engine per shot gives. The results must
be equal exactly, not approximately.

dbqc and ping-pong simulate only their all-trivial path and take every
other pattern's readout probability from the parity law
(`distributed._parity_law`); the law is checked against the dense tree
over every pattern, and their drawn shots against expanding that tree.
Scheme I walks its 16 patterns; its shots, drawn from the fixed law of its
bits (`oblivious._law_patterns`), are checked against expanding the tree
too. A fixed-law draw takes each step's outcome as ``rng.choice`` over that
step's law takes it, the steps drawn in order.
"""

import functools
import itertools
import math
import tracemalloc

import dense
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obliq import cli, oblivious, qmath
from obliq import distributed as dist
from obliq.channels import KrausChannel, choi_of, unitary_of_choi
from obliq.distributed import Party, ProtocolEngine
from obliq.errors import StateValidationError
from obliq.gates import CNOT, X, Z, matrix_to_json
from obliq.oblivious import GeneralizedPauliBasis, bell_projector, parity_mix_alpha
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

    (q,) = eng.probability(bob.name, projector(psi_o.amplitudes), [current])
    eng.broadcast(1)
    assert eng.ebits_unused == 0
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

    (q,) = eng.probability(c.name, projector(c.states[0].amplitudes), ["c_out"])
    eng.broadcast(1)
    assert eng.ebits_unused == 0
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
    q = float(np.real(np.conj(readout) @ eng.reduced([current])[0] @ readout))
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

    (q,) = eng.probability(b.name, projector(psi_o.amplitudes), ["e2b", "qb"])
    eng.broadcast(1)
    assert eng.ebits_unused == 0
    return path_prob, q, eng.ledger


def _walk_all(protocol, patterns):
    """A protocol (engine, steps, finish) walked along every pattern in
    ``patterns``: the patterns, path probabilities, finish values and the
    leaves' ledger."""
    engine, steps, finish = protocol
    ledgers = []

    def leaf(eng):
        values = finish(eng)
        ledgers.append(eng.ledger)
        return values

    *leaves, leaf_of_shot = dist._walk(engine, steps, leaf, patterns=np.array(patterns))
    return (*(column[leaf_of_shot] for column in leaves), ledgers[0])


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
    patterns = list(itertools.product((0, 1), repeat=1 + n_alice + n_bob))
    leaves = _walk_all(dist._dbqc_protocol(alice, bob), patterns)
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
    patterns = list(itertools.product((0, 1), repeat=4))
    leaves = _walk_all(dist._triparty_scheme1_protocol(a, b, c), patterns)
    _assert_leaves_equal(
        leaves, patterns, [_triparty_reference(a, b, c, pat) for pat in patterns]
    )


@TREE
@given(seed=SEEDS, db=st.integers(2, 3), n_local=st.integers(0, 2))
def test_triparty_scheme2_tree_matches_one_pass_per_pattern(seed, db, n_local):
    """Scheme II's steps are its cat-entangler bits and its teleportation,
    each drawn from its law with its channel applied: every pattern has
    probability 1/16 and, within 1e-12, the readout and ledger of the
    cat-entangler and teleportation measured and corrected along it."""
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
    patterns = list(itertools.product((0, 1), (0, 1), range(4)))
    got, probs, qvals, ledger = _walk_all(dist._triparty_scheme2_protocol(a, b, gate, psi_o), patterns)
    references = [_triparty_scheme2_reference(a, b, gate, psi_o, pat) for pat in patterns]
    assert got.tolist() == [list(pat) for pat in patterns]
    assert probs.tolist() == [1 / 16] * 16
    for q, (p, want_q, want_ledger) in zip(qvals, references):
        assert abs(p - 1 / 16) <= 1e-9
        assert abs(q - want_q) <= 1e-12
        assert ledger == want_ledger


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
    patterns = list(itertools.product((0, 1), repeat=len(programs)))
    leaves = _walk_all(dist._pingpong_readout_protocol(programs, system, readout), patterns)
    references = [_pingpong_reference(programs, system, readout, pat) for pat in patterns]
    _assert_leaves_equal(leaves, patterns, references)


# --- the parity law against the tree ---

PROGRAM_KINDS = st.sampled_from(["unitary", "kraus", "near-unitary"])
UNITAL_KINDS = st.sampled_from(["unitary", "mixed-unitary", "near-unitary"])


def _program_of_kind(rng, d, kind, off=1e-10):
    """A unitary, random Kraus or mixed-unitary program (2-3 random unitaries
    with random weights), or a unitary U + off V (V a random unitary), so
    that max |U^dag U - I| is up to about 2 off. Validation accepts
    off = 2e-11 (`gates.UNITARY_TOL`), not the default 1e-10."""
    if kind == "near-unitary":
        return choi_of(random_unitary(d, rng) + off * random_unitary(d, rng))
    if kind == "mixed-unitary":
        weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        return choi_of(KrausChannel([np.sqrt(w) * random_unitary(d, rng) for w in weights]))
    return _program(rng, d, kind == "kraus")


def _every_pattern(protocol, args):
    """Every outcome pattern of a protocol whose steps are binary."""
    return list(itertools.product((0, 1), repeat=len(protocol(*args)[1])))


def _assert_law_matches_tree(protocol, args, d, isi, bound):
    """The parity law's q (`distributed._parity_law` of the all-trivial
    path's q) and path probability (1/d or 1 - 1/d for the ISI bit, 1/d^2
    or 1 - 1/d^2 per link) within ``bound`` of every pattern's dense walk."""
    patterns = np.array(_every_pattern(protocol, args))
    _, probs, qvals, _ = _walk_all(protocol(*args), patterns)
    assert not patterns[0].any()
    law = dist._parity_law(qvals[0], d, patterns, patterns[:, int(isi):].sum(axis=1), isi)
    trivial = np.full(patterns.shape[1], 1.0 / d**2)
    if isi:
        trivial[0] = 1.0 / d
    path = np.where(patterns == 0, trivial, 1.0 - trivial).prod(axis=1)
    assert np.abs(law - qvals).max() <= bound
    assert np.abs(path - probs).max() <= bound


def _dbqc_parties(rng, d, n_alice, n_bob, kind, off=1e-10):
    alice = Party(
        "alice",
        programs=[_program_of_kind(rng, d, kind, off) for _ in range(n_alice)],
        states=[_pure(random_statevector(d, rng))],
    )
    bob = Party(
        "bob",
        programs=[_program_of_kind(rng, d, kind, off) for _ in range(n_bob)],
        states=[_pure(random_statevector(d, rng))],
    )
    return alice, bob


# Unitary and mixed-unitary programs follow the law to rounding (about
# 1e-15); gates up to 2e-11 from unitary (off = 1e-11), which validation
# accepts, to about 3e-11 at 5 links.
LAW_BOUND = {"unitary": 1e-12, "mixed-unitary": 1e-12, "near-unitary": 1e-10}


@TREE
@given(
    seed=SEEDS,
    d=st.integers(2, 3),
    n_alice=st.integers(1, 3),
    n_bob=st.integers(1, 3),
    kind=UNITAL_KINDS,
)
def test_dbqc_parity_law_matches_tree(seed, d, n_alice, n_bob, kind):
    n_bob = min(n_bob, 4 - n_alice)  # at most 4 links
    alice, bob = _dbqc_parties(np.random.default_rng(seed), d, n_alice, n_bob, kind, 1e-11)
    _assert_law_matches_tree(dist._dbqc_protocol, (alice, bob), d, True, LAW_BOUND[kind])


@TREE
@given(seed=SEEDS, d=st.integers(2, 3), n=st.integers(1, 5), kind=UNITAL_KINDS)
def test_pingpong_parity_law_matches_tree(seed, d, n, kind):
    rng = np.random.default_rng(seed)
    programs = [_program_of_kind(rng, d, kind, 1e-11) for _ in range(n)]
    args = (programs, _pure(random_statevector(d, rng)), random_statevector(d, rng))
    _assert_law_matches_tree(dist._pingpong_readout_protocol, args, d, False, LAW_BOUND[kind])


def test_unital_runs_allocate_each_program_once(monkeypatch):
    """dbqc and ping-pong simulate one path: n programs make n
    `alloc_program` calls, however many shots and patterns they draw."""
    calls = []
    alloc_program = ProtocolEngine.alloc_program

    def counted(self, *args):
        calls.append(1)
        return alloc_program(self, *args)

    monkeypatch.setattr(ProtocolEngine, "alloc_program", counted)
    rng = np.random.default_rng(5)
    for n_alice, n_bob in ((1, 1), (3, 3), (7, 8)):
        alice, bob = _dbqc_parties(rng, 2, n_alice, n_bob, "unitary")
        calls.clear()
        res = dist.run_dbqc(alice, bob, 500, rng)
        assert len(calls) == n_alice + n_bob
        assert len({tuple(row) for row in res.rows["parity_bits"][res.row_of_shot].tolist()}) > 1
    for n in (1, 6, 16):
        programs = [_program_of_kind(rng, 2, "unitary") for _ in range(n)]
        calls.clear()
        dist.pingpong_shots(programs, _pure(random_statevector(2, rng)), random_statevector(2, rng), 500, rng)
        assert len(calls) == n


# --- the drawn walk against expanding every pattern and rng.choice ---


def _drawn_protocol(kind, seed, d, n, program_kind):
    """A random small protocol that validation would accept (a runner
    refuses dbqc and ping-pong with Kraus programs): (runner name, protocol
    function, its arguments)."""
    rng, off = np.random.default_rng(seed), 2e-11
    if kind == "dbqc":
        n_alice = 1 + n % 2
        alice, bob = _dbqc_parties(rng, d, n_alice, 1 + n // 2, program_kind, off)
        return kind, dist._dbqc_protocol, (alice, bob)
    if kind == "pingpong":
        programs = [_program_of_kind(rng, d, program_kind, off) for _ in range(n)]
        args = (programs, _pure(random_statevector(d, rng)), random_statevector(d, rng))
        return kind, dist._pingpong_readout_protocol, args
    parties = [
        Party(name, programs=[_program_of_kind(rng, dim, program_kind, off)],
              states=[_pure(random_statevector(dim, rng))])
        for name, dim in (("a", d), ("b", 2), ("c", 2 * d))
    ]
    return kind, dist._triparty_scheme1_protocol, tuple(parties)


def _run_drawn(kind, args, shots, rng):
    """The runner's shots: outcome patterns, readouts, and per-shot
    estimates (scheme I: the estimate and its standard error)."""
    if kind == "dbqc":
        res = dist.run_dbqc(*args, shots, rng)
        rows, row_of_shot = res.rows, res.row_of_shot
        patterns = np.column_stack([rows["isi_bit"], rows["parity_bits"]])[row_of_shot]
        return patterns, rows["readout"][row_of_shot], rows["estimate"][row_of_shot]
    if kind == "pingpong":
        _, _, _, rows, row_of_shot = dist.pingpong_shots(*args, shots, rng)
        return rows["parity_bits"][row_of_shot], rows["readout"][row_of_shot], rows["estimate"][row_of_shot]
    res = dist.run_triparty("I", *args, shots, rng)
    patterns = np.column_stack([res.rows[b] for b in ("b_a", "b_b", "i", "j")])[res.row_of_shot]
    return patterns, res.rows["y"][res.row_of_shot], np.array([res.estimate, res.stderr])


def _edges(kind, args, width):
    """Each bit's probability of 0 by the paper's law: 1/d for an ISI bit,
    1/d^2 for a parity."""
    if kind == "triparty":
        da, db = args[0].states[0].dim, args[1].states[0].dim
        return [1 / da, 1 / db, 1 / da**2, 1 / db**2]
    if kind == "dbqc":
        d = args[0].states[0].dim
        return [1 / d] + [1 / d**2] * (width - 1)
    return [1 / len(args[2]) ** 2] * width


def _expanded(kind, protocol, args, shots, rng):
    """The reference: every pattern walked and its path probability checked
    within 1e-9 of the bits' law, then each bit drawn by ``rng.choice`` over
    its law, in step order, and each shot's readout on its walked leaf."""
    patterns = np.array(_every_pattern(protocol, args))
    _, probs, qvals, _ = _walk_all(protocol(*args), patterns)
    edges = np.array(_edges(kind, args, patterns.shape[1]))
    assert np.abs(probs - np.where(patterns == 0, edges, 1.0 - edges).prod(axis=1)).max() <= 1e-9
    drawn = np.column_stack([rng.choice(2, size=shots, p=[e, 1.0 - e]) for e in edges])
    idx = drawn @ (1 << np.arange(len(edges))[::-1])  # the leaf, in `_every_pattern` order
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    if kind == "triparty":
        da, db = args[0].states[0].dim, args[1].states[0].dim
        eta = np.where((drawn[:, 0] == 0) & (drawn[:, 1] == 0), 1.0, -1.0)
        t_hat = 0.5 * (1.0 + eta * da * db * (y == 0))
        return drawn, y, np.array(dist.mean_stderr(t_hat[drawn[:, 2:].max(axis=1) == 0]))
    d = args[0].states[0].dim if kind == "dbqc" else len(args[2])
    parities = drawn[:, 1:] if kind == "dbqc" else drawn
    s = parities.sum(axis=1)
    alpha = np.array([parity_mix_alpha(int(v), d) for v in s])
    inv = ((-1.0) ** s) * float(d * d - 1) ** s * ((y == 0) - alpha)
    if kind == "dbqc":
        inv = np.where(drawn[:, 0] == 0, inv, 1.0 - (d - 1) * inv)
    return drawn, y, inv


@TREE
@given(
    seed=SEEDS,
    kind=st.sampled_from(["dbqc", "pingpong", "triparty"]),
    d=st.integers(2, 3),
    n=st.integers(1, 5),
    program_kind=PROGRAM_KINDS,
    shots=st.integers(1, 60),
)
def test_drawn_walk_matches_expanding_every_pattern(seed, kind, d, n, program_kind, shots):
    kind, protocol, args = _drawn_protocol(kind, seed, d, n, program_kind)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if program_kind == "kraus" and kind != "triparty":
        with pytest.raises(StateValidationError, match="not unital"):
            _run_drawn(kind, args, shots, rng)
    else:
        got = _run_drawn(kind, args, shots, rng)
        want = _expanded(kind, protocol, args, shots, ref_rng)
        for g, w in zip(got, want):
            assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w, equal_nan=True)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@TREE
@given(
    seed=SEEDS,
    dims=st.lists(st.integers(2, 7), min_size=1, max_size=6),
    squared=st.booleans(),
    shots=st.integers(1, 500),
)
def test_law_patterns_pick_the_leaf_rng_choice_picks(seed, dims, squared, shots):
    """A fixed-law draw of binary steps, each given by its edge 1/d or 1/d^2
    as the ISI and parity bits are, takes at every step the outcome that
    ``rng.choice`` over the step's law takes on the same generator, the
    steps drawn in order, and leaves the generator where those calls leave
    it."""
    edges = [1.0 / (d * d if squared else d) for d in dims]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = oblivious._law_patterns(edges, rng, shots)
    want = np.column_stack([ref_rng.choice(2, size=shots, p=[e, 1.0 - e]) for e in edges])
    assert drawn.dtype == np.int16 and drawn.tolist() == want.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Uniforms:
    """A generator stub: ``random(n)`` hands out its next n uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, n):
        out, self.uniforms = np.array(self.uniforms[:n]), self.uniforms[n:]
        return out


@pytest.mark.parametrize("cdfs", [
    [[1 / 2], [1 / 2], [1 / 4], [1 / 4]],
    [[1 / 2]] + [[1 / 4]] * 6,
    [[1 / 3], [1 / 9], [1 / 9]],
    [[1 / 7]] + [[1 / 49]] * 15,
    [[1 / 4, 1 / 2, 3 / 4], [1 / 3], [1 / 7, 1 / 3, 1 / 2, 0.5625]],
])
def test_law_patterns_draw_pinned_uniforms(cdfs):
    """Every step draws the same pinned uniforms (edges of these laws, 0 and
    1 - 2^-53), then one just below each of its own edges: a shot takes the
    number of the step's edges at or below its uniform, so a uniform on an
    edge goes right, as in ``rng.choice``."""
    pinned = [0.5, 0.75, 0.0, 0.25, 0.625, 0.5625, 1.0 - 2.0**-53, 1 / 3, 1 / 7, 1 / 9, 1 / 49]
    uniforms = [pinned + [np.nextafter(e, 0.0) for e in cdf] for cdf in cdfs]
    shots = max(map(len, uniforms))
    uniforms = [us + [0.0] * (shots - len(us)) for us in uniforms]
    got = oblivious._law_patterns(cdfs, _Uniforms(itertools.chain(*uniforms)), shots)
    want = np.array([[sum(e <= u for e in cdf) for u in us] for cdf, us in zip(cdfs, uniforms)]).T
    assert got.dtype == np.int16 and np.array_equal(got, want)


@pytest.mark.parametrize("edges", [
    (1 / 2, 1 / 2, 1 / 4, 1 / 4),
    (1 / 2,) + (1 / 4,) * 6,
    (1 / 3, 1 / 9, 1 / 9),
    (1 / 7,) + (1 / 49,) * 15,
])
@pytest.mark.parametrize("shots", [1, 10, 2000, 25000])
def test_law_patterns_per_prefix_match_the_per_shot_rule(edges, shots):
    """Drawing only the first t steps, for every t, gives the first t columns
    of the full draw, and each is the per-shot rule: shot s takes 1 at step t
    when its own uniform of that step is at or above the edge, uniforms on
    an edge included (pinned at the start of every step's uniforms)."""
    pinned = [0.5, 0.75, 0.0, 0.25, 0.625, 0.5625, 1.0 - 2.0**-53, 1 / 3, 1 / 7, 1 / 9, 1 / 49]
    rng = np.random.default_rng(shots)
    uniforms = []
    for _ in edges:
        u = rng.random(shots)
        u[: len(pinned)] = pinned[:shots]
        uniforms.append(u.tolist())
    want = np.array([[int(us[s] >= e) for e, us in zip(edges, uniforms)] for s in range(shots)])
    for t in range(1, len(edges) + 1):
        got = oblivious._law_patterns(edges[:t], _Uniforms(itertools.chain(*uniforms[:t])), shots)
        assert got.dtype == np.int16
        assert np.array_equal(got, want[:, :t]), t


def _cdf(probs):
    """A law's CDF without its final 1, formed as ``rng.choice`` forms it."""
    cdf = np.cumsum(probs)
    return cdf[:-1] / cdf[-1]


@pytest.mark.parametrize("seed", [3, 14, 159])
@pytest.mark.parametrize(
    "sizes, shots", [((16, 4, 81), 2000), ((2, 16, 16, 3), 50), ((40_000, 3), 1000), ((1, 5, 1), 100), ((16, 16, 1), 50)]
)
def test_law_patterns_of_many_outcomes_pick_the_leaf_rng_choice_picks(seed, sizes, shots):
    """Steps of k outcomes (1 up to 40,000, past int16) take, on the same
    generator, the outcomes that ``rng.choice`` over each step's law takes,
    the steps drawn in order, and leave the generator where those calls
    leave it: a one-outcome step draws its uniforms too."""
    laws = [p / p.sum() for p in (np.random.default_rng(seed + k).random(k) for k in sizes)]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = oblivious._law_patterns([_cdf(p) for p in laws], rng, shots)
    want = np.column_stack([ref_rng.choice(len(p), size=shots, p=p) for p in laws])
    assert np.iinfo(drawn.dtype).max >= max(sizes) - 1
    assert np.array_equal(drawn, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("steps, outcomes", [(15, 16), (7, 256)])
def test_law_patterns_keep_every_step_on_its_law(steps, outcomes):
    """40,000 shots of laws whose product has 2^60 or 2^56 leaves, past the
    53 bits of one uniform: every step's count of every outcome lies within
    6 sigma of its law, the last step's as the first's."""
    shots, rng = 40_000, np.random.default_rng(outcomes)
    laws = [p / p.sum() for p in rng.random((steps, outcomes)) + 0.5]
    drawn = oblivious._law_patterns([_cdf(p) for p in laws], rng, shots)
    for t, p in enumerate(laws):
        counts = np.bincount(drawn[:, t], minlength=outcomes)
        assert (np.abs(counts - shots * p) <= 6 * np.sqrt(shots * p * (1 - p))).all(), t


def test_law_patterns_hold_memory_linear_in_the_shots():
    """10^5 shots of 8 steps of 16 outcomes: each step holds one uniform and
    one outcome per shot beside the patterns, so the peak stays near a few
    arrays of one number per shot, where the 16 edges of every shot would
    take 10^5 x 17 x 8 bytes = 13.6 MB alone."""
    cdf = _cdf(np.random.default_rng(6).random(16))
    oblivious._law_patterns([cdf] * 8, np.random.default_rng(5), 100)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        patterns = oblivious._law_patterns([cdf] * 8, rng, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert patterns.shape == (100_000, 8)
    assert peak < 12_000_000


def test_a_walk_keeps_each_step_within_the_row_budget(monkeypatch):
    """500 shots of 10 fair draws beside a 64-dimensional bystander: each
    step allocates a qubit (D = 128 inside the step) and measures it. Depths
    hold up to 500 branches, yet no step stacks more than `ROW_BUDGET`
    entries, the walk still stacks rows, and each shot draws what one path
    per shot draws."""
    sizes = []

    def kron_rows(rho, block):
        out = qmath.kron_rows(rho, block)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(dist, "kron_rows", kron_rows)
    plus = np.full(2, 2**-0.5)
    basis = dist._binary(np.diag([1.0, 0.0]))

    def step(t):
        def run(eng):
            eng.alloc("p", f"q{t}", plus)
            return dist._measured(eng, "p", basis, [f"q{t}"])

        return run

    steps = [step(t) for t in range(10)]
    root = ProtocolEngine("p")
    root.alloc("p", "bystander", np.eye(64) / 64)
    uniforms = np.random.default_rng(1).random((500, 10))
    bits, _, _, leaf_of_shot = dist._walk(root, steps, lambda eng: None, uniforms)
    assert len({tuple(b) for b in bits[leaf_of_shot].tolist()}) > 350
    assert max(sizes) <= dist.ROW_BUDGET < 128**2 * 5
    assert max(sizes) > 128**2  # more than one row per step

    rng = np.random.default_rng(2)
    uniforms = rng.random((500, 10))
    bits, _, _, leaf_of_shot = dist._walk(root, steps, lambda eng: None, uniforms)
    rng = np.random.default_rng(2)
    for shot in range(500):
        eng = root.fork()
        assert dist._follow(eng, steps, rng, None) == bits[leaf_of_shot[shot]].tolist()


# --- script kind: the drawn walk against one script run per shot ---


def _execute_script_once(sc, rng):
    """One run of a resolved script on a fresh engine, one path of its steps
    (`distributed._follow`): its recorded bits, readout bit (None without a
    `final_measure`) and ledger."""
    eng = ProtocolEngine(*sc["parties"])
    bits, final_bit = {}, None
    for record, steps in sc["steps"]:
        outcomes = dist._follow(eng, steps, rng, None)
        if record == ("readout",):
            (final_bit,) = outcomes
        elif record:
            bits[record[1]] = outcomes[0] if len(outcomes) == 1 else 2 * outcomes[0] + outcomes[1]
    return bits, final_bit, eng.ledger


def _per_shot_run_script(sc, rng):
    """The script runner with one fresh engine per shot, on a resolved
    scenario."""
    shots = sc["shots"]
    runs = [_execute_script_once(sc, rng) for _ in range(shots)]
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


def _per_shot(rows, row_of_shot):
    """The row table's columns expanded to one entry per shot."""
    return {
        key: _per_shot(col, row_of_shot) if isinstance(col, dict) else col[row_of_shot]
        for key, col in rows.items()
    }


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
    estimate, stderr, ledger, rows, row_of_shot = cli._run_script(sc, rng)
    columns = _per_shot(rows, row_of_shot)
    want_estimate, want_stderr, want_ledger, want_columns = _per_shot_run_script(sc, ref_rng)
    if final:
        assert (estimate, stderr) == (want_estimate, want_stderr)
    else:
        assert math.isnan(estimate) and math.isnan(want_estimate) and stderr == want_stderr
    assert ledger == want_ledger
    _assert_same_columns(columns, want_columns)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# --- oblivious primitives fork no row ---


def _hops_script(d, hops, shots):
    """A d-dimensional state teleported ``hops`` times, back and forth
    between alice and bob, through fresh ebits, then measured."""
    rng = np.random.default_rng(10 * d + hops)
    parties = ["alice", "bob"]
    steps = [{"op": "prepare_state", "party": "alice", "label": "e0b", "state": _vector(rng, d)}]
    for k in range(1, hops + 1):
        me, other = parties[(k - 1) % 2], parties[k % 2]
        steps += [
            {"op": "distribute_ebit", "party_a": me, "party_b": other, "label_a": f"e{k}a",
             "label_b": f"e{k}b", "resource": k, "dim": d},
            {"op": "bell_measure_qt", "party": me, "state_label": f"e{k - 1}b", "resource": k},
        ]
    steps.append({"op": "final_measure", "party": parties[hops % 2], "labels": [f"e{hops}b"],
                  "state": _vector(rng, d)})
    return {"version": 1, "kind": "script", "seed": hops, "shots": shots, "parties": parties,
            "steps": steps}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_teleport_hops_hold_one_walk_row_until_the_final_measurement(d):
    """Teleportations through fresh ebits are law outcomes that fork no row:
    a k-hop script's walk runs every step on one row, its final measurement
    included, for any number of shots, and its records still take every
    teleportation's d^2 outcomes."""
    for hops in range(1, 7):
        sc = cli.validate_scenario(_hops_script(d, hops, 4000))
        rows = []

        def counted(step):
            return lambda eng: rows.append(len(eng)) or step(eng)

        steps = [counted(step) for _, op_steps in sc["steps"] for step in op_steps]
        uniforms = np.random.default_rng(hops).random((sc["shots"], hops + 1))
        outcomes, _, _, row_of_shot = dist._walk(ProtocolEngine(*sc["parties"]), steps, lambda eng: None, uniforms)
        assert rows == [1] * len(steps)
        per_shot = outcomes[row_of_shot]
        assert all(len(np.unique(per_shot[:, k])) == d * d for k in range(hops))


def test_scheme2_collapses_no_row(monkeypatch):
    """Scheme II's cat-entangler bits and teleportation are its only
    outcomes, all oblivious: its run follows one path and collapses no row."""
    calls = []
    branch = ProtocolEngine._branch
    monkeypatch.setattr(ProtocolEngine, "_branch", lambda eng, *args: calls.append(1) or branch(eng, *args))
    rng = np.random.default_rng(12)
    for db in (2, 3):
        a = Party("a", programs=[choi_of(random_unitary(2, rng))], states=[_pure(random_statevector(2, rng))])
        b = Party("b", programs=[choi_of(random_unitary(db, rng))], states=[_pure(random_statevector(db, rng))])
        c = Party("c", programs=[choi_of(oblivious.controlled_gate(random_unitary(db, rng)))],
                  states=[_pure(random_statevector(2 * db, rng))])
        res = dist.run_triparty("II", a, b, c, 2000, rng)
        assert len(res.rows["m1"]) > 1
    assert calls == []


# --- scripts against the dense reference ---

SCRIPT_BLOCKS = st.lists(st.sampled_from(["oqt", "local", "teleport", "cnot"]), max_size=3).filter(
    lambda b: b.count("cnot") <= 2
)


def _dense(raw, ideal=False):
    """`dense.run` of a script within the reference's joint-dimension cap;
    a wider one is rejected as an example."""
    try:
        return dense.run(raw, ideal)
    except dense.TooWide:
        assume(False)


@TREE
@given(seed=SEEDS, d=st.integers(2, 3), blocks=SCRIPT_BLOCKS, final=st.booleans())
def test_script_walk_matches_the_dense_reference(seed, d, blocks, final):
    """Walked along every outcome pattern of the dense reference (`dense`,
    which shares no code with the engine), a script gives each pattern the
    reference's probability and post-measurement state within 1e-12: the
    state of every live register, whatever order the engine keeps them in."""
    raw = _script(np.random.default_rng(seed), d, blocks, final, 1)
    branches = _dense(raw)
    sc = cli.validate_scenario(raw)
    steps = [step for _, op_steps in sc["steps"] for step in op_steps]
    states = []

    def finish(level):
        start = len(states)
        states.extend((level.layout.regs, rho) for rho in level.state())
        return np.arange(start, len(states))

    patterns = np.array([b.pattern for b in branches])
    outcomes, probs, values, row_of_shot = dist._walk(ProtocolEngine(*sc["parties"]), steps, finish,
                                                      patterns=patterns)
    assert outcomes[row_of_shot].tolist() == patterns.tolist()
    for b, row in zip(branches, row_of_shot):
        assert abs(probs[row] - b.probability) <= 1e-12
        regs, rho = states[int(values[row])]
        assert sorted(regs) == sorted(b.regs)
        want = dense.canonical(b.rho, b.regs) / b.probability
        assert np.abs(dense.canonical(rho, regs) - want).max() <= 1e-12


@TREE
@given(seed=SEEDS, d=st.integers(2, 3), blocks=SCRIPT_BLOCKS, final=st.booleans())
def test_dense_teleports_and_remote_cnots_are_oblivious(seed, d, blocks, final):
    """The paper's obliviousness, on the dense reference alone: every
    outcome of a teleportation through a fresh ebit has law 1/d^2 and each
    cat-entangler bit law 1/2, whatever came before (Bennett et al. 1993;
    Eisert et al. 2000); and summed over those outcomes, each pattern of the
    other measurements leaves the state the ideal circuit leaves, where a
    teleportation moves its register and a remote CNOT is the CNOT."""
    raw = _script(np.random.default_rng(seed), d, blocks, final, 1)
    branches, ideal = _dense(raw), _dense(raw, ideal=True)
    oblivious_ops = ("bell_measure_qt", "remote_cnot")
    summed = {}
    for b in branches:
        for op, law in b.laws:
            if op in oblivious_ops:
                assert np.abs(np.array(law) - 1 / len(law)).max() <= 1e-12
        key = tuple(k for k, (op, _) in zip(b.pattern, b.laws) if op not in oblivious_ops)
        summed[key] = summed.get(key, 0) + dense.canonical(b.rho, b.regs)
    assert len(summed) == len(ideal)
    for b in ideal:
        assert np.abs(summed[b.pattern] - dense.canonical(b.rho, b.regs)).max() <= 1e-12


# --- the level walk against one path per shot ---


def _level_protocol(kind, rng, d, n, program_kind):
    """A random protocol validation would accept: (protocol function, its
    arguments, draws) where draws says how the shots are given (fresh
    uniforms or patterns)."""
    off = 2e-11  # within gates.UNITARY_TOL
    if kind == "dbqc":
        alice, bob = _dbqc_parties(rng, d, 1 + n % 2, 1 + n // 2, program_kind, off)
        return dist._dbqc_protocol, (alice, bob), "fresh"
    if kind == "pingpong":
        programs = [_program_of_kind(rng, d, program_kind, off) for _ in range(n)]
        args = (programs, _pure(random_statevector(d, rng)), random_statevector(d, rng))
        return dist._pingpong_readout_protocol, args, "fresh"
    d = min(d, 3)  # a 3-party run at d = 7 is over the joint dimension cap
    if kind == "triparty-I":
        parties = tuple(
            Party(name, programs=[_program_of_kind(rng, dim, program_kind, off)],
                  states=[_pure(random_statevector(dim, rng))])
            for name, dim in (("a", d), ("b", 2), ("c", 2 * d))
        )
        return dist._triparty_scheme1_protocol, parties, "fresh"
    a, b = (
        Party(name, programs=[choi_of(random_unitary(dim, rng))], states=[_pure(random_statevector(dim, rng))])
        for name, dim in (("a", 2), ("b", d))
    )
    args = (a, b, random_unitary(d, rng), _pure(random_statevector(2 * d, rng)))
    return dist._triparty_scheme2_protocol, args, "patterns"


def _script_protocol(rng, d, n):
    """A random script's engine and steps, with a finish that reads nothing."""
    blocks = [["oqt", "local", "teleport", "cnot"][int(k)] for k in rng.integers(0, 4, n)]
    if d > 3:  # teleports and local links only: D = 343 at d = 7
        blocks = ["teleport" if b == "cnot" else b for b in blocks]
    sc = cli.validate_scenario(_script(rng, d, blocks, True, 1))
    steps = [step for _, op_steps in sc["steps"] for step in op_steps]

    def protocol():
        return ProtocolEngine(*sc["parties"]), steps, lambda eng: None

    return protocol, (), "fresh"


def _followed(protocol, args, pattern):
    """One path of a protocol forced along ``pattern`` with `_follow` on a
    fresh engine: its outcomes, path probability and finish value."""
    engine, steps, finish = protocol(*args)
    rows = []

    def recorded(step):
        def run(eng):
            measurement = step(eng)
            if measurement is not None:
                rows.append(measurement[0][0])
            return measurement

        return run

    outcomes = dist._follow(engine, [recorded(step) for step in steps], None, list(pattern))
    prob = 1.0
    for row, k in zip(rows, outcomes):
        prob *= row[k]
    value = finish(engine)
    return outcomes, prob, 0.0 if value is None else value[0]


def _level_walk(protocol, args, draws, rng, shots):
    engine, steps, finish = protocol(*args)
    if draws == "patterns":
        kw = {"patterns": np.array(list(itertools.product((0, 1), (0, 1), range(4))))}
    else:
        width = sum(1 for _ in dist._follow(*protocol(*args)[:2], np.random.default_rng(0), None))
        kw = {"uniforms": rng.random((shots, width))}
    return dist._walk(engine, steps, finish, **kw)


LEVEL = settings(max_examples=40, deadline=None)


@LEVEL
@given(
    seed=SEEDS,
    kind=st.sampled_from(["dbqc", "pingpong", "triparty-I", "triparty-II", "script"]),
    d=st.sampled_from([2, 7]),
    n=st.integers(1, 4),
    program_kind=PROGRAM_KINDS,
    shots=st.integers(1, 40),
)
def test_level_walk_matches_one_path_per_shot(seed, kind, d, n, program_kind, shots):
    """The level walk returns its leaves as a row table: pairwise distinct
    outcome rows, each some shot's leaf, and each shot's leaf holds the
    outcomes, path probability and finish value of `_follow` on its own
    pattern. So does a walk of one row per step (the node-by-node walk,
    whose leaf offsets cross chunks), and both give each shot the same
    bytes, so stacking rows and chunking them by the row budget change
    nothing."""
    rng = np.random.default_rng(seed)
    if kind == "script":
        protocol, args, draws = _script_protocol(rng, d, min(n, 2 if d > 3 else 3))
    else:
        n = min(n, 2) if d > 3 else n
        protocol, args, draws = _level_protocol(kind, rng, d, n, program_kind)
    walked = _level_walk(protocol, args, draws, np.random.default_rng(seed + 1), shots)
    budget = dist.ROW_BUDGET
    try:
        dist.ROW_BUDGET = 1
        alone = _level_walk(protocol, args, draws, np.random.default_rng(seed + 1), shots)
    finally:
        dist.ROW_BUDGET = budget
    followed = {}
    for outcomes, probs, values, leaf_of_shot in (walked, alone):
        assert len({tuple(path) for path in outcomes.tolist()}) == len(outcomes)
        assert np.array_equal(np.unique(leaf_of_shot), np.arange(len(outcomes)))
        for leaf in leaf_of_shot:
            pattern = tuple(outcomes[leaf].tolist())
            if pattern not in followed:
                followed[pattern] = _followed(protocol, args, pattern)
            got, prob, value = followed[pattern]
            assert tuple(got) == pattern
            assert abs(probs[leaf] - prob) <= 1e-12
            assert abs(values[leaf] - value) <= 1e-12
    for got, want in zip(alone[:3], walked[:3]):
        assert np.array_equal(got[alone[3]], want[walked[3]])


def test_outcome_free_follow_up_runs_once_per_level(monkeypatch):
    """A measurement's follow-up is data. ``after``, the bookkeeping that no
    outcome changes, runs once on a level however many outcomes its rows
    take, and the level stays one engine: the walk forks once per level and
    `_branch` forks none. Each row collapses on its own outcome: measuring
    one half of a Bell pair leaves the other in |k><k| on the row of k."""
    basis = dist._binary(np.diag([1.0, 0.0]))
    calls, leaves = [], []

    def after(eng):
        calls.append(len(eng))
        eng.broadcast(1)

    def step(eng):
        eng.distribute_ebit("p", "p", "q", "r")
        return dist._measured(eng, "p", basis, ["q"], after)

    def finish(eng):
        leaves.append((eng.ledger, eng.state()))

    forks = []
    fork = ProtocolEngine.fork
    monkeypatch.setattr(ProtocolEngine, "fork", lambda eng: forks.append(len(eng)) or fork(eng))
    outcomes, probs, _, leaf_of_shot = dist._walk(ProtocolEngine("p"), [step], finish,
                                                  patterns=np.array([[0], [1], [1]]))
    assert outcomes.tolist() == [[0], [1]] and leaf_of_shot.tolist() == [0, 1, 1]
    assert np.abs(probs - 0.5).max() <= 1e-15
    assert calls == [2] and forks == [1, 2]
    ((ledger, states),) = leaves
    assert ledger.classical_bits_sent == 1
    assert states.shape == (2, 2, 2)
    assert np.abs(states - np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])).max() <= 1e-15
