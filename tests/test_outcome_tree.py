"""The one walk (`distributed._walk`) against straight-line references.

Every runner walks its protocol's outcome prefixes level by level, one
engine row per live branch, forking rows only where its shots draw. Walked
over every outcome pattern, a protocol
must give what one fresh engine per pattern gives; drawn for shots, it must
give what expanding every pattern and calling ``rng.choice`` gives; a
script must give what one fresh engine per shot gives. The results must
be equal exactly, not approximately.

dbqc and ping-pong merge equal branches on a key (the parity lattice); the
merged walk is checked against the unmerged tree.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq import cli, qmath
from obliq import distributed as dist
from obliq.channels import KrausChannel, choi_of, unitary_of_choi
from obliq.distributed import Party, ProtocolEngine
from obliq.errors import BranchError
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

    (q,) = eng.probability(c.name, projector(c.states[0].amplitudes), ["c_out"])
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
    assert eng.ebits_conserved()
    return path_prob, q, eng.ledger


def _walk_all(protocol, patterns, key=None):
    """A protocol (engine, steps, finish) walked along every pattern in
    ``patterns``: the patterns, path probabilities, finish values and the
    leaves' ledger."""
    engine, steps, finish = protocol
    ledgers = []

    def leaf(eng):
        values = finish(eng)
        ledgers.append(eng.ledger)
        return values

    walked = dist._walk(engine, steps, leaf, patterns=np.array(patterns), key=key)
    return (*walked, ledgers[0])


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
    leaves = _walk_all(dist._triparty_scheme2_protocol(a, b, gate, psi_o), patterns)
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
    patterns = list(itertools.product((0, 1), repeat=len(programs)))
    leaves = _walk_all(dist._pingpong_readout_protocol(programs, system, readout), patterns)
    references = [_pingpong_reference(programs, system, readout, pat) for pat in patterns]
    _assert_leaves_equal(leaves, patterns, references)


# --- parity lattice: the merged walk against the tree ---

PROGRAM_KINDS = st.sampled_from(["unitary", "kraus", "near-unitary"])


def _program_of_kind(rng, d, kind, off=1e-10):
    """A unitary or random Kraus program, or a unitary U + off V (V a random
    unitary), so that max |U^dag U - I| is up to about 2 off. Validation
    accepts off = 2e-11 (`gates.UNITARY_TOL`), not the default 1e-10."""
    if kind == "near-unitary":
        return choi_of(random_unitary(d, rng) + off * random_unitary(d, rng))
    return _program(rng, d, kind == "kraus")


def _counting_finish(protocol, calls):
    """Wrap a protocol function so that its finish counts the leaf rows it reads."""

    def wrapped(*args):
        engine, steps, finish = protocol(*args)
        return engine, steps, lambda eng: (calls.extend([1] * len(eng)), finish(eng))[1]

    return wrapped


def _every_pattern(protocol, args):
    """Every outcome pattern of a protocol whose steps are binary."""
    return list(itertools.product((0, 1), repeat=len(protocol(*args)[1])))


def _assert_lattice_matches_tree(protocol, args, key):
    """The walk over every pattern merged on ``key`` against the tree:
    equal patterns and ledgers, and probabilities and values within 1e-12,
    or equal when nothing merged (finish read every leaf). Returns the
    number of leaf rows the merged walk's finish read."""
    patterns = _every_pattern(protocol, args)
    tree = _walk_all(protocol(*args), patterns)
    calls = []
    lattice = _walk_all(_counting_finish(protocol, calls)(*args), patterns, key)
    assert lattice[0].tolist() == tree[0].tolist()
    assert lattice[3] == tree[3]
    if len(calls) == len(tree[0]):
        assert lattice[1].tolist() == tree[1].tolist()
        assert lattice[2].tolist() == tree[2].tolist()
    else:
        assert np.abs(lattice[1] - tree[1]).max() <= 1e-12
        assert np.abs(lattice[2] - tree[2]).max() <= 1e-12
    return len(calls)


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
    patterns = _every_pattern(dist._dbqc_protocol, (alice, bob))
    key = dist._isi_bit_and_parity_count
    tree_calls, calls, drawn_calls = [], [], []
    _walk_all(_counting_finish(dist._dbqc_protocol, tree_calls)(alice, bob), patterns)
    _walk_all(_counting_finish(dist._dbqc_protocol, calls)(alice, bob), patterns, key)
    assert (len(tree_calls), len(calls)) == (128, 14)  # (b, s) in {0, 1} x {0..6}
    monkeypatch.setattr(dist, "_dbqc_protocol", _counting_finish(dist._dbqc_protocol, drawn_calls))
    dist.run_dbqc(alice, bob, 10, rng)
    assert len(drawn_calls) <= 10  # one leaf at most per shot

    programs = [_program_of_kind(rng, 2, "unitary") for _ in range(6)]
    args = (programs, _pure(random_statevector(2, rng)), random_statevector(2, rng))
    protocol = dist._pingpong_readout_protocol
    patterns = _every_pattern(protocol, args)
    tree_calls, calls = [], []
    _walk_all(_counting_finish(protocol, tree_calls)(*args), patterns)
    _walk_all(_counting_finish(protocol, calls)(*args), patterns, sum)
    assert (len(tree_calls), len(calls)) == (64, 7)  # s in {0..6}


# --- the drawn walk against expanding every pattern and rng.choice ---


def _drawn_protocol(kind, seed, d, n, program_kind):
    """A random small protocol that validation would accept: (runner name,
    protocol function, its arguments, merge key)."""
    rng, off = np.random.default_rng(seed), 2e-11
    if kind == "dbqc":
        n_alice = 1 + n % 2
        alice, bob = _dbqc_parties(rng, d, n_alice, 1 + n // 2, program_kind, off)
        return kind, dist._dbqc_protocol, (alice, bob), dist._isi_bit_and_parity_count
    if kind == "pingpong":
        programs = [_program_of_kind(rng, d, program_kind, off) for _ in range(n)]
        args = (programs, _pure(random_statevector(d, rng)), random_statevector(d, rng))
        return kind, dist._pingpong_readout_protocol, args, sum
    parties = [
        Party(name, programs=[_program_of_kind(rng, dim, program_kind, off)],
              states=[_pure(random_statevector(dim, rng))])
        for name, dim in (("a", d), ("b", 2), ("c", 2 * d))
    ]
    return kind, dist._triparty_scheme1_protocol, tuple(parties), None


def _run_drawn(kind, args, shots, rng):
    """The runner's shots: outcome patterns, readouts, and per-shot
    estimates (scheme I: the estimate and its standard error)."""
    if kind == "dbqc":
        res = dist.run_dbqc(*args, shots, rng)
        return np.column_stack([res.isi_bits, res.parity_bits]), res.readout_bits, res.per_shot
    if kind == "pingpong":
        patterns, y, t_hat, _ = dist.pingpong_shots(*args, shots, rng)
        return patterns, y, t_hat
    res = dist.run_triparty("I", *args, shots, rng)
    patterns = np.column_stack([res.bits[b] for b in ("b_a", "b_b", "i", "j")])
    return patterns, res.bits["y"], np.array([res.estimate, res.stderr])


def _expanded(kind, protocol, args, key, shots, rng):
    """The reference: every pattern walked, then ``rng.choice`` over them."""
    patterns = np.array(_every_pattern(protocol, args))
    _, probs, qvals, _ = _walk_all(protocol(*args), patterns, key)
    idx = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    y = (rng.random(shots) >= qvals[idx]).astype(np.int8)
    drawn = patterns[idx]
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
    kind, protocol, args, key = _drawn_protocol(kind, seed, d, n, program_kind)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = _run_drawn(kind, args, shots, rng)
    want = _expanded(kind, protocol, args, key, shots, ref_rng)
    for g, w in zip(got, want):
        assert g.dtype.kind == w.dtype.kind and np.array_equal(g, w, equal_nan=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    # Unmerged, the drawn walk takes each shot's path probability and value
    # from the same engines as the full expansion.
    patterns = np.array(_every_pattern(protocol, args))
    _, probs, qvals, ledger = _walk_all(protocol(*args), patterns)
    uniforms = np.random.default_rng(seed + 2).random(shots)
    idx = np.random.default_rng(seed + 2).choice(len(probs), size=shots, p=probs / probs.sum())
    drawn = dist._sample(*protocol(*args), uniforms=uniforms)
    assert drawn[0].tolist() == patterns[idx].tolist()
    assert drawn[1].tolist() == probs[idx].tolist()
    assert drawn[2].tolist() == qvals[idx].tolist()
    assert drawn[3] == ledger


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
    bits, _, _ = dist._walk(root, steps, lambda eng: None, uniforms)
    assert len({tuple(b) for b in bits.tolist()}) > 350
    assert max(sizes) <= dist.ROW_BUDGET < 128**2 * 5
    assert max(sizes) > 128**2  # more than one row per step

    rng = np.random.default_rng(2)
    uniforms = rng.random((500, 10))
    bits, _, _ = dist._walk(root, steps, lambda eng: None, uniforms)
    rng = np.random.default_rng(2)
    for shot in range(500):
        eng = root.fork()
        assert dist._follow(eng, steps, rng, None) == bits[shot].tolist()


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


# --- the level walk against one path per shot ---


def _level_protocol(kind, rng, d, n, program_kind):
    """A random protocol validation would accept: (protocol function, its
    arguments, merge key, draws) where draws are the runner's keyword for
    the shots (carried uniforms, fresh uniforms or patterns)."""
    off = 2e-11  # within gates.UNITARY_TOL, far enough to stop merging
    if kind == "dbqc":
        alice, bob = _dbqc_parties(rng, d, 1 + n % 2, 1 + n // 2, program_kind, off)
        return dist._dbqc_protocol, (alice, bob), dist._isi_bit_and_parity_count, "carried"
    if kind == "pingpong":
        programs = [_program_of_kind(rng, d, program_kind, off) for _ in range(n)]
        args = (programs, _pure(random_statevector(d, rng)), random_statevector(d, rng))
        return dist._pingpong_readout_protocol, args, sum, "carried"
    d = min(d, 3)  # a 3-party run at d = 7 is over the joint dimension cap
    if kind == "triparty-I":
        parties = tuple(
            Party(name, programs=[_program_of_kind(rng, dim, program_kind, off)],
                  states=[_pure(random_statevector(dim, rng))])
            for name, dim in (("a", d), ("b", 2), ("c", 2 * d))
        )
        return dist._triparty_scheme1_protocol, parties, None, "carried"
    a, b = (
        Party(name, programs=[choi_of(random_unitary(dim, rng))], states=[_pure(random_statevector(dim, rng))])
        for name, dim in (("a", 2), ("b", d))
    )
    args = (a, b, random_unitary(d, rng), _pure(random_statevector(2 * d, rng)))
    return dist._triparty_scheme2_protocol, args, None, "patterns"


def _script_protocol(rng, d, n):
    """A random script's engine and steps, with a finish that reads nothing."""
    blocks = [["oqt", "local", "teleport", "cnot"][int(k)] for k in rng.integers(0, 4, n)]
    if d > 3:  # teleports and local links only: D = 343 at d = 7
        blocks = ["teleport" if b == "cnot" else b for b in blocks]
    sc = cli.validate_scenario(_script(rng, d, blocks, True, 1))
    steps = [step for _, op_steps in sc["steps"] for step in op_steps]

    def protocol():
        return ProtocolEngine(*sc["parties"]), steps, lambda eng: None

    return protocol, (), None, "fresh"


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


def _level_walk(protocol, args, key, draws, rng, shots):
    engine, steps, finish = protocol(*args)
    if draws == "patterns":
        kw = {"patterns": np.array(list(itertools.product((0, 1), (0, 1), range(4))))}
    elif draws == "fresh":
        width = sum(1 for _ in dist._follow(*protocol(*args)[:2], np.random.default_rng(0), None))
        kw = {"uniforms": rng.random((shots, width))}
    else:
        kw = {"uniforms": rng.random(shots)}
    return dist._walk(engine, steps, finish, key=key, **kw)


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
    """Each shot of the level walk takes the outcomes, path probability and
    finish value of `_follow` on its own pattern, merged or not; and a walk
    of one row per step (the node-by-node walk) gives the same bytes, so
    stacking rows and chunking them by the row budget change nothing."""
    rng = np.random.default_rng(seed)
    if kind == "script":
        protocol, args, key, draws = _script_protocol(rng, d, min(n, 2 if d > 3 else 3))
    else:
        n = min(n, 2) if d > 3 else n
        protocol, args, key, draws = _level_protocol(kind, rng, d, n, program_kind)
    walked = _level_walk(protocol, args, key, draws, np.random.default_rng(seed + 1), shots)
    outcomes, probs, values = walked
    for shot, pattern in enumerate(outcomes.tolist()):
        got, prob, value = _followed(protocol, args, pattern)
        assert got == pattern
        assert abs(probs[shot] - prob) <= 1e-12
        assert abs(values[shot] - value) <= 1e-12
    budget = dist.ROW_BUDGET
    try:
        dist.ROW_BUDGET = 1
        alone = _level_walk(protocol, args, key, draws, np.random.default_rng(seed + 1), shots)
    finally:
        dist.ROW_BUDGET = budget
    for got, want in zip(alone, walked):
        assert np.array_equal(got, want)


def test_outcome_dependent_work_may_not_split_a_level():
    """The rows of a level share their registers, ebits and ledger: a step
    whose follow-up work differs by outcome in any of them is refused when
    two outcomes are taken at once."""
    basis = dist._binary(np.diag([1.0, 0.0]))

    def step_with(after):
        def run(eng):
            eng.alloc("p", "q", np.full(2, 2**-0.5))
            return dist._measured(eng, "p", basis, ["q"], after)

        return run

    def walk(after, patterns):
        return dist._walk(ProtocolEngine("p"), [step_with(after)], lambda eng: None,
                          patterns=np.array(patterns))

    def ebit_used_on_one(eng, k):
        eid = eng.distribute_ebit("p", "p", "e1", "e2")
        if k:
            eng.consume_ebit(eid)

    def register_per_outcome(eng, k):
        eng.alloc("p", f"r{k}", np.array([1.0, 0.0]))

    for after in (lambda eng, k: eng.broadcast(k), ebit_used_on_one, register_per_outcome):
        with pytest.raises(BranchError, match="different registers, ebits or ledgers"):
            walk(after, [[0], [1]])
        walk(after, [[1], [1]])  # one outcome: nothing to disagree with
    outcomes, probs, _ = walk(lambda eng, k: eng.broadcast(1), [[0], [1], [1]])
    assert outcomes.tolist() == [[0], [1], [1]]
    assert np.abs(probs - 0.5).max() <= 1e-15
