import tracemalloc

import numpy as np
import pytest

from obliq import distributed as dist
from obliq.channels import amplitude_damping_channel, choi_of
from obliq.distributed import (
    KnitCircuit,
    KnitGate,
    Party,
    ProtocolEngine,
    ResourceLedger,
    knit_decompose,
    knit_estimate,
    pingpong_run,
    pingpong_shots,
    remote_controlled_gate,
    run_dbqc,
    run_triparty,
    teleport_state,
)
from obliq.errors import (
    BranchError,
    CapacityError,
    DimensionError,
    DuplicateLabelError,
    EstimationError,
    LocalityError,
    ObliqError,
    ResourceError,
    StateValidationError,
)
from obliq.gates import named_gate
from obliq.oblivious import controlled_gate
from obliq.qmath import projector, random_statevector, random_unitary
from obliq.states import PureState, basis_state


def plus_state():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


# --- ledger and engine bookkeeping ---


def test_ledger_validation():
    led = ResourceLedger(ebits_consumed=1, classical_bits_sent=2)
    led.validate()
    bad = ResourceLedger(ebits_consumed=-1)
    with pytest.raises(ResourceError):
        bad.validate()
    with pytest.raises(ResourceError):
        ResourceLedger(knit_overhead=0.5).validate()


def test_ledger_as_dict_order():
    keys = list(ResourceLedger().as_dict())
    assert keys == [
        "ebits_consumed",
        "classical_bits_sent",
        "oqt_ops",
        "qt_corrections",
        "knit_overhead",
        "max_live_registers",
        "depth",
    ]


def test_engine_locality_enforced():
    eng = ProtocolEngine("alice", "bob")
    eng.alloc("alice", "x", basis_state(0, 2))
    with pytest.raises(LocalityError):
        eng.apply_local("bob", named_gate("X"), ["x"])
    with pytest.raises(LocalityError):
        eng.measure_binary("bob", projector(np.array([1.0, 0.0])), ["x"], forced=0)


def test_engine_duplicate_label():
    eng = ProtocolEngine("alice")
    eng.alloc("alice", "x", basis_state(0, 2))
    with pytest.raises(Exception):
        eng.alloc("alice", "x", basis_state(0, 2))


def test_engine_capacity_cap():
    eng = ProtocolEngine("p")
    with pytest.raises(CapacityError):
        for k in range(7):
            eng.alloc("p", f"r{k}", basis_state(0, 4))


def test_engine_max_live_tracking():
    eng = ProtocolEngine("p")
    eng.alloc("p", "a", basis_state(0, 2))
    eng.alloc("p", "b", basis_state(0, 2))
    assert eng.ledger.max_live_registers == 2
    eng.discard(["a"])
    eng.alloc("p", "c", basis_state(0, 2))
    assert eng.ledger.max_live_registers == 2
    assert len(eng.layout) == 2
    assert set(eng.layout.labels) == {"b", "c"}


def test_measurement_consumes_its_registers():
    eng = ProtocolEngine("p")
    eng.alloc("p", "a", basis_state(0, 2))
    eng.alloc("p", "b", basis_state(1, 3))
    eng.alloc("p", "c", basis_state(0, 2))
    # The projector onto |1>_b |0>_a, in the order of the labels.
    p0 = np.diag([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    bit, prob = eng.measure_binary("p", p0, ["b", "a"], forced=0)
    assert (bit, prob) == (0, 1.0)
    assert eng.layout.labels == ("c",)
    for lab in ("a", "b"):
        with pytest.raises(LocalityError):
            eng.owner(lab)


def _engine_view(eng):
    """Layout, owners, ledger and state: what a refused operation must leave."""
    owners = {lab: eng.owner(lab) for lab in eng.layout.labels}
    return eng.layout, owners, eng.ledger.as_dict(), eng.state()


def _assert_view_unchanged(eng, before):
    layout, owners, ledger, state = _engine_view(eng)
    assert (layout, owners, ledger) == before[:3]
    assert np.array_equal(state, before[3])


def test_discard_refuses_a_repeated_label():
    eng = ProtocolEngine("p")
    eng.alloc("p", "a", basis_state(0, 2))
    eng.alloc("p", "b", basis_state(1, 2))
    before = _engine_view(eng)
    with pytest.raises(DuplicateLabelError):
        eng.discard(["a", "a"])
    _assert_view_unchanged(eng, before)


def test_forced_outcome_outside_the_outcomes_is_refused():
    d = 2
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "s", _pure(plus_state()))
    eid = eng.distribute_ebit("a", "b", "ea", "eb", d)
    before = _engine_view(eng)
    for forced in (-1, d * d):
        with pytest.raises(ObliqError):
            teleport_state(eng, "s", eid, forced=forced)
        _assert_view_unchanged(eng, before)
    with pytest.raises(ObliqError):
        eng.measure_binary("a", np.diag([1.0, 0.0]), ["s"], forced=2)
    _assert_view_unchanged(eng, before)


def test_raw_states_are_checked_on_allocation():
    programs = [choi_of(named_gate("H")), choi_of(named_gate("T"))]
    not_psd = [[0.5, 0.9], [0.9, 0.5]]  # trace 1, eigenvalue -0.4
    unnormalized = [1.0, 1.0]
    for system, match in ((not_psd, "eigenvalue"), (unnormalized, "norm")):
        with pytest.raises(StateValidationError, match=match):
            pingpong_run(programs, system, forced_bits=[0, 0])
        with pytest.raises(StateValidationError, match=match):
            pingpong_shots(programs, system, np.array([1.0, 0.0]), 1, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        pingpong_run(programs, 1.0, forced_bits=[0, 0])


def test_ebit_bookkeeping():
    eng = ProtocolEngine("a", "b")
    eid = eng.distribute_ebit("a", "b", "ea", "eb")
    assert eng.ebits_unused == 1
    assert eng.ledger.ebits_consumed == 0 and not eng.is_consumed(eid)
    eng.consume_ebit(eid)
    assert eng.ebits_unused == 0
    assert eng.ledger.ebits_consumed == 1 and eng.is_consumed(eid)
    with pytest.raises(ResourceError):
        eng.consume_ebit(eid)
    with pytest.raises(ResourceError):
        eng.consume_ebit(99)


def test_a_protocol_that_leaks_an_ebit_is_refused():
    """A protocol given an ebit that it never consumes is refused at its
    leaves, with the count; the same protocol consuming it runs."""
    basis = dist._binary(np.diag([1.0, 0.0]))

    def protocol(consume):
        eng = ProtocolEngine("a", "b")
        eid = eng.distribute_ebit("a", "b", "ea", "eb")
        eng.alloc("a", "q", plus_state())

        def step(eng):
            if consume:
                eng.consume_ebit(eid)
            return dist._measured(eng, "a", basis, ["q"])

        return eng, [step], lambda eng: np.full(len(eng), 0.5)

    patterns = np.array([[0], [1]])
    probs, _, ledger = dist._sample(*protocol(True), patterns)
    assert np.abs(probs - 0.5).max() < 1e-12 and ledger.ebits_consumed == 1
    with pytest.raises(ResourceError, match="^1 ebit"):
        dist._sample(*protocol(False), patterns)


# --- teleportation ---


def test_teleport_restores_state_every_outcome():
    for d in (2, 3):
        rng = np.random.default_rng(400 + d)
        psi = random_statevector(d, rng)
        for outcome in range(d * d):
            eng = ProtocolEngine("a", "b")
            eng.alloc("a", "s", _pure(psi))
            eid = eng.distribute_ebit("a", "b", "ea", "eb", d)
            dest, idx = teleport_state(eng, "s", eid, forced=outcome)
            assert idx == outcome
            assert eng.owner(dest) == "b"
            got = eng.reduced([dest])
            assert np.abs(got - np.outer(psi, psi.conj())).max() < 1e-10


def _pure(vec):
    from obliq.qmath import RegisterLayout

    return PureState(RegisterLayout.of(("s", vec.shape[0])), vec)


def test_teleport_outcomes_uniform():
    # each joint-basis outcome has weight 1/d^2 regardless of the state
    d = 3
    rng = np.random.default_rng(401)
    psi = random_statevector(d, rng)
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "s", _pure(psi))
    eng.distribute_ebit("a", "b", "ea", "eb", d)
    from obliq.oblivious import GeneralizedPauliBasis
    from obliq.states import bell_state

    basis = GeneralizedPauliBasis(d)
    omega = bell_state(d).amplitudes
    for sig in basis.operators:
        p = eng.probability(
            "a", projector(np.kron(sig, np.eye(d)) @ omega), ["s", "ea"]
        )
        assert abs(p - 1.0 / d**2) < 1e-10


def test_teleport_ledger():
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "s", _pure(plus_state()))
    eid = eng.distribute_ebit("a", "b", "ea", "eb")
    teleport_state(eng, "s", eid, forced=2)
    led = eng.ledger
    assert led.ebits_consumed == 1
    assert led.classical_bits_sent == 2
    assert led.qt_corrections == 1
    assert led.depth == 2
    assert eng.ebits_unused == 0


def test_teleport_rejects_reused_ebit():
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "s", _pure(plus_state()))
    eng.alloc("a", "t", _pure(plus_state()))
    eid = eng.distribute_ebit("a", "b", "ea", "eb")
    teleport_state(eng, "s", eid, forced=0)
    with pytest.raises(ResourceError):
        teleport_state(eng, "t", eid, forced=0)


def test_teleport_dim_mismatch():
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "s", basis_state(0, 3, label="s"))
    eid = eng.distribute_ebit("a", "b", "ea", "eb", 2)
    with pytest.raises(DimensionError):
        teleport_state(eng, "s", eid, forced=0)


# --- remote controlled gates ---


def test_remote_cnot_builds_bell_pair_all_paths():
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell = np.outer(v, v)
    for m1 in (0, 1):
        for m2 in (0, 1):
            eng = ProtocolEngine("a", "b")
            eng.alloc("a", "c", _pure(plus_state()))
            eng.alloc("b", "t", basis_state(0, 2, label="t"))
            eid = eng.distribute_ebit("a", "b", "ea", "eb")
            got_m = remote_controlled_gate(eng, "c", "t", eid, forced=(m1, m2))
            assert got_m == (m1, m2)
            joint = eng.reduced(["c", "t"])
            assert np.abs(joint - bell).max() < 1e-10


def test_remote_cnot_ledger():
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "c", _pure(plus_state()))
    eng.alloc("b", "t", basis_state(0, 2, label="t"))
    eid = eng.distribute_ebit("a", "b", "ea", "eb")
    remote_controlled_gate(eng, "c", "t", eid, forced=(1, 1))
    led = eng.ledger
    assert led.ebits_consumed == 1
    assert led.classical_bits_sent == 2
    assert led.qt_corrections == 2
    assert eng.ebits_unused == 0


def test_remote_cnot_twice_is_identity():
    rng = np.random.default_rng(402)
    psi_c = random_statevector(2, rng)
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "c", _pure(psi_c))
    eng.alloc("b", "t", basis_state(0, 2, label="t"))
    e1 = eng.distribute_ebit("a", "b", "e1a", "e1b")
    e2 = eng.distribute_ebit("a", "b", "e2a", "e2b")
    remote_controlled_gate(eng, "c", "t", e1, rng=rng)
    remote_controlled_gate(eng, "c", "t", e2, rng=rng)
    joint = eng.reduced(["c", "t"])
    want = np.kron(np.outer(psi_c, psi_c.conj()), np.diag([1.0, 0.0]))
    assert np.abs(joint - want).max() < 1e-10


def test_remote_controlled_arbitrary_gate():
    rng = np.random.default_rng(403)
    for _ in range(5):
        v = random_unitary(2, rng)
        psi_c = random_statevector(2, rng)
        psi_t = random_statevector(2, rng)
        eng = ProtocolEngine("a", "b")
        eng.alloc("a", "c", _pure(psi_c))
        eng.alloc("b", "t", _pure(psi_t))
        eid = eng.distribute_ebit("a", "b", "ea", "eb")
        remote_controlled_gate(eng, "c", "t", eid, gate=v, rng=rng)
        joint = eng.reduced(["c", "t"])
        cv = controlled_gate(v)
        want_vec = cv @ np.kron(psi_c, psi_t)
        assert np.abs(joint - np.outer(want_vec, want_vec.conj())).max() < 1e-10


def test_remote_controlled_gate_guards():
    eng = ProtocolEngine("a", "b")
    eng.alloc("a", "c", basis_state(0, 3, label="c"))
    eng.alloc("b", "t", basis_state(0, 2, label="t"))
    eid = eng.distribute_ebit("a", "b", "ea", "eb")
    with pytest.raises(DimensionError):
        remote_controlled_gate(eng, "c", "t", eid, forced=(0, 0))


# --- distributed black-box pipeline ---


def test_dbqc_estimate_unbiased():
    rng = np.random.default_rng(404)
    ua = random_unitary(2, rng)
    ub = random_unitary(2, rng)
    psi_in = random_statevector(2, rng)
    psi_o = random_statevector(2, rng)
    truth = abs(np.vdot(psi_o, ub @ ua @ psi_in)) ** 2
    alice = Party("alice", programs=[choi_of(ua)], states=[_pure(psi_in)])
    bob = Party("bob", programs=[choi_of(ub)], states=[_pure(psi_o)])
    res = run_dbqc(alice, bob, 60000, rng)
    assert abs(res.estimate - truth) < 3.5 * res.stderr + 1e-12
    assert res.row_of_shot.shape == (60000,)
    assert res.rows["parity_bits"][res.row_of_shot].shape == (60000, 2)


def test_dbqc_identity_insertion_invariance():
    # padding either side with identity programs must not bias the estimate
    rng = np.random.default_rng(405)
    u = named_gate("H")
    psi_in = np.array([1.0, 0.0], dtype=complex)
    psi_o = plus_state()
    truth = abs(np.vdot(psi_o, u @ psi_in)) ** 2
    eye = choi_of(np.eye(2, dtype=complex))
    alice = Party("alice", programs=[choi_of(u), eye], states=[_pure(psi_in)])
    bob = Party("bob", programs=[eye], states=[_pure(psi_o)])
    res = run_dbqc(alice, bob, 120000, rng)
    assert abs(res.estimate - truth) < 3.5 * res.stderr + 1e-12
    assert res.ledger.oqt_ops == 3
    assert res.ledger.classical_bits_sent == 5


def test_dbqc_ledger_base_case():
    rng = np.random.default_rng(406)
    alice = Party("alice", programs=[choi_of(named_gate("H"))], states=[basis_state(0, 2)])
    bob = Party("bob", programs=[choi_of(named_gate("I"))], states=[basis_state(0, 2)])
    res = run_dbqc(alice, bob, 100, rng)
    led = res.ledger
    assert led.ebits_consumed == 1
    assert led.classical_bits_sent == 4
    assert led.oqt_ops == 2
    assert led.qt_corrections == 0
    assert led.max_live_registers == 3
    assert led.depth == 1


def test_dbqc_guards():
    rng = np.random.default_rng(407)
    empty = Party("alice")
    bob = Party("bob", programs=[choi_of(named_gate("I"))], states=[basis_state(0, 2)])
    with pytest.raises(ResourceError):
        run_dbqc(empty, bob, 10, rng)
    alice = Party("alice", programs=[choi_of(named_gate("H"))], states=[basis_state(0, 2)])
    with pytest.raises(EstimationError):
        run_dbqc(alice, bob, 0, rng)


def test_dbqc_and_pingpong_refuse_a_non_unital_program():
    # The parity law needs unital programs. A damped |0> pipeline through X
    # has a truth of 0 (or 0.9 with the damping at Bob); sampled as if unital
    # its estimator's mean was 0.45 either way.
    zero = basis_state(0, 2)
    damping = choi_of(amplitude_damping_channel(0.9))
    flip = choi_of(named_gate("X"))
    rng = np.random.default_rng(408)
    for a, b in (([damping], [flip]), ([flip], [damping])):
        alice, bob = Party("alice", programs=a, states=[zero]), Party("bob", programs=b, states=[zero])
        with pytest.raises(StateValidationError, match="not unital"):
            run_dbqc(alice, bob, 100, rng)
    with pytest.raises(StateValidationError, match="not unital"):
        pingpong_shots([flip, damping], zero, np.array([1.0, 0.0]), 100, rng)
    with pytest.raises(DimensionError):
        pingpong_shots([choi_of(random_unitary(3, rng))], zero, np.array([1.0, 0.0]), 100, rng)


def test_pingpong_shots_give_each_shots_odd_parity_count():
    rng = np.random.default_rng(409)
    programs = [choi_of(random_unitary(2, rng)) for _ in range(6)]
    *_, rows, row_of_shot = pingpong_shots(programs, basis_state(0, 2), np.array([1.0, 0.0]), 500, rng)
    patterns, s, y, t_hat = (rows[key][row_of_shot] for key in ("parity_bits", "s", "readout", "estimate"))
    assert s.dtype == patterns.sum(axis=1).dtype and np.array_equal(s, patterns.sum(axis=1))
    assert len({*s.tolist()}) > 2 and y.shape == t_hat.shape == s.shape


# --- tri-party schemes ---


def _cnot_task():
    # CNOT on |+>|0> against the Bell readout has unit overlap
    psi_a = _pure(plus_state())
    psi_b = basis_state(0, 2, label="s")
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    a = Party("a", programs=[choi_of(np.eye(2, dtype=complex))], states=[psi_a])
    b = Party("b", programs=[choi_of(np.eye(2, dtype=complex))], states=[psi_b])
    c = Party("c", programs=[choi_of(named_gate("CNOT"))], states=[_pure(bell)])
    return a, b, c


def test_triparty_scheme1_estimate():
    rng = np.random.default_rng(408)
    a, b, c = _cnot_task()
    res = run_triparty("I", a, b, c, 300000, rng)
    assert abs(res.estimate - 1.0) < 3.5 * res.stderr + 1e-12
    assert res.kept > 0
    # selection keeps roughly one shot in 16
    assert abs(res.kept / res.shots - 1.0 / 16.0) < 0.01


def test_triparty_scheme1_ledger():
    rng = np.random.default_rng(409)
    a, b, c = _cnot_task()
    res = run_triparty("I", a, b, c, 1000, rng)
    led = res.ledger
    assert led.ebits_consumed == 2
    assert led.classical_bits_sent == 5
    assert led.oqt_ops == 2
    assert led.qt_corrections == 0
    assert led.depth == 1


@pytest.mark.parametrize("skew, refused", [(5e-10, False), (2e-9, True)])
def test_triparty_scheme1_refuses_paths_off_the_law(monkeypatch, skew, refused):
    real = dist._sample

    def skewed(*args):
        probs, qvals, ledger = real(*args)
        return probs + skew * (np.arange(len(probs)) == 5), qvals, ledger

    monkeypatch.setattr(dist, "_sample", skewed)
    if refused:
        with pytest.raises(BranchError, match="off the law"):
            run_triparty("I", *_cnot_task(), 10, np.random.default_rng(0))
    else:
        assert run_triparty("I", *_cnot_task(), 10, np.random.default_rng(0)).shots == 10


def test_triparty_scheme2_estimate_and_ledger():
    rng = np.random.default_rng(410)
    a, b, c = _cnot_task()
    res = run_triparty("II", a, b, c, 20000, rng)
    assert abs(res.estimate - 1.0) < 3.5 * res.stderr + 1e-10
    led = res.ledger
    assert led.ebits_consumed == 2
    assert led.qt_corrections == 3
    assert led.depth > ResourceLedger().depth
    assert led.depth == 4


def test_triparty_schemes_agree_on_generic_task():
    rng = np.random.default_rng(411)
    v = random_unitary(2, rng)
    gate = controlled_gate(v)
    psi_a = random_statevector(2, rng)
    psi_b = random_statevector(2, rng)
    psi_o = random_statevector(4, rng)
    truth = abs(np.vdot(psi_o, gate @ np.kron(psi_a, psi_b))) ** 2
    a = Party("a", programs=[choi_of(np.eye(2, dtype=complex))], states=[_pure(psi_a)])
    b = Party("b", programs=[choi_of(np.eye(2, dtype=complex))], states=[_pure(psi_b)])
    c = Party("c", programs=[choi_of(gate)], states=[_pure(psi_o)])
    r1 = run_triparty("I", a, b, c, 400000, rng)
    r2 = run_triparty("II", a, b, c, 50000, rng)
    assert abs(r1.estimate - truth) < 4.0 * r1.stderr + 1e-12
    assert abs(r2.estimate - truth) < 4.0 * r2.stderr + 1e-12


def test_triparty_scheme2_rejects_uncontrolled_gate():
    rng = np.random.default_rng(412)
    a, b, c = _cnot_task()
    swap = named_gate("SWAP")
    c_bad = Party("c", programs=[choi_of(swap)], states=c.states)
    with pytest.raises(StateValidationError):
        run_triparty("II", a, b, c_bad, 100, rng)


def test_triparty_dispatcher_guards():
    rng = np.random.default_rng(413)
    a, b, c = _cnot_task()
    with pytest.raises(EstimationError):
        run_triparty("III", a, b, c, 10, rng)
    with pytest.raises(ResourceError):
        run_triparty("I", a, b, None, 10, rng)


# --- circuit knitting ---


def test_knit_decompose_clifford_one_norms():
    for name in ("CZ", "CNOT"):
        dec = knit_decompose(named_gate(name))
        assert abs(dec.one_norm - 2.0) < 1e-10
        assert abs(dec.overhead - 4.0) < 1e-10


def test_knit_decompose_reconstructs():
    rng = np.random.default_rng(414)
    from obliq.oblivious import GeneralizedPauliBasis

    for d in (2, 3):
        u = random_unitary(d * d, rng)
        dec = knit_decompose(u, local_dim=d)
        basis = GeneralizedPauliBasis(d).operators
        recon = np.zeros_like(u)
        for i in range(d * d):
            for j in range(d * d):
                recon += dec.coefficients[i, j] * np.kron(basis[i], basis[j])
        assert np.abs(recon - u).max() < 1e-10


def test_knit_decompose_rejects_nonunitary():
    with pytest.raises(StateValidationError):
        knit_decompose(np.ones((4, 4)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_knit_coefficients_and_pairs_match_the_dense_definition(d):
    """c_ij = tr((sigma_i x sigma_j)^dag U) / d^2, taken pair by pair from
    the dense Kronecker products, for a Haar unitary; and each pair the
    sampled mode forms holds np.kron's bytes."""
    from obliq.oblivious import GeneralizedPauliBasis

    u = random_unitary(d * d, np.random.default_rng(d))
    sigmas = GeneralizedPauliBasis(d).operators
    pairs = [np.kron(si, sj) for si in sigmas for sj in sigmas]
    want = np.array([np.vdot(pair, u) / d**2 for pair in pairs]).reshape(d * d, d * d)
    dec = knit_decompose(u, local_dim=d)
    assert dec.coefficients.shape == (d * d, d * d)
    assert np.abs(dec.coefficients - want).max() <= 1e-15
    assert all(dist._pauli_pair(d, i).tobytes() == pair.tobytes() for i, pair in enumerate(pairs))


@pytest.mark.parametrize("mode", ["exact_sum", "sampled"])
def test_knit_estimate_at_local_dim_8_holds_no_pair_table(mode):
    """One Haar cut on two d = 8 qudits peaks under 2 MB in its first call,
    what it caches included: the 4,096 Pauli pairs as dense 64 x 64
    matrices would take 268 MB; the coefficients and the cut operator are
    contractions of the 64 single-qudit operators."""
    rng = np.random.default_rng(8)
    circuit = KnitCircuit(2, (KnitGate(random_unitary(64, rng), (0, 1), cut=True),), 8)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    obs = a + a.conj().T
    kwargs = {"shots": 100, "rng": np.random.default_rng(1)} if mode == "sampled" else {}
    tracemalloc.start()
    try:
        knit_estimate(circuit, obs, mode=mode, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _cluster_circuit(cut: bool):
    return KnitCircuit(
        num_qudits=2,
        gates=(
            KnitGate(named_gate("H"), (0,)),
            KnitGate(named_gate("H"), (1,)),
            KnitGate(named_gate("CZ"), (0, 1), cut=cut),
        ),
    )


def test_knit_exact_sum_matches_direct():
    obs = np.kron(named_gate("X"), named_gate("Z")).astype(complex)
    res_cut = knit_estimate(_cluster_circuit(True), obs, mode="exact_sum")
    res_plain = knit_estimate(_cluster_circuit(False), obs, mode="exact_sum")
    assert abs(res_cut.estimate - res_plain.estimate) < 1e-10
    assert abs(res_cut.estimate - 1.0) < 1e-10
    assert abs(res_cut.overhead - 4.0) < 1e-10
    assert abs(res_plain.overhead - 1.0) < 1e-12


def test_knit_two_cuts_multiplicative_overhead():
    rng = np.random.default_rng(415)
    circuit = KnitCircuit(
        num_qudits=3,
        gates=(
            KnitGate(named_gate("H"), (0,)),
            KnitGate(named_gate("CZ"), (0, 1), cut=True),
            KnitGate(named_gate("CNOT"), (1, 2), cut=True),
        ),
    )
    obs = np.kron(np.kron(named_gate("Z"), named_gate("I")), named_gate("Z")).astype(complex)
    res = knit_estimate(circuit, obs, mode="exact_sum")
    assert abs(res.overhead - 16.0) < 1e-10
    plain = KnitCircuit(
        num_qudits=3,
        gates=tuple(
            KnitGate(g.matrix, g.targets, cut=False) for g in circuit.gates
        ),
    )
    direct = knit_estimate(plain, obs, mode="exact_sum")
    assert abs(res.estimate - direct.estimate) < 1e-10


def test_knit_exact_sum_of_four_haar_cuts_matches_the_uncut_circuit():
    """Four cut copies of a Haar two-qubit gate make 16^4 = 65,536 terms.
    The exact sum is linear in them, so it forms no terms x terms matrix
    (64 GiB here), and it matches tr(O U rho U^dag) of the uncut circuit."""
    rng = np.random.default_rng(2026)
    u = random_unitary(4, rng)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obs = (a + a.conj().T) / 2
    circuit = KnitCircuit(num_qudits=2, gates=tuple(KnitGate(u, (0, 1), cut=True) for _ in range(4)))
    res = knit_estimate(circuit, obs, mode="exact_sum")
    psi = np.linalg.matrix_power(u, 4)[:, 0]  # U^4 |00>
    assert abs(res.estimate - np.vdot(psi, obs @ psi).real) <= 1e-12


def test_knit_sampled_unbiased_and_stderr():
    rng = np.random.default_rng(416)
    v = np.kron([0.6, 0.8], [0.6, 0.8]).astype(complex)
    circuit = KnitCircuit(
        num_qudits=2,
        gates=(
            KnitGate(named_gate("H"), (0,)),
            KnitGate(named_gate("H"), (1,)),
            KnitGate(named_gate("CZ"), (0, 1), cut=True),
        ),
        input_state=v,
    )
    obs = np.kron(named_gate("X"), named_gate("Z")).astype(complex)
    exact = knit_estimate(circuit, obs, mode="exact_sum").estimate
    res = knit_estimate(circuit, obs, mode="sampled", shots=50000, rng=rng)
    assert abs(res.estimate - exact) < 4.0 * res.stderr + 1e-12
    assert res.stderr > 0.0
    assert res.row_of_shot.shape == (50000,)


def test_knit_sampled_needs_rng_and_shots():
    obs = np.kron(named_gate("X"), named_gate("Z")).astype(complex)
    with pytest.raises(EstimationError):
        knit_estimate(_cluster_circuit(True), obs, mode="sampled")
    with pytest.raises(EstimationError):
        knit_estimate(_cluster_circuit(True), obs, mode="wrong")


def test_knit_estimate_checks_its_inputs():
    obs = np.kron(named_gate("X"), named_gate("Z")).astype(complex)
    with pytest.raises(StateValidationError, match="Hermitian"):
        knit_estimate(_cluster_circuit(True), obs + np.triu(np.ones((4, 4)), 1) * 1e-6)
    with pytest.raises(DimensionError, match="circuit width"):
        knit_estimate(_cluster_circuit(True), named_gate("Z"))
    off = KnitCircuit(num_qudits=2, gates=(KnitGate(named_gate("CZ") * (1 + 1e-6), (0, 1), cut=True),))
    with pytest.raises(StateValidationError, match="unitary"):
        knit_estimate(off, obs)


def test_knit_cut_needs_two_targets():
    circuit = KnitCircuit(
        num_qudits=1,
        gates=(KnitGate(named_gate("H"), (0,), cut=True),),
    )
    with pytest.raises(DimensionError):
        knit_estimate(circuit, named_gate("Z").astype(complex), mode="exact_sum")


# --- ping-pong alternation ---


def test_pingpong_forced_zero_matches_product():
    rng = np.random.default_rng(417)
    d = 2
    us = [random_unitary(d, rng) for _ in range(4)]
    programs = [choi_of(u) for u in us]
    psi = random_statevector(d, rng)
    rec, led = pingpong_run(programs, _pure(psi), forced_bits=[0, 0, 0, 0])
    total = us[3] @ us[2] @ us[1] @ us[0]
    want = np.outer(total @ psi, (total @ psi).conj())
    assert np.abs(rec.final_state.matrix - want).max() < 1e-9
    assert rec.s == 0


def test_pingpong_max_live_constant():
    rng = np.random.default_rng(418)
    d = 2
    psi = random_statevector(d, rng)
    depths = []
    for n in (2, 4, 8):
        programs = [choi_of(random_unitary(d, rng)) for _ in range(n)]
        rec, led = pingpong_run(programs, _pure(psi), forced_bits=[0] * n)
        assert led.max_live_registers == 3
        assert led.depth == n
        assert led.ebits_consumed == 0
        depths.append(led.depth)
    assert depths == [2, 4, 8]


def test_pingpong_parity_law():
    # each hop lands on the trivial branch with probability 1/d^2
    rng = np.random.default_rng(419)
    d = 2
    programs = [choi_of(random_unitary(d, rng)) for _ in range(3)]
    psi = random_statevector(d, rng)
    counts = np.zeros(3)
    shots = 30000
    for _ in range(shots):
        rec, _ = pingpong_run(programs, _pure(psi), rng=rng)
        counts += np.array(rec.parity_bits) == 0
    assert np.abs(counts / shots - 0.25).max() < 0.01


def test_pingpong_guards():
    programs = [choi_of(named_gate("H"))]
    with pytest.raises(DimensionError):
        pingpong_run([], basis_state(0, 2), forced_bits=[])
    with pytest.raises(EstimationError):
        pingpong_run(programs, basis_state(0, 2))


def test_pingpong_refuses_a_forced_bit_that_is_not_binary():
    programs = [choi_of(named_gate("H")), choi_of(named_gate("T"))]
    for bits in ([-1, 0], [0, 2], [0.5, 0]):
        with pytest.raises(ObliqError):
            pingpong_run(programs, basis_state(0, 2), forced_bits=bits)
