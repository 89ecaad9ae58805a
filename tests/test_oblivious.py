import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq import oblivious
from obliq.algorithms import compose_programs
from obliq.channels import IN, OUT, ChoiProgram, KrausChannel, amplitude_damping_channel, choi_of
from obliq.distributed import pingpong_run
from obliq.errors import CapacityError, DimensionError, EstimationError, StateValidationError
from obliq.gates import named_gate
from obliq.oblivious import (
    FlagState,
    GeneralizedPauliBasis,
    bell_projector,
    check_unital,
    controlled_gate,
    isi_measure,
    local_parity_sampling,
    multiparty_binary_bell,
    multiplexer_build,
    oqc_build,
    oqc_induced_operator,
    oqt_estimate_observable,
    oqt_sample_records,
    oqt_step,
    parity_mix_alpha,
    sequence_unitary,
    toffoli_boundary_compile,
)
from obliq.qmath import RegisterLayout, partial_trace, random_statevector, random_unitary
from obliq.states import MixedState, basis_state
from obliq.superchannel import oqt_compose_choi


def test_generalized_pauli_basis_orthonormal():
    for d in (2, 3, 4):
        ops = GeneralizedPauliBasis(d).operators
        assert len(ops) == d * d
        gram = np.array(
            [[np.trace(a.conj().T @ b) / d for b in ops] for a in ops]
        )
        assert np.abs(gram - np.eye(d * d)).max() < 1e-12


def test_isi_branch_law():
    rng = np.random.default_rng(100)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        u = random_unitary(d, rng)
        psi = random_statevector(d, rng)
        b0, b1 = isi_measure(choi_of(u), psi)
        out = u @ psi
        assert abs(b0.probability - 1.0 / d) < 1e-10
        assert np.abs(b0.post_state.matrix - np.outer(out, out.conj())).max() < 1e-10
        assert abs(b1.probability - (d - 1.0) / d) < 1e-10
        comp = (np.eye(d) - np.outer(out, out.conj())) / (d - 1)
        assert np.abs(b1.post_state.matrix - comp).max() < 1e-10


def test_isi_rejects_unnormalized_injection():
    with pytest.raises(StateValidationError):
        isi_measure(choi_of(named_gate("H")), np.array([1.0, 1.0]))


def test_oqt_step_branch_law():
    rng = np.random.default_rng(101)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        u = random_unitary(d, rng)
        psi = random_statevector(d, rng)
        b0, b1 = oqt_step(choi_of(u), psi)
        target = np.outer(u @ psi, (u @ psi).conj())
        assert abs(b0.probability - 1.0 / d**2) < 1e-10
        assert np.abs(b0.post_state.matrix - target).max() < 1e-10
        mix = (d * np.eye(d) - target) / (d * d - 1.0)
        assert abs(b1.probability - (1.0 - 1.0 / d**2)) < 1e-10
        assert np.abs(b1.post_state.matrix - mix).max() < 1e-10


@pytest.mark.parametrize("excess", [1.5e-8, -1.5e-8])
def test_oqt_step_refuses_a_vector_whose_squared_norm_is_off_by_more_than_1e_8(excess):
    """A raw vector is held to |<v|v> - 1| <= 1e-8, the trace bound a density
    matrix meets; |‖v‖ - 1| <= 1e-8 would let these through (‖v‖ - 1 is
    about 7.5e-9)."""
    psi = random_statevector(3, np.random.default_rng(104))
    program = choi_of(random_unitary(3, np.random.default_rng(105)))
    with pytest.raises(StateValidationError, match="squared norm"):
        oqt_step(program, psi * np.sqrt(1.0 + excess))
    b0, b1 = oqt_step(program, psi * np.sqrt(1.0 + excess / 3))
    assert abs(b0.probability + b1.probability - 1.0) < 1e-8


def test_oqt_chain_closed_form():
    # chain state depends on the parity pattern only through its sum
    rng = np.random.default_rng(102)
    for d in (2, 3):
        us = [random_unitary(d, rng) for _ in range(3)]
        programs = [choi_of(u) for u in us]
        psi = random_statevector(d, rng)
        u_total = us[2] @ us[1] @ us[0]
        rho_target = np.outer(u_total @ psi, (u_total @ psi).conj())
        for bits in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)):
            rec, _ = pingpong_run(programs, psi, forced_bits=bits)
            s = sum(bits)
            alpha = parity_mix_alpha(s, d)
            expect = alpha * np.eye(d) + (-1.0) ** s * rho_target / (d * d - 1.0) ** s
            assert rec.s == s
            assert np.abs(rec.final_state.matrix - expect).max() < 1e-10


def test_oqt_chain_needs_exactly_one_driver():
    progs = [choi_of(named_gate("H"))]
    with pytest.raises(EstimationError):
        pingpong_run(progs, basis_state(0, 2))
    with pytest.raises(EstimationError):
        pingpong_run(
            progs, basis_state(0, 2), rng=np.random.default_rng(0), forced_bits=[0]
        )


def test_oqt_estimator_unbiased():
    rng = np.random.default_rng(103)
    d = 2
    u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
    psi = random_statevector(d, rng)
    obs = np.diag([1.0, -1.0]).astype(complex)
    target = u2 @ u1 @ psi
    truth = float(np.real(target.conj() @ obs @ target))
    batch = oqt_sample_records([choi_of(u1), choi_of(u2)], psi, 40000, rng)
    est, err = oqt_estimate_observable(batch, obs, rng=rng)
    assert abs(est - truth) < 3.5 * err + 1e-12


def test_oqt_sample_records_refuses_a_chain_whose_branches_do_not_merge():
    # A non-unital program's branch state depends on which step flipped,
    # not only on the parity sum the sampler keys its states by.
    progs = [choi_of(amplitude_damping_channel(0.3))] * 3
    with pytest.raises(StateValidationError, match="equal parity sum diverged"):
        oqt_sample_records(progs, basis_state(0, 2), 10, np.random.default_rng(0))


def test_oqt_sample_records_refuses_a_non_unital_last_program():
    # No later link compares the branch states a last program leaves, so
    # unitality is checked program by program.
    rng = np.random.default_rng(7)
    progs = [choi_of(random_unitary(2, rng)), choi_of(amplitude_damping_channel(0.3))]
    with pytest.raises(StateValidationError, match="equal parity sum diverged"):
        oqt_sample_records(progs, random_statevector(2, rng), 10, rng)


def test_mixed_programs_keep_the_dense_marginal_checks(monkeypatch):
    """A pure program's marginals come from its amplitudes; a mixed one's
    from partial traces of its density matrix: one for its in port when it
    is made, one for its out port in check_unital, which still refuses
    amplitude damping."""
    from obliq import channels

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return partial_trace(*args, **kwargs)

    monkeypatch.setattr(channels, "partial_trace", counted)
    rng = np.random.default_rng(5)
    pure = choi_of(random_unitary(3, rng))
    check_unital([pure], 3)
    assert calls == []
    mixed = ChoiProgram(MixedState(pure.state.layout, pure.density()))
    assert calls == [[IN]]
    check_unital([mixed], 3)
    assert calls == [[IN], [OUT]]
    damped = choi_of(amplitude_damping_channel(0.3))
    with pytest.raises(StateValidationError, match="program 1 is not unital"):
        check_unital([choi_of(np.eye(2)), damped], 2)
    assert calls[-1] == [OUT]


def test_oqt_sample_records_refuses_ports_that_are_not_square_of_the_system_dimension():
    rng = np.random.default_rng(8)
    iso = random_unitary(3, rng)[:, :2]  # an isometry from dimension 2 into 3
    widening = choi_of(KrausChannel([iso]))
    with pytest.raises(DimensionError):
        oqt_sample_records([widening], basis_state(0, 2), 10, rng)
    with pytest.raises(DimensionError):
        oqt_sample_records([choi_of(random_unitary(3, rng))], basis_state(0, 2), 10, rng)


def test_parity_inverted_refuses_a_parity_count_beyond_float64():
    # (d^2-1)^s is 35^200 ~ 1e308 at d = 6, s = 200: no finite estimate exists.
    values = np.array([0.0, 1.0])
    assert np.isfinite(oblivious.parity_inverted(values, np.array([0, 199]), 6)).all()
    with pytest.raises(EstimationError, match="s = 200, d = 6"):
        oblivious.parity_inverted(values, np.array([3, 200]), 6)
    with pytest.raises(EstimationError, match="s = 647, d = 2"):
        oblivious.parity_inverted(values, np.array([647, 0]), 2)


def _mixed_unitary(d, rng):
    """A unital channel: 2-3 random unitaries mixed with random weights."""
    weights = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
    return KrausChannel(tuple(np.sqrt(w) * random_unitary(d, rng) for w in weights))


def _chain(d, n, mixed, rng):
    """n random unitary or mixed-unitary programs and a random input state."""
    ops = [_mixed_unitary(d, rng) if mixed else random_unitary(d, rng) for _ in range(n)]
    return [choi_of(op) for op in ops], random_statevector(d, rng)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 3, 6]),
    n=st.integers(1, 6),
    mixed=st.booleans(),
)
def test_oqt_states_by_s_match_the_dense_chain(seed, d, n, mixed):
    rng = np.random.default_rng(seed)
    progs, psi = _chain(d, n, mixed, rng)
    batch = oqt_sample_records(progs, psi, 4, rng)
    assert sorted(batch.states_by_s) == list(range(n + 1))
    for s in range(n + 1):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, size=s, replace=False)] = 1
        record, _ = pingpong_run(progs, psi, forced_bits=bits.tolist())
        dense = record.final_state.matrix
        assert np.abs(batch.states_by_s[s].matrix - dense).max() < 1e-10


@pytest.mark.parametrize(
    "d, n, mixed, seed, digest",
    [
        (2, 5, False, 11, "564a60a9296611657daa7acd96fb4abf7f40aa051aacfacd02f30e85f7bfecdc"),
        (3, 4, True, 12, "4ff924a5be6a4823ebce6ef31d21ceb9c84d737e41dee2ac5adba659a029f390"),
        (6, 3, False, 13, "d7de23497c337e8935d46761968aac045a4cf905a678e41504cb781ac1cffea1"),
        (2, 6, True, 14, "8e4a0343e886aa008b8ed05c69f9415c6c034c108bfb79e08bb9ddc3f083604c"),
    ],
)
def test_oqt_sample_records_draws_pinned_parity_bits(d, n, mixed, seed, digest):
    # sha256 of the int8 parity bits and of the generator's next three
    # uniforms, as drawn when every (step, s) state was simulated densely.
    progs, psi = _chain(d, n, mixed, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    batch = oqt_sample_records(progs, psi, 64, rng)
    assert batch.parity_bits.dtype == np.int8 and batch.parity_bits.shape == (64, n)
    found = hashlib.sha256(batch.parity_bits.tobytes() + rng.random(3).tobytes()).hexdigest()
    assert found == digest


def test_oqt_sample_records_makes_one_step_per_link(monkeypatch):
    calls = []

    def counting_step(program, system):
        calls.append(program)
        return oqt_step(program, system)

    monkeypatch.setattr(oblivious, "oqt_step", counting_step)
    progs, psi = _chain(2, 12, False, np.random.default_rng(15))
    oqt_sample_records(progs, psi, 100, np.random.default_rng(0))
    assert len(calls) == len(progs) == 12


def test_oqt_parity_statistics():
    # every step is trivial with probability 1/d^2 independent of history
    rng = np.random.default_rng(104)
    d = 2
    progs = [choi_of(random_unitary(d, rng)) for _ in range(2)]
    batch = oqt_sample_records(progs, random_statevector(d, rng), 80000, rng)
    freq0 = (batch.parity_bits == 0).mean(axis=0)
    assert np.abs(freq0 - 0.25).max() < 0.01


def test_multiparty_binary_bell_product_branch():
    rng = np.random.default_rng(105)
    da, db = 2, 3
    ua, ub = random_unitary(da, rng), random_unitary(db, rng)
    pa, pb = random_statevector(da, rng), random_statevector(db, rng)
    b0, b1 = multiparty_binary_bell([(choi_of(ua), pa), (choi_of(ub), pb)])
    assert abs(b0.probability - 1.0 / (da * db) ** 2) < 1e-10
    oa = np.outer(ua @ pa, (ua @ pa).conj())
    ob = np.outer(ub @ pb, (ub @ pb).conj())
    assert np.abs(b0.post_state.matrix - np.kron(oa, ob)).max() < 1e-10
    assert abs(b0.probability + b1.probability - 1.0) < 1e-12


@pytest.mark.parametrize("parts, d", [(4, 4), (3, 5), (3, 4)])
def test_multiparty_binary_bell_is_the_kron_of_its_parts_past_the_joint_cap(parts, d):
    """Layers whose joint dimension (d^3 per part, up to 262,144) passes
    the cap run, since only the kept state (d per part) is formed: the
    trivial branch is the product of each part's `oqt_step` trivial branch."""
    rng = np.random.default_rng(108)
    layer = [(choi_of(random_unitary(d, rng)), random_statevector(d, rng)) for _ in range(parts)]
    b0, b1 = multiparty_binary_bell(layer)
    steps = [oqt_step(prog, psi)[0] for prog, psi in layer]
    assert abs(b0.probability - np.prod([s.probability for s in steps])) <= 1e-12
    want = functools.reduce(np.kron, [s.post_state.matrix for s in steps])
    assert np.abs(b0.post_state.matrix - want).max() <= 1e-12
    assert abs(b0.probability + b1.probability - 1.0) <= 1e-12


def test_multiparty_binary_bell_refuses_capacity_by_the_kept_state():
    """Six parts at d = 4 keep a 4,096-dimensional state, over the cap: the
    layer raises CapacityError before it forms any array."""
    rng = np.random.default_rng(108)
    layer = [(choi_of(random_unitary(4, rng)), random_statevector(4, rng)) for _ in range(6)]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="layout dimension 4096 exceeds capacity 1024"):
            multiparty_binary_bell(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_multiparty_binary_bell_holds_two_kept_states():
    """Five parts at d = 4 keep a 1,024-dimensional state, 16.8 MB a copy:
    the layer peaks under 42 MB (the trivial numerator and the total, whose
    buffer takes the complement; both branches are normalized in place)."""
    rng = np.random.default_rng(5)
    layer = [(choi_of(random_unitary(4, rng)), random_statevector(4, rng)) for _ in range(5)]
    tracemalloc.start()
    try:
        b0, b1 = multiparty_binary_bell(layer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42_000_000
    assert abs(np.trace(b0.post_state.matrix) - 1) <= 1e-12 and abs(np.trace(b1.post_state.matrix) - 1) <= 1e-12


def test_bell_layers_name_their_branch_registers():
    rng = np.random.default_rng(109)
    p1, p2 = choi_of(random_unitary(3, rng)), choi_of(random_unitary(3, rng))
    psi = random_statevector(3, rng)
    layers = [
        (oqt_step(p1, psi), (oblivious.SYS,)),
        (oqt_compose_choi(p1, p2), (OUT, IN)),
        (compose_programs(p1, p2), (OUT, IN)),
        (multiparty_binary_bell([(p1, psi), (p2, psi)]), ("out0", "out1")),
    ]
    for branches, labels in layers:
        assert [b.post_state.layout.labels for b in branches] == [labels, labels]


def test_local_parity_sampling_all_zero_rate():
    rng = np.random.default_rng(106)
    d = 2
    parts = [
        (choi_of(random_unitary(d, rng)), random_statevector(d, rng))
        for _ in range(2)
    ]
    res = local_parity_sampling(parts, 160000, rng)
    rate = res.all_zero / res.shots
    assert abs(rate - 1.0 / 16.0) < 0.004
    assert abs(res.efficiency_factor - 16.0) < 1e-12
    assert res.all_zero + res.rest == res.shots


def test_controlled_gate_layout():
    u = named_gate("X")
    cg = controlled_gate(u)
    assert np.abs(cg - named_gate("CNOT")).max() < 1e-12


def test_oqc_exactness_both_flags():
    rng = np.random.default_rng(107)
    for d in (2, 3):
        u = random_unitary(d, rng)
        apply_u = lambda v: u @ v
        apply_uc = lambda v: u.conj() @ v
        for which in ("omega", "omega_perp"):
            flag = FlagState(which, d)
            circ = oqc_build(apply_u, apply_uc, d, flag)
            induced = oqc_induced_operator(circ, d, flag, u=u)
            want = controlled_gate(np.kron(u, u.conj()))
            assert np.abs(induced - want).max() < 1e-9


def test_oqc_global_phase_invariance():
    rng = np.random.default_rng(108)
    d = 2
    u = random_unitary(d, rng)
    v = np.exp(1j * 1.234) * u
    flag = FlagState("omega", d)
    circ_u = oqc_build(lambda x: u @ x, lambda x: u.conj() @ x, d, flag)
    circ_v = oqc_build(lambda x: v @ x, lambda x: v.conj() @ x, d, flag)
    ind_u = oqc_induced_operator(circ_u, d, flag)
    ind_v = oqc_induced_operator(circ_v, d, flag)
    assert np.abs(ind_u - ind_v).max() < 1e-10


def test_multiplexer_resolves_identity():
    rng = np.random.default_rng(109)
    d = 2
    u0, u1 = random_unitary(d, rng), random_unitary(d, rng)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    mux = multiplexer_build(
        [p0, p1],
        [
            (lambda v: u0 @ v, lambda v: u0.conj() @ v),
            (lambda v: u1 @ v, lambda v: u1.conj() @ v),
        ],
        d,
    )
    want = np.kron(p0, np.kron(u0, u0.conj())) + np.kron(p1, np.kron(u1, u1.conj()))
    assert np.abs(mux - want).max() < 1e-10


def test_multiplexer_rejects_non_resolution():
    d = 2
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(StateValidationError):
        multiplexer_build(
            [p0], [(lambda v: v, lambda v: v)], d
        )


def test_boundary_compilation_basis_outcomes():
    ops = toffoli_boundary_compile()
    compiled = sequence_unitary(ops, 3)
    lay = RegisterLayout.of(("q0", 2), ("q1", 2), ("q2", 2))
    ccx = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    # equal up to a diagonal sign, so all basis outcome distributions match
    for idx in range(8):
        e = np.zeros(8, dtype=complex)
        e[idx] = 1.0
        pa = np.abs(compiled @ e) ** 2
        pb = np.abs(ccx @ e) ** 2
        assert np.abs(pa - pb).max() < 1e-10


def test_bell_projector_rank_one():
    for d in (2, 3):
        p = bell_projector(d)
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert np.abs(p @ p - p).max() < 1e-12
