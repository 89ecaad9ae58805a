"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single PASS line on success; under ``pytest -v`` the
test name itself is the pass/fail line for the corresponding criterion.
"""

import itertools
from pathlib import Path

import numpy as np

from obliq import (
    FlagState,
    KnitCircuit,
    KnitGate,
    KrausChannel,
    LCUPlan,
    Party,
    PureState,
    RegisterLayout,
    Superchannel,
    X_AXIS,
    Y_AXIS,
    amplitude_damping_channel,
    basis_state,
    choi_of,
    dqc1,
    dqc1_channel_trace,
    knit_decompose,
    knit_estimate,
    lcu_apply,
    named_gate,
    oaa_amplify,
    odqc1,
    oqc_build,
    oqc_induced_operator,
    oqs,
    oqt_compose_choi,
    oqt_estimate_observable,
    oqt_sample_records,
    oqt_step,
    parity_mix_alpha,
    pingpong_run,
    projector,
    random_block_encoding,
    random_statevector,
    random_unitary,
    rebit_embed,
    rebit_input,
    rebit_readout_probability,
    run_dbqc,
    run_triparty,
    superchannel_kraus,
)
from obliq.errors import BlockEncodingError
from obliq.oblivious import controlled_gate
from obliq.cli import run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _random_density(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def _pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return PureState(RegisterLayout.of(("s", v.shape[0])), v)


def test_criterion_01_oqt_branch_law():
    rng = np.random.default_rng(8101)
    for d in (2, 3):
        for _ in range(50):
            u = random_unitary(d, rng)
            rho = _random_density(d, rng)
            b0, b1 = oqt_step(choi_of(u), rho)
            pushed = u @ rho @ u.conj().T
            assert abs(b0.probability - 1.0 / d**2) < 1e-10
            assert np.linalg.norm(b0.post_state.matrix - pushed) < 1e-10
            want1 = (d * np.eye(d) - pushed) / (d * d - 1)
            assert np.linalg.norm(b1.post_state.matrix - want1) < 1e-10
    print("criterion 1 PASS: teleportation branch law at 1e-10")


def test_criterion_02_sequential_oqt():
    rng = np.random.default_rng(8102)
    d = 2
    for n in (1, 2, 3):
        us = [random_unitary(d, rng) for _ in range(n)]
        progs = [choi_of(u) for u in us]
        u_tot = np.eye(d, dtype=complex)
        for u in us:
            u_tot = u @ u_tot
        rho = _random_density(d, rng)
        pushed = u_tot @ rho @ u_tot.conj().T
        by_s = {}
        for pattern in itertools.product((0, 1), repeat=n):
            rec, _ = pingpong_run(progs, rho, forced_bits=pattern)
            s = sum(pattern)
            alpha = parity_mix_alpha(s, d)
            want = alpha * np.eye(d) + (-1.0) ** s * pushed / (d * d - 1.0) ** s
            assert np.abs(rec.final_state.matrix - want).max() < 1e-10
            if s in by_s:
                assert np.abs(rec.final_state.matrix - by_s[s]).max() < 1e-10
            else:
                by_s[s] = rec.final_state.matrix

    # sampled estimator at 1e5 shots on a three-gate chain
    rng = np.random.default_rng(20260815)
    us = [random_unitary(2, rng) for _ in range(3)]
    psi_in = np.array([0.6, 0.8], dtype=complex)
    psi_o = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
    u_tot = us[2] @ us[1] @ us[0]
    truth = abs(np.vdot(psi_o, u_tot @ psi_in)) ** 2
    sampler = np.random.default_rng(54)
    batch = oqt_sample_records([choi_of(u) for u in us], psi_in, 100000, sampler)
    est, stderr = oqt_estimate_observable(batch, projector(psi_o), rng=sampler)
    assert abs(est - truth) < 3.0 * stderr
    assert abs(est - truth) <= 0.02
    print("criterion 2 PASS: forced-pattern closed form and 1e5-shot estimator")


def test_criterion_03_oblivious_control_exact():
    rng = np.random.default_rng(8103)
    for d in (2, 3):
        for _ in range(25):
            u = random_unitary(d, rng)
            want = controlled_gate(np.kron(u, u.conj()))
            for which in ("omega", "omega_perp"):
                flag = FlagState(which, d)
                circ = oqc_build(lambda v: u @ v, lambda v: u.conj() @ v, d, flag)
                induced = oqc_induced_operator(circ, d, flag, u=u)
                assert np.abs(induced - want).max() < 1e-10
            # a global phase on the black box must not change the result
            v = np.exp(1j * float(rng.uniform(0, 2 * np.pi))) * u
            flag = FlagState("omega", d)
            circ_v = oqc_build(lambda x: v @ x, lambda x: v.conj() @ x, d, flag)
            ind_v = oqc_induced_operator(circ_v, d, flag)
            assert np.abs(ind_v - want).max() < 1e-10
    print("criterion 3 PASS: controlled black-box gate exact at 1e-10, phase-free")


def test_criterion_04_one_clean_qubit_traces():
    rng = np.random.default_rng(8104)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        u = random_unitary(d, rng)
        rho = _random_density(d, rng)
        tr = np.trace(u @ rho)
        assert abs(dqc1(u, rho, X_AXIS) - (1.0 + tr.real) / 2.0) < 1e-10
        assert abs(dqc1(u, rho, Y_AXIS) - (1.0 + tr.imag) / 2.0) < 1e-10
        eta = _random_density(d, rng)
        want = (1.0 + (np.trace(u @ rho) * np.trace(u.conj() @ eta)).real) / 2.0
        got = odqc1(choi_of(u), choi_of(u.conj()), rho, eta, X_AXIS)
        assert abs(got - want) < 1e-10
    print("criterion 4 PASS: trace readouts match closed forms at 1e-10")


def test_criterion_05_amplitude_amplification():
    rng = np.random.default_rng(8105)
    for p in (0.1, 0.25, 0.5):
        be = random_block_encoding(3, p, rng)
        for n in range(6):
            psi_a = random_statevector(3, rng)
            psi_b = random_statevector(3, rng)
            res_a = oaa_amplify(be, n, psi_a)
            res_b = oaa_amplify(be, n, psi_b)
            want = np.sin((2 * n + 1) * be.theta) ** 2
            assert abs(res_a.success_probability - want) < 1e-9
            assert abs(res_a.success_probability - res_b.success_probability) < 1e-9
    be = random_block_encoding(2, 0.25, rng)
    res = oaa_amplify(be, 1, random_statevector(2, rng))
    assert res.success_probability > 1.0 - 1e-9
    print("criterion 5 PASS: success sin^2((2n+1)theta), exact at p=1/4 n=1")


def test_criterion_06_unitary_combination():
    rng = np.random.default_rng(8106)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        coeffs = rng.uniform(0.1, 1.0, size=m)
        us = [random_unitary(d, rng) for _ in range(m)]
        plan = LCUPlan.build(coeffs, us)
        psi = random_statevector(d, rng)
        res = lcu_apply(plan, psi)
        c = sum(w * u for w, u in zip(coeffs, us)) / coeffs.sum()
        want = float(np.vdot(psi, c.conj().T @ c @ psi).real)
        assert abs(res.success_probability - want) < 1e-10
    # boosted apply mode needs the combination itself to be unitary-like
    skew = LCUPlan.build([0.5, 0.5], [np.eye(2), np.diag([1.0, -1.0])])
    try:
        oqs("apply", skew, basis_state(0, 2))
        raise AssertionError("apply mode accepted a non-unitary combination")
    except BlockEncodingError:
        pass
    print("criterion 6 PASS: post-selection law at 1e-10, apply-mode rejection")


def test_criterion_07_real_doubling():
    rng = np.random.default_rng(8107)
    count = 0
    while count < 100:
        d = 2 + count % 3
        u = random_unitary(d, rng)
        emb = rebit_embed(u)
        q = emb.matrix
        assert np.abs(q.imag).max() < 1e-12
        assert np.abs(q.T @ q - np.eye(2 * d)).max() < 1e-10
        psi = random_statevector(d, rng)
        a = int(rng.integers(0, d))
        want = abs((u @ psi)[a]) ** 2
        got = rebit_readout_probability(emb, rebit_input(psi), a)
        assert abs(got - want) < 1e-10
        count += 1
    print("criterion 7 PASS: real doubling orthogonal, statistics kept at 1e-10")


def test_criterion_08_superchannels():
    rng = np.random.default_rng(8108)
    for _ in range(50):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        sc = Superchannel(
            u1=random_unitary(k * din, rng),
            u2=random_unitary(k * dout, rng),
            memory_dim=k,
        )
        kraus = superchannel_kraus(sc)
        acc = sum(s.conj().T @ s for s in kraus)
        assert np.abs(acc - np.eye(acc.shape[0])).max() < 1e-9

    def rand_channel(d, n_kraus):
        g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal(
            (n_kraus * d, d)
        )
        q, _ = np.linalg.qr(g)
        return KrausChannel(tuple(q[i * d : (i + 1) * d, :] for i in range(n_kraus)))

    for _ in range(20):
        c1 = rand_channel(2, int(rng.integers(1, 4)))
        c2 = rand_channel(2, int(rng.integers(1, 4)))
        b0, _ = oqt_compose_choi(choi_of(c1), choi_of(c2))
        composed = KrausChannel(tuple(kb @ ka for kb in c2.kraus for ka in c1.kraus))
        assert np.abs(b0.post_state.matrix - choi_of(composed).density()).max() < 1e-9

    for _ in range(20):
        ch = amplitude_damping_channel(float(rng.uniform(0.0, 1.0)))
        rho = _random_density(2, rng)
        want = (1.0 + np.trace(ch.kraus[0] @ rho).real) / 2.0
        assert abs(dqc1_channel_trace(ch, rho, X_AXIS) - want) < 1e-10
    print("criterion 8 PASS: dilation completeness, composition, channel trace")


def _knit_term_oracle(cut_flags, observable, psi):
    """Independent enumeration of the sampled-mode value distribution."""
    h = named_gate("H")
    cz = named_gate("CZ")
    eye = np.eye(2, dtype=complex)
    x = named_gate("X")
    z = named_gate("Z")
    paulis = [eye, z, x, x @ z]
    hh = np.kron(h, h)
    exact = cz @ cz @ hh
    rho = np.outer(psi, psi.conj())
    per_cut = []
    for flagged in cut_flags:
        if flagged:
            entries = []
            for pi in paulis:
                for pj in paulis:
                    sig = np.kron(pi, pj)
                    w = np.trace(sig.conj().T @ cz) / 4.0
                    if abs(w) > 1e-14:
                        entries.append((w, sig))
            per_cut.append(entries)
    mass = float(np.prod([sum(abs(w) for w, _ in e) for e in per_cut]))
    values, probs = [], []
    for combo in itertools.product(*per_cut):
        w = np.prod([c[0] for c in combo])
        mats = iter(c[1] for c in combo)
        slots = [next(mats) if flagged else cz for flagged in cut_flags]
        total = slots[1] @ slots[0] @ hh
        phase = w / abs(w)
        values.append(mass * (phase * np.vdot(exact, observable @ total @ rho)).real)
        probs.append(abs(w))
    values = np.array(values)
    probs = np.array(probs)
    probs = probs / probs.sum()
    mean = float(probs @ values)
    sigma = float(np.sqrt(probs @ values**2 - mean**2))
    return mean, sigma


def test_criterion_09_knitting():
    for name in ("CZ", "CNOT"):
        dec = knit_decompose(named_gate(name))
        assert abs(dec.one_norm - 2.0) < 1e-10
        assert abs(dec.overhead - 4.0) < 1e-10

    h = named_gate("H")
    cz = named_gate("CZ")
    x = named_gate("X")
    z = named_gate("Z")
    psi1 = np.array([0.6, 0.8], dtype=complex)
    psi = np.kron(psi1, psi1)
    obs = np.kron(x, z)
    exact_val = float(
        np.vdot(cz @ cz @ np.kron(h, h) @ psi, obs @ (cz @ cz @ np.kron(h, h) @ psi)).real
    )

    sigmas = {}
    for cut_flags, overhead in (((True, False), 4.0), ((True, True), 16.0)):
        gates = (
            KnitGate(h, (0,)),
            KnitGate(h, (1,)),
            KnitGate(cz, (0, 1), cut=cut_flags[0]),
            KnitGate(cz, (0, 1), cut=cut_flags[1]),
        )
        circ = KnitCircuit(2, gates, 2, input_state=psi)
        ex = knit_estimate(circ, obs, mode="exact_sum")
        assert abs(ex.overhead - overhead) < 1e-10
        assert abs(ex.estimate - exact_val) < 1e-10

        mean, sigma = _knit_term_oracle(cut_flags, obs, psi)
        assert abs(mean - exact_val) < 1e-10
        rng = np.random.default_rng(9090)
        sm = knit_estimate(circ, obs, mode="sampled", shots=100000, rng=rng)
        observed = float(sm.rows["value"][sm.row_of_shot].std(ddof=1))
        assert abs(observed - sigma) / sigma < 0.02
        assert abs(sm.stderr - observed / np.sqrt(100000.0)) < 1e-12
        assert abs(sm.estimate - exact_val) < 4.0 * sm.stderr
        # quasi-probability envelope: per-shot spread within sqrt(overhead)*|O|
        assert sigma <= np.sqrt(overhead) * 1.0
        sigmas[cut_flags] = sigma
    ratio = sigmas[(True, True)] / sigmas[(True, False)]
    assert 1.3 < ratio < 4.0
    print("criterion 9 PASS: one-norms, overheads, exact sums, stderr scaling")


def test_criterion_10_distributed_protocols():
    # two-party pipeline against the matrix oracle
    ua, ub = named_gate("H"), named_gate("T")
    psi_in = np.array([1.0, 0.0], dtype=complex)
    psi_o = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    truth = abs(np.vdot(psi_o, ub @ ua @ psi_in)) ** 2
    rng = np.random.default_rng(61)
    alice = Party("alice", programs=[choi_of(ua)], states=[basis_state(0, 2)])
    bob = Party("bob", programs=[choi_of(ub)], states=[_pure(psi_o)])
    res = run_dbqc(alice, bob, 100000, rng)
    assert abs(res.estimate - truth) < 3.0 * res.stderr

    # both three-party schemes on one controlled-gate task
    task_rng = np.random.default_rng(77)
    v = random_unitary(2, task_rng)
    cv = np.eye(4, dtype=complex)
    cv[2:, 2:] = v
    psi_a = np.array([0.8, 0.6], dtype=complex)
    psi_b = np.array([0.6, 0.8j], dtype=complex)
    psi_ro = random_unitary(4, task_rng)[:, 0]
    truth3 = abs(np.vdot(psi_ro, cv @ np.kron(psi_a, psi_b))) ** 2
    eye2 = choi_of(np.eye(2, dtype=complex))
    rng = np.random.default_rng(72)
    a = Party("a", programs=[eye2], states=[_pure(psi_a)])
    b = Party("b", programs=[eye2], states=[_pure(psi_b)])
    c = Party("c", programs=[choi_of(cv)], states=[_pure(psi_ro)])
    r1 = run_triparty("I", a, b, c, 100000, rng)
    r2 = run_triparty("II", a, b, c, 100000, rng)
    assert abs(r1.estimate - truth3) < 3.0 * r1.stderr
    assert abs(r2.estimate - truth3) < 3.0 * r2.stderr
    assert r1.ledger.qt_corrections == 0
    assert r2.ledger.qt_corrections > 0
    assert r2.ledger.depth > r1.ledger.depth

    # register reuse keeps the live count flat while depth tracks length
    rng = np.random.default_rng(8110)
    lives = set()
    for n in range(2, 9):
        progs = [choi_of(random_unitary(2, rng)) for _ in range(n)]
        record, ledger = pingpong_run(progs, basis_state(0, 2), rng=rng)
        lives.add(ledger.max_live_registers)
        assert ledger.depth == n
    assert lives == {3}
    print("criterion 10 PASS: pipelines within 3 sigma, ledgers ordered, flat reuse")


def test_criterion_11_determinism(tmp_path):
    goldens = sorted(SCENARIO_DIR.glob("*.json"))
    assert goldens
    for golden in goldens:
        out_a = run_scenario(str(golden), {"out": str(tmp_path / (golden.stem + "-a"))})
        out_b = run_scenario(str(golden), {"out": str(tmp_path / (golden.stem + "-b"))})
        for name in ("records.jsonl", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{golden.stem}/{name} differs between identical runs"
            )
    print("criterion 11 PASS: byte-identical records and summaries on reruns")
