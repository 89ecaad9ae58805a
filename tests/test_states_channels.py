import numpy as np
import pytest

from obliq.channels import (
    IN,
    OUT,
    ChoiProgram,
    amplitude_damping_channel,
    apply_channel,
    channel_of_choi,
    choi_of,
    dephasing_channel,
    depolarizing_channel,
    kraus_of_dilation,
    program_layout,
    rebit_embed,
    rebit_input,
    rebit_readout_probability,
    stinespring_dilation,
    transpose_program,
    unitary_of_choi,
)
from obliq.errors import DimensionError, StateValidationError
from obliq.gates import gate_from_literal
from obliq.oblivious import check_unital
from obliq.qmath import RegisterLayout, partial_trace, random_statevector, random_unitary
from obliq.states import MixedState, PureState, basis_state, bell_state


def test_pure_state_normalization_check():
    lay = RegisterLayout.of(("q", 2))
    with pytest.raises(StateValidationError):
        PureState(lay, np.array([1.0, 1.0]))
    psi = PureState(lay, np.array([0.6, 0.8]))
    assert abs(psi.density().trace() - 1.0) < 1e-12


def test_mixed_state_checks():
    lay = RegisterLayout.of(("q", 2))
    with pytest.raises(StateValidationError):
        MixedState(lay, np.array([[0.5, 0.9], [0.9, 0.5]]))
    rho = MixedState(lay, np.eye(2) / 2)
    assert abs(rho.purity() - 0.5) < 1e-12
    assert not rho.is_pure()


def test_bell_state_marginal_is_maximally_mixed():
    for d in (2, 3):
        omega = bell_state(d)
        left = omega.to_mixed().marginal(["A"])
        assert np.abs(left.matrix - np.eye(d) / d).max() < 1e-12


def test_program_state_of_unitary():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        u = random_unitary(d, rng)
        prog = choi_of(u)
        # the program state is (U ox I)|omega>
        omega = bell_state(d).amplitudes
        vec = np.kron(u, np.eye(d)) @ omega
        assert np.abs(prog.density() - np.outer(vec, vec.conj())).max() < 1e-12
        back = unitary_of_choi(prog)
        ph = np.vdot(back.reshape(-1), u.reshape(-1))
        ph /= abs(ph)
        assert np.abs(back - ph * u).max() < 1e-10


def test_choi_in_marginal_enforced():
    # a non-trace-preserving block must be rejected as a program state
    lay = program_layout(2, 2)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1.0
    with pytest.raises(StateValidationError):
        ChoiProgram(MixedState(lay, bad))


@pytest.mark.parametrize("pure", [True, False])
def test_choi_in_marginal_is_checked_to_1e_8(pure):
    # A valid, normalised state whose in-port marginal misses I/2 by delta.
    lay = program_layout(2, 2)

    def program(delta):
        amps = np.zeros(4, dtype=complex)
        amps[0], amps[3] = np.sqrt(0.5 + delta), np.sqrt(0.5 - delta)
        state = PureState(lay, amps)
        return ChoiProgram(state if pure else MixedState(lay, state.density()))

    program(1e-10)
    with pytest.raises(StateValidationError):
        program(1e-7)


def test_choi_of_a_unitary_is_the_dense_product_bytewise():
    """choi_of forms (U ox 1)|omega> as U's entries times omega's amplitude:
    the bytes `kron(U, I) @ omega` gives, for Haar unitaries and named gates."""
    rng = np.random.default_rng(2026)
    unitaries = [random_unitary(d, rng) for d in range(2, 8) for _ in range(40)]
    unitaries += [gate_from_literal(name) for name in ("H", "X", "Y", "Z", "S", "T", "CNOT", "CZ", "SWAP")]
    for u in unitaries:
        d = u.shape[0]
        dense = np.kron(u, np.eye(d)) @ bell_state(d).amplitudes
        assert choi_of(u).state.amplitudes.tobytes() == dense.tobytes()


def _near_unital(rng, d, eps):
    """Unit-norm amplitudes A = S U / |S U| with S = 1 + eps H (H Hermitian,
    random): a pure program whose port marginals miss I/d by about eps/d."""
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (np.eye(d) + eps * (h + h.conj().T)) @ random_unitary(d, rng)
    return a / np.linalg.norm(a)


def test_amplitude_marginals_decide_as_the_dense_partial_traces():
    """A pure program's in-port marginal A^T A* (checked by ChoiProgram) and
    out-port marginal A A^dag (checked by check_unital) accept and refuse
    exactly where the partial traces of its density matrix do, for
    programs on both sides of the 1e-8 bound."""
    rng = np.random.default_rng(17)
    lay = {d: program_layout(d, d) for d in range(2, 6)}
    seen = set()
    for d in range(2, 6):
        for eps in np.geomspace(2e-9, 5e-8, 60):
            a = _near_unital(rng, d, eps)
            rho = np.outer(a.reshape(-1), a.reshape(-1).conj())
            dense = {
                port: np.abs(partial_trace(rho, [port], lay[d]) - np.eye(d) / d).max() > 1e-8
                for port in (IN, OUT)
            }
            try:
                prog = ChoiProgram(PureState(lay[d], a.reshape(-1)))
            except StateValidationError:
                assert dense[IN]
                seen.add((IN, True))
                continue
            assert not dense[IN]
            seen.add((IN, False))
            try:
                check_unital([prog], d)
            except StateValidationError:
                assert dense[OUT]
                seen.add((OUT, True))
                continue
            assert not dense[OUT]
            seen.add((OUT, False))
    assert seen == {(IN, True), (IN, False), (OUT, True), (OUT, False)}


def test_choi_of_channel_and_back():
    rng = np.random.default_rng(7)
    for gamma in (0.0, 0.35, 1.0):
        ch = amplitude_damping_channel(gamma)
        prog = choi_of(ch)
        back = channel_of_choi(prog)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho = rho / rho.trace()
        assert np.abs(apply_channel(ch, rho) - apply_channel(back, rho)).max() < 1e-10


def test_depolarizing_channel_flattens():
    for d in (2, 3):
        ch = depolarizing_channel(d)
        rng = np.random.default_rng(d)
        v = random_statevector(d, rng)
        out = apply_channel(ch, np.outer(v, v.conj()))
        assert np.abs(out - np.eye(d) / d).max() < 1e-12


def test_dephasing_channel_kills_coherence():
    ch = dephasing_channel()
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_channel(ch, plus)
    assert np.abs(out - np.diag([0.5, 0.5])).max() < 1e-12


def test_stinespring_dilation_reproduces_channel():
    rng = np.random.default_rng(21)
    ch = amplitude_damping_channel(0.4)
    u, anc = stinespring_dilation(ch)
    back = kraus_of_dilation(u, ch.out_dim, ch.in_dim)
    for _ in range(10):
        v = random_statevector(2, rng)
        rho = np.outer(v, v.conj())
        assert np.abs(apply_channel(ch, rho) - apply_channel(back, rho)).max() < 1e-10


def test_transpose_program_is_involution():
    rng = np.random.default_rng(2)
    u = random_unitary(3, rng)
    prog = choi_of(u)
    twice = transpose_program(transpose_program(prog))
    assert np.abs(twice.density() - prog.density()).max() < 1e-12


def test_rebit_embedding_preserves_probabilities():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4):
        for _ in range(25):
            u = random_unitary(d, rng)
            psi = random_statevector(d, rng)
            emb = rebit_embed(u)
            phi = rebit_input(psi)
            out = u @ psi
            for a in range(d):
                p = rebit_readout_probability(emb, phi, a)
                assert abs(p - abs(out[a]) ** 2) < 1e-10


def test_kraus_channel_dim_guard():
    with pytest.raises(DimensionError):
        apply_channel(dephasing_channel(), np.eye(3) / 3)


def test_basis_state():
    e1 = basis_state(1, 3)
    assert np.abs(e1.amplitudes - np.array([0, 1, 0])).max() < 1e-14
