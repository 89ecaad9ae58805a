import numpy as np
import pytest

from obliq.errors import CapacityError, DuplicateLabelError, UnknownLabelError
from obliq.qmath import (
    RegisterLayout,
    dagger,
    distance_up_to_phase,
    embed_operator,
    is_hermitian,
    is_psd,
    is_unitary,
    partial_trace,
    permutation_to_layout,
    projector,
    random_statevector,
    random_unitary,
    tensor_product,
)


def test_layout_basics():
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    assert lay.total_dim == 6
    assert lay.labels == ("a", "b")
    assert lay.dim("b") == 3
    assert lay.index("a") == 0
    with pytest.raises(UnknownLabelError):
        lay.index("c")


def test_layout_rejects_duplicates_and_capacity():
    with pytest.raises(DuplicateLabelError):
        RegisterLayout.of(("a", 2), ("a", 2))
    with pytest.raises(CapacityError):
        RegisterLayout.of(("big", 1 << 11))


def test_predicates():
    rng = np.random.default_rng(0)
    u = random_unitary(4, rng)
    assert is_unitary(u)
    assert not is_unitary(u + 0.1)
    h = u + dagger(u)
    assert is_hermitian(h)
    assert is_psd(dagger(u) @ u)


@pytest.mark.parametrize("seed", range(8))
def test_is_hermitian_is_the_max_entry_of_a_minus_its_adjoint(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a + a.conj().T + 1e-10 * rng.normal(size=(n, n))
    for m in (h, h.real, h.T, h[::-1, ::-1], np.asfortranarray(h), a, np.full((n, n), 1e308 + 1e308j)):
        for tol in (1e-9, 1e-10, 1e-11):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = bool(np.abs(m - m.conj().T).max() <= tol)
            assert is_hermitian(m, tol) == expected
    assert not is_hermitian(np.zeros((n, n + 1)))
    assert not is_hermitian(np.zeros(n))


def test_random_unitary_distributes_phases():
    rng = np.random.default_rng(42)
    for d in (2, 3, 5):
        u = random_unitary(d, rng)
        assert np.abs(dagger(u) @ u - np.eye(d)).max() < 1e-12


def test_embed_operator_matches_kron():
    # first listed register is the most significant factor
    lay = RegisterLayout.of(("x", 2), ("y", 3))
    op = np.arange(4).reshape(2, 2).astype(complex)
    full = embed_operator(op, ["x"], lay)
    assert np.abs(full - np.kron(op, np.eye(3))).max() < 1e-14
    full_y = embed_operator(np.eye(3, dtype=complex), ["y"], lay)
    assert np.abs(full_y - np.eye(6)).max() < 1e-14


def test_embed_operator_two_targets_ordering():
    lay = RegisterLayout.of(("a", 2), ("b", 2), ("c", 2))
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    # acting on (c, a) permutes factors relative to layout order
    full = embed_operator(cnot, ["c", "a"], lay)
    rng = np.random.default_rng(3)
    psi = random_statevector(8, rng)
    # oracle: permute to (c, a, b), apply kron(cnot, I), permute back
    perm_lay = RegisterLayout.of(("c", 2), ("a", 2), ("b", 2))
    p = permutation_to_layout(lay, perm_lay)
    oracle = p.T @ np.kron(cnot, np.eye(2)) @ p @ psi
    assert np.abs(full @ psi - oracle).max() < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    a = random_statevector(2, rng)
    b = random_statevector(3, rng)
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    rho = np.outer(np.kron(a, b), np.conj(np.kron(a, b)))
    ra = partial_trace(rho, ["a"], lay)
    assert np.abs(ra - np.outer(a, np.conj(a))).max() < 1e-12
    rb = partial_trace(rho, ["b"], lay)
    assert np.abs(rb - np.outer(b, np.conj(b))).max() < 1e-12


def test_partial_trace_entangled_gives_maximally_mixed():
    d = 3
    bell = np.eye(d).reshape(d * d) / np.sqrt(d)
    lay = RegisterLayout.of(("l", d), ("r", d))
    rho = np.outer(bell, bell.conj())
    left = partial_trace(rho, ["l"], lay)
    assert np.abs(left - np.eye(d) / d).max() < 1e-12


def test_partial_trace_keeps_order():
    rng = np.random.default_rng(5)
    lay = RegisterLayout.of(("a", 2), ("b", 3))
    a = random_statevector(2, rng)
    b = random_statevector(3, rng)
    rho = np.outer(np.kron(a, b), np.conj(np.kron(a, b)))
    # keeping (b, a) must transpose the factors, not just relabel
    keep_ba = partial_trace(rho, ["b", "a"], lay)
    oracle = np.kron(np.outer(b, b.conj()), np.outer(a, a.conj()))
    assert np.abs(keep_ba - oracle).max() < 1e-12


def test_tensor_product_capacity_guard():
    with pytest.raises(CapacityError):
        tensor_product(np.eye(64), np.eye(64), max_entries=100)


def test_projector_and_phase_distance():
    rng = np.random.default_rng(9)
    v = random_statevector(4, rng)
    p = projector(v)
    assert np.abs(p @ p - p).max() < 1e-12
    assert distance_up_to_phase(v, np.exp(1j * 0.7) * v) < 1e-12
    w = random_statevector(4, rng)
    assert distance_up_to_phase(v, w) > 1e-3
