"""Contraction kernels against the dense `embed_operator` reference.

Every operation that acts on some registers of a larger state contracts
with those registers' axes. Each test here rebuilds the same result the
dense way: the operator lifted to the full layout by `embed_operator`,
applied by full matrix products, then traced. A stack of states, one per
branch, goes through the same kernels: each row must match the reference
and get the bytes it gets alone.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq.algorithms import compose_programs
from obliq.channels import IN, OUT, KrausChannel, choi_of, conjugate_program
from obliq.distributed import KnitCircuit, KnitGate, ProtocolEngine, knit_estimate
from obliq.oblivious import (
    SYS,
    GeneralizedPauliBasis,
    bell_projector,
    isi_measure,
    multiparty_binary_bell,
    oqt_step,
)
from obliq import qmath
from obliq.qmath import (
    RegisterLayout,
    apply_on_targets,
    embed_operator,
    kron_rows,
    partial_trace,
    projector,
    random_statevector,
    random_unitary,
)
from obliq.superchannel import oqt_compose_choi

TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)
KERNEL = settings(max_examples=120, deadline=None)
PROTOCOL = settings(max_examples=30, deadline=None)


def _ginibre(rng, rows, cols=None):
    """A random complex matrix of unit Frobenius norm (non-Hermitian)."""
    a = rng.standard_normal((rows, cols or rows)) + 1j * rng.standard_normal((rows, cols or rows))
    return a / np.linalg.norm(a)


def _density(rng, d):
    a = _ginibre(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _projector(rng, d):
    """A random projector of rank 1 to d - 1."""
    rank = int(rng.integers(1, d)) if d > 1 else 1
    cols = random_unitary(d, rng)[:, :rank]
    return cols @ cols.conj().T


@st.composite
def layouts_and_targets(draw, max_dim=216):
    """A layout of 1-4 registers with d <= 6 and a target list in any order."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(
        lambda ds: math.prod(ds) <= max_dim
    ))
    labels = [f"r{k}" for k in range(len(dims))]
    layout = RegisterLayout(tuple(zip(labels, dims)))
    targets = draw(st.permutations(labels))[: draw(st.integers(1, len(labels)))]
    return layout, list(targets)


# --- qmath kernels ---


@KERNEL
@given(layouts_and_targets(), SEEDS, st.integers(1, 3))
def test_apply_on_targets_matches_embedded_operator(case, seed, cols):
    layout, targets = case
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    op = _ginibre(rng, math.prod(layout.dim(t) for t in targets))
    full = embed_operator(op, targets, layout)
    vec, factor, rho = _ginibre(rng, d, 1)[:, 0], _ginibre(rng, d, cols), _ginibre(rng, d)
    assert np.abs(apply_on_targets(op, vec, targets, layout) - full @ vec).max() <= TOL
    assert np.abs(apply_on_targets(op, factor, targets, layout) - full @ factor).max() <= TOL
    want = full @ rho @ full.conj().T
    assert np.abs(apply_on_targets(op, rho, targets, layout, True) - want).max() <= TOL


@KERNEL
@given(layouts_and_targets(), SEEDS)
def test_weighted_partial_trace_matches_embedded_weight(case, seed):
    layout, keep = case
    rng = np.random.default_rng(seed)
    traced = [lab for lab in layout.labels if lab not in keep]
    weight = _ginibre(rng, math.prod(layout.dim(t) for t in traced))
    rho = _ginibre(rng, layout.total_dim)
    want = partial_trace(embed_operator(weight, traced, layout) @ rho, keep, layout)
    assert np.abs(partial_trace(rho, keep, layout, weight) - want).max() <= TOL


@KERNEL
@given(layouts_and_targets(), SEEDS, st.integers(1, 5), st.integers(1, 3))
def test_stacked_kernels_match_the_references_row_by_row(case, seed, rows, block_dim):
    layout, targets = case
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    op = _ginibre(rng, math.prod(layout.dim(t) for t in targets))
    full = embed_operator(op, targets, layout)
    traced = [lab for lab in layout.labels if lab not in targets]
    weight = _ginibre(rng, math.prod(layout.dim(t) for t in traced))
    full_weight = embed_operator(weight, traced, layout)
    block = _ginibre(rng, block_dim)
    stack = np.stack([_ginibre(rng, d) for _ in range(rows)])
    factors = np.stack([_ginibre(rng, d, 2) for _ in range(rows)])

    def kernels(x, f):
        return (
            apply_on_targets(op, x, targets, layout, True),
            apply_on_targets(op, f, targets, layout),
            partial_trace(x, targets, layout),
            partial_trace(x, targets, layout, weight),
            kron_rows(x, block),
        )

    stacked = kernels(stack, factors)
    for r in range(rows):
        rho = stack[r]
        want = (
            full @ rho @ full.conj().T,
            full @ factors[r],
            partial_trace(rho, targets, layout),
            partial_trace(full_weight @ rho, targets, layout),
        )
        for got, ref in zip(stacked, want):
            assert np.abs(got[r] - ref).max() <= TOL
        assert np.abs(stacked[4][r] - np.kron(rho, block)).max() <= TOL
        if d * block_dim > 1:  # the same products as np.kron (see `kron_rows`)
            assert np.array_equal(stacked[4][r], np.kron(rho, block))
        alone = kernels(stack[r : r + 1], factors[r : r + 1])
        assert all(np.array_equal(got[r], one[0]) for got, one in zip(stacked, alone))


def test_axis_plans_are_cached_per_dims_and_positions():
    rng = np.random.default_rng(7)
    first = RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    second = RegisterLayout.of(("x", 2), ("y", 3), ("z", 2))
    stack = np.stack([_density(rng, 12) for _ in range(3)])
    op = _ginibre(rng, 6)
    for plan, run in (
        (qmath._apply_plan, lambda lay, labs: apply_on_targets(op, stack, labs, lay, True)),
        (qmath._trace_plan, lambda lay, labs: partial_trace(stack, labs, lay)),
    ):
        plan.cache_clear()
        run(first, ["a", "b"])
        run(second, ["x", "y"])
        assert (plan.cache_info().hits, plan.cache_info().misses) == (1, 1)
        run(first, ["b", "a"])
        assert plan.cache_info().misses == 2
    assert qmath.layout_of(first.regs) is qmath.layout_of(first.regs)


# --- engine operations ---


def _engine(layout, rho):
    """An engine whose party "p" holds the (generally entangled) state rho,
    which no sequence of public allocations could prepare."""
    eng = ProtocolEngine("p")
    eng._layout = layout
    eng._owner = {lab: "p" for lab in layout.labels}
    eng._state = rho[None].copy()
    return eng


@KERNEL
@given(layouts_and_targets(), SEEDS)
def test_engine_ops_match_embedded_operators(case, seed):
    layout, targets = case
    rng = np.random.default_rng(seed)
    dt = math.prod(layout.dim(t) for t in targets)
    rho = _density(rng, layout.total_dim)

    op = _ginibre(rng, dt)
    eng = _engine(layout, rho)
    eng.apply_local("p", op, targets)
    full = embed_operator(op, targets, layout)
    assert np.abs(eng.state() - full @ rho @ full.conj().T).max() <= TOL

    p0 = _projector(rng, dt)
    full = embed_operator(p0, targets, layout)
    keep = [lab for lab in layout.labels if lab not in targets]
    want_p = float(np.trace(full @ rho).real)
    assert abs(_engine(layout, rho).probability("p", p0, targets) - want_p) <= TOL
    for bit, proj in enumerate((full, np.eye(layout.total_dim) - full)):
        want_p = float(np.trace(proj @ rho).real)
        if want_p < 1e-9:
            continue
        eng = _engine(layout, rho)
        got_bit, got_p = eng.measure_binary("p", p0, targets, forced=bit)
        assert got_bit == bit and abs(got_p - want_p) <= TOL
        want = partial_trace(proj @ rho @ proj, keep, layout)
        assert np.abs(eng.state() * got_p - want).max() <= TOL

    basis = random_unitary(dt, rng)
    projs = [projector(basis[:, k]) for k in range(dt)]
    fulls = [embed_operator(p, targets, layout) for p in projs]
    want = [float(np.trace(f @ rho).real) for f in fulls]
    idx = int(np.argmax(want))
    eng = _engine(layout, rho)
    _, got_p = eng.measure_projective("p", projs, targets, forced=idx)
    assert abs(got_p - want[idx]) <= TOL
    want = partial_trace(fulls[idx] @ rho @ fulls[idx], keep, layout)
    assert np.abs(eng.state() * got_p - want).max() <= TOL


# --- binary Bell measurements ---


def _dense_binary(joint, layout, p0, targets, keep):
    """The dense route: embedded {P0, 1 - P0}, sandwiched, then traced."""
    full = embed_operator(p0, targets, layout)
    out = []
    for proj in (full, np.eye(layout.total_dim) - full):
        num = proj @ joint @ proj
        prob = float(np.trace(num).real)
        out.append((prob, partial_trace(num, keep, layout) / prob))
    return out


def _assert_branches(got, want):
    for branch, (prob, post) in zip(got, want):
        assert abs(branch.probability - prob) <= TOL
        assert np.abs(branch.post_state.matrix - post).max() <= TOL


def _program(rng, d, kraus):
    """The program state of a Haar unitary or of a random 2-3 operator channel."""
    if not kraus:
        return choi_of(random_unitary(d, rng))
    count = int(rng.integers(2, 4))
    iso = random_unitary(d * count, rng)[:, :d]
    return choi_of(KrausChannel(tuple(iso[k * d : (k + 1) * d] for k in range(count))))


@PROTOCOL
@given(st.integers(2, 6), SEEDS, st.booleans())
def test_oqt_step_and_isi_match_dense_projectors(d, seed, kraus):
    rng = np.random.default_rng(seed)
    prog = _program(rng, d, kraus)
    rho = _density(rng, d)
    layout = RegisterLayout.of((OUT, d), (IN, d), (SYS, d))
    joint = np.kron(prog.density(), rho)
    want = _dense_binary(joint, layout, bell_projector(d), [IN, SYS], [OUT])
    _assert_branches(oqt_step(prog, rho), want)

    psi = random_statevector(d, rng)
    want = _dense_binary(prog.density(), prog.state.layout, projector(psi.conj()), [IN], [OUT])
    _assert_branches(isi_measure(prog, psi), want)


@PROTOCOL
@given(st.integers(2, 5), SEEDS, st.booleans())
def test_composition_layers_match_dense_projectors(d, seed, kraus):
    rng = np.random.default_rng(seed)
    p1, p2 = _program(rng, d, kraus), _program(rng, d, kraus)
    layout = RegisterLayout.of(("o1", d), ("i1", d), ("o2", d), ("i2", d))
    joint = np.kron(p1.density(), p2.density())
    want = _dense_binary(joint, layout, bell_projector(d), ["o1", "i2"], ["o2", "i1"])
    _assert_branches(oqt_compose_choi(p1, p2), want)

    u1, u2 = _program(rng, d, False), _program(rng, d, False)
    joint = np.kron(conjugate_program(u1).density(), u2.density())
    want = _dense_binary(joint, layout, bell_projector(d), ["o1", "o2"], ["i1", "i2"])
    _assert_branches(compose_programs(u1, u2), want)


@PROTOCOL
@given(st.lists(st.integers(2, 3), min_size=1, max_size=3), SEEDS, st.booleans())
def test_multiparty_binary_bell_matches_dense_projectors(dims, seed, kraus):
    if math.prod(d**3 for d in dims) > 1024:
        dims = dims[:2]
    rng = np.random.default_rng(seed)
    parts = [(_program(rng, d, kraus), _density(rng, d)) for d in dims]
    regs, joint, p0, targets, keep = [], np.ones((1, 1)), np.eye(1), [], []
    for k, (prog, rho) in enumerate(parts):
        d = prog.in_dim
        regs += [(f"out{k}", d), (f"in{k}", d), (f"s{k}", d)]
        joint = np.kron(joint, np.kron(prog.density(), rho))
        targets += [f"in{k}", f"s{k}"]
        keep.append(f"out{k}")
    layout = RegisterLayout(tuple(regs))
    full = np.eye(layout.total_dim)
    for k, (prog, _) in enumerate(parts):
        full = full @ embed_operator(bell_projector(prog.in_dim), [f"in{k}", f"s{k}"], layout)
    want = []
    for proj in (full, np.eye(layout.total_dim) - full):
        num = proj @ joint @ proj
        prob = float(np.trace(num).real)
        want.append((prob, partial_trace(num, keep, layout) / prob))
    _assert_branches(multiparty_binary_bell(parts), want)


# --- circuit knitting ---


def _dense_knit_terms(circuit):
    """Weights and full-circuit matrices A_K per cut assignment, and the uncut U."""
    layout, d = circuit.layout, circuit.local_dim
    basis = GeneralizedPauliBasis(d)
    slots = []
    for g in circuit.gates:
        labels = [f"q{t}" for t in g.targets]
        if not g.cut:
            slots.append([(1.0, embed_operator(g.matrix, labels, layout))])
            continue
        entries = []
        for i, j in itertools.product(range(d * d), repeat=2):
            pair = np.kron(basis.operators[i], basis.operators[j])
            w = np.vdot(pair, g.matrix) / (d * d)
            if abs(w) > 1e-14:
                entries.append((w, embed_operator(pair, labels, layout)))
        slots.append(entries)
    weights, mats = [], []
    for combo in itertools.product(*slots):
        w, total = 1.0 + 0.0j, np.eye(layout.total_dim)
        for wc, mat in combo:
            w, total = w * wc, mat @ total
        weights.append(w)
        mats.append(total)
    exact = np.eye(layout.total_dim)
    for g in circuit.gates:
        exact = embed_operator(g.matrix, [f"q{t}" for t in g.targets], layout) @ exact
    return np.array(weights), mats, exact


@st.composite
def knit_circuits(draw):
    """Random 2-3 qudit circuits with one or two cut gates (two only for qubits)."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(SEEDS))
    cuts = draw(st.integers(1, 2 if d == 2 else 1))
    gates = []
    for k in range(cuts + draw(st.integers(0, 2))):
        pair = [int(q) for q in rng.permutation(n)[:2]]
        if k < cuts:
            gates.append(KnitGate(random_unitary(d * d, rng), tuple(pair), cut=True))
        else:
            gates.append(KnitGate(_ginibre(rng, d), (pair[0],)))
    order = rng.permutation(len(gates))
    dim = d**n
    if draw(st.booleans()):
        state = random_statevector(dim, rng)
        rho = np.outer(state, state.conj())
    else:
        state = rho = _density(rng, dim)
    obs = _ginibre(rng, dim)
    obs = obs + obs.conj().T
    circuit = KnitCircuit(n, tuple(gates[k] for k in order), d, state)
    return circuit, rho, obs / np.linalg.norm(obs, 2), int(rng.integers(2**32))


@PROTOCOL
@given(knit_circuits())
def test_knit_estimate_matches_dense_double_sum(case):
    circuit, rho, obs, seed = case
    weights, mats, exact = _dense_knit_terms(circuit)
    mats = np.stack(mats)
    gram = mats.conj().reshape(len(mats), -1) @ (obs @ mats @ rho).reshape(len(mats), -1).T
    want = np.einsum("l,k,lk->", weights.conj(), weights, gram).real
    assert abs(knit_estimate(circuit, obs, mode="exact_sum").estimate - want) <= TOL

    mass = np.abs(weights).sum()  # the product of the cuts' one-norms
    values = mass * (weights / np.abs(weights) * [np.vdot(exact, obs @ m @ rho) for m in mats]).real
    res = knit_estimate(circuit, obs, mode="sampled", shots=50, rng=np.random.default_rng(seed))
    probs = np.abs(weights) / np.abs(weights).sum()
    idx = np.random.default_rng(seed).choice(len(weights), size=50, p=probs)
    assert np.array_equal(res.term_indices, idx)
    assert np.abs(res.per_shot - values[idx]).max() <= TOL
