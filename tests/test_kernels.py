"""Contraction kernels against the dense `embed_operator` reference.

Every operation that acts on some registers of a larger state contracts
with those registers' axes. Each test here rebuilds the same result the
dense way: the operator lifted to the full layout by `embed_operator`,
applied by full matrix products, then traced. A stack of states, one per
branch, goes through the same kernels: each row must match the reference
and get the bytes it gets alone.
"""

import functools
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq.algorithms import compose_programs
from obliq.channels import IN, OUT, KrausChannel, choi_of, conjugate_program
from obliq import cli
from obliq import distributed as dist
from obliq.errors import CapacityError
from obliq.gates import named_gate
from obliq.distributed import KnitCircuit, KnitGate, ProtocolEngine, knit_estimate
from obliq.oblivious import (
    SYS,
    GeneralizedPauliBasis,
    _as_program,
    _bell_layer,
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
    """The weighted trace of a measurement (`traced_rows` with vec(W^T), W
    on the traced registers in layout order) against tr_out((1 ox W) rho)."""
    layout, keep = case
    rng = np.random.default_rng(seed)
    traced = [lab for lab in layout.labels if lab not in keep]
    weight = _ginibre(rng, math.prod(layout.dim(t) for t in traced))
    rho = _ginibre(rng, layout.total_dim)
    want = partial_trace(embed_operator(weight, traced, layout) @ rho, keep, layout)
    assert np.abs(_weighted(rho[None], keep, layout, weight)[0] - want).max() <= TOL


def _weighted(stack, keep, layout, weight):
    """`qmath.traced_rows` of ``stack`` keeping ``keep``, weighted by ``weight``."""
    plan = qmath._trace_plan(layout.dims, tuple(layout.index(lab) for lab in keep))
    return qmath.traced_rows(stack, layout.dims, plan, weight.T.reshape(-1))


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
            _weighted(x, targets, layout, weight),
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


def test_measurement_plans_are_cached_per_layout_and_labels():
    """A measurement's plan (positions, trace plans, the layout after it) is
    built once per (layout, labels) and shared by the outcome table, the
    collapse and `discard`; a basis forms its weights once per plan shape."""
    rng = np.random.default_rng(9)
    layout = RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    rho = _density(rng, 12)
    basis = dist._binary(_projector(rng, 6))
    dist._plan.cache_clear()
    table, branch = dist._measured(_engine(layout, rho), "p", basis, ["c", "b"])
    assert dist._plan.cache_info().misses == 1
    child = branch(np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
    assert child.layout == layout.subset(["a"])
    _engine(layout, rho).discard(["c", "b"])
    _engine(layout, rho).probability("p", _projector(rng, 6), ["c", "b"])
    assert (dist._plan.cache_info().hits, dist._plan.cache_info().misses) == (3, 1)
    _engine(layout, rho).discard(["b", "c"])
    assert dist._plan.cache_info().misses == 2
    plan = dist._plan(layout, ("c", "b"))
    assert basis.weights(plan) is basis.weights(plan)
    assert plan.reduce is qmath._trace_plan(layout.dims, (2, 1))
    assert plan.collapse is qmath._trace_plan(layout.dims, (0,))


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


# --- Bell layers by contraction ---


def _kraus_program(rng, d_in, d_out, count):
    """The program of a channel from ``d_in`` to ``d_out`` with ``count``
    Kraus operators (blocks of a Haar isometry); one square operator is a
    pure program."""
    if count == 1 and d_in == d_out:
        return choi_of(random_unitary(d_in, rng))
    count = max(count, -(-d_in // d_out))
    iso = random_unitary(d_out * count, rng)[:, :d_in]
    return choi_of(KrausChannel(tuple(iso[k * d_out : (k + 1) * d_out] for k in range(count))))


@st.composite
def bell_pairs(draw):
    """1-3 pairs (p1, p2), p1's out port of p2's in-port dimension x = 2-5.
    p1 is a system state (in port of dimension 1), a pure program (in port
    x) or a channel's with 1-3 Kraus operators (in port 2-5); p2 is pure
    (out port x) or a channel's (out port 2-5). A pair's largest free
    dimension shrinks, and p1 becomes a state, until the joint dimension
    leaves 8 for each pair still to come, so it is at most 1024."""
    rng = np.random.default_rng(draw(SEEDS))
    count = draw(st.integers(1, 3))
    pairs, joint = [], 1
    for k in range(count):
        kinds = draw(st.sampled_from(["state", "pure", "kraus"])), draw(st.sampled_from(["pure", "kraus"]))
        free = {"x": draw(st.integers(2, 5)), "a": draw(st.integers(2, 5)), "o": draw(st.integers(2, 5))}

        def dims():
            x = free["x"]
            a = {"state": 1, "pure": x}.get(kinds[0], free["a"])
            return a, x, x if kinds[1] == "pure" else free["o"]

        limit = 1024 // (joint * 8 ** (count - 1 - k))
        while math.prod(dims()) * free["x"] > limit:
            ports = {"x": True, "a": kinds[0] == "kraus", "o": kinds[1] == "kraus"}
            shrink = [v for v, own in ports.items() if own and free[v] > 2]
            if shrink:
                free[max(shrink, key=free.get)] -= 1
            else:
                kinds = "state", kinds[1]
        a, x, o = dims()
        joint *= a * x * x * o
        if kinds[0] == "state":
            p1 = _as_program(_density(rng, x) if draw(st.booleans()) else random_statevector(x, rng))
        else:
            p1 = _kraus_program(rng, a, x, 1 if kinds[0] == "pure" else draw(st.integers(1, 3)))
        pairs.append((p1, _kraus_program(rng, x, o, 1 if kinds[1] == "pure" else draw(st.integers(1, 3)))))
    return pairs


@PROTOCOL
@given(bell_pairs())
def test_bell_layer_matches_the_dense_product_projector(pairs):
    """Both branches of a layer against np.kron of every program state, the
    explicit product of the pairs' Bell projectors, and `partial_trace`."""
    regs, keep = [], []
    for k, (p1, p2) in enumerate(pairs):
        regs += [(f"o1.{k}", p1.out_dim), (f"i1.{k}", p1.in_dim)]
        regs += [(f"o2.{k}", p2.out_dim), (f"i2.{k}", p2.in_dim)]
        keep += [f"o2.{k}", f"i1.{k}"] if p1.in_dim > 1 else [f"o2.{k}"]
    layout = RegisterLayout(tuple(regs))
    joint = functools.reduce(np.kron, [p.density() for pair in pairs for p in pair])
    p0 = functools.reduce(np.kron, [bell_projector(p2.in_dim) for _, p2 in pairs])
    links = [lab for k in range(len(pairs)) for lab in (f"o1.{k}", f"i2.{k}")]
    full = embed_operator(p0, links, layout)
    pj = full @ joint
    pjp = pj @ full
    want = []
    for num in (pjp, joint - pj - pj.conj().T + pjp):  # P J P and (1 - P) J (1 - P)
        prob = float(np.trace(num).real)
        want.append((prob, partial_trace(num, keep, layout) / prob))
    got = _bell_layer(pairs, [f"r{k}" for k in range(len(keep))])
    _assert_branches(got, want)
    assert got[0].post_state.layout.dims == tuple(layout.dim(lab) for lab in keep)


def test_channel_composition_bytes_are_pinned_past_qubits():
    """Both branches of composing two random channel programs at d = 3, 4
    and 5, down to the byte: the Bell layer's contraction and summation
    order, which the CLI's d = 2 composition digest alone pins."""
    digest = hashlib.sha256()
    for d in (3, 4, 5):
        rng = np.random.default_rng(d)
        p1, p2 = _program(rng, d, True), _program(rng, d, True)
        for branch in oqt_compose_choi(p1, p2):
            digest.update(np.float64(branch.probability).tobytes())
            digest.update(branch.post_state.matrix.tobytes())
    assert digest.hexdigest() == "64605e8ec98f30fdf55a0060ac8d2ed5da6dbe1e67586acfeb2734f5b4071b67"


def test_composition_at_d5_holds_one_product_array():
    """Composing two channel programs at d = 5 (joint dimension 625) peaks
    below 256 KB: only the kept 25 x 25 branches and the pairs' reshaped
    copies are formed, never the 625 x 625 product (6.25 MB)."""
    rng = np.random.default_rng(11)
    p1, p2 = _program(rng, 5, True), _program(rng, 5, True)
    oqt_compose_choi(p1, p2)  # layouts are cached
    tracemalloc.start()
    try:
        oqt_compose_choi(p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_bell_layer_over_entry_capacity_allocates_nothing(monkeypatch):
    """The layer checks its kept state against `MAX_ENTRIES` before it
    forms any array."""
    rng = np.random.default_rng(4)
    p1, p2 = _program(rng, 5, True), _program(rng, 5, True)
    monkeypatch.setattr(qmath, "MAX_ENTRIES", 25**2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="would hold 625 entries, capacity is 624"):
            oqt_compose_choi(p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# --- partial traces ---


def _parent_layout(factors, keep, layout):
    """np.kron of the factors, then a transposed C-ordered copy in (kept,
    traced, kept, traced) order: the array `partial_trace` traces."""
    dims, n = layout.dims, len(layout)
    keep_pos = [layout.index(lab) for lab in keep]
    perm = keep_pos + [k for k in range(n) if k not in keep_pos]
    joint = functools.reduce(np.kron, factors)
    t = joint.reshape(dims + dims).transpose(perm + [n + p for p in perm])
    dk = math.prod(dims[p] for p in keep_pos)
    return np.ascontiguousarray(t.reshape(dk, layout.total_dim // dk, dk, -1))


def _traced(factors, keep, layout):
    return np.ascontiguousarray(np.trace(_parent_layout(factors, keep, layout), axis1=1, axis2=3))


@st.composite
def product_cases(draw):
    """1-3 factors, each a pure or mixed program on (out, in) or a system
    density, with d = 2-5 and a product of dimension at most 1024, and a
    kept register list in any order."""
    rng = np.random.default_rng(draw(SEEDS))
    factors, regs = [], []
    for k in range(draw(st.integers(1, 3))):
        d = draw(st.integers(2, 5))
        program = draw(st.booleans())
        if math.prod(dim for _, dim in regs) * d ** (2 if program else 1) > 1024:
            break
        if program:
            factors.append(_program(rng, d, draw(st.booleans())).density())
            regs += [(f"o{k}", d), (f"i{k}", d)]
        else:
            factors.append(_density(rng, d))
            regs.append((f"s{k}", d))
    layout = RegisterLayout(tuple(regs))
    keep = draw(st.permutations(layout.labels))[: draw(st.integers(0, len(regs)))]
    return factors, list(keep), layout


@KERNEL
@given(product_cases())
def test_partial_trace_is_the_trace_of_the_transposed_kron_bytewise(case):
    factors, keep, layout = case
    got = partial_trace(functools.reduce(np.kron, factors), keep, layout)
    want = _traced(factors, keep, layout)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_partial_trace_takes_every_keep_order_bytewise():
    rng = np.random.default_rng(3)
    factors = [_program(rng, 3, True).density(), _density(rng, 2), _program(rng, 2, False).density()]
    joint = functools.reduce(np.kron, factors)
    layout = RegisterLayout.of(("o0", 3), ("i0", 3), ("s1", 2), ("o2", 2), ("i2", 2))
    for size in range(len(layout) + 1):
        for keep in itertools.permutations(layout.labels, size):
            want = _traced(factors, keep, layout)
            assert partial_trace(joint, keep, layout).tobytes() == want.tobytes()


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


def _cut_laws(circuit):
    """Each cut's law |c_i| / sum |c| over its nonzero Pauli pairs, in cut
    order, the coefficients c_i = tr(P_i^dag G) / d^2 formed pair by pair."""
    d = circuit.local_dim
    pairs = [np.kron(a, b) for a, b in itertools.product(GeneralizedPauliBasis(d).operators, repeat=2)]
    laws = []
    for g in (g for g in circuit.gates if g.cut):
        w = np.abs([np.vdot(p, g.matrix) / (d * d) for p in pairs])
        laws.append(w[w > 1e-14] / w[w > 1e-14].sum())
    return laws


def _drawn_terms(circuit, shots, rng):
    """Each shot's term index, each cut's pair drawn by ``rng.choice`` over
    its law in cut order: the mixed radix over each cut's nonzero pairs,
    first cut most significant."""
    idx = np.zeros(shots, dtype=np.int64)
    for law in _cut_laws(circuit):
        idx = idx * len(law) + rng.choice(len(law), size=shots, p=law)
    return idx


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
    idx = _drawn_terms(circuit, 50, np.random.default_rng(seed))
    assert np.array_equal(res.rows["knit_term_index"][res.row_of_shot], idx)
    assert np.abs(res.rows["value"][res.row_of_shot] - values[idx]).max() <= TOL


def _stacked_knit_terms(circuit):
    """Every term of the knitting sum, in `itertools.product` order over
    each cut's nonzero Pauli pairs: the weights w_K and the full-circuit
    matrices A_K as one (T, D, D) stack, built a gate at a time."""
    layout, d = circuit.layout, circuit.local_dim
    basis = GeneralizedPauliBasis(d)
    weights, mats = np.ones(1, dtype=complex), np.eye(layout.total_dim, dtype=complex)[None]
    for g in circuit.gates:
        labels = [f"q{t}" for t in g.targets]
        if not g.cut:
            mats = embed_operator(g.matrix, labels, layout) @ mats
            continue
        pairs = [np.kron(a, b) for a, b in itertools.product(basis.operators, repeat=2)]
        coeff = np.array([np.vdot(p, g.matrix) / (d * d) for p in pairs])
        nz = np.flatnonzero(np.abs(coeff) > 1e-14)
        lifted = np.stack([embed_operator(pairs[i], labels, layout) for i in nz])
        weights = (weights[:, None] * coeff[nz][None, :]).ravel()
        mats = (lifted[None] @ mats[:, None]).reshape(-1, *mats.shape[1:])
    return weights, mats


def _knit_case(d, n, cuts, mixed, seed):
    """A random circuit: ``cuts`` Haar two-qudit cut gates between random
    one-qudit gates, a pure or mixed input, and a unit-norm observable."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(cuts):
        gates.append(KnitGate(random_unitary(d, rng), (int(rng.integers(n)),)))
        pair = tuple(int(q) for q in rng.permutation(n)[:2])
        gates.append(KnitGate(random_unitary(d * d, rng), pair, cut=True))
    dim = d**n
    if mixed:
        state = rho = _density(rng, dim)
    else:
        state = random_statevector(dim, rng)
        rho = np.outer(state, state.conj())
    obs = _ginibre(rng, dim)
    obs = obs + obs.conj().T
    return KnitCircuit(n, tuple(gates), d, state), rho, obs / np.linalg.norm(obs, 2)


KNIT_CASES = [
    (d, n, cuts, mixed)
    for d, n, top in ((2, 2, 4), (2, 3, 3), (3, 2, 2))
    for cuts in range(1, top + 1)
    for mixed in (False, True)
]


def _pauli_cut_case(haar_first=False):
    """Three qubits: a cut X (x) Z (one nonzero pair), then a cut CZ (four);
    with ``haar_first``, a Haar cut (sixteen) before them."""
    rng = np.random.default_rng(31)
    gates = (KnitGate(np.kron(named_gate("X"), named_gate("Z")), (0, 2), cut=True),
             KnitGate(random_unitary(2, rng), (1,)), KnitGate(named_gate("CZ"), (1, 2), cut=True))
    if haar_first:
        gates = (KnitGate(random_unitary(4, rng), (0, 1), cut=True),) + gates
    state = random_statevector(8, rng)
    obs = _ginibre(rng, 8)
    obs = obs + obs.conj().T
    return KnitCircuit(3, gates, 2, state), np.outer(state, state.conj()), obs / np.linalg.norm(obs, 2)


@pytest.mark.parametrize(
    "d, n, cuts, mixed, shots",
    [case + (400,) for case in KNIT_CASES] + [(2, 3, "pauli", False, 400)]
    + [(2, 3, "haar-pauli", False, shots) for shots in (1, 10)],
)
def test_knit_by_cut_matches_the_enumerated_terms(d, n, cuts, mixed, shots):
    """Both modes against every term enumerated: the exact value is
    sum_lk conj(w_l) w_k tr(A_l^dag O A_k rho), each drawn term is the one
    that ``rng.choice`` over each cut's |c_i| draws, cut by cut, on the same
    generator (which ends in the same state), and each shot's value is
    mass * Re(phase_K tr(U^dag O A_K rho)), all within 1e-12. The last
    cases have a cut of one nonzero pair, there also after a Haar cut whose
    16 pairs outnumber the shots."""
    if isinstance(cuts, str):
        seed, (circuit, rho, obs) = 5, _pauli_cut_case(haar_first=cuts == "haar-pauli")
    else:
        seed = 1000 * d + 100 * n + 10 * cuts + mixed
        circuit, rho, obs = _knit_case(d, n, cuts, mixed, seed)
    weights, mats = _stacked_knit_terms(circuit)
    total = np.tensordot(weights, mats, axes=1)
    want = np.trace(total.conj().T @ obs @ total @ rho).real
    assert abs(knit_estimate(circuit, obs, mode="exact_sum").estimate - want) <= TOL

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    res = knit_estimate(circuit, obs, mode="sampled", shots=shots, rng=rng)
    idx = _drawn_terms(circuit, shots, ref_rng)
    assert np.array_equal(res.rows["knit_term_index"][res.row_of_shot], idx)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    uncut = KnitCircuit(n, tuple(KnitGate(g.matrix, g.targets) for g in circuit.gates), d)
    _, (u,) = _stacked_knit_terms(uncut)
    drawn = mats[idx]
    mass = np.abs(weights).sum()
    values = mass * (weights[idx] / np.abs(weights[idx]) * np.trace(u.conj().T @ obs @ drawn @ rho, axis1=1, axis2=2)).real
    assert np.abs(res.rows["value"][res.row_of_shot] - values).max() <= TOL


def test_knit_sampled_keeps_every_cut_on_its_law():
    """40,000 shots of 15 Haar cuts on two qubits, 16^15 = 2^60 terms, past
    the 53 bits of one uniform: every cut's count of each of its pairs lies
    within 6 sigma of its law |c_i| / sum |c|, the last cut's as the
    first's."""
    shots, rng = 40_000, np.random.default_rng(15)
    circuit = KnitCircuit(2, tuple(KnitGate(random_unitary(4, rng), (0, 1), cut=True) for _ in range(15)))
    obs = _ginibre(rng, 4)
    res = knit_estimate(circuit, obs + obs.conj().T, mode="sampled", shots=shots, rng=rng)
    laws = _cut_laws(circuit)
    pairs = np.unravel_index(res.rows["knit_term_index"][res.row_of_shot], [len(law) for law in laws])
    for t, (law, drawn) in enumerate(zip(laws, pairs)):
        counts = np.bincount(drawn, minlength=len(law))
        assert (np.abs(counts - shots * law) <= 6 * np.sqrt(shots * law * (1 - law))).all(), t


@pytest.mark.parametrize("shots", [1, 7, 1000])
def test_knit_sampled_propagates_only_the_distinct_drawn_prefixes(monkeypatch, shots):
    """Four Haar cuts (16 pairs each, 65,536 terms), each followed by a
    one-qubit gate: the gate after cut t acts on one row per distinct drawn
    prefix of t + 1 pairs, at most min(shots, 16^(t+1))."""
    rng = np.random.default_rng(7)
    v = random_unitary(2, rng)
    gates = [KnitGate(g, (0, 1), cut=True) for g in (random_unitary(4, rng) for _ in range(4))]
    circuit = KnitCircuit(2, tuple(x for g in gates for x in (g, KnitGate(v, (0,)))))
    obs = _ginibre(rng, 4)
    rows = []

    def counted(op, x, *args, **kwargs):
        if op is v and x.ndim == 3:
            rows.append(len(x))
        return apply_on_targets(op, x, *args, **kwargs)

    monkeypatch.setattr(dist, "apply_on_targets", counted)
    res = knit_estimate(circuit, obs + obs.conj().T, mode="sampled", shots=shots, rng=np.random.default_rng(8))
    prefixes = [len(set((res.rows["knit_term_index"] // 16 ** (3 - t)).tolist())) for t in range(4)]
    assert rows[:4] == prefixes  # the drawn terms; the uncut circuit follows on one row
    assert rows[4:] == [1] * 4
    assert all(r <= min(shots, 16 ** (t + 1)) for t, r in enumerate(rows[:4]))


def test_knit_sampled_memory_is_set_by_the_shots_not_the_pairs():
    """Three Haar cuts on two ququarts (256 nonzero pairs each), 5,000 shots:
    a table of every (prefix, pair) code at the third cut would hold 5,000 x
    256 codes, 11.5 MB with its int64 rank; the taken codes alone are ranked
    instead, and the peak stays near the 5,000 propagated 16-entry factors."""
    rng = np.random.default_rng(9)
    circuit = KnitCircuit(2, tuple(KnitGate(random_unitary(16, rng), (0, 1), cut=True) for _ in range(3)), 4)
    obs = _ginibre(rng, 16)
    obs = obs + obs.conj().T
    knit_estimate(circuit, obs, mode="sampled", shots=10, rng=np.random.default_rng(1))
    tracemalloc.start()
    try:
        res = knit_estimate(circuit, obs, mode="sampled", shots=5000, rng=np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set((res.rows["knit_term_index"] // 256).tolist())) > 4000  # distinct two-cut prefixes
    assert peak < 8_000_000


def test_script_walk_memory_is_set_by_the_leaves_not_the_shots():
    """`cli._run_script` on the shipped `script-teleport` at 200,000 shots
    (two draws each) peaks under 16 MB: the walk keeps one outcome row,
    path probability and finish value per leaf (4 here) and carries only
    each shot's row and index down a level. Per-shot outcome, probability
    and value columns took it to 20.8 MB."""
    raw = cli.load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "script-teleport.json")
    cli._run_script(cli.validate_scenario({**raw, "shots": 10}), np.random.default_rng(1))  # plans are cached
    sc = cli.validate_scenario({**raw, "shots": 200_000})
    tracemalloc.start()
    try:
        _, _, _, rows, row_of_shot = cli._run_script(sc, np.random.default_rng(sc["seed"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows["readout"]) == 4 and len(row_of_shot) == 200_000
    assert peak < 16_000_000
