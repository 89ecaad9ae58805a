"""Dense linear algebra kernel with labeled register layouts.

Conventions used throughout the package:

* composite indices are big-endian: the first register in a layout is the
  most significant digit of the basis index, so ``|i, j>`` on dims (dA, dB)
  sits at flat index ``i * dB + j`` and ``np.kron(A, B)`` acts on (A-reg,
  B-reg) in that order;
* everything is a dense complex128 ndarray;
* an operator on some registers of a layout is applied by contracting it
  with those registers' axes (`apply_on_targets`), and a measurement weight
  on the traced-out registers folds into `partial_trace`; neither ever
  builds the layout-sized operator. `embed_operator` builds that operator
  and is kept as the reference the contractions are tested against. The
  weighted trace is the one kernel of every measurement: the measured
  registers are traced out, weighted by the outcome's projector. A product
  of states is laid out for that trace by `traced_product`, which writes
  each entry np.kron would form straight into the traced order;
* a stack of states (B, D, D), one per branch, goes through the same
  kernels with a leading batch axis: `apply_on_targets` and `partial_trace`
  contract each row by the same matrix products, and `kron_rows` forms the
  products np.kron forms, so a row of a stack gets the bytes it gets alone.
  Their axis plans are cached per (dims, positions), and `layout_of` builds
  a layout once per register list;
* comparisons use an absolute elementwise tolerance, default ``EPS``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    DuplicateLabelError,
    UnknownLabelError,
)

EPS = 1e-10

# Dense capacity guards. MAX_ENTRIES bounds matrix element counts produced by
# tensor products; MAX_STATE_DIM bounds the total dimension of one register
# group. Both are module defaults and can be overridden per call.
MAX_ENTRIES = 1 << 20
MAX_STATE_DIM = 1 << 10


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def is_square(a: np.ndarray) -> bool:
    return a.ndim == 2 and a.shape[0] == a.shape[1]


# Entries near the float maximum overflow to inf or nan in the checks
# below, which then fail (`nan <= tol` is false); the overflow is silenced,
# so no warning is printed.
_OVERFLOW_FAILS = np.errstate(over="ignore", invalid="ignore")


@_OVERFLOW_FAILS
def is_unitary(a: np.ndarray, tol: float = EPS) -> bool:
    a = as_complex(a)
    if not is_square(a):
        return False
    d = a.shape[0]
    return bool(np.abs(a.conj().T @ a - np.eye(d)).max() <= tol)


@_OVERFLOW_FAILS
def is_hermitian(a: np.ndarray, tol: float = EPS) -> bool:
    a = as_complex(a)
    d = np.conjugate(a.T, order="C")  # a fresh array, which takes the difference
    return is_square(a) and bool(np.abs(np.subtract(a, d, out=d)).max() <= tol)


def is_psd(a: np.ndarray, tol: float = EPS) -> bool:
    if not is_hermitian(a, tol):
        return False
    w = np.linalg.eigvalsh(as_complex(a))
    return bool(w.min() >= -tol)


def _check_entries(entries: int, max_entries: int | None = None) -> None:
    cap = MAX_ENTRIES if max_entries is None else max_entries
    if entries > cap:
        raise CapacityError(
            f"tensor product would hold {entries} entries, capacity is {cap}"
        )


def tensor_product(a: np.ndarray, b: np.ndarray, max_entries: int | None = None) -> np.ndarray:
    """Kronecker product with a capacity guard on the result size."""
    a = as_complex(a)
    b = as_complex(b)
    _check_entries(a.size * b.size, max_entries)
    return np.kron(a, b)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered labeled registers; first label is the most significant digit.

    The labels, dims, total dimension and label -> index map are computed
    once, when the layout is made.
    """

    regs: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(lab for lab, _ in self.regs)
        dims = tuple(dim for _, dim in self.regs)
        positions = {lab: k for k, lab in enumerate(labels)}
        if len(positions) != len(labels):
            raise DuplicateLabelError(f"duplicate register label in {list(labels)}")
        for lab, dim in self.regs:
            if dim < 1:
                raise DimensionError(f"register {lab!r} has dimension {dim}")
        total_dim = math.prod(dims)
        if total_dim > MAX_STATE_DIM:
            raise CapacityError(
                f"layout dimension {total_dim} exceeds capacity {MAX_STATE_DIM}"
            )
        for name, value in (
            ("labels", labels), ("dims", dims), ("total_dim", total_dim), ("_positions", positions)
        ):
            object.__setattr__(self, name, value)

    @staticmethod
    def of(*regs: tuple[str, int]) -> "RegisterLayout":
        return RegisterLayout(tuple(regs))

    def __len__(self) -> int:
        return len(self.regs)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UnknownLabelError(f"no register {label!r} in layout {self.labels}") from None

    def dim(self, label: str) -> int:
        return self.regs[self.index(label)][1]

    def subset(self, labels) -> "RegisterLayout":
        return layout_of(tuple((lab, self.dim(lab)) for lab in labels))


@functools.lru_cache(maxsize=4096)
def layout_of(regs: tuple[tuple[str, int], ...]) -> RegisterLayout:
    """``RegisterLayout(regs)``, built once per register list (layouts are
    immutable, so one instance serves every caller)."""
    return RegisterLayout(regs)


def _positions(labels, layout: RegisterLayout) -> tuple[int, ...]:
    pos = tuple(layout.index(lab) for lab in labels)
    if len(set(pos)) != len(pos):
        raise DuplicateLabelError(f"repeated label in {list(labels)}")
    return pos


def _target_axes(op: np.ndarray, targets, layout: RegisterLayout) -> tuple[int, ...]:
    """Axes of ``targets`` (in the given order), after checking that ``op``
    fits them."""
    pos = _positions(targets, layout)
    tdim = math.prod(layout.dims[p] for p in pos)
    if op.shape != (tdim, tdim):
        raise DimensionError(
            f"operator shape {op.shape} does not match target dims product {tdim}"
        )
    return pos


def embed_operator(op: np.ndarray, targets, layout: RegisterLayout) -> np.ndarray:
    """Lift ``op`` acting on ``targets`` (in the given order) to the full layout.

    The order of ``targets`` fixes which register supplies which tensor factor
    of ``op``: the first target is the most significant digit of op's own
    index space. This is the dense reference for `apply_on_targets`.
    """
    op = as_complex(op)
    pos = list(_target_axes(op, targets, layout))
    rest = [k for k in range(len(layout)) if k not in pos]
    dims = [layout.dims[k] for k in pos + rest]
    full = tensor_product(op, np.eye(math.prod(dims) // op.shape[0]))
    axes = np.argsort(pos + rest).tolist()
    t = full.reshape(dims + dims).transpose(axes + [len(dims) + a for a in axes])
    d = layout.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


@functools.lru_cache(maxsize=4096)
def _apply_plan(dims: tuple, pos: tuple, conjugate: bool, lead: int) -> tuple[tuple, tuple]:
    """The transpose that moves the target axes ``pos`` of a state on
    ``dims`` to the front (with ``conjugate``, the column targets to the
    back), after ``lead`` batch axes, and its inverse."""
    n = len(dims)
    rest = [k for k in range(n) if k not in pos]
    if conjugate:
        axes = [*pos, *rest, *(n + k for k in rest), *(n + p for p in pos)]
    else:
        axes = [*pos, *rest, n]
    perm = tuple(range(lead)) + tuple(lead + a for a in axes)
    return perm, tuple(np.argsort(perm).tolist())


def apply_on_targets(
    op: np.ndarray, x: np.ndarray, targets, layout: RegisterLayout, conjugate: bool = False
) -> np.ndarray:
    """``op`` on ``targets`` (ordered as in `embed_operator`) applied to ``x``.

    ``x`` is a vector of the layout's dimension D, a matrix with D rows, or
    a stack (B, D, k) of such matrices; the result is (op ox 1) x. With
    ``conjugate`` it is a D x D matrix or a stack (B, D, D) of them, and the
    result is (op ox 1) x (op ox 1)^dag. The target axes move to the front
    (and, with ``conjugate``, the column targets to the back) in one
    transpose, ``op`` contracts with them by matrix products, and one
    transpose moves them back: O(D^2 d_op) work instead of O(D^3). A stack
    is contracted row by row by the same products as a single matrix.
    """
    op = as_complex(op)
    x = as_complex(x)
    pos = _target_axes(op, targets, layout)
    dims = layout.dims
    lead = x.shape[:1] if x.ndim == 3 else ()
    perm, inverse = _apply_plan(dims, pos, conjugate, len(lead))
    tdim = op.shape[0]
    if conjugate:
        t = x.reshape(lead + dims + dims).transpose(perm)
        y = (op @ t.reshape(lead + (tdim, -1))).reshape(lead + (-1, tdim)) @ op.conj().T
    else:
        t = x.reshape(lead + dims + (-1,)).transpose(perm)
        y = op @ t.reshape(lead + (tdim, -1))
    return y.reshape(t.shape).transpose(inverse).reshape(x.shape)


@functools.lru_cache(maxsize=4096)
def _trace_plan(dims: tuple, keep: tuple) -> tuple[tuple, int, int, int, np.ndarray]:
    """For a stack (B, D, D) on ``dims``: the transpose to (row, kept row
    digits, kept column digits, traced row digits, traced column digits),
    with kept registers in the order ``keep`` and traced ones in layout
    order; the kept and traced dimensions; the number of traced registers;
    and a read-only vector of ones over the traced dimension."""
    n = len(dims)
    drop = [k for k in range(n) if k not in keep]
    perm = (0, *(1 + p for p in keep), *(1 + n + p for p in keep),
            *(1 + p for p in drop), *(1 + n + p for p in drop))
    dd = math.prod(dims[p] for p in drop)
    ones = np.ones(dd, dtype=complex)
    ones.flags.writeable = False
    return perm, math.prod(dims[p] for p in keep), dd, len(drop), ones


def traced_rows(rho: np.ndarray, dims: tuple, plan: tuple, weight: np.ndarray | None = None):
    """`partial_trace` of a stack (B, D, D) on ``dims`` by ``plan`` (from
    `_trace_plan`), with ``weight`` the vector vec(W^T) of a weight W on the
    traced registers in layout order. Nothing is checked: the engine calls
    it on states it formed itself. Each row is one matrix-vector product of
    its transposed entries with vec(W^T), or of its traced diagonal entries
    with ones, so a row gets the bytes it gets alone."""
    perm, dk, dd, nd, ones = plan
    b = len(rho)
    t = rho.reshape((b,) + dims + dims).transpose(perm)
    if weight is not None:
        return (t.reshape(b, dk * dk, dd * dd) @ weight).reshape(b, dk, dk)
    first = len(perm) - 2 * nd  # only the traced diagonal is copied
    for i in range(nd):
        t = t.diagonal(axis1=first, axis2=first + nd - i)
    return (t.reshape(b, dk * dk, dd) @ ones).reshape(b, dk, dk)


@functools.lru_cache(maxsize=4096)
def _product_plan(dims: tuple, sizes: tuple, keep: tuple) -> tuple[tuple, tuple, tuple]:
    """For square factors of ``sizes`` on consecutive registers of ``dims``
    (a register of dimension 1 joins the factor before it): each factor's
    shape on the layout's row and column digits, 1 on the other factors'
    registers; the transpose of those digits to (kept rows, traced rows,
    kept columns, traced columns), kept in the order ``keep``; and the shape
    (dk, dd, dk, dd) of the product."""
    n = len(dims)
    shapes, first = [], 0
    for size in sizes:
        last = first
        while last < n and (math.prod(dims[first:last]) < size or dims[last] == 1):
            last += 1
        shapes.append(((1,) * first + dims[first:last] + (1,) * (n - last)) * 2)
        first = last
    if first != n or [math.prod(s) for s in shapes] != [size * size for size in sizes]:
        raise DimensionError(f"factor sizes {list(sizes)} do not tile the layout dims {dims}")
    order = [*keep, *(k for k in range(n) if k not in keep)]
    dk = math.prod(dims[p] for p in keep)
    return tuple(shapes), (*order, *(n + k for k in order)), (dk, math.prod(dims) // dk) * 2


def traced_product(factors, keep, layout: RegisterLayout) -> np.ndarray:
    """The product ``np.kron`` forms of the square ``factors`` (each on
    consecutive registers of ``layout``, in order), as a C-ordered array
    (dk, dd, dk, dd) of (kept row, traced row, kept column, traced column),
    kept registers in the order ``keep`` and traced ones in layout order.
    Each entry is the one product np.kron forms, written straight into that
    order, so no Kronecker product and no transposed copy of it is formed.
    `MAX_ENTRIES` caps the entries as in `tensor_product`, before anything
    is allocated. A 1 x 1 factor is multiplied in like any other,
    which need not keep the other factors' bytes, so callers pass none."""
    _check_entries(math.prod(np.size(f) for f in factors))
    sizes = tuple(len(f) for f in factors)
    shapes, perm, shape = _product_plan(layout.dims, sizes, _positions(keep, layout))
    t = None
    for f, where in zip(factors, shapes):
        v = as_complex(f).reshape(where).transpose(perm)
        t = v if t is None else np.multiply(t, v, order="C")
    return np.ascontiguousarray(t).reshape(shape)


def partial_trace(
    rho: np.ndarray, keep, layout: RegisterLayout, weight: np.ndarray | None = None
) -> np.ndarray:
    """Trace out everything except ``keep``; result is ordered as ``keep``.

    With ``weight``, an operator W on the traced-out registers in layout
    order, the result is tr_out((1 ox W) rho) instead, in O(D^2). ``rho`` is
    a D x D matrix, laid out by `traced_product`, or a stack (B, D, D)
    whose rows are traced alike by `traced_rows`.
    """
    rho = as_complex(rho)
    dims = layout.dims
    d = layout.total_dim
    if rho.shape[-2:] != (d, d) or rho.ndim not in (2, 3):
        raise DimensionError(f"state shape {rho.shape} does not match layout dim {d}")
    keep = list(keep)
    if rho.ndim == 3:
        plan = _trace_plan(dims, _positions(keep, layout))
        dd = plan[2]
        if weight is not None and weight.shape != (dd, dd):
            raise DimensionError(f"weight shape {weight.shape} does not match traced dim {dd}")
        vec = None if weight is None else as_complex(weight).T.reshape(-1)
        return traced_rows(rho, dims, plan, vec)
    t = traced_product([rho], keep, layout)
    dd = t.shape[1]
    if weight is None:
        return np.ascontiguousarray(np.trace(t, axis1=1, axis2=3))
    if weight.shape != (dd, dd):
        raise DimensionError(f"weight shape {weight.shape} does not match traced dim {dd}")
    return np.einsum("anbm,mn->ab", t, weight)


def kron_rows(rho: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``np.kron(row, block)`` for every row of a stack (B, D, D): the
    broadcast product np.kron itself forms, so the same bytes. Rows of 1 x 1
    times a 1 x 1 block are multiplied in real arithmetic instead, because
    numpy rounds a lone complex product unlike a run of them."""
    b, d = len(rho), rho.shape[-1] * block.shape[0]
    block = as_complex(block)
    if d > 1:
        return (rho[:, :, None, :, None] * block[:, None, :]).reshape(b, d, d)
    x, (y,) = rho.reshape(b), block[0]
    out = np.empty((b, 1, 1), dtype=complex)
    out.real.flat = x.real * y.real - x.imag * y.imag
    out.imag.flat = x.real * y.imag + x.imag * y.real
    return out


def permutation_to_layout(src: RegisterLayout, dst: RegisterLayout) -> np.ndarray:
    """Unitary relabeling matrix sending src-ordered coordinates to dst order."""
    if sorted(src.regs) != sorted(dst.regs):
        raise DimensionError("layouts are not permutations of each other")
    n = len(src)
    dims = src.dims
    d = src.total_dim
    perm = [src.index(lab) for lab in dst.labels]
    p = np.zeros((d, d))
    for flat in range(d):
        digits = []
        r = flat
        for dim in reversed(dims):
            digits.append(r % dim)
            r //= dim
        digits.reverse()
        out = 0
        for k in range(n):
            out = out * dims[perm[k]] + digits[perm[k]]
        p[out, flat] = 1.0
    return p


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via Gaussian QR with phase-fixed R diagonal."""
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(a)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_statevector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of the Frobenius distance ||a - e^{i phi} b||_F."""
    a = as_complex(a)
    b = as_complex(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    ov = abs(np.vdot(a, b))
    return math.sqrt(max(0.0, na + nb - 2.0 * ov))


def projector(vec: np.ndarray) -> np.ndarray:
    v = as_complex(vec).reshape(-1)
    return np.outer(v, v.conj())
