"""Higher-order operations acting on program states.

A comb with a pre-circuit U1, a memory register, and a post-circuit U2
transforms program states directly: its Kraus operators act on the (out, in)
port pair without ever decoding the program. Also here: controlled channels
through dilations, the channel-trace readout, and sequential composition of
channel programs by the binary Bell layer `oblivious._bell_layer`, the one
an OQT step runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algorithms import dqc1
from .channels import (
    ChoiProgram,
    IN,
    KrausChannel,
    OUT,
    stinespring_dilation,
)
from .errors import DimensionError, StateValidationError
from .oblivious import BinaryBranch, _bell_layer
from .qmath import (
    RegisterLayout,
    as_complex,
    dagger,
    embed_operator,  # noqa: F401  (a module binding the layer probes in bench/ wrap)
    is_unitary,
    tensor_product,
)
from .states import MixedState


@dataclass(frozen=True)
class Superchannel:
    """Program-state transformer built from two unitaries and a memory.

    u1 acts on (memory, in-leg space) seeded with memory |0>; u2 acts on
    (memory, out-leg space) and its readout index mu labels the Kraus
    operators. Both matrices are stored with the memory factor most
    significant.
    """

    u1: np.ndarray
    u2: np.ndarray
    memory_dim: int

    def __post_init__(self):
        u1 = as_complex(self.u1)
        u2 = as_complex(self.u2)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "u2", u2)
        if self.memory_dim < 1:
            raise DimensionError(f"memory dim must be >= 1, got {self.memory_dim}")
        for name, u in (("u1", u1), ("u2", u2)):
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise DimensionError(f"{name} must be square")
            if u.shape[0] % self.memory_dim != 0:
                raise DimensionError(
                    f"{name} dim {u.shape[0]} not divisible by memory {self.memory_dim}"
                )
            if not is_unitary(u, 1e-9):
                raise StateValidationError(f"{name} is not unitary")

    @property
    def in_dim(self) -> int:
        return self.u1.shape[0] // self.memory_dim

    @property
    def out_dim(self) -> int:
        return self.u2.shape[0] // self.memory_dim


def superchannel_kraus(sc: Superchannel) -> list[np.ndarray]:
    """Kraus operators S_mu = sum_m <mu|u2|m> ox <m|u1|0> on (out, in).

    The u2 blocks are indexed with mu as the row so that unitarity of u2
    closes the completeness sum; this is checked numerically.
    """
    k = sc.memory_dim
    din, dout = sc.in_dim, sc.out_dim
    b = [sc.u1[m * din : (m + 1) * din, 0:din] for m in range(k)]
    ops = []
    for mu in range(k):
        s = np.zeros((dout * din, dout * din), dtype=complex)
        for m in range(k):
            a = sc.u2[mu * dout : (mu + 1) * dout, m * dout : (m + 1) * dout]
            s += tensor_product(a, b[m])
        ops.append(s)
    total = sum(dagger(s) @ s for s in ops)
    if np.abs(total - np.eye(dout * din)).max() > 1e-9:
        raise StateValidationError("superchannel Kraus set is not complete")
    return ops


def apply_superchannel(sc: Superchannel, program: ChoiProgram) -> ChoiProgram:
    """Transform a program state: rho -> sum_mu S_mu rho S_mu^dag."""
    if program.in_dim != sc.in_dim or program.out_dim != sc.out_dim:
        raise DimensionError(
            f"program ports ({program.out_dim},{program.in_dim}) do not match "
            f"superchannel ({sc.out_dim},{sc.in_dim})"
        )
    ops = superchannel_kraus(sc)
    rho = program.density()
    out = np.zeros_like(rho)
    for s in ops:
        out += s @ rho @ dagger(s)
    layout = RegisterLayout.of((OUT, sc.out_dim), (IN, sc.in_dim))
    return ChoiProgram(MixedState(layout, out))


def pre_post_superchannel(pre: np.ndarray, post: np.ndarray) -> Superchannel:
    """Memoryless comb composing a fixed circuit before and after the program.

    The in leg of a program state transforms with the transpose of the
    pre-circuit, so u1 stores pre^T; applying the comb to the program of U
    yields the program of post @ U @ pre.
    """
    pre = as_complex(pre)
    post = as_complex(post)
    return Superchannel(u1=pre.T, u2=post, memory_dim=1)


def _dilation_of(entry, ancilla_dim: int | None):
    if isinstance(entry, KrausChannel):
        return stinespring_dilation(entry, ancilla_dim=ancilla_dim)
    if isinstance(entry, tuple):
        u, anc = entry
        u = as_complex(u)
        if not is_unitary(u, 1e-9):
            raise StateValidationError("explicit dilation is not unitary")
        return u, int(anc)
    u = as_complex(entry)
    if not is_unitary(u, 1e-9):
        raise StateValidationError("unitary channel entry is not unitary")
    if ancilla_dim is None or ancilla_dim == 1:
        return u, 1
    return tensor_product(np.eye(ancilla_dim), u), ancilla_dim


def controlled_channel_superpose(
    coefficients: Sequence[complex],
    channels: Sequence,
    rho: MixedState | np.ndarray,
) -> np.ndarray:
    """Interference pattern of a coefficient-weighted channel superposition.

    Each channel enters through a dilation unitary on a shared ancilla;
    the result is tr_anc(Ct (rho_a ox rho) Ct^dag) for
    Ct = sum_i c_i U_i / l1, carrying both the diagonal channel terms and
    the cross terms, with the ancilla prepared in |0>. PSD with trace <= 1;
    the trace equals the success probability of the matching combination
    circuit.
    """
    if len(coefficients) != len(channels):
        raise DimensionError("one coefficient per channel is required")
    if not channels:
        raise DimensionError("empty superposition")
    kraus_counts = [
        len(e.kraus) if isinstance(e, KrausChannel) else None for e in channels
    ]
    declared = [e[1] for e in channels if isinstance(e, tuple)]
    anc_dim = max(
        [c for c in kraus_counts if c is not None] + declared + [1]
    )
    dilations = [_dilation_of(e, anc_dim) for e in channels]
    dims = {anc for _, anc in dilations}
    if len(dims) != 1:
        raise DimensionError(f"mismatched ancilla dims {sorted(dims)}")
    anc_dim = dims.pop()
    rho_m = rho.matrix if isinstance(rho, MixedState) else as_complex(rho)
    d = rho_m.shape[0]
    for u, _ in dilations:
        if u.shape[0] != anc_dim * d:
            raise DimensionError("dilation dim does not match system dim")
    anc_vec = np.zeros(anc_dim, dtype=complex)
    anc_vec[0] = 1.0
    l1 = float(sum(abs(complex(c)) for c in coefficients))
    if l1 < 1e-14:
        raise DimensionError("all coefficients vanish")
    ct = sum(
        (complex(c) / l1) * u for c, (u, _) in zip(coefficients, dilations)
    )
    joint = tensor_product(np.outer(anc_vec, anc_vec.conj()), rho_m)
    moved = ct @ joint @ dagger(ct)
    layout = RegisterLayout.of(("anc", anc_dim), ("sys", d))
    from .qmath import partial_trace

    return partial_trace(moved, ["sys"], layout)


def dqc1_channel_trace(dilation, rho: MixedState | np.ndarray, axis) -> float:
    """Trace readout of a channel's leading Kraus operator.

    Runs the one-clean-qubit circuit with the controlled dilation on
    (ancilla |0>, data rho); the outcome-0 probability carries
    tr(K0 rho) for K0 = <0|U|0>.
    """
    u, anc_dim = _dilation_of(dilation, None)
    rho_m = rho.matrix if isinstance(rho, MixedState) else as_complex(rho)
    d = rho_m.shape[0]
    if u.shape[0] != anc_dim * d:
        raise DimensionError("dilation dim does not match system dim")
    anc0 = np.zeros((anc_dim, anc_dim), dtype=complex)
    anc0[0, 0] = 1.0
    return dqc1(u, tensor_product(anc0, rho_m), axis)


def oqt_compose_choi(p1: ChoiProgram, p2: ChoiProgram) -> tuple[BinaryBranch, BinaryBranch]:
    """Sequential composition of channel programs by one binary Bell layer.

    Pairing p1's out port with p2's in port leaves, on the trivial branch,
    the program state of the composite (p2 after p1) on the outer ports;
    works verbatim for mixed (channel) programs.
    """
    return _bell_layer([(p1, p2)], [OUT, IN])
