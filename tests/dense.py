"""A dense reference for script scenarios, used by tests only.

`run` interprets every script op on one density matrix over all live
registers, with ``np.kron``, `qmath.embed_operator` and plain partial
traces, and enumerates every outcome pattern. A `bell_measure_qt` is the
real Bell measurement of the state and the near ebit half, in the basis
(sigma_k x I)|omega>, then sigma_k on the far half. A `remote_cnot` is the
cat-entangler: CNOT onto the near half, its Z measurement (m1), X^m1 on the
far half, the controlled X from the far half onto the target, the far
half's X measurement (m2), then Z^m2 on the control. With ``ideal``, a
teleportation is the identity channel onto the far half and a remote CNOT
is the CNOT itself, neither with an outcome: the circuit those oblivious
primitives stand for.

It shares no code with `distributed.ProtocolEngine`, and it trusts its
script: run only scripts that validation accepts. Its joint dimension is
capped at `MAX_DIM`, since it is a reference and not a runner.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from obliq.cli import state_from_literal
from obliq.gates import gate_from_literal
from obliq.qmath import RegisterLayout, embed_operator

MAX_DIM = 64


class TooWide(Exception):
    """The script's joint dimension passes `MAX_DIM`."""


class Branch(NamedTuple):
    """One outcome pattern of a script."""

    pattern: tuple  # each draw's outcome, in step order
    laws: tuple  # each draw's (op, law of its outcomes given the draws before it)
    regs: tuple  # the live (label, dim), in the order of rho's tensor factors
    rho: np.ndarray  # unnormalized: its trace is the pattern's probability

    @property
    def probability(self) -> float:
        return float(np.trace(self.rho).real)


def _omega(d: int) -> np.ndarray:
    return np.eye(d).reshape(-1) / math.sqrt(d)


def _paulis(d: int) -> list[np.ndarray]:
    """X^a Z^b at index a d + b, X|j> = |j+1>, Z|j> = e^(2 pi i j/d)|j>."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(d) for b in range(d)]


def _ket(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _alloc(b: Branch, regs, block: np.ndarray) -> Branch:
    regs = b.regs + tuple(regs)
    if math.prod(d for _, d in regs) > MAX_DIM:
        raise TooWide(regs)
    return b._replace(regs=regs, rho=np.kron(b.rho, block))


def _apply(b: Branch, op: np.ndarray, labels) -> Branch:
    full = embed_operator(op, list(labels), RegisterLayout(b.regs))
    return b._replace(rho=full @ b.rho @ full.conj().T)


def trace_out(rho: np.ndarray, regs, labels) -> tuple[np.ndarray, tuple]:
    """rho with the registers ``labels`` traced out, and the registers left."""
    dims = [d for _, d in regs]
    keep = [k for k, (lab, _) in enumerate(regs) if lab not in labels]
    drop = [k for k, (lab, _) in enumerate(regs) if lab in labels]
    n = len(regs)
    t = rho.reshape(dims + dims).transpose(keep + drop + [n + k for k in keep] + [n + k for k in drop])
    kd, td = math.prod(dims[k] for k in keep), math.prod(dims[k] for k in drop)
    return np.einsum("atbt->ab", t.reshape(kd, td, kd, td)), tuple(regs[k] for k in keep)


def _measure(branches, op: str, projectors, labels) -> list[Branch]:
    """Each branch's children, one per projector on ``labels``, which the
    measurement consumes."""
    out = []
    for b in branches:
        total = b.probability
        children = []
        for proj in projectors:
            rho, regs = trace_out(_apply(b, proj, labels).rho, b.regs, labels)
            children.append((regs, rho))
        law = tuple(float(np.trace(rho).real) / total for _, rho in children)
        for k, (regs, rho) in enumerate(children):
            out.append(Branch(b.pattern + (k,), b.laws + ((op, law),), regs, rho))
    return out


def _binary(p0: np.ndarray) -> tuple:
    return p0, np.eye(len(p0)) - p0


def run(raw: dict, ideal: bool = False) -> list[Branch]:
    """Every outcome pattern of the script ``raw`` (its JSON form), with its
    probability and post-measurement state."""
    branches = [Branch((), (), (), np.ones((1, 1), dtype=complex))]
    owner, ebits = {}, {}
    for step in raw["steps"]:
        op = step["op"]
        if op == "prepare_state":
            owner[step["label"]] = step["party"]
            block = _ket(state_from_literal(step["state"]))
            branches = [_alloc(b, [(step["label"], len(block))], block) for b in branches]
        elif op == "prepare_program":
            u = gate_from_literal(step["gate"])
            d = len(u)
            out, inp = step["out_label"], step["in_label"]
            owner[out] = owner[inp] = step["party"]
            block = _ket(np.kron(u, np.eye(d)) @ _omega(d))
            branches = [_alloc(b, [(out, d), (inp, d)], block) for b in branches]
        elif op == "local_gate":
            gate = gate_from_literal(step["gate"])
            branches = [_apply(b, gate, step["labels"]) for b in branches]
        elif op == "distribute_ebit":
            d, la, lb = step.get("dim", 2), step["label_a"], step["label_b"]
            owner[la], owner[lb] = step["party_a"], step["party_b"]
            ebits[step["resource"]] = (la, lb)
            branches = [_alloc(b, [(la, d), (lb, d)], _ket(_omega(d))) for b in branches]
        elif op == "isi_inject":
            p0 = _ket(np.conj(state_from_literal(step["state"])))
            branches = _measure(branches, op, _binary(p0), [step["in_label"]])
        elif op == "oqt_link":
            d = dict(branches[0].regs)[step["labels"][0]]
            branches = _measure(branches, op, _binary(_ket(_omega(d))), step["labels"])
        elif op == "final_measure":
            p0 = _ket(state_from_literal(step["state"]))
            branches = _measure(branches, op, _binary(p0), step["labels"])
        elif op == "bell_measure_qt":
            src = step["state_label"]
            near, far = ebits[step["resource"]]
            if owner[near] != owner[src]:
                near, far = far, near
            if ideal:
                branches = [_moved(b, src, near, far) for b in branches]
                continue
            d = dict(branches[0].regs)[src]
            sigmas = _paulis(d)
            bell = [_ket(np.kron(s, np.eye(d)) @ _omega(d)) for s in sigmas]
            branches = [_apply(b, sigmas[b.pattern[-1]], [far])
                        for b in _measure(branches, op, bell, [src, near])]
        elif op == "remote_cnot":
            ctrl, tgt = step["control"], step["target"]
            near, far = ebits[step["resource"]]
            if owner[near] != owner[ctrl]:
                near, far = far, near
            x, z, cnot = _paulis(2)[2], _paulis(2)[1], np.eye(4)[[0, 1, 3, 2]]
            if ideal:
                branches = [_apply(_traced(b, [near, far]), cnot, [ctrl, tgt]) for b in branches]
                continue
            branches = [_apply(b, cnot, [ctrl, near]) for b in branches]
            branches = _measure(branches, op, _binary(np.diag([1.0, 0.0])), [near])
            branches = [_apply(b, np.linalg.matrix_power(x, b.pattern[-1]), [far]) for b in branches]
            branches = [_apply(b, cnot, [far, tgt]) for b in branches]
            branches = _measure(branches, op, _binary(np.full((2, 2), 0.5)), [far])
            branches = [_apply(b, np.linalg.matrix_power(z, b.pattern[-1]), [ctrl]) for b in branches]
    return branches


def _traced(b: Branch, labels) -> Branch:
    rho, regs = trace_out(b.rho, b.regs, labels)
    return b._replace(regs=regs, rho=rho)


def _moved(b: Branch, src: str, near: str, far: str) -> Branch:
    """The ideal teleportation: the ebit traced out, and the contents of
    ``src`` relabelled as the far half."""
    b = _traced(b, [near, far])
    return b._replace(regs=tuple((far if lab == src else lab, d) for lab, d in b.regs))


def canonical(rho: np.ndarray, regs) -> np.ndarray:
    """``rho`` with its tensor factors in sorted label order."""
    dims = [d for _, d in regs]
    order = sorted(range(len(regs)), key=lambda k: regs[k][0])
    n = len(regs)
    return rho.reshape(dims + dims).transpose(order + [n + k for k in order]).reshape(rho.shape)
