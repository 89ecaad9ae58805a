"""Independent reference values and checks for the benchmark's jobs.

Each target is computed in plain numpy from the job's input literals,
without obliq's simulators: the ideal probability or expectation value the
protocol estimates. An exact job passes when its estimate lies within an
absolute bound of the target.

A sampled job is checked through its records. Each record falls into a
*group*, named by its branch pattern: the ISI bit and the parity bits, or the
teleportation byproducts. The reference gives every group in closed form:

- its probability, so each group's shot count is checked;
- the chance that a shot in it reads out 0, so each group's readout-0 count,
  and their sum over the groups, is checked;
- the per-shot estimate each readout implies, so the job's estimate must
  equal the mean of these over its shots (and a record that carries its own
  per-shot estimate must carry this one).

Every statistical check allows ``Z_BOUND`` binomial standard deviations plus
one count. Where the estimator is a bounded average (triparty, scripts,
sampled knitting), the estimate is also checked against the target, within
``Z_BOUND`` standard deviations of the estimator plus 1 / shots.

The dbqc and ping-pong estimators invert the parity mixing with a weight
(d^2 - 1)^s per shot, so their standard error at the shot counts a pass can
afford spans many times the target's range [0, 1]: an estimate check there
would accept anything. Their readout enters the checks above through
q(b, s) = alpha_s + (-1)^s T_b / (d^2 - 1)^s instead, which tests the branch
law, every q and the inversion. How far those checks resolve T itself is set
by the estimator: the weight of T in q falls as 1 / (d^2 - 1)^s.

Each check reports its half-width: for counts, as a share of the job's
shots; for an estimate, in the estimate's units. A check is informative only
while that half-width is well inside the target's range; the self-tests hold
every check of every generated job to ``MAX_HALF_WIDTH``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

# At six standard deviations a correct program fails a check about once in
# 5e8 checks. The extra count (or 1 / shots) is the resolution of a
# frequency, whose standard deviation is 0 when every shot agrees.
Z_BOUND = 6.0
# Exact estimates. The OQT chain inverts the parity mixing with a factor
# (d^2 - 1)^s, which amplifies rounding: at d = 6 the error grows about 35-fold
# per step, to about 1e-7 at n = 6 and 1e-4 at n = 8, so chains stop at n = 6.
EXACT_BOUND = 1e-9
CHAIN_BOUND = 1e-5
# A record's per-shot estimate and the job's mean must match the closed form
# to rounding, relative to the largest per-shot weight.
ROUNDING = 1e-9
# The widest half-width a check of a generated job may have, as a share of
# the target's range [0, 1].
MAX_HALF_WIDTH = 0.25


@dataclass(frozen=True)
class Group:
    """One branch pattern of a sampled job."""

    probability: float
    # chance of readout 0 in this group; None when the estimate ignores it
    hit: float | None = None
    # per-shot estimate for readout 0 and for readout 1; None: not in the mean
    estimate: tuple[float, float] | None = None


@dataclass(frozen=True)
class Law:
    """How a sampled job's records are distributed, group by group."""

    groups: dict[tuple, Group]
    key: Callable[[dict], tuple]  # the group of a record
    readout: str  # the record field that holds the readout bit
    # records carry their own per-shot estimate in this field
    per_shot: str | None = None


@dataclass(frozen=True)
class Verdict:
    check: str
    ok: bool
    half_width: float
    detail: str = ""


@dataclass(frozen=True)
class Target:
    value: float
    exact: bool
    bound: float = EXACT_BOUND
    # channel_composition: the trivial-branch probability its records must show
    branch_probability: float | None = None
    law: Law | None = None
    # checked against the target: "law" (its closed-form standard deviation)
    # or "records" (the standard deviation of the records' "value" fields)
    estimate_sd: str | None = None


# --- literal parsing ---


def matrix(lit) -> np.ndarray:
    return np.array(
        [[complex(c, 0.0) if isinstance(c, (int, float)) else complex(*c) for c in row] for row in lit]
    )


def gate(lit) -> np.ndarray:
    return matrix(lit["matrix"])


def vector(lit) -> np.ndarray:
    if "basis" in lit:
        v = np.zeros(lit["dim"], dtype=complex)
        v[lit["basis"]] = 1.0
        return v
    v = np.array([complex(*c) for c in lit["vector"]])
    return v / np.linalg.norm(v)


def overlap(readout: np.ndarray, u: np.ndarray, psi: np.ndarray) -> float:
    """|<readout| u |psi>|^2."""
    return float(abs(np.vdot(readout, u @ psi)) ** 2)


def chain(gates) -> np.ndarray:
    """The product of ``gates`` applied in list order (first gate acts first)."""
    return reduce(lambda acc, g: g @ acc, gates, np.eye(gates[0].shape[0], dtype=complex))


# --- closed forms of the oblivious chain ---


def alpha(s: int, d: int) -> float:
    """Identity weight after s parity flips: rho -> alpha_s I + weight(s) rho."""
    return (1.0 - (-1.0) ** s / (d * d - 1.0) ** s) / d


def weight(s: int, d: int) -> float:
    return (-1.0) ** s / (d * d - 1.0) ** s


def binomial(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def _chain_law(t0: float, d: int, links: int, isi: bool) -> dict[tuple, Group]:
    """Groups (b, s) of a chain of ``links`` OQT links, after an ISI
    injection whose bit is b when ``isi``; each link flips with chance
    1 - 1/d^2. Readout 0 has chance q = alpha_s + weight(s) T_b, where
    T_0 is the target and T_1 = (1 - T_0) / (d - 1), the overlap of the
    complement the failed injection leaves. The per-shot estimate inverts q."""
    flip = 1.0 - 1.0 / d**2
    groups = {}
    for b in (0, 1) if isi else (0,):
        p_b = (1.0 / d if b == 0 else 1.0 - 1.0 / d) if isi else 1.0
        t_b = t0 if b == 0 else (1.0 - t0) / (d - 1)
        for s in range(links + 1):
            inv = [(hit - alpha(s, d)) / weight(s, d) for hit in (1.0, 0.0)]
            est = tuple(v if b == 0 else 1.0 - (d - 1) * v for v in inv)
            groups[(b, s)] = Group(
                p_b * binomial(links, s, flip), alpha(s, d) + weight(s, d) * t_b, est
            )
    return groups


# --- per-kind targets ---


def _dbqc(sc) -> Target:
    programs = sc["alice_programs"] + sc["bob_programs"]
    psi = vector(sc["input_state"])
    t0 = overlap(vector(sc["readout_state"]), chain([gate(g) for g in programs]), psi)
    law = Law(
        _chain_law(t0, len(psi), len(programs), isi=True),
        key=lambda r: (r["isi_bit"], sum(r["parity_bits"])),
        readout="readout",
        per_shot="estimate",
    )
    return Target(t0, exact=False, law=law)


def _pingpong(sc) -> Target:
    psi = vector(sc["input_state"])
    t0 = overlap(vector(sc["readout_state"]), chain([gate(g) for g in sc["programs"]]), psi)

    def key(r):
        if r["s"] != sum(r["parity_bits"]):
            return ("s differs from the parity bits", r["s"])
        return (0, r["s"])

    law = Law(_chain_law(t0, len(psi), len(sc["programs"]), isi=False), key, "readout", "estimate")
    return Target(t0, exact=False, law=law)


def _complement(v: np.ndarray) -> np.ndarray:
    """The state a failed injection of ``v`` leaves: (I - |v><v|) / (d - 1)."""
    d = len(v)
    return (np.eye(d) - np.outer(v, v.conj())) / (d - 1)


def _triparty(sc) -> Target:
    ua, ub, uc = gate(sc["a_program"]), gate(sc["b_program"]), gate(sc["nonlocal_program"])
    psi_a, psi_b, out = vector(sc["psi_a"]), vector(sc["psi_b"]), vector(sc["readout_state"])
    t0 = overlap(out, uc @ np.kron(ua, ub), np.kron(psi_a, psi_b))
    da, db = len(psi_a), len(psi_b)
    if sc["scheme"] == "II":
        # every path's byproducts are corrected, so each group reads out T
        groups = {
            (m1, m2, tele): Group(1.0 / (4 * db * db), t0, (1.0, 0.0))
            for m1 in (0, 1) for m2 in (0, 1) for tele in range(db * db)
        }
        law = Law(groups, lambda r: (r["m1"], r["m2"], r["teleport"]), "y")
        return Target(t0, exact=False, law=law, estimate_sd="law")
    # Scheme I: ISI bits (b_a, b_b), then one link each with parity i, j.
    # Only shots with i = j = 0 are kept; their readout is checked in closed
    # form and estimates T through t = (1 + eta da db [y = 0]) / 2, with
    # eta = +1 when both injections succeeded and -1 otherwise.
    rho = {
        (party, b): u @ (np.outer(v, v.conj()) if b == 0 else _complement(v)) @ u.conj().T
        for party, u, v in (("a", ua, psi_a), ("b", ub, psi_b))
        for b in (0, 1)
    }
    groups = {}
    for ba in (0, 1):
        for bb in (0, 1):
            p_isi = (1.0 / da if ba == 0 else 1.0 - 1.0 / da) * (1.0 / db if bb == 0 else 1.0 - 1.0 / db)
            sigma = uc @ np.kron(rho["a", ba], rho["b", bb]) @ uc.conj().T
            q = float(np.vdot(out, sigma @ out).real)
            eta = 1.0 if ba == bb == 0 else -1.0
            for i in (0, 1):
                for j in (0, 1):
                    p_link = (1.0 / da**2 if i == 0 else 1.0 - 1.0 / da**2) * (
                        1.0 / db**2 if j == 0 else 1.0 - 1.0 / db**2
                    )
                    kept = i == j == 0
                    groups[(ba, bb, i, j)] = Group(
                        p_isi * p_link,
                        q if kept else None,
                        (0.5 * (1.0 + eta * da * db), 0.5) if kept else None,
                    )
    law = Law(groups, lambda r: (r["b_a"], r["b_b"], r["i"], r["j"]), "y")
    return Target(t0, exact=False, law=law, estimate_sd="law")


def _knitting(sc) -> Target:
    n, d = sc["num_qudits"], sc.get("local_dim", 2)
    u = np.eye(d**n, dtype=complex)
    for g in sc["gates"]:
        targets = g["targets"]
        first = targets[0]
        if targets != list(range(first, first + len(targets))):
            raise ValueError("the reference embeds gates on ascending neighbouring qudits only")
        left = np.eye(d**first)
        right = np.eye(d ** (n - first - len(targets)))
        u = np.kron(np.kron(left, gate(g)), right) @ u
    if "input_state" in sc:
        psi = vector(sc["input_state"])
    else:
        psi = np.zeros(d**n, dtype=complex)
        psi[0] = 1.0
    out = u @ psi
    value = float(np.vdot(out, matrix(sc["observable"]) @ out).real)
    if sc.get("mode", "exact_sum") == "exact_sum":
        return Target(value, exact=True)
    return Target(value, exact=False, estimate_sd="records")


def _channel_composition(sc) -> Target:
    """The oblivious composition must agree with the direct one (distance 0)
    and fire its trivial Bell branch with probability 1/d^2."""
    d = len(sc["channels"][0]["kraus"][0])
    return Target(0.0, exact=True, bound=sc["tolerance"], branch_probability=1.0 / d**2)


def _script(sc) -> Target:
    """Follow the one logical state through local gates and teleportations;
    a teleportation with its byproduct corrected is the identity, and each
    byproduct is uniform over the d^2 Pauli corrections."""
    ebit_ends = {}
    hops = []
    where, psi = None, None
    for step in sc["steps"]:
        op = step["op"]
        if op == "prepare_state":
            where, psi = step["label"], vector(step["state"])
        elif op == "distribute_ebit":
            ebit_ends[step["resource"]] = (step["label_a"], step["label_b"])
        elif op == "local_gate":
            if step["labels"] != [where]:
                raise ValueError("the reference follows one-register scripts only")
            psi = gate(step["gate"]) @ psi
        elif op == "bell_measure_qt":
            if step["state_label"] != where:
                raise ValueError("teleported register is not the tracked state")
            where = ebit_ends[step["resource"]][1]
            hops.append(step["record"])
        elif op == "final_measure":
            t0 = float(abs(np.vdot(vector(step["state"]), psi)) ** 2)
            d2 = len(psi) ** 2
            groups = {
                pattern: Group(1.0 / d2 ** len(hops), t0, (1.0, 0.0))
                for pattern in np.ndindex(*(d2,) * len(hops))
            }
            law = Law(groups, lambda r: tuple(r["bits"][h] for h in hops), "readout")
            return Target(t0, exact=False, law=law, estimate_sd="law")
    raise ValueError("script has no final_measure")


def _oqt_chain(inputs) -> Target:
    u = chain([matrix(m) for m in inputs["unitaries"]])
    out = u @ vector(inputs["input_state"])
    value = float(np.vdot(out, matrix(inputs["observable"]) @ out).real)
    return Target(value, exact=True, bound=CHAIN_BOUND)


_KINDS = {
    "dbqc": _dbqc,
    "pingpong": _pingpong,
    "triparty": _triparty,
    "knitting": _knitting,
    "channel_composition": _channel_composition,
    "script": _script,
}


def target(job) -> Target:
    if job.kind == "oqt":
        return _oqt_chain(job.inputs)
    return _KINDS[job.inputs["kind"]](job.inputs)


# --- checks ---


def _count_check(name: str, seen: float, mean: float, var: float, shots: int) -> Verdict:
    slack = Z_BOUND * math.sqrt(max(var, 0.0)) + 1.0
    return Verdict(
        name, abs(seen - mean) <= slack, slack / shots, f"{seen:g} against {mean:.6g} +- {slack:.3g}"
    )


def law_moments(law: Law) -> tuple[float, float, float]:
    """Chance that a shot enters the estimate, and the estimator's mean and
    standard deviation per entering shot, from the closed form alone."""
    m0 = m1 = m2 = 0.0
    for g in law.groups.values():
        if g.estimate is None:
            continue
        e0, e1 = g.estimate
        m0 += g.probability
        m1 += g.probability * (g.hit * e0 + (1.0 - g.hit) * e1)
        m2 += g.probability * (g.hit * e0**2 + (1.0 - g.hit) * e1**2)
    mean = m1 / m0
    return m0, mean, math.sqrt(max(m2 / m0 - mean**2, 0.0))


def check_exact(target: Target, estimate: float) -> Verdict:
    ok = math.isfinite(estimate) and abs(estimate - target.value) <= target.bound
    return Verdict("estimate", ok, target.bound, f"{estimate!r} against target {target.value!r}")


def check_sampled(target: Target, estimate: float, shots: int, records: list[dict]) -> list[Verdict]:
    """Every check of a sampled job's records and estimate."""
    out = []
    if not math.isfinite(estimate):
        return [Verdict("estimate", False, math.inf, f"estimate {estimate!r}")]
    law = target.law
    if law is not None:
        count, hits = {}, {}
        per_shot, largest, mismatch = [], 1.0, 0
        unknown = set()
        for rec in records:
            key = law.key(rec)
            group = law.groups.get(key)
            if group is None:
                unknown.add(key)
                continue
            count[key] = count.get(key, 0) + 1
            y = rec[law.readout]
            hits[key] = hits.get(key, 0) + (y == 0)
            if group.estimate is not None:
                t = group.estimate[0 if y == 0 else 1]
                per_shot.append(t)
                largest = max(largest, abs(t))
                if law.per_shot is not None and abs(rec[law.per_shot] - t) > ROUNDING * max(1.0, abs(t)):
                    mismatch += 1
        if unknown:
            out.append(Verdict("groups", False, 0.0, f"records outside the law: {sorted(unknown)[:4]}"))
        for key, group in law.groups.items():
            p = group.probability
            out.append(_count_check(f"shots{key}", count.get(key, 0), shots * p, shots * p * (1 - p), shots))
        pooled_mean = pooled_var = pooled_seen = 0.0
        for key, n in count.items():
            q = law.groups[key].hit
            if q is None:
                continue
            out.append(_count_check(f"readout0{key}", hits[key], n * q, n * q * (1 - q), shots))
            pooled_seen += hits[key]
            pooled_mean += n * q
            pooled_var += n * q * (1 - q)
        out.append(_count_check("readout0", pooled_seen, pooled_mean, pooled_var, shots))
        if law.per_shot is not None:
            out.append(Verdict("per_shot", mismatch == 0, 0.0, f"{mismatch} records differ from the closed form"))
        if per_shot:
            mean = math.fsum(per_shot) / len(per_shot)
            ok = abs(estimate - mean) <= ROUNDING * largest
            out.append(Verdict("mean", ok, 0.0, f"estimate {estimate!r} against mean {mean!r}"))
        entering = len(per_shot)
    else:
        entering = shots
    if target.estimate_sd == "law":
        sd = law_moments(law)[2]
    elif target.estimate_sd == "records":
        values = np.array([rec["value"] for rec in records], dtype=float)
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        mean = math.fsum(values) / max(len(values), 1)
        ok = abs(estimate - mean) <= ROUNDING * max(1.0, float(np.abs(values).max(initial=0.0)))
        out.append(Verdict("mean", ok, 0.0, f"estimate {estimate!r} against mean {mean!r}"))
    else:
        return out
    if entering == 0:
        return out + [Verdict("estimate", False, math.inf, "no shot enters the estimate")]
    slack = Z_BOUND * sd / math.sqrt(entering) + 1.0 / entering
    ok = abs(estimate - target.value) <= slack
    out.append(Verdict("estimate", ok, slack, f"{estimate!r} against target {target.value!r} +- {slack:.3g}"))
    return out


def read_records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]
