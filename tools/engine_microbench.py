"""Per-operation microbench of `ProtocolEngine` at several joint dimensions,
and of the binary measurements of product states.

    python3 tools/engine_microbench.py [SRC] [--repeat 7]

Imports obliq from ``SRC`` (default: this checkout's ``src``), so two trees
can be timed by the same script on the same machine. For each joint
dimension D in (4, 8, 16, 216, 343) it builds a one-row engine as the
runners do: a d-dimensional program allocated beside a d-dimensional
system register (and a bystander that makes up D), where D = 4 is a lone
qubit program measured by an injection. Each operation is timed with
`timeit` in its best of ``--repeat`` repeats, in microseconds per call:

* ``fork``: `ProtocolEngine.fork`;
* ``alloc_program``: the program's allocation (D/d^2 -> D);
* ``outcomes``: the outcome table of the step's measurement (`_outcomes`);
* ``measure``: the outcome table and the collapse on outcome 0
  (`_measured` and its branch), which consumes the measured registers;
* ``discard``: the weighted trace of the measured registers;
* ``apply_local``: a d x d unitary on the program's out port;
* ``probability``: a projector's probability on the out port.

An operation that changes its engine runs on forks made before the clock
starts, one per call, so its time holds no fork.

The binary measurements of product states are timed the same way, and each
one's tracemalloc peak (MB) is taken over one call after a warm-up call:

* ``oqt_step`` at D = 216 and 343: a Haar unitary's program (d = 6, 7)
  and a pure system state;
* ``oqt_compose_choi`` at D = 256 and 625: two random channel programs
  (d = 4, 5) with 2 and 3 Kraus operators.

BLAS runs on one thread. The last line printed is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# D: (program dimension d, system register dimension or 0, bystander dimension).
DIMS = {4: (2, 0, 1), 8: (2, 2, 1), 16: (2, 2, 2), 216: (6, 6, 1), 343: (7, 7, 1)}


def _setup(obliq, d: int, system: int, bystander: int):
    """The engine before the program's allocation, the program, its
    unitary, and the labels and trivial projector of the binary measurement
    that follows it."""
    dist = obliq.distributed
    rng = np.random.default_rng(d)
    u = obliq.qmath.random_unitary(d, rng)
    program = obliq.channels.choi_of(u)
    eng = dist.ProtocolEngine("p")
    if bystander > 1:
        eng.alloc("p", "by", np.eye(bystander) / bystander)
    if system:
        eng.alloc("p", "sys", obliq.qmath.random_statevector(d, rng))
        p0, labels = obliq.oblivious.bell_projector(d), ["in", "sys"]
    else:
        p0, labels = np.diag([1.0, 0.0]).astype(complex), ["in"]
    return eng, program, u, labels, p0


def _best(fn, repeat: int) -> float:
    """Microseconds per call of ``fn``, in its best of ``repeat`` timings."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return round(min(timer.repeat(repeat=repeat, number=number)) / number * 1e6, 3)


def _best_on_forks(engine, op, repeat: int, number: int = 2000) -> float:
    """Microseconds per call of ``op`` on a fresh fork of ``engine``, the
    forks made before each timing, in the best of ``repeat`` timings, with
    the garbage collector off as `timeit` has it."""
    best = math.inf
    for _ in range(repeat):
        forks = [engine.fork() for _ in range(number)]
        gc.disable()  # as timeit does
        start = time.perf_counter()
        while forks:  # each fork and its new state are freed after its call
            op(forks.pop())
        best = min(best, time.perf_counter() - start)
        gc.enable()
    return round(best / number * 1e6, 3)


def measure(obliq, repeat: int) -> dict:
    dist = obliq.distributed
    out = {}
    for big_d, (d, system, bystander) in DIMS.items():
        base, program, u, labels, weight = _setup(obliq, d, system, bystander)
        projectors = dist._binary(weight)
        full = base.fork()
        full.alloc_program("p", program, "out", "in")
        assert full.layout.total_dim == big_d
        p0 = np.diag(np.arange(d) == 0).astype(complex)

        def apply_local():
            full.apply_local("p", u, ["out"])

        def collapse(eng):
            _, branch = dist._measured(eng, "p", projectors, labels)
            branch(np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))

        reading = {
            "fork": full.fork,
            "outcomes": lambda: full._outcomes("p", projectors, labels),
            "apply_local": apply_local,
            "probability": lambda: full.probability("p", p0, ["out"]),
        }
        consuming = {
            "alloc_program": (base, lambda eng: eng.alloc_program("p", program, "out", "in")),
            "measure": (full, collapse),
            "discard": (full, lambda eng: eng.discard(labels, weight)),
        }
        row = {name: _best(fn, repeat) for name, fn in reading.items()}
        row.update({name: _best_on_forks(*pair, repeat) for name, pair in consuming.items()})
        out[str(big_d)] = row
    return out


def _channel(obliq, d: int, count: int, rng):
    """The program of a random channel on d dimensions with ``count`` Kraus
    operators (blocks of a Haar isometry)."""
    iso = obliq.qmath.random_unitary(d * count, rng)[:, :d]
    kraus = tuple(iso[k * d : (k + 1) * d] for k in range(count))
    return obliq.channels.choi_of(obliq.channels.KrausChannel(kraus))


def _peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def measure_products(obliq, repeat: int) -> dict:
    rng = np.random.default_rng(0)
    calls = {}
    for d in (6, 7):
        program = obliq.channels.choi_of(obliq.qmath.random_unitary(d, rng))
        system = obliq.qmath.random_statevector(d, rng)
        calls[f"oqt_step.{d**3}"] = lambda p=program, v=system: obliq.oblivious.oqt_step(p, v)
    for d in (4, 5):
        p1, p2 = _channel(obliq, d, 2, rng), _channel(obliq, d, 3, rng)
        calls[f"oqt_compose_choi.{d**4}"] = lambda a=p1, b=p2: obliq.superchannel.oqt_compose_choi(a, b)
    return {name: {"us": _best(fn, repeat), "peak_mb": _peak_mb(fn)} for name, fn in calls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import obliq.distributed  # noqa: F401  (binds obliq.distributed)
    import obliq

    result = {
        "src": str(Path(args.src).resolve()),
        "us_per_call": measure(obliq, args.repeat),
        "product_measurements": measure_products(obliq, args.repeat),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
