"""Per-operation microbench of `ProtocolEngine` at several joint dimensions,
of the binary measurements of product states, and of large literals.

    python3 tools/engine_microbench.py [SRC] [--repeat 7]

Imports obliq from ``SRC`` (default: this checkout's ``src``), so two trees
can be timed by the same script on the same machine. Each joint dimension,
each product measurement and each literal is timed in a child process of its
own, so no timing follows another's allocations (glibc's dynamic mmap
threshold moved timings at D >= 216 by 7-9% when they followed the small-D
ones in one process). Children also run with glibc's mmap and trim
thresholds fixed (`MALLOC_ENV`, unless the caller sets them), so a large
array reuses the heap as in a long-running process: with the dynamic
threshold, `apply_local` at D = 216 read 231 or 380 us per call from one
child to the next, by whether its temporaries were fresh mmaps.

For each joint dimension D in (4, 8, 16, 216, 343) it builds a one-row engine as the
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

The literals are knitting scenarios whose observable is a 256 x 256 real
symmetric matrix of JSON ints (``obs256-int``) or floats (``obs256-float``),
or a 64 x 64 Hermitian matrix of ``[re, im]`` pairs (``obs64-pairs``). For
each, in milliseconds per call: ``load_scenario`` (reading and decoding the
file), ``validate_scenario`` of the decoded scenario, and the
``resolved-scenario`` writer ``_indented_json``.

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
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
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


def measure(obliq, big_d: int, repeat: int) -> dict:
    """The engine's operations at joint dimension ``big_d``."""
    dist = obliq.distributed
    d, system, bystander = DIMS[big_d]
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
    return row


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


# Product measurement at joint dimension D: its local dimension d.
PRODUCTS = {"oqt_step.216": 6, "oqt_step.343": 7, "oqt_compose_choi.256": 4, "oqt_compose_choi.625": 5}


def measure_product(obliq, name: str, repeat: int) -> dict:
    """One product measurement: µs per call and its tracemalloc peak."""
    kind, big_d = name.split(".")
    rng, d = np.random.default_rng(int(big_d)), PRODUCTS[name]
    if kind == "oqt_step":
        program = obliq.channels.choi_of(obliq.qmath.random_unitary(d, rng))
        system = obliq.qmath.random_statevector(d, rng)
        fn = lambda: obliq.oblivious.oqt_step(program, system)  # noqa: E731
    else:
        p1, p2 = _channel(obliq, d, 2, rng), _channel(obliq, d, 3, rng)
        fn = lambda: obliq.superchannel.oqt_compose_choi(p1, p2)  # noqa: E731
    return {"us": _best(fn, repeat), "peak_mb": _peak_mb(fn)}


LITERALS = ("obs256-int", "obs256-float", "obs64-pairs")


def _literal_scenario(name: str) -> dict:
    """A knitting scenario whose observable is the literal ``name``."""
    rng = np.random.default_rng(7)
    if name == "obs64-pairs":
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        h = (a + a.conj().T) / 2
        observable, width = [[[z.real, z.imag] for z in row] for row in h.tolist()], 6
    else:
        a = rng.integers(-9, 10, size=(256, 256)) if name == "obs256-int" else rng.normal(size=(256, 256))
        observable, width = (a + a.T).tolist(), 8
    return {
        "version": 1,
        "kind": "knitting",
        "seed": 1,
        "shots": 1,
        "mode": "exact_sum",
        "num_qudits": width,
        "local_dim": 2,
        "gates": [{"name": "CZ", "targets": [0, 1], "cut": True}],
        "observable": observable,
    }


def measure_literal(obliq, name: str, repeat: int) -> dict:
    """ms per call of reading, validating and echoing the literal ``name``."""
    import obliq.cli as cli

    raw = _literal_scenario(name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(raw))
        assert cli.load_scenario(path) == raw
        calls = {
            "load_scenario": lambda: cli.load_scenario(path),
            "validate_scenario": lambda: cli.validate_scenario(raw),
            "_indented_json": lambda: cli._indented_json(raw),
        }
        return {op: round(_best(fn, repeat) / 1e3, 4) for op, fn in calls.items()}


SECTIONS = {
    "us_per_call": ([str(d) for d in DIMS], lambda obliq, key, r: measure(obliq, int(key), r)),
    "product_measurements": (PRODUCTS, measure_product),
    "literals_ms": (LITERALS, measure_literal),
}


MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def _in_child(src: str, section: str, key: str, repeat: int) -> dict:
    """One measurement, made in a fresh interpreter."""
    cmd = [sys.executable, __file__, src, "--repeat", str(repeat), "--only", f"{section}:{key}"]
    env = {**MALLOC_ENV, **os.environ}
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--only", help=argparse.SUPPRESS)  # SECTION:KEY, as run in a child
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    if args.only:
        sys.path.insert(0, src)
        import obliq.distributed  # noqa: F401  (binds obliq.distributed)
        import obliq

        section, key = args.only.split(":")
        print(json.dumps(SECTIONS[section][1](obliq, key, args.repeat)))
        return 0
    result = {"src": src}
    for section, (keys, _) in SECTIONS.items():
        result[section] = {key: _in_child(src, section, key, args.repeat) for key in keys}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
