"""The benchmark's per-layer probes wrap bindings that must exist, and the
engine microbench runs on the engine as it is.

`bench/run.py:layer_probes` wraps named attributes of obliq's modules (the
binding each caller imported). A binding removed from obliq would otherwise
show up only as a failed traced benchmark run. The tracer reads each binding
from ``vars(owner)``, so an inherited or merely reachable attribute does not
count: the test applies the same rule. `tools/engine_microbench.py` calls
engine methods and the product measurements by name, so a changed signature
would otherwise show up only when the tool is run.
"""

import importlib
import math
import os
import timeit
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_layer_probe_binding_exists(monkeypatch):
    # Importing the bench driver pins the BLAS thread variables; keep them
    # scoped to this test.
    for var in BLAS_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = importlib.import_module("run")
    probes = run.layer_probes(run._import_obliq())
    assert probes
    missing = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in probes
        if p.attr not in vars(p.owner)
    ]
    assert missing == []


def _microbench(monkeypatch):
    """The microbench module, with BLAS pins scoped to the test and timeit's
    0.2-second autorange replaced by ten calls: a smoke test times nothing."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(TOOLS_DIR))
    monkeypatch.setattr(timeit.Timer, "autorange", lambda timer: (10, 0.0))
    return importlib.import_module("engine_microbench")


@pytest.mark.parametrize("big_d", [4, 16])
def test_engine_microbench_times_every_operation(monkeypatch, big_d):
    microbench = _microbench(monkeypatch)
    import obliq.distributed  # noqa: F401  (binds obliq.distributed)
    import obliq

    row = microbench.measure(obliq, big_d, repeat=1)
    ops = {"fork", "outcomes", "apply_local", "probability", "alloc_program", "measure", "discard"}
    assert set(row) == ops
    assert all(math.isfinite(us) and us > 0 for us in row.values())


def test_engine_microbench_times_every_product_measurement(monkeypatch):
    microbench = _microbench(monkeypatch)
    import obliq.oblivious  # noqa: F401  (binds obliq.oblivious)
    import obliq.superchannel  # noqa: F401  (binds obliq.superchannel)
    import obliq

    assert {f"multiparty.k{parts}" for parts in range(2, 6)} <= set(microbench.PRODUCTS)
    for name in microbench.PRODUCTS:
        row = microbench.measure_product(obliq, name, repeat=1)
        assert set(row) == {"us", "peak_mb"}
        assert all(math.isfinite(v) and v > 0 for v in row.values()), name
    # A layer over the kept-state cap (4^6 = 4,096) is recorded as refused.
    monkeypatch.setitem(microbench.PRODUCTS, "multiparty.k6", 4)
    row = microbench.measure_product(obliq, "multiparty.k6", repeat=1)
    assert row == {"refused": "CapacityError: layout dimension 4096 exceeds capacity 1024"}


def test_engine_microbench_times_every_knitting_row(monkeypatch):
    microbench = _microbench(monkeypatch)
    import obliq.distributed  # noqa: F401  (binds obliq.distributed)
    import obliq

    assert len(microbench.KNITS) == 17
    assert {f"knit_decompose.d{d}" for d in (4, 6, 8)} <= set(microbench.KNITS)
    for name in microbench.KNITS:
        row = microbench.measure_knit(obliq, name, repeat=1)
        first = {"first_us", "first_peak_mb"} if name.startswith("knit_decompose.") else set()
        assert set(row) == {"us", "peak_mb"} | first
        assert all(math.isfinite(v) and v > 0 for v in row.values()), name


def test_engine_microbench_times_every_law_draw(monkeypatch):
    microbench = _microbench(monkeypatch)
    import obliq.oblivious  # noqa: F401  (binds obliq.oblivious)
    import obliq

    assert set(microbench.LAWS) == {"law.binary", "law.d7", "law.k256"}
    for name in microbench.LAWS:
        row = microbench.measure_law(obliq, name, repeat=1)
        assert set(row) == {"us", "peak_mb"}
        assert all(math.isfinite(v) and v > 0 for v in row.values()), name


def test_engine_microbench_times_every_record_row(monkeypatch):
    microbench = _microbench(monkeypatch)
    monkeypatch.setattr(microbench, "RECORD_SHOTS", 50)
    import obliq.cli  # noqa: F401  (binds obliq.cli)
    import obliq

    assert set(microbench.RECORDS) == {"dbqc", "triparty-scheme1", "script-teleport", "knitting-sampled"}
    for name in microbench.RECORDS:
        row = microbench.measure_records(obliq, name, repeat=1)
        assert set(row) == {"ms", "peak_mb"}
        assert all(math.isfinite(v) and v > 0 for v in row.values()), name


def test_engine_microbench_times_every_walk_row(monkeypatch):
    microbench = _microbench(monkeypatch)
    import obliq.cli  # noqa: F401  (binds obliq.cli)
    import obliq

    assert microbench.WALKS == {"walk.300": 300, "walk.200000": 200_000}
    for name in microbench.WALKS:
        row = microbench.measure_walk(obliq, name, repeat=1)
        assert set(row) == {"us", "peak_mb"}
        assert all(math.isfinite(v) and v > 0 for v in row.values()), name
