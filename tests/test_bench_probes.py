"""The benchmark's per-layer probes wrap bindings that must exist.

`bench/run.py:layer_probes` wraps named attributes of obliq's modules (the
binding each caller imported). A binding removed from obliq would otherwise
show up only as a failed traced benchmark run. The tracer reads each binding
from ``vars(owner)``, so an inherited or merely reachable attribute does not
count: the test applies the same rule.
"""

import importlib
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_layer_probe_binding_exists(monkeypatch):
    # Importing the bench driver pins the BLAS thread variables; keep them
    # scoped to this test.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
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
