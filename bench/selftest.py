"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import csv
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run._import_obliq().cli

SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.write_inputs(workloads.generate(workload, 7), tmp_path / "a")
    again = workloads.write_inputs(workloads.generate(workload, 7), tmp_path / "b")
    other = workloads.write_inputs(workloads.generate(workload, 8), tmp_path / "c")
    assert list(first) == list(again) == list(other)
    for name in first:
        assert first[name].read_bytes() == again[name].read_bytes()
        assert first[name].read_bytes() != other[name].read_bytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_scenarios_validate(workload, seed, tmp_path, capsys):
    jobs = workloads.generate(workload, seed)
    paths = workloads.write_inputs(jobs, tmp_path)
    scenarios = [job for job in jobs if job.kind == "cli"]
    assert scenarios
    for job in scenarios:
        assert cli.main(["validate", str(paths[job.name])]) == 0, capsys.readouterr().err


def _one_pass(workload: str, seed: int, tmp_path) -> tuple[run.Workload, dict]:
    wl = run.Workload(workload, seed, tmp_path, run._import_obliq())
    _, _, raw = wl.run_pass(run.Calibration(run.CALIBRATION[workload]))
    return wl, raw


def _sampled_outputs(wl: run.Workload):
    """(job, target, estimate, records) of each sampled scenario job."""
    for job in wl.jobs:
        target = wl.targets[job.name]
        if job.kind == "cli" and not target.exact:
            out = wl.out[job.name]
            with open(out / "summary.csv", newline="") as fh:
                estimate = float(next(csv.DictReader(fh))["estimate"])
            yield job, target, estimate, reference.read_records((out / "records.jsonl").read_bytes())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_check_resolves_its_target(workload, seed, tmp_path):
    """Every generated job passes, and no check is wider than MAX_HALF_WIDTH
    of the target's range: a check that wide would pass anything. Each
    sampled job is checked on its readout."""
    wl, raw = _one_pass(workload, seed, tmp_path)
    facts, failures = wl.check(raw)
    assert failures == {}
    for fact in facts:
        assert fact["widest_check"][1] <= reference.MAX_HALF_WIDTH, fact
    for job, target, estimate, records in _sampled_outputs(wl):
        verdicts = reference.check_sampled(target, estimate, job.shots, records)
        assert {"readout0", "estimate"} & {v.check for v in verdicts}, job.name
        if target.law is not None:
            # the closed form is a distribution whose estimator averages to the target
            entering, mean, _ = reference.law_moments(target.law)
            assert entering > 0
            assert mean == pytest.approx(target.value, abs=1e-9)
            assert sum(g.probability for g in target.law.groups.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checker_flags_perturbed_outputs(workload, tmp_path):
    wl, _ = _one_pass(workload, run.DEFAULT_SEED, tmp_path)
    for job in wl.jobs:
        target = wl.targets[job.name]
        if target.exact:
            assert reference.check_exact(target, target.value).ok
            assert not reference.check_exact(target, target.value + 10 * target.bound).ok
            assert not reference.check_exact(target, float("nan")).ok
    for job, target, estimate, records in _sampled_outputs(wl):

        def failed(est, recs):
            return {v.check for v in reference.check_sampled(target, est, job.shots, recs) if not v.ok}

        assert failed(estimate, records) == set(), job.name
        assert failed(estimate + 0.5, records), job.name
        assert failed(float("nan"), records), job.name
        if target.law is None:
            continue
        # every other shot of each group moved to the group's less likely readout
        moved = []
        for n, rec in enumerate(records):
            group = target.law.groups[target.law.key(rec)]
            if group.hit is not None and n % 2 == 0:
                rec = {**rec, target.law.readout: int(group.hit > 0.5)}
            moved.append(rec)
        assert any(c.startswith(("readout0", "estimate")) for c in failed(estimate, moved)), job.name


def test_checker_flags_perturbed_artifacts(tmp_path):
    wl, raw = _one_pass("shots", run.DEFAULT_SEED, tmp_path)
    facts, failures = wl.check(raw)
    assert failures == {}
    assert [f["records"] for f in facts] == [job.shots for job in wl.jobs]

    victim = wl.jobs[0]
    summary = wl.out[victim.name] / "summary.csv"
    header, row = summary.read_text().splitlines()
    fields = row.split(",")
    column = header.split(",").index("estimate")
    fields[column] = repr(float(fields[column]) + 0.5)
    summary.write_text(header + "\n" + ",".join(fields) + "\n")
    records = wl.out[victim.name] / "records.jsonl"
    records.write_text("".join(records.read_text().splitlines(keepends=True)[:-1]))

    _, failures = wl.check(raw)
    assert list(failures) == [victim.name]
    assert any("records for" in f for f in failures[victim.name])
    assert any("against target" in f for f in failures[victim.name])

    _, failures = wl.check({**raw, victim.name: 6})
    assert failures == {victim.name: ["exit code 6"]}


def test_self_time_is_span_minus_children():
    spans = [
        tracing.Span("root", 0.0, 10.0, -1, "j"),
        tracing.Span("a", 1.0, 4.0, 0, "j"),
        tracing.Span("a.inner", 2.0, 3.0, 1, "j"),
        tracing.Span("b", 3.0, 6.0, 0, "j"),  # overlaps a: counted once
        tracing.Span("c", 8.0, 12.0, 0, "j"),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    totals = tracing.layer_totals(spans, {"x.count": 2})
    assert totals["root.self_s"] == pytest.approx(3.0)
    assert totals["a.calls"] == 1
    assert totals["x.count"] == 2


def test_tracer_links_parents_and_restores_bindings():
    layer = types.ModuleType("layer")

    def inner(x):
        return x + 1

    def outer(x):
        return layer.inner(x) * 2

    layer.inner, layer.outer = inner, outer
    tracer = tracing.Tracer()
    probes = [
        tracing.Probe(layer, "outer", "layer.outer"),
        tracing.Probe(layer, "inner", lambda x: f"layer.inner.{x}", tally=lambda x: 16 * x),
    ]
    tracer.job = "job-1"
    with tracer.installed(probes):
        assert layer.outer(3) == 8
    assert (layer.inner, layer.outer) == (inner, outer)
    spans = tracer.spans()
    assert [(s.name, s.parent, s.job) for s in spans] == [
        ("layer.outer", -1, "job-1"),
        ("layer.inner.3", 0, "job-1"),
    ]
    assert tracer.counts["layer.inner.3.bytes"] == 48
    # a probe on a binding that no longer exists stops the run
    with pytest.raises(KeyError):
        with tracer.installed(probes + [tracing.Probe(layer, "absent", "layer.absent")]):
            pass
    assert (layer.inner, layer.outer) == (inner, outer)


def test_tail_keeps_ten_passes_beyond():
    value, percentile = run.tail([float(v) for v in range(1, 21)])
    assert (value, percentile) == (10.0, 50.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
